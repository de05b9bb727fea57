"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload remote-mixed --seed 1 --seconds 20 --trace 0

Prints the provenance, then every metric with its unit and sample count,
then -- as the last line -- one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
also writes its spans to ``.perfbench_run/spans-<workload>-<seed>.jsonl``.

Exit codes: 0 when every answer checked out, 1 when a correctness check
failed (wrong answer, exception, timeout, unclean recovery), 2 when the
checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("remote-mixed", "catalog-wide", "maintain-mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every input (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        env.bootstrap()
    except (env.MissingProgramError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import workloads

    run_dir = env.make_run_dir(args.workload, args.seed)
    provenance = env.provenance(args.seed, run_dir)
    provenance.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("provenance: " + json.dumps(provenance), flush=True)
    cfg = workloads.Config(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        run_dir=run_dir,
    )
    tracer_out = env.ROOT / ".perfbench_run" / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        outcome = workloads.RUNNERS[args.workload](cfg)
    except Exception:  # the run is unusable: report, print no result line
        traceback.print_exc()
        print("perfbench: the run failed before producing a result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if outcome.tracer is not None:
        outcome.tracer.write(tracer_out)
    missing = outcome.metrics.missing()
    correct = outcome.failed == 0 and not missing
    print(f"{args.workload} ({'per-layer' if args.trace else 'end-to-end'}):")
    for line in outcome.metrics.report_lines():
        print(line)
    for error in outcome.errors:
        print(f"  error: {error}")
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics.as_json(),
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
