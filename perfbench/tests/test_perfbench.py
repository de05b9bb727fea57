"""The benchmark's own tests, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from perfbench import env, remote, workloads
from perfbench.metrics import END_TO_END, PER_LAYER
from repro.net import serve_in_thread
from repro.serve import EstimationService

RUN = [sys.executable, str(env.ROOT / "perfbench" / "run.py")]


def run_cli(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        RUN + list(args), cwd=env.ROOT, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize(
    "trace, names", [(0, END_TO_END), (1, PER_LAYER)], ids=["end-to-end", "per-layer"]
)
def test_every_metric_with_its_unit(workload, trace, names):
    code, lines = run_cli(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    result = result_of(lines)
    assert code == 0, lines[-15:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    # The report above the result line names each metric with its sample count.
    report = "\n".join(lines[:-1])
    for name in names:
        assert f"  {name} " in report
    if trace:
        stages = [n for n in names if n.startswith("net.") and n.endswith("_ms")]
        assert all(result["metrics"][n]["value"] >= 0.0 for n in stages)


#: Per-layer metrics that are counts (or ratios of counts), not timings.
COUNT_METRICS = [
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "B", "B/probe") or name in (
        "serve.tables.hit_ratio", "serve.service.degraded_frac"
    )
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_qerrors_repeat_for_one_seed(workload):
    def twice(trace: str) -> list[dict]:
        return [
            result_of(run_cli("--workload", workload, "--seed", "5", "--seconds", "1",
                              "--trace", trace, "--scale", "tiny")[1])["metrics"]
            for _ in range(2)
        ]

    first, second = twice("0")
    for name in ("est_qerror_p50", "est_qerror_p95"):
        assert first[name] == second[name], name
    first, second = twice("1")
    for name in COUNT_METRICS:
        assert first[name] == second[name], name


class OneWrongBit(EstimationService):
    """Flips the lowest bit of the first answer of every batch."""

    def estimate_batch(self, probes, **kwargs):
        out = super().estimate_batch(probes, **kwargs).copy()
        out.view(np.uint64)[0] ^= 1
        return out


def test_wrong_bit_over_the_wire_is_a_failed_batch():
    spec = workloads.data.remote_spec(3, "tiny")
    catalog, _ = workloads.data.analyze_all(spec, workloads.data.materialize(spec, 3))
    batches, _ = workloads.remote_batches(spec, 3, 4, 20)
    honest = EstimationService(catalog)
    expected = [honest.estimate_batch(b) for b in batches]
    with serve_in_thread(OneWrongBit(catalog)) as handle:
        client = remote.net_client.EstimationClient(*handle.address)
        try:
            run = remote.drive(client, batches, expected, count=4)
        finally:
            client.close()
    assert run.batches == 4 and run.failed == 4


def test_wrong_bit_in_process_fails_the_run(monkeypatch, tmp_path):
    original = EstimationService.estimate_batch

    def stub(self, probes, **kwargs):
        out = original(self, probes, **kwargs)
        if self.name.startswith("perfbench-wide"):
            out = out.copy()
            out.view(np.uint64)[-1] ^= 1
        return out

    monkeypatch.setattr(EstimationService, "estimate_batch", stub)
    cfg = workloads.Config("catalog-wide", 3, 0.5, False, "tiny", tmp_path)
    outcome = workloads.run_catalog_wide(cfg)
    assert outcome.failed > 0
    assert outcome.metrics.as_json()["success_frac"]["value"] < 1.0


def test_cli_exits_nonzero_on_a_failed_check(monkeypatch, capsys):
    from perfbench import run

    def failing(cfg):
        outcome = workloads.new_outcome(cfg)
        outcome.count(10, 1, ["stub: wrong answer"])
        return outcome

    monkeypatch.setitem(workloads.RUNNERS, "remote-mixed", failing)
    code = run.main(["--workload", "remote-mixed", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_no_program_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (env.ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "remote-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
