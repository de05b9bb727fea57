"""The benchmark's server launcher: one ``EstimationServer`` in its own process.

Builds the same seeded catalog as the parent, binds ``127.0.0.1`` on a
port the OS picks, prints ``READY <host> <port>`` and serves until its
standard input closes.  Commands on standard input, one per line, each
answered by one JSON line on standard output:

* ``stats`` -- per-batch ``EstimationService.estimate_batch`` wall times
  (milliseconds, in arrival order) recorded by a wrapper installed here
  when started with ``--trace``; empty otherwise.
* ``reset`` -- forget the recorded times.

Run only by :mod:`perfbench.remote`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    env.bootstrap()

    from perfbench import data
    from repro.net import EstimationServer
    from repro.serve import EstimationService

    spec = data.SPECS[args.workload](args.seed, args.scale)
    catalog, _ = data.analyze_all(spec, data.materialize(spec, args.seed))
    service = EstimationService(catalog, name=f"perfbench-{args.workload}")

    answer_ms: list[float] = []
    lock = threading.Lock()
    if args.trace:
        answer = service.estimate_batch

        def timed_estimate_batch(*call_args, **call_kwargs):
            started = perf_counter()
            try:
                return answer(*call_args, **call_kwargs)
            finally:
                elapsed = (perf_counter() - started) * 1e3
                with lock:
                    answer_ms.append(elapsed)

        service.estimate_batch = timed_estimate_batch  # instance attribute

    server = EstimationServer(service, host="127.0.0.1", port=0)
    loop = asyncio.new_event_loop()
    host, port = loop.run_until_complete(server.start())

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            with lock:
                if command == "stats":
                    reply = {"answer_ms": list(answer_ms)}
                elif command == "reset":
                    answer_ms.clear()
                    reply = {"ok": True}
                else:
                    reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
        loop.call_soon_threadsafe(loop.stop)

    reader = threading.Thread(target=commands, name="perfbench-commands", daemon=True)
    reader.start()
    print(f"READY {host} {port}", flush=True)
    try:
        loop.run_forever()
    finally:
        loop.run_until_complete(server.stop())
        loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
