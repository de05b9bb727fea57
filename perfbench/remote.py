"""The server child process and the closed-loop remote load generator.

:class:`ServerChild` launches :mod:`perfbench.server_child` with the
workload's seed, lets the OS pick the port, waits for the ``READY``
line, reads the child's peak RSS while it is still alive and stops it on
every exit path.  :func:`drive` sends batches through the sync SDK on
one connection, one at a time, and checks every answer bit-for-bit.
:class:`StageLedger` turns a traced run's spans into the round-trip
stage breakdown.
"""

from __future__ import annotations

import itertools
import json
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from perfbench import env
from perfbench.metrics import bit_mismatches, median
from perfbench.tracer import Tracer
from repro.net import client as net_client
from repro.net import protocol

READY_TIMEOUT_S = 120.0
COMMAND_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 30.0

# The untraced codec entry points, bound before any wrapper is installed:
# the server-side stages are replayed with these.
_DECODE_FRAME = protocol.decode_frame
_PROBES_FROM_WIRE = protocol.probes_from_wire
_ENCODE_ESTIMATES = protocol.encode_estimates
_DECODE_ESTIMATES = protocol.decode_estimates
_ENCODE_FRAME = protocol.encode_frame


_CHILD_SEQ = itertools.count()


class ChildError(RuntimeError):
    """The server child failed to start, answer, or stop."""


class ServerChild:
    """One server process; use as a context manager."""

    def __init__(
        self, workload: str, seed: int, *, scale: str, trace: bool, run_dir: Path
    ):
        self._log_path = run_dir / f"server-{workload}-{next(_CHILD_SEQ)}.log"
        command = [
            sys.executable,
            str(env.ROOT / "perfbench" / "server_child.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--scale",
            scale,
        ]
        if trace:
            command.append("--trace")
        self._log = open(self._log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(env.ROOT),
            env=env.child_env(),
            text=True,
        )
        try:
            line = self._readline(READY_TIMEOUT_S)
            parts = line.split()
            if len(parts) != 3 or parts[0] != "READY":
                raise ChildError(f"server child printed {line!r} instead of READY")
            self.address = (parts[1], int(parts[2]))
        except BaseException:
            self.stop()
            raise

    def _readline(self, timeout: float) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise ChildError(f"server child silent for {timeout:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(
                f"server child exited (code {self.proc.poll()}); "
                f"log: {self._log_path.read_text()[-2000:]}"
            )
        return line.strip()

    def command(self, name: str) -> dict:
        assert self.proc.stdin is not None
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(COMMAND_TIMEOUT_S))

    def peak_rss_mib(self) -> float:
        """The child's peak RSS; read while it is alive."""
        return env.peak_rss_mib_of(self.proc.pid)

    def stop(self) -> None:
        """Close stdin (the child's stop signal); escalate if it lingers."""
        if self.proc.poll() is None:
            try:
                if self.proc.stdin is not None:
                    self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        self._log.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def connect(child: ServerChild) -> net_client.EstimationClient:
    host, port = child.address
    client = net_client.EstimationClient(
        host, port, timeout=CLIENT_TIMEOUT_S, retries=0
    )
    client.connect()
    return client


@dataclass
class RemoteRun:
    latencies: list[float] = field(default_factory=list)
    probes: int = 0
    batches: int = 0
    #: Batches that raised, timed out, or came back with any wrong bit.
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def drive(
    client: net_client.EstimationClient,
    batches: Sequence[list],
    expected: Sequence[np.ndarray],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    start: int = 0,
    tracer: Optional[Tracer] = None,
    on_batch: Optional[Callable[[int, int, float], None]] = None,
) -> RemoteRun:
    """Closed loop over *batches* (cycled) until *seconds* or *count* is reached.

    Every answer is compared bit-for-bit with *expected*.  ``on_batch``
    gets ``(index, pool slot, round-trip seconds)`` after each answer.
    """
    run = RemoteRun()
    begin = perf_counter()
    index = start
    while (count is None or run.batches < count) and (
        seconds is None or perf_counter() - begin < seconds
    ):
        slot = index % len(batches)
        batch = batches[slot]
        run.batches += 1
        run.probes += len(batch)
        started = perf_counter()
        try:
            if tracer is not None:
                with tracer.op(index):
                    out = client.estimate_batch(batch)
            else:
                out = client.estimate_batch(batch)
        except (net_client.ClientError, OSError) as exc:
            run.failed += 1
            run.errors.append(f"{type(exc).__name__}: {exc}")
            if run.failed >= 3:
                break
            index += 1
            continue
        elapsed = perf_counter() - started
        run.latencies.append(elapsed)
        wrong = bit_mismatches(out, expected[slot])
        if wrong:
            run.failed += 1
            run.errors.append(f"batch {slot}: {wrong} answers differ from in-process")
        if on_batch is not None:
            on_batch(index, slot, elapsed)
        index += 1
    return run


def install_client_spans(tracer: Tracer) -> None:
    """Wrap the SDK's codec calls (resolved through ``protocol.<name>``)."""
    tracer.wrap(protocol, "probes_to_wire", "net.client.encode")
    tracer.wrap(protocol, "batch_request", "net.client.encode")
    tracer.wrap(
        protocol, "encode_frame", "net.client.encode", keep=lambda a, r: r
    )
    tracer.wrap(
        protocol, "decode_frame", "net.client.decode", keep=lambda a, r: (len(a[0]), r)
    )
    tracer.wrap(protocol, "decode_estimates", "net.client.decode")


class StageLedger:
    """Per-batch round-trip stages for a traced remote loop.

    After each batch, :meth:`record` replays the server's codec work on
    the exact bytes that crossed the wire (decode the request frame and
    its probes; encode each response chunk) and drops the kept bytes.
    """

    def __init__(self, tracer: Tracer, window: int):
        self.tracer = tracer
        #: Byte counts come from the first *window* rows only, a fixed set
        #: of requests, so they repeat exactly for one seed.
        self.window = window
        self.rows: list[dict] = []
        self._mark = 0

    def record(self, op: int, roundtrip: float, probes: int) -> None:
        spans = self.tracer.spans[self._mark :]
        self._mark = len(self.tracer.spans)
        encode = decode = 0.0
        request: Optional[bytes] = None
        responses: list[tuple[int, dict]] = []
        for record in spans:
            if record.op != op:
                continue
            if record.name == "net.client.encode":
                encode += record.duration
                if isinstance(record.keep, bytes):
                    request = record.keep
            elif record.name == "net.client.decode":
                decode += record.duration
                if record.keep is not None:
                    responses.append(record.keep)
            record.keep = None
        if request is None or not responses:
            return
        started = perf_counter()
        decoded = _DECODE_FRAME(request[4:])
        _PROBES_FROM_WIRE(decoded["probes"])
        server_decode = perf_counter() - started
        server_encode = 0.0
        for _, frame in responses:
            vector = _DECODE_ESTIMATES(frame["estimates"])
            started = perf_counter()
            body = dict(frame)
            body["estimates"] = _ENCODE_ESTIMATES(vector)
            _ENCODE_FRAME(body)
            server_encode += perf_counter() - started
        self.rows.append(
            {
                "op": op,
                "roundtrip": roundtrip,
                "client_encode": encode,
                "client_decode": decode,
                "server_decode": server_decode,
                "server_encode": server_encode,
                "request_bytes": len(request) / probes,
                "response_bytes": sum(size + 4 for size, _ in responses) / probes,
                "answer": None,
            }
        )

    def attach(self, answer_ms: Sequence[float]) -> None:
        """Give the rows recorded since the last attach the child's answer times."""
        pending = [row for row in self.rows if row["answer"] is None]
        if len(answer_ms) != len(pending):
            raise ChildError(
                f"server recorded {len(answer_ms)} answers for "
                f"{len(pending)} traced batches"
            )
        for row, answer in zip(pending, answer_ms):
            row["answer"] = answer / 1e3

    def finish(self, inproc_p50_ms: float) -> dict:
        """Stage medians (ms) once every row has its answer time."""
        rows = self.rows
        for row in rows:
            row["residual"] = row["roundtrip"] - (
                row["client_encode"]
                + row["client_decode"]
                + row["server_decode"]
                + row["server_encode"]
                + row["answer"]
            )

        def ms(key: str) -> float:
            return median([row[key] for row in rows]) * 1e3

        roundtrip = ms("roundtrip")
        return {
            "net.client.encode_ms": ms("client_encode"),
            "net.client.decode_ms": ms("client_decode"),
            "net.protocol.server_decode_ms": ms("server_decode"),
            "net.protocol.server_encode_ms": ms("server_encode"),
            "net.request_bytes_per_probe": median(
                [r["request_bytes"] for r in rows[: self.window]]
            ),
            "net.response_bytes_per_probe": median(
                [r["response_bytes"] for r in rows[: self.window]]
            ),
            "serve.service.remote_answer_ms": ms("answer"),
            "net.server.residual_ms": ms("residual"),
            "net.roundtrip_ms": roundtrip,
            "net.outside_service_share": median(
                [1.0 - row["answer"] / row["roundtrip"] for row in rows]
            ),
            "net.remote_vs_inproc_x": roundtrip / inproc_p50_ms,
        }
