"""Metric names, units and the small statistics the benchmark reports.

Every workload reports every name below: the end-to-end names from an
untraced run (``--trace 0``) and the per-layer names from a traced run
(``--trace 1``).  ``BENCHMARK.json`` lists the same names; a test keeps
the two in step.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: name -> unit, for the untraced run.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "probes_per_s": "1/s",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "deltas_per_s": "1/s",
    "rebuild_p50_ms": "ms",
    "recover_s": "s",
    "est_qerror_p50": "ratio",
    "est_qerror_p95": "ratio",
    "peak_rss_mib": "MiB",
    "success_frac": "fraction",
}

#: name -> unit, for the traced run.
PER_LAYER: dict[str, str] = {
    # net.client / net.protocol / net.server (remote round trip stages)
    "net.client.encode_ms": "ms",
    "net.client.decode_ms": "ms",
    "net.protocol.server_decode_ms": "ms",
    "net.protocol.server_encode_ms": "ms",
    "net.request_bytes_per_probe": "B/probe",
    "net.response_bytes_per_probe": "B/probe",
    "serve.service.remote_answer_ms": "ms",
    "net.server.residual_ms": "ms",
    "net.roundtrip_ms": "ms",
    "net.outside_service_share": "fraction",
    "net.remote_vs_inproc_x": "ratio",
    # engine.analyze
    "engine.analyze.ms_per_attribute.end_biased": "ms",
    "engine.analyze.ms_per_attribute.serial": "ms",
    # serve.frame / serve.service / serve.tables + serve.index
    "serve.frame.build_us_per_probe": "us",
    "serve.service.answer_frame_us_per_probe": "us",
    "serve.tables.hit_ratio": "fraction",
    "serve.tables.compiles_per_batch": "count",
    "serve.tables.evictions_per_batch": "count",
    "serve.tables.compile_ms_per_table": "ms",
    "serve.tables.recompile_ms": "ms",
    "serve.service.degraded_frac": "fraction",
    # engine.journal / maint.update
    "engine.journal.append_us": "us",
    "engine.journal.bytes_per_delta": "B",
    "maint.update.apply_us": "us",
    "maint.update.publish_ms": "ms",
    "maint.update.rebuild_ms": "ms",
    # maint.queue / maint.agent
    "maint.queue.enqueue_us": "us",
    "maint.queue.claim_us": "us",
    "maint.queue.ack_us": "us",
    "maint.agent.job_ms": "ms",
    # engine.persist / engine.journal
    "engine.persist.save_ms": "ms",
    "engine.journal.checkpoint_ms": "ms",
    "engine.persist.load_ms": "ms",
    "engine.journal.replay_ms": "ms",
    # the tracer itself
    "obs.trace_overhead_pct": "%",
}


class MetricSet:
    """Named values with units and sample counts, in insertion order."""

    def __init__(self, units: dict[str, str]):
        self._units = units
        self._items: dict[str, tuple[float, int]] = {}

    def put(self, name: str, value: float, samples: int) -> None:
        if name not in self._units:
            raise KeyError(f"unknown metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        self._items[name] = (value, int(samples))

    def missing(self) -> list[str]:
        return [name for name in self._units if name not in self._items]

    def report_lines(self) -> list[str]:
        width = max(len(name) for name in self._units)
        lines = []
        for name in self._units:
            if name not in self._items:
                continue
            value, samples = self._items[name]
            lines.append(
                f"  {name:<{width}}  {value:>14.6g} {self._units[name]:<9} "
                f"n={samples}"
            )
        return lines

    def as_json(self) -> dict:
        return {
            name: {"value": value, "unit": self._units[name]}
            for name, (value, _) in self._items.items()
        }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if len(values) == 0:
        raise ValueError("quantile of no values")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def qerrors(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Symmetric q-error with both sides floored at one tuple."""
    est = np.maximum(np.asarray(estimates, dtype=np.float64), 1.0)
    true = np.maximum(np.asarray(truth, dtype=np.float64), 1.0)
    return np.maximum(est / true, true / est)


def bit_mismatches(got: np.ndarray, expected: np.ndarray) -> int:
    """Positions whose float64 bit patterns differ (shape mismatch: all)."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return max(got.size, expected.size, 1)
    return int(np.count_nonzero(got.view(np.uint64) != expected.view(np.uint64)))


def rate_median(chunks: Iterable[tuple[int, float]]) -> float:
    """Median over chunks of (operations / seconds)."""
    rates = [count / seconds for count, seconds in chunks if seconds > 0.0]
    return median(rates)
