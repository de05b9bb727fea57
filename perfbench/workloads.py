"""The three workloads.

Each runs closed-loop from one process on one thread (remote-mixed: one
connection to a server child).  A runner in :data:`RUNNERS` returns an
:class:`Outcome` holding every end-to-end metric (untraced run) or every
per-layer metric (traced run), plus the operation counts behind
``success_frac``.

Figures that are counts or q-errors are taken over fixed, seed-determined
windows (one pass over the batch pool, the first read batches of the
maintenance schedule), so they repeat exactly for one seed; timings come
from everything the run measured.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from perfbench import data, env, remote
from perfbench.maintenance import MaintenanceRig, Schedule
from perfbench.metrics import (
    END_TO_END,
    PER_LAYER,
    MetricSet,
    bit_mismatches,
    median,
    qerrors,
    quantile,
    rate_median,
)
from perfbench.tracer import Tracer
from repro.engine import persist
from repro.engine.journal import MaintenanceJournal
from repro.maint.agent import MaintenanceAgent
from repro.maint.queue import DurableJobQueue
from repro.maint.update import MaintainedEndBiased
from repro.serve import EstimationService, ProbeFrame

WORKLOADS = ("remote-mixed", "catalog-wide", "maintain-mixed")
SETUP_SECONDS = 2.0
SETUP_MIN_REPEATS = 3
#: Batches per untraced/traced chunk when a traced run interleaves both.
CHUNK = 24


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    run_dir: Path


@dataclass
class Outcome:
    metrics: MetricSet
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def count(self, attempted: int, failed: int, errors: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[:5])


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def new_outcome(cfg: Config) -> Outcome:
    if cfg.trace:
        return Outcome(MetricSet(PER_LAYER), tracer=layer_tracer())
    return Outcome(MetricSet(END_TO_END))


def layer_tracer() -> Tracer:
    """Wrappers on the program's public calls, by module or class attribute."""
    tracer = Tracer()
    remote.install_client_spans(tracer)
    for method in ("insert", "delete"):
        tracer.wrap(MaintainedEndBiased, method, "maint.update.apply")
    tracer.wrap(MaintainedEndBiased, "publish", "maint.update.publish")
    tracer.wrap(MaintainedEndBiased, "rebuild", "maint.update.rebuild")
    for method in ("append_insert", "append_delete"):
        tracer.wrap(MaintenanceJournal, method, "engine.journal.append")
    tracer.wrap(MaintenanceJournal, "checkpoint", "engine.journal.checkpoint")
    for method in ("enqueue", "claim", "ack"):
        tracer.wrap(DurableJobQueue, method, f"maint.queue.{method}")
    tracer.wrap(MaintenanceAgent, "run_once", "maint.agent.job")
    tracer.wrap(persist, "save_catalog", "engine.persist.save")
    tracer.wrap(persist, "load_catalog", "engine.persist.load")
    for function in ("read_journal", "replay_records"):
        tracer.wrap(persist, function, "engine.journal.replay")
    return tracer


def tracing(tracer: Optional[Tracer]):
    """The tracer's wrappers installed for a ``with`` block (none if untraced)."""
    return tracer.installed() if tracer is not None else nullcontext()


def frame_answer(service: EstimationService, probes: list, tracer: Tracer) -> np.ndarray:
    """The list path split in two traced stages (same answers)."""
    with tracer.span("serve.frame.build") as record:
        record.keep = len(probes)
        frame = ProbeFrame.from_probes(probes)
    with tracer.span("serve.service.answer_frame") as record:
        record.keep = len(probes)
        return service.estimate_batch(frame)


def timed_setup(build: Callable[[int], object]) -> tuple[list[float], object]:
    """Run *build* again and again for SETUP_SECONDS (at least
    SETUP_MIN_REPEATS times); keep the last result.

    A short set-up is repeated many times, so its median spans more than
    one moment of the machine.  Each repetition starts from a fresh
    garbage collection, so whether a full collection lands inside the
    timed set-up does not depend on what ran before it.
    """
    times, result = [], None
    begin = perf_counter()
    while len(times) < SETUP_MIN_REPEATS or perf_counter() - begin < SETUP_SECONDS:
        gc.collect()
        started = perf_counter()
        result = build(len(times))
        times.append(perf_counter() - started)
    return times, result


def put_latency_metrics(
    metrics: MetricSet, latencies: list[float], probes: int
) -> None:
    count = len(latencies)
    metrics.put("probes_per_s", probes / sum(latencies), count)
    metrics.put("batch_p50_ms", quantile(latencies, 0.5) * 1e3, count)
    metrics.put("batch_p99_ms", quantile(latencies, 0.99) * 1e3, count)


def put_rig_end_to_end(metrics: MetricSet, rig: MaintenanceRig) -> None:
    stats = rig.stats
    ops = sum(count for count, _ in stats.ingest_chunks)
    metrics.put("deltas_per_s", rate_median(stats.ingest_chunks), ops)
    metrics.put("rebuild_p50_ms", median(stats.rebuild_ms), len(stats.rebuild_ms))
    metrics.put("recover_s", median(stats.recover_s), len(stats.recover_s))


def put_rig_layers(metrics: MetricSet, tracer: Tracer, rig: MaintenanceRig) -> None:
    def put_ms(metric: str, span: str, scale: float = 1.0, self_time: bool = False):
        value, count = tracer.median_ms(span, self_time=self_time)
        metrics.put(metric, value * scale, count)

    put_ms("engine.journal.append_us", "engine.journal.append", 1e3)
    metrics.put("engine.journal.bytes_per_delta", rig.stats.bytes_per_delta, 1)
    put_ms("maint.update.apply_us", "maint.update.apply", 1e3, self_time=True)
    put_ms("maint.update.publish_ms", "maint.update.publish")
    put_ms("maint.update.rebuild_ms", "maint.update.rebuild")
    metrics.put(
        "serve.tables.recompile_ms",
        median(rig.stats.recompile_ms),
        len(rig.stats.recompile_ms),
    )
    for op in ("enqueue", "claim", "ack"):
        put_ms(f"maint.queue.{op}_us", f"maint.queue.{op}", 1e3)
    put_ms("maint.agent.job_ms", "maint.agent.job", self_time=True)
    put_ms("engine.persist.save_ms", "engine.persist.save", self_time=True)
    put_ms("engine.journal.checkpoint_ms", "engine.journal.checkpoint")
    put_ms("engine.persist.load_ms", "engine.persist.load", self_time=True)
    replay = tracer.child_totals("engine.persist.load", "engine.journal.replay")
    metrics.put("engine.journal.replay_ms", median(replay) * 1e3, len(replay))


def put_analyze_layers(metrics: MetricSet, timings: dict[str, list[float]]) -> None:
    for kind, name in (("end-biased", "end_biased"), ("serial", "serial")):
        values = timings[kind]
        metrics.put(f"engine.analyze.ms_per_attribute.{name}", median(values), len(values))


def put_table_layers(
    metrics: MetricSet, before, after, batches: int, lifetime
) -> None:
    """Cache figures over one fixed window (``before`` -> ``after`` stats)."""
    hits = after.table_hits - before.table_hits
    misses = after.table_misses - before.table_misses
    probes = after.probes_served - before.probes_served
    metrics.put("serve.tables.hit_ratio", hits / max(hits + misses, 1), hits + misses)
    metrics.put("serve.tables.compiles_per_batch", misses / batches, batches)
    metrics.put(
        "serve.tables.evictions_per_batch",
        (after.tables_evicted - before.tables_evicted) / batches,
        batches,
    )
    metrics.put(
        "serve.tables.compile_ms_per_table",
        lifetime.compile_seconds * 1e3 / max(lifetime.table_misses, 1),
        lifetime.table_misses,
    )
    metrics.put(
        "serve.service.degraded_frac",
        (after.degraded_probes - before.degraded_probes) / max(probes, 1),
        probes,
    )


def put_frame_layers(metrics: MetricSet, tracer: Tracer) -> None:
    for metric, span in (
        ("serve.frame.build_us_per_probe", "serve.frame.build"),
        ("serve.service.answer_frame_us_per_probe", "serve.service.answer_frame"),
    ):
        per_probe = [r.duration / r.keep for r in tracer.spans if r.name == span]
        metrics.put(metric, median(per_probe) * 1e6, len(per_probe))


def put_overhead(metrics: MetricSet, untraced: tuple[int, float], traced: tuple[int, float]) -> None:
    plain = untraced[0] / untraced[1]
    with_spans = traced[0] / traced[1]
    metrics.put(
        "obs.trace_overhead_pct", (plain / with_spans - 1.0) * 100.0, untraced[0] + traced[0]
    )


def remote_phase(
    cfg: Config,
    batches: list,
    expected: list,
    inproc_p50_ms: float,
    tracer: Tracer,
    outcome: Outcome,
) -> None:
    """A short traced remote loop for the net.* stage metrics.

    The read-heavy in-process workloads run it right after setup, against
    a server child holding the same freshly analyzed catalog.
    """
    with remote.ServerChild(
        cfg.workload, cfg.seed, scale=cfg.scale, trace=True, run_dir=cfg.run_dir
    ) as child:
        client = remote.connect(child)
        try:
            ledger = remote.StageLedger(tracer, len(batches))
            runs = [remote.drive(client, batches, expected, count=min(len(batches), 8))]
            child.command("reset")
            with tracer.installed():
                runs.append(
                    remote.drive(
                        client, batches, expected, count=REMOTE_PHASE_BATCHES[cfg.scale],
                        tracer=tracer,
                        on_batch=lambda op, slot, rt: ledger.record(op, rt, len(batches[slot])),
                    )
                )
            ledger.attach(child.command("stats")["answer_ms"])
        finally:
            client.close()
    for run in runs:
        outcome.count(run.batches, run.failed, run.errors)
    for name, value in ledger.finish(inproc_p50_ms).items():
        outcome.metrics.put(name, value, len(ledger.rows))


REMOTE_PHASE_BATCHES = {"full": 100, "tiny": 8}


def inproc_list_p50_ms(service: EstimationService, batches: list, passes: int = 2) -> float:
    times = []
    for _ in range(passes):
        for batch in batches:
            started = perf_counter()
            service.estimate_batch(batch)
            times.append(perf_counter() - started)
    return median(times) * 1e3


def build_rig(
    cfg: Config,
    catalog,
    service: EstimationService,
    spec: data.CatalogSpec,
    maintained: list,
    static: list,
    schedule: Schedule,
    subdir: str = "maint",
) -> MaintenanceRig:
    run_dir = cfg.run_dir / subdir
    run_dir.mkdir(parents=True, exist_ok=True)
    return MaintenanceRig(
        catalog,
        service,
        [spec.column(*key) for key in maintained],
        [spec.column(*key) for key in static],
        run_dir,
        cfg.seed,
        schedule,
    )


def epilogue_schedule(scale: str) -> Schedule:
    """The maintenance pass the read-heavy workloads run after their reads."""
    if scale == "tiny":
        return Schedule(rounds=2, deltas_per_round=10, reads_per_round=1,
                        read_probes=40, qerror_reads=2, tail_deltas=40, check_deltas=20)
    return Schedule(reads_per_round=2)


#: A maintenance pass runs epochs for this long (and at least
#: EPILOGUE_MIN_EPOCHS), each ending with a recovery sample, so the
#: write-path figures are medians over many seconds, not one moment.
#: catalog-wide's epochs each write two ~10 MB snapshots, so it needs the
#: longest pass; remote-mixed runs one only in traced runs, for spans.
EPILOGUE_SECONDS = {"remote-mixed": 6.0, "catalog-wide": 20.0}
EPILOGUE_MIN_EPOCHS = 2


def write_step(rig: MaintenanceRig) -> None:
    """One maintenance epoch, then one timed recovery of the fixture."""
    rig.epoch()
    rig.time_recovery()


def run_epilogue(cfg: Config, rig: MaintenanceRig, outcome: Outcome,
                 tracer: Optional[Tracer], *, epochs: bool = True) -> None:
    """Maintenance epochs (unless *epochs* is False), then the recovery check."""
    with tracing(tracer):
        begin = perf_counter()
        while epochs and (
            perf_counter() - begin < (EPILOGUE_SECONDS[cfg.workload] if cfg.scale == "full" else 0.0)
            or rig.stats.epochs < EPILOGUE_MIN_EPOCHS
        ):
            write_step(rig)
        rig.finish()
    outcome.count(rig.stats.operations, rig.stats.failed, rig.stats.errors)


# ---------------------------------------------------------------------------
# remote-mixed
# ---------------------------------------------------------------------------


def remote_batches(spec: data.CatalogSpec, seed: int, count: int, size: int):
    """Batches of ~60% equality, 30% range, 10% join; a minority on R0.s."""
    gen = np.random.default_rng([seed, 21])
    numeric = [c for c in spec.columns if c.numeric]
    text = [c for c in spec.columns if not c.numeric]
    joins = data.JoinTruth()
    batches, truths = [], []
    for _ in range(count):
        probes, truth = [], []
        for _ in range(size):
            roll = gen.random()
            if roll < 0.10:
                left = numeric[int(gen.integers(len(numeric)))]
                right = numeric[int(gen.integers(len(numeric)))]
                probe, true = joins.probe(left, right)
            else:
                column = (
                    text[0] if gen.random() < 0.12
                    else numeric[int(gen.integers(len(numeric)))]
                )
                if roll < 0.70:
                    probe, true = data.equality_probe(gen, column)
                else:
                    probe, true = data.range_probe(gen, column)
            probes.append(probe)
            truth.append(true)
        batches.append(probes)
        truths.append(np.asarray(truth))
    return batches, truths


def run_remote_mixed(cfg: Config) -> Outcome:
    tiny = cfg.scale == "tiny"
    spec = data.remote_spec(cfg.seed, cfg.scale)
    relations = data.materialize(spec, cfg.seed)
    catalog, analyze_ms = data.analyze_all(spec, relations)
    mirror = EstimationService(catalog, name="perfbench-mirror")
    batches, truths = remote_batches(spec, cfg.seed, 8 if tiny else 48, 50 if tiny else 500)
    expected = [mirror.estimate_batch(batch) for batch in batches]
    qerr = np.concatenate([qerrors(e, t) for e, t in zip(expected, truths)])
    outcome = new_outcome(cfg)
    metrics, tracer = outcome.metrics, outcome.tracer

    # The write path runs in this process on its own copy of the catalog.
    rig_catalog, _ = data.analyze_all(spec, relations)
    del relations
    rig = build_rig(cfg, rig_catalog, EstimationService(rig_catalog, name="perfbench-rig"),
                    spec, [("R0", "a"), ("R1", "a"), ("R2", "a")],
                    [("R3", "a"), ("R0", "s")], epilogue_schedule(cfg.scale))
    rig.prepare_recovery()

    children: list[remote.ServerChild] = []

    def launch(rep: int) -> remote.ServerChild:
        child = remote.ServerChild(
            cfg.workload, cfg.seed, scale=cfg.scale, trace=cfg.trace, run_dir=cfg.run_dir
        )
        children.append(child)
        remote.connect(child).close()
        return child

    try:
        setup_times, child = timed_setup(launch)
        for spare in children[:-1]:
            spare.stop()
        client = remote.connect(child)
        try:
            run = remote.drive(client, batches, expected, count=len(batches))
            outcome.count(run.batches, run.failed, run.errors)
            if tracer is not None:
                _remote_traced(cfg, client, child, batches, expected, mirror, tracer, outcome)
            else:
                run = _remote_untraced(cfg, client, batches, expected, rig, outcome)
                metrics.put("setup_s", median(setup_times), len(setup_times))
                put_latency_metrics(metrics, run.latencies, run.probes)
            rss = child.peak_rss_mib()
        finally:
            client.close()
    finally:
        for child in children:
            child.stop()

    if tracer is not None:
        put_analyze_layers(metrics, analyze_ms)
        _inproc_layers(metrics, mirror, batches, tracer)
    # Untraced, the write path already ran inside the read loop.
    run_epilogue(cfg, rig, outcome, tracer, epochs=tracer is not None)
    if tracer is not None:
        put_rig_layers(metrics, tracer, rig)
    else:
        put_rig_end_to_end(metrics, rig)
        put_quality(metrics, qerr, rss, outcome)
    return outcome


#: Seconds of reads between two write-path steps in the remote-mixed loop.
WRITE_INTERVAL_S = 1.0


def _remote_untraced(cfg, client, batches, expected, rig, outcome) -> remote.RemoteRun:
    """The timed read loop, with the write path spread over it.

    About once a second one maintenance epoch and one recovery sample run
    in this process between two batches.  That pause is the benchmark's
    own doing, so the next batch re-warms the loop untimed (it is still
    checked); every other batch is timed.
    """
    timed = remote.RemoteRun()
    begin = perf_counter()
    next_write = begin + WRITE_INTERVAL_S
    start = len(batches)
    while perf_counter() - begin < cfg.seconds:
        run = remote.drive(client, batches, expected, count=CHUNK, start=start)
        timed.latencies.extend(run.latencies)
        timed.probes += run.probes
        outcome.count(run.batches, run.failed, run.errors)
        start += CHUNK
        if perf_counter() >= next_write:
            write_step(rig)
            rewarm = remote.drive(client, batches, expected, count=1, start=start)
            outcome.count(rewarm.batches, rewarm.failed, rewarm.errors)
            start += 1
            next_write += WRITE_INTERVAL_S
    return timed


def _remote_traced(cfg, client, child, batches, expected, mirror, tracer, outcome) -> None:
    """Alternate untraced and traced chunks until the time is up."""
    ledger = remote.StageLedger(tracer, len(batches))
    plain, spanned = [0, 0.0], [0, 0.0]
    begin = perf_counter()
    start = 0
    while perf_counter() - begin < cfg.seconds or not ledger.rows:
        run = remote.drive(client, batches, expected, count=CHUNK, start=start)
        plain[0] += run.probes
        plain[1] += sum(run.latencies)
        outcome.count(run.batches, run.failed, run.errors)
        start += CHUNK
        child.command("reset")
        with tracer.installed():
            run = remote.drive(
                client, batches, expected, count=CHUNK, start=start, tracer=tracer,
                on_batch=lambda op, slot, rt: ledger.record(op, rt, len(batches[slot])),
            )
        ledger.attach(child.command("stats")["answer_ms"])
        spanned[0] += run.probes
        spanned[1] += sum(run.latencies)
        outcome.count(run.batches, run.failed, run.errors)
        start += CHUNK
    inproc = inproc_list_p50_ms(mirror, batches)
    for name, value in ledger.finish(inproc).items():
        outcome.metrics.put(name, value, len(ledger.rows))
    put_overhead(outcome.metrics, plain, spanned)


def _inproc_layers(metrics: MetricSet, service: EstimationService, batches: list,
                   tracer: Tracer) -> None:
    """Frame/answer split and cache figures on the in-process mirror."""
    before = service.stats()
    for batch in batches:
        frame_answer(service, batch, tracer)
    after = service.stats()
    put_frame_layers(metrics, tracer)
    put_table_layers(metrics, before, after, len(batches), after)


def put_quality(metrics: MetricSet, qerr: np.ndarray, rss: float, outcome: Outcome) -> None:
    metrics.put("est_qerror_p50", quantile(qerr, 0.5), qerr.size)
    metrics.put("est_qerror_p95", quantile(qerr, 0.95), qerr.size)
    metrics.put("peak_rss_mib", rss, 1)
    metrics.put(
        "success_frac",
        (outcome.attempted - outcome.failed) / max(outcome.attempted, 1),
        outcome.attempted,
    )


# ---------------------------------------------------------------------------
# catalog-wide
# ---------------------------------------------------------------------------

#: Share of probes aimed at a relation with no statistics.
UNKNOWN_SHARE = 0.01
#: Zipf skew of attribute popularity: the hot set fits the table cache,
#: the whole catalog does not.
WIDE_POPULARITY_Z = 1.3
#: Scalar membership / not-equal calls riding along with each batch.
EXTRAS_PER_KIND = 5


@dataclass
class WideBatch:
    probes: list
    truth: np.ndarray
    #: ("membership" | "not_equal", relation, attribute, values-or-value)
    extras: list
    extra_truth: np.ndarray

    @property
    def size(self) -> int:
        return len(self.probes) + len(self.extras)


def wide_batches(spec: data.CatalogSpec, seed: int, count: int, size: int) -> list[WideBatch]:
    """Zipf-popular attributes; every probe kind; ~1% on an unknown relation."""
    # The popularity order is part of the catalog's shape, not the seed.
    order = np.random.default_rng(1995).permutation(len(spec.columns))
    ranked = [spec.columns[i] for i in order]
    weights = data.zipf_weights(len(ranked), WIDE_POPULARITY_Z)
    gen = np.random.default_rng([seed, 22])
    joins = data.JoinTruth()
    batches = []
    for _ in range(count):
        picks = gen.choice(len(ranked), size=size, p=weights)
        partners = gen.choice(len(ranked), size=size, p=weights)
        probes, truth = [], []
        for slot in range(size):
            column = ranked[int(picks[slot])]
            roll = gen.random()
            if roll < UNKNOWN_SHARE:
                probe, true = data.EqualityProbe("Unanalyzed", "c0", 1), float("nan")
            elif roll < 0.11:
                probe, true = joins.probe(column, ranked[int(partners[slot])])
            elif roll < 0.66:
                probe, true = data.equality_probe(gen, column)
            else:
                probe, true = data.range_probe(gen, column)
            probes.append(probe)
            truth.append(true)
        extras, extra_truth = [], []
        for kind in ("membership", "not_equal"):
            for _ in range(EXTRAS_PER_KIND):
                column = ranked[int(gen.choice(len(ranked), p=weights))]
                if kind == "membership":
                    values = [int(v) for v in gen.integers(len(column.values), size=4)]
                    extras.append((kind, column.relation, column.attribute, values))
                    extra_truth.append(sum(column.eq_truth(v) for v in set(values)))
                else:
                    value = int(gen.integers(len(column.values)))
                    extras.append((kind, column.relation, column.attribute, value))
                    extra_truth.append(float(column.prefix[-1]) - column.eq_truth(value))
        batches.append(WideBatch(probes, np.asarray(truth), extras, np.asarray(extra_truth)))
    return batches


def answer_wide(service: EstimationService, batch: WideBatch,
                tracer: Optional[Tracer] = None) -> tuple[np.ndarray, np.ndarray]:
    if tracer is None:
        out = service.estimate_batch(batch.probes)
    else:
        out = frame_answer(service, batch.probes, tracer)
    extras = np.empty(len(batch.extras), dtype=np.float64)
    for index, (kind, relation, attribute, payload) in enumerate(batch.extras):
        if kind == "membership":
            extras[index] = service.estimate_membership(relation, attribute, payload)
        else:
            extras[index] = service.estimate_not_equal(relation, attribute, payload)
    return out, extras


def run_catalog_wide(cfg: Config) -> Outcome:
    tiny = cfg.scale == "tiny"
    spec = data.catalog_wide_spec(cfg.seed, cfg.scale)
    relations = data.materialize(spec, cfg.seed)
    outcome = new_outcome(cfg)
    metrics, tracer = outcome.metrics, outcome.tracer

    def build(rep: int):
        catalog, timings = data.analyze_all(spec, relations)
        return catalog, timings, EstimationService(catalog, name=f"perfbench-wide-{rep}")

    setup_times, (catalog, analyze_ms, service) = timed_setup(build)
    del relations
    reference = EstimationService(
        catalog, max_tables=len(spec.columns) + 16, name="perfbench-reference"
    )
    # Batch cost here depends on which cold attributes a batch touches; a
    # large pool keeps p99 from resting on the few heaviest batches.
    pool = wide_batches(spec, cfg.seed, 6 if tiny else 96, 60 if tiny else 1000)
    expected = [answer_wide(reference, batch) for batch in pool]
    known = [~np.isnan(batch.truth) for batch in pool]
    qerr = np.concatenate(
        [qerrors(e[0][k], b.truth[k]) for e, b, k in zip(expected, pool, known)]
        + [qerrors(e[1], b.extra_truth) for e, b in zip(expected, pool)]
    )

    if tracer is not None:
        plain = [b.probes for b in pool]
        remote_phase(cfg, plain, [e[0] for e in expected],
                     inproc_list_p50_ms(service, plain), tracer, outcome)

    for batch in pool:  # warm the cache: steady state has evictions already
        answer_wide(service, batch)
    before = service.stats()
    latencies, probes = [], 0
    modes = {False: [0, 0.0], True: [0, 0.0]}
    begin = perf_counter()
    index = 0
    while perf_counter() - begin < cfg.seconds or index < len(pool):
        spans_on = tracer is not None and (index // CHUNK) % 2 == 1
        slot = index % len(pool)
        batch = pool[slot]
        with tracing(tracer if spans_on else None):
            started = perf_counter()
            out, extras = answer_wide(service, batch, tracer if spans_on else None)
            elapsed = perf_counter() - started
        latencies.append(elapsed)
        probes += batch.size
        modes[spans_on][0] += batch.size
        modes[spans_on][1] += elapsed
        wrong = bit_mismatches(out, expected[slot][0]) + bit_mismatches(
            extras, expected[slot][1]
        )
        outcome.count(1, 1 if wrong else 0,
                      [f"batch {slot}: {wrong} answers differ from the reference"] if wrong else [])
        index += 1
        if index == len(pool):
            window = service.stats()

    if tracer is not None:
        put_analyze_layers(metrics, analyze_ms)
        put_frame_layers(metrics, tracer)
        put_table_layers(metrics, before, window, len(pool), service.stats())
        put_overhead(metrics, tuple(modes[False]), tuple(modes[True]))
    else:
        metrics.put("setup_s", median(setup_times), len(setup_times))
        put_latency_metrics(metrics, latencies, probes)

    maintained = [(f"M{r}", f"c{c}") for r in range(3 if not tiny else 2) for c in (2, 3)]
    if tiny:
        maintained = [("M0", "c0"), ("M1", "c1")]
    rig = build_rig(cfg, catalog, service, spec, maintained,
                    [("S0", "c0"), ("L0", "c0")], epilogue_schedule(cfg.scale))
    rig.prepare_recovery()
    run_epilogue(cfg, rig, outcome, tracer)
    if tracer is not None:
        put_rig_layers(metrics, tracer, rig)
    else:
        put_rig_end_to_end(metrics, rig)
        put_quality(metrics, qerr, env.peak_rss_mib_self(), outcome)
    return outcome


# ---------------------------------------------------------------------------
# maintain-mixed
# ---------------------------------------------------------------------------


def maintain_schedule(scale: str) -> Schedule:
    if scale == "tiny":
        return Schedule(rounds=2, deltas_per_round=10, reads_per_round=2,
                        read_probes=40, qerror_reads=4, tail_deltas=60, check_deltas=20)
    return Schedule()


def run_maintain_mixed(cfg: Config) -> Outcome:
    spec = data.maintain_spec(cfg.seed, cfg.scale)
    relations = data.materialize(spec, cfg.seed)
    outcome = new_outcome(cfg)
    metrics, tracer = outcome.metrics, outcome.tracer
    maintained = [c.key for c in spec.columns if c.attribute == "a"]
    static = [c.key for c in spec.columns if c.attribute == "b"]

    def build(rep: int):
        catalog, timings = data.analyze_all(spec, relations)
        service = EstimationService(catalog, name=f"perfbench-maintain-{rep}")
        rig = build_rig(cfg, catalog, service, spec, maintained, static,
                        maintain_schedule(cfg.scale), subdir=f"maint-{rep}")
        return timings, service, rig

    setup_times, (analyze_ms, service, rig) = timed_setup(build)

    if tracer is not None:
        # Remote stages against a server holding the freshly analyzed catalog.
        fresh, _ = data.analyze_all(spec, relations)
        mirror = EstimationService(fresh, name="perfbench-mirror")
        gen = np.random.default_rng([cfg.seed, 23])
        plain = [rig.read_batch(gen)[0] for _ in range(24)]
        remote_phase(cfg, plain, [mirror.estimate_batch(p) for p in plain],
                     inproc_list_p50_ms(mirror, plain), tracer, outcome)
    del relations

    rig.prepare_recovery()
    before = service.stats()
    modes = {False: [0, 0.0], True: [0, 0.0]}
    begin = perf_counter()
    while perf_counter() - begin < cfg.seconds or rig.stats.epochs < 2:
        # Traced runs alternate untraced and traced epochs; every second
        # epoch ends with a recovery sample, so the samples span the run.
        epoch = rig.stats.epochs
        spans_on = tracer is not None and epoch % 2 == 1
        probes, seconds = rig.stats.read_probes, sum(rig.stats.read_latencies)
        rig.read_path = (lambda p: frame_answer(service, p, tracer)) if spans_on else None
        with tracing(tracer if spans_on else None):
            rig.epoch()
            if epoch % 2 == 1:
                rig.time_recovery()
        modes[spans_on][0] += rig.stats.read_probes - probes
        modes[spans_on][1] += sum(rig.stats.read_latencies) - seconds
        if epoch == 0:
            window = service.stats()
            window_reads = len(rig.stats.read_latencies)
    with tracing(tracer):
        rig.finish()
    outcome.count(rig.stats.operations, rig.stats.failed, rig.stats.errors)

    if tracer is not None:
        put_analyze_layers(metrics, analyze_ms)
        put_rig_layers(metrics, tracer, rig)
        put_frame_layers(metrics, tracer)
        put_table_layers(metrics, before, window, window_reads, service.stats())
        put_overhead(metrics, tuple(modes[False]), tuple(modes[True]))
    else:
        metrics.put("setup_s", median(setup_times), len(setup_times))
        put_latency_metrics(metrics, rig.stats.read_latencies, rig.stats.read_probes)
        put_rig_end_to_end(metrics, rig)
        put_quality(metrics, np.asarray(rig.stats.qerrors), env.peak_rss_mib_self(), outcome)
    return outcome


RUNNERS = {
    "remote-mixed": run_remote_mixed,
    "catalog-wide": run_catalog_wide,
    "maintain-mixed": run_maintain_mixed,
}
