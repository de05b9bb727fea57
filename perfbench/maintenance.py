"""The write path: fsynced WAL deltas, publishes, rebuild jobs, snapshots.

:class:`MaintenanceRig` puts ``MaintainedEndBiased`` histograms (journal
attached, ``fsync=True``, counter-only ``track_values=False`` -- the
regime journal replay reproduces) on some columns of a catalog and runs
*epochs* on one thread, each on a fixed, seed-determined schedule:

* ``rounds`` times: ``deltas_per_round`` inserts/deletes whose insert
  distribution drifts from epoch to epoch, one ``publish`` (round-robin
  over the maintained columns), then ``reads_per_round`` read batches on
  the live service, each checked against a cold reference service;
* one rebuild job through ``DurableJobQueue`` + ``MaintenanceAgent.run_once``
  (the agent republishes and snapshots), mirrored into the in-memory
  maintained state;
* one ``save_catalog`` with journal checkpoint, plus a queue checkpoint.

:meth:`MaintenanceRig.prepare_recovery` freezes a snapshot plus a WAL of
``tail_deltas`` unpublished deltas; :meth:`MaintenanceRig.time_recovery`
times ``load_catalog(recover=True, journal=...)`` on it.
:meth:`MaintenanceRig.finish` recovers the live files once and compares
the recovered catalog's estimates with the live ones.

The exact frequencies are tracked alongside, so every read has exact
ground truth at the moment it is answered.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from perfbench.data import Column, zipf_weights
from perfbench.metrics import bit_mismatches, qerrors
from repro.core.frequency import AttributeDistribution
from repro.engine import persist
from repro.engine.catalog import StatsCatalog
from repro.engine.journal import MaintenanceJournal
from repro.maint.agent import AgentContext, MaintenanceAgent
from repro.maint.queue import DurableJobQueue
from repro.maint.update import MaintainedEndBiased
from repro.serve import EqualityProbe, EstimationService, JoinProbe, RangeProbe

#: Recovered estimates may differ from live ones by float rounding only:
#: replay rebuilds the implicit bucket's total as count x average.
RECOVERY_RTOL = 1e-9
#: Values beyond the analyzed domain that drifting inserts may reach.
EXTRA_VALUES = 50
#: Explicit-bucket budget of every maintained (and rebuilt) histogram.
BUCKETS = 16


@dataclass
class Schedule:
    rounds: int = 4
    deltas_per_round: int = 60
    reads_per_round: int = 8
    read_probes: int = 200
    #: Read batches whose q-errors are kept (a fixed prefix of the
    #: schedule, so the figure repeats exactly for one seed).
    qerror_reads: int = 40
    #: Unpublished deltas in the recovery fixture's WAL.
    tail_deltas: int = 2000
    #: Unpublished deltas before the final recover-and-compare check.
    check_deltas: int = 300


class _Maintained:
    """A maintained column: exact frequencies plus the program's model."""

    def __init__(self, column: Column, journal: MaintenanceJournal):
        self.relation = column.relation
        self.attribute = column.attribute
        self.freqs = np.concatenate(
            (column.freqs, np.zeros(EXTRA_VALUES, dtype=np.int64))
        )
        self.model = MaintainedEndBiased(
            self.distribution(),
            BUCKETS,
            track_values=False,
            journal=journal,
            relation=column.relation,
            attribute=column.attribute,
        )

    @property
    def key(self) -> tuple[str, str]:
        return (self.relation, self.attribute)

    def distribution(self) -> AttributeDistribution:
        present = np.nonzero(self.freqs)[0]
        return AttributeDistribution(
            present.tolist(), self.freqs[present].astype(np.float64)
        )


@dataclass
class RigStats:
    ingest_chunks: list = field(default_factory=list)  # (ops, seconds) per epoch
    read_latencies: list = field(default_factory=list)
    read_probes: int = 0
    recompile_ms: list = field(default_factory=list)
    rebuild_ms: list = field(default_factory=list)
    recover_s: list = field(default_factory=list)
    qerrors: list = field(default_factory=list)
    reads_seen: int = 0
    operations: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    bytes_per_delta: Optional[float] = None
    epochs: int = 0


class MaintenanceRig:
    def __init__(
        self,
        catalog: StatsCatalog,
        service: EstimationService,
        maintained: list[Column],
        static: list[Column],
        run_dir: Path,
        seed: int,
        schedule: Schedule,
    ):
        self.catalog = catalog
        self.service = service
        self.static = static
        self.seed = seed
        self.schedule = schedule
        self.snapshot = run_dir / "catalog.json"
        self.journal = MaintenanceJournal(run_dir / "wal.jsonl", fsync=True)
        self.queue = DurableJobQueue(run_dir / "queue.jsonl", rng=seed)
        self.columns = [_Maintained(column, self.journal) for column in maintained]
        for state in self.columns:
            state.model.publish(catalog, state.relation, state.attribute)
        self._sources: dict[tuple[str, str], AttributeDistribution] = {}
        self._drift_weights: dict[int, np.ndarray] = {}
        self.agent = MaintenanceAgent(
            AgentContext(
                queue=self.queue,
                catalog=catalog,
                snapshot_path=self.snapshot,
                journal=self.journal,
                service=service,
                source=self._source,
                buckets=BUCKETS,
            ),
            name="perfbench-agent",
        )
        # Cold reference: tables dropped before every check, so a stale
        # compiled table on the live service cannot hide.
        self.reference = EstimationService(catalog, name="perfbench-reference")
        persist.save_catalog(catalog, self.snapshot, journal=self.journal)
        self.stats = RigStats()
        #: How live reads are answered; ``None`` is ``service.estimate_batch``.
        self.read_path: Optional[Callable[[list], np.ndarray]] = None
        self._next_epoch = 0
        self._publish_turn = 0
        self._rebuild_turn = 0

    # -- fresh statistics for rebuild jobs -----------------------------

    def _source(self, relation: str, attribute: str) -> AttributeDistribution:
        return self._sources[(relation, attribute)]

    # -- deltas -----------------------------------------------------------

    def _delta(self, gen: np.random.Generator, epoch: int) -> float:
        """One insert or delete on a random maintained column; returns seconds."""
        state = self.columns[int(gen.integers(len(self.columns)))]
        size = state.freqs.size
        if gen.random() < 0.5:
            # Drift: the popular values move with the epoch.
            if size not in self._drift_weights:
                self._drift_weights[size] = zipf_weights(size, 1.0)
            rank = int(gen.choice(size, p=self._drift_weights[size]))
            value = (rank * 7 + epoch * 13) % size
            started = perf_counter()
            state.model.insert(value)
            elapsed = perf_counter() - started
            state.freqs[value] += 1
        else:
            cumulative = np.cumsum(state.freqs)
            value = int(
                np.searchsorted(cumulative, gen.integers(cumulative[-1]), side="right")
            )
            started = perf_counter()
            state.model.delete(value)
            elapsed = perf_counter() - started
            state.freqs[value] -= 1
        return elapsed

    # -- reads ------------------------------------------------------------

    def read_batch(self, gen: np.random.Generator) -> tuple[list, np.ndarray]:
        """Probes over maintained and static columns with exact truth."""
        prefixes = {
            state.key: np.concatenate(([0], np.cumsum(state.freqs)))
            for state in self.columns
        }
        probes: list = []
        truth = np.empty(self.schedule.read_probes, dtype=np.float64)
        for slot in range(self.schedule.read_probes):
            roll = gen.random()
            use_static = self.static and gen.random() < 0.25
            if roll < 0.15:
                left = self.columns[int(gen.integers(len(self.columns)))]
                right = self.columns[int(gen.integers(len(self.columns)))]
                m = min(left.freqs.size, right.freqs.size)
                probes.append(
                    JoinProbe(left.relation, left.attribute, right.relation, right.attribute)
                )
                truth[slot] = float(np.dot(left.freqs[:m], right.freqs[:m]))
            elif use_static:
                column = self.static[int(gen.integers(len(self.static)))]
                if roll < 0.6:
                    value = column.values[int(gen.integers(len(column.values)))]
                    probes.append(EqualityProbe(column.relation, column.attribute, value))
                    truth[slot] = column.eq_truth(value)
                else:
                    i, j = sorted(int(v) for v in gen.integers(0, len(column.values), 2))
                    low, high = column.values[i], column.values[j]
                    probes.append(RangeProbe(column.relation, column.attribute, low, high))
                    truth[slot] = column.range_truth(low, high, True, True)
            else:
                state = self.columns[int(gen.integers(len(self.columns)))]
                size = state.freqs.size
                if roll < 0.6:
                    value = int(gen.integers(size))
                    probes.append(EqualityProbe(state.relation, state.attribute, value))
                    truth[slot] = float(state.freqs[value])
                else:
                    i, j = sorted(int(v) for v in gen.integers(0, size, 2))
                    probes.append(RangeProbe(state.relation, state.attribute, i, j))
                    prefix = prefixes[state.key]
                    truth[slot] = float(prefix[j + 1] - prefix[i])
        return probes, truth

    def _read(self, gen: np.random.Generator, *, after_publish: bool) -> None:
        probes, truth = self.read_batch(gen)
        compile_before = self.service.stats().compile_seconds if after_publish else 0.0
        started = perf_counter()
        if self.read_path is None:
            out = self.service.estimate_batch(probes)
        else:
            out = self.read_path(probes)
        elapsed = perf_counter() - started
        if after_publish:
            self.stats.recompile_ms.append(
                (self.service.stats().compile_seconds - compile_before) * 1e3
            )
        self.stats.read_latencies.append(elapsed)
        self.stats.read_probes += len(probes)
        self.stats.operations += 1
        self.reference.invalidate()
        if bit_mismatches(out, self.reference.estimate_batch(probes)):
            self.stats.failed += 1
            self.stats.errors.append("live read differs from a cold reference")
        if self.stats.reads_seen < self.schedule.qerror_reads:
            self.stats.qerrors.extend(qerrors(out, truth).tolist())
        self.stats.reads_seen += 1

    # -- the schedule -----------------------------------------------------

    def epoch(self, *, reads: bool = True) -> None:
        """Run the next epoch of the fixed schedule."""
        epoch = self._next_epoch
        self._next_epoch += 1
        gen = np.random.default_rng([self.seed, 7, epoch])
        schedule = self.schedule
        ingest_ops, ingest_s = 0, 0.0
        for _ in range(schedule.rounds):
            wal_before = self.journal.path.stat().st_size
            for _ in range(schedule.deltas_per_round):
                ingest_s += self._delta(gen, epoch)
                ingest_ops += 1
            if self.stats.bytes_per_delta is None:
                grown = self.journal.path.stat().st_size - wal_before
                self.stats.bytes_per_delta = grown / schedule.deltas_per_round
            state = self.columns[self._publish_turn % len(self.columns)]
            self._publish_turn += 1
            started = perf_counter()
            state.model.publish(self.catalog, state.relation, state.attribute)
            ingest_s += perf_counter() - started
            ingest_ops += 1
            if reads:
                for index in range(schedule.reads_per_round):
                    self._read(gen, after_publish=index == 0)
        self._rebuild()
        started = perf_counter()
        persist.save_catalog(self.catalog, self.snapshot, journal=self.journal)
        self.queue.checkpoint()
        ingest_s += perf_counter() - started
        ingest_ops += 1
        self.stats.ingest_chunks.append((ingest_ops, ingest_s))
        self.stats.operations += ingest_ops
        self.stats.epochs += 1

    def _rebuild(self) -> None:
        state = self.columns[self._rebuild_turn % len(self.columns)]
        self._rebuild_turn += 1
        distribution = state.distribution()
        self._sources[state.key] = distribution
        started = perf_counter()
        self.queue.enqueue(
            "rebuild", {"relation": state.relation, "attribute": state.attribute}
        )
        outcome = self.agent.run_once()
        state.model.rebuild(distribution)
        self.stats.rebuild_ms.append((perf_counter() - started) * 1e3)
        self.stats.operations += 1
        if outcome != "done":
            self.stats.failed += 1
            self.stats.errors.append(f"rebuild job ended {outcome!r}")

    # -- recovery ---------------------------------------------------------

    def _log_tail(self, count: int, stream: int) -> None:
        """Publish everything and snapshot, then log *count* unpublished deltas."""
        for state in self.columns:
            state.model.publish(self.catalog, state.relation, state.attribute)
        persist.save_catalog(self.catalog, self.snapshot, journal=self.journal)
        gen = np.random.default_rng([self.seed, stream])
        for _ in range(count):
            self._delta(gen, self._next_epoch)
        self.stats.operations += count + len(self.columns) + 1

    def prepare_recovery(self) -> None:
        """Freeze a snapshot plus a ``tail_deltas`` WAL as the recovery fixture.

        :meth:`time_recovery` loads copies of these files, so recovery
        can be sampled while the live files move on.
        """
        self._log_tail(self.schedule.tail_deltas, 11)
        fixture = self.snapshot.parent / "fixture"
        fixture.mkdir(exist_ok=True)
        self._fixture = (fixture / "catalog.json", fixture / "wal.jsonl")
        shutil.copyfile(self.snapshot, self._fixture[0])
        shutil.copyfile(self.journal.path, self._fixture[1])

    def time_recovery(self) -> None:
        """One timed ``load_catalog(recover=True, journal=...)`` of the fixture."""
        gc.collect()  # the same collector state before every sample
        started = perf_counter()
        report = persist.load_catalog(
            self._fixture[0], recover=True, journal=self._fixture[1]
        )
        self.stats.recover_s.append(perf_counter() - started)
        self.stats.operations += 1
        self._check_report(report, self.schedule.tail_deltas)

    def _check_report(self, report, deltas: int) -> bool:
        problems = []
        if not report.clean:
            problems.append(f"recovery not clean: {report.summary()}")
        if report.journal_replayed != deltas:
            problems.append(f"replayed {report.journal_replayed} of {deltas} deltas")
        if problems:
            self.stats.failed += 1
            self.stats.errors.extend(problems)
        return not problems

    def finish(self) -> None:
        """Recover the live files once; the estimates must match the live ones."""
        deltas = self.schedule.check_deltas
        self._log_tail(deltas, 12)
        for state in self.columns:
            state.model.publish(self.catalog, state.relation, state.attribute)
        probes, _ = self.read_batch(np.random.default_rng([self.seed, 13]))
        live = EstimationService(self.catalog, name="perfbench-live").estimate_batch(probes)
        report = persist.load_catalog(self.snapshot, recover=True, journal=self.journal.path)
        self.stats.operations += 1
        if not self._check_report(report, deltas):
            return
        recovered = EstimationService(
            report.catalog, name="perfbench-recovered"
        ).estimate_batch(probes)
        if not np.allclose(recovered, live, rtol=RECOVERY_RTOL, atol=0.0):
            worst = float(np.max(np.abs(recovered - live) / np.maximum(np.abs(live), 1.0)))
            self.stats.failed += 1
            self.stats.errors.append(
                f"recovered estimates differ from live (relative {worst:.3g})"
            )
