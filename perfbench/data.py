"""Seeded catalogs, relations, probe batches and their exact ground truth.

Every input is made from the ``--seed`` argument; the program only ever
sees the generated relations and probes.  A column's frequency vector is
the truth: relations are materialised from it exactly (``np.repeat`` then
a seeded shuffle), so selections and ranges are sums of it and a join is
``sum_v f_a(v) * f_b(v)`` (Theorem 2.1), never an estimator's output.

The *shape* of each catalog (relation count, domain sizes, histogram
kinds, popularity order) is fixed; the seed moves only frequency-to-value
assignments, row order and probe values, so runs with different seeds do
the same amount of work.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from repro.data.quantize import quantize_to_integers
from repro.data.zipf import zipf_frequencies
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.serve import EqualityProbe, JoinProbe, RangeProbe

@dataclass
class Column:
    """One attribute: its domain, exact frequencies and histogram recipe."""

    relation: str
    attribute: str
    #: Domain values in ascending order (ints ``0..d-1`` or strings).
    values: list
    #: Exact tuple count per value, aligned with ``values``.
    freqs: np.ndarray
    kind: str
    buckets: int
    prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=np.int64)
        self.prefix = np.concatenate(([0], np.cumsum(self.freqs)))

    @property
    def key(self) -> tuple[str, str]:
        return (self.relation, self.attribute)

    @property
    def numeric(self) -> bool:
        return isinstance(self.values[0], int)

    def eq_truth(self, value) -> float:
        pos = bisect.bisect_left(self.values, value)
        if pos < len(self.values) and self.values[pos] == value:
            return float(self.freqs[pos])
        return 0.0

    def range_truth(self, low, high, include_low: bool, include_high: bool) -> float:
        lo = 0
        if low is not None:
            lo = (bisect.bisect_left if include_low else bisect.bisect_right)(
                self.values, low
            )
        hi = len(self.values)
        if high is not None:
            hi = (bisect.bisect_right if include_high else bisect.bisect_left)(
                self.values, high
            )
        if hi <= lo:
            return 0.0
        return float(self.prefix[hi] - self.prefix[lo])


def join_truth(left: Column, right: Column) -> float:
    """``sum_v f_left(v) * f_right(v)`` over the common values."""
    if left.numeric and right.numeric:
        # Integer domains are 0..d-1, so positions are values.
        m = min(len(left.values), len(right.values))
        return float(np.dot(left.freqs[:m], right.freqs[:m]))
    common = set(left.values) & set(right.values)
    lpos = {v: i for i, v in enumerate(left.values)}
    rpos = {v: i for i, v in enumerate(right.values)}
    return float(
        sum(int(left.freqs[lpos[v]]) * int(right.freqs[rpos[v]]) for v in common)
    )


def zipf_column(
    gen: np.random.Generator,
    relation: str,
    attribute: str,
    *,
    rows: int,
    domain: int,
    z: float,
    kind: str,
    buckets: int,
    strings: bool = False,
) -> Column:
    """A Zipf(z) frequency vector over ``domain`` values, ranks shuffled."""
    ranked = quantize_to_integers(zipf_frequencies(float(rows), domain, z))
    freqs = ranked[gen.permutation(domain)]
    if strings:
        values = [f"v{index:05d}" for index in range(domain)]
    else:
        values = list(range(domain))
    return Column(relation, attribute, values, freqs, kind, buckets)


@dataclass
class CatalogSpec:
    """The columns of one catalog, grouped into relations."""

    columns: list[Column]

    def __post_init__(self) -> None:
        self.by_key = {column.key: column for column in self.columns}
        self.relations: dict[str, list[Column]] = {}
        for column in self.columns:
            self.relations.setdefault(column.relation, []).append(column)

    def column(self, relation: str, attribute: str) -> Column:
        return self.by_key[(relation, attribute)]


def materialize(spec: CatalogSpec, seed: int) -> list[Relation]:
    """Build every relation's rows from its columns' exact frequencies."""
    gen = np.random.default_rng([seed, 0x5EED])
    relations = []
    for name, columns in spec.relations.items():
        data = {}
        for column in columns:
            codes = np.repeat(np.arange(len(column.values)), column.freqs)
            codes = codes[gen.permutation(codes.size)]
            if column.numeric:
                data[column.attribute] = codes.tolist()
            else:
                data[column.attribute] = [column.values[i] for i in codes]
        relations.append(Relation.from_columns(name, data))
    return relations


def analyze_all(
    spec: CatalogSpec, relations: list[Relation], catalog: Optional[StatsCatalog] = None
) -> tuple[StatsCatalog, dict[str, list[float]]]:
    """ANALYZE every column; returns the catalog and ms per attribute by kind."""
    catalog = StatsCatalog() if catalog is None else catalog
    by_name = {relation.name: relation for relation in relations}
    timings: dict[str, list[float]] = {}
    for column in spec.columns:
        started = perf_counter()
        analyze_relation(
            by_name[column.relation],
            column.attribute,
            catalog,
            kind=column.kind,
            buckets=column.buckets,
        )
        timings.setdefault(column.kind, []).append((perf_counter() - started) * 1e3)
    return catalog, timings


# ---------------------------------------------------------------------------
# Catalog shapes
# ---------------------------------------------------------------------------


def remote_spec(seed: int, scale: str = "full") -> CatalogSpec:
    """Four Zipf relations that fit the table cache; one string attribute."""
    gen = np.random.default_rng([seed, 1])
    rows, domain = (6000, 400) if scale == "full" else (600, 40)
    columns = []
    for index in range(4):
        name = f"R{index}"
        serial = index == 3
        columns.append(
            zipf_column(
                gen,
                name,
                "a",
                rows=rows,
                domain=domain // 3 if serial else domain,
                z=0.5 + 0.3 * index,
                kind="serial" if serial else "end-biased",
                buckets=8 if serial else 12,
            )
        )
    columns.append(
        zipf_column(
            gen, "R0", "s", rows=rows, domain=60 if scale == "full" else 12,
            z=1.0, kind="end-biased", buckets=10, strings=True,
        )
    )
    return CatalogSpec(columns)


#: catalog-wide relation families: (prefix, count, rows, domains, kind, buckets)
_WIDE_FAMILIES = {
    "full": (
        ("L", 6, 24000, (4500, 6000), "end-biased", 16),
        ("S", 12, 1500, (80, 120), "serial", 6),
        ("M", 70, 2500, (40, 100, 200, 400, 800), "end-biased", 10),
    ),
    "tiny": (
        ("L", 1, 9000, (4200,), "end-biased", 8),
        ("S", 2, 300, (20,), "serial", 4),
        ("M", 4, 400, (30, 60), "end-biased", 6),
    ),
}


def catalog_wide_spec(seed: int, scale: str = "full") -> CatalogSpec:
    """More analyzed attributes than the table cache holds.

    Large-domain relations (above the tree-index threshold), small-domain
    serial relations (the V-OptHist DP is costly, so serial stays small)
    and many medium end-biased relations.
    """
    gen = np.random.default_rng([seed, 2])
    columns = []
    for prefix, count, rows, domains, kind, buckets in _WIDE_FAMILIES[scale]:
        for rel in range(count):
            name = f"{prefix}{rel}"
            for index, domain in enumerate(domains):
                columns.append(
                    zipf_column(
                        gen,
                        name,
                        f"c{index}",
                        rows=rows,
                        domain=domain,
                        z=0.6 + 0.1 * ((rel + index) % 5),
                        kind=kind,
                        buckets=buckets,
                    )
                )
    return CatalogSpec(columns)


def maintain_spec(seed: int, scale: str = "full") -> CatalogSpec:
    """Relations with a maintained attribute ``a`` and a static serial ``b``."""
    gen = np.random.default_rng([seed, 3])
    count, rows, domain = (6, 8000, 600) if scale == "full" else (2, 800, 60)
    columns = []
    for index in range(count):
        name = f"T{index}"
        columns.append(
            zipf_column(
                gen, name, "a", rows=rows, domain=domain, z=0.7 + 0.1 * index,
                kind="end-biased", buckets=16,
            )
        )
        columns.append(
            zipf_column(
                gen, name, "b", rows=rows, domain=90 if scale == "full" else 15,
                z=1.0, kind="serial", buckets=6,
            )
        )
    return CatalogSpec(columns)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def equality_probe(gen: np.random.Generator, column: Column):
    value = column.values[int(gen.integers(len(column.values)))]
    probe = EqualityProbe(column.relation, column.attribute, value)
    return probe, column.eq_truth(value)


def range_probe(gen: np.random.Generator, column: Column):
    i, j = sorted(int(v) for v in gen.integers(0, len(column.values), size=2))
    low: object = column.values[i]
    high: object = column.values[j]
    roll = gen.random()
    if roll < 0.08:
        low = None
    elif roll < 0.16:
        high = None
    include_high = bool(gen.random() < 0.7)
    probe = RangeProbe(column.relation, column.attribute, low, high, True, include_high)
    return probe, column.range_truth(low, high, True, include_high)


class JoinTruth:
    """Memoised join truths (many probes repeat a column pair)."""

    def __init__(self) -> None:
        self._cache: dict[tuple, float] = {}

    def probe(self, left: Column, right: Column):
        key = (left.key, right.key)
        if key not in self._cache:
            self._cache[key] = join_truth(left, right)
        probe = JoinProbe(left.relation, left.attribute, right.relation, right.attribute)
        return probe, self._cache[key]


def zipf_weights(count: int, z: float) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=np.float64) ** -z
    return weights / weights.sum()


#: workload name -> catalog shape (the server launcher builds the same one).
SPECS = {
    "remote-mixed": remote_spec,
    "catalog-wide": catalog_wide_spec,
    "maintain-mixed": maintain_spec,
}
