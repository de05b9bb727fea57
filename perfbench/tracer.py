"""An in-memory span recorder that wraps the program's public calls.

The traced run installs wrappers on public functions and methods of the
program's modules (``repro.net.protocol.encode_frame``,
``MaintenanceJournal.append_insert``, ...) by setting the module or
class attribute from here; nothing under ``src/`` changes.  A wrapper
records one span per call: name, start, end, the enclosing span and the
operation (batch, delta, job) it belongs to.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children", "keep")

    def __init__(self, name: str, start: float, parent: int, op: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.children = 0.0
        self.keep: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


class Tracer:
    """Collects spans from wrapped calls and from explicit regions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False
        #: The operation new spans are attributed to (see :meth:`op`).
        self.current_op: Optional[int] = None

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.current_op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        record = self.spans[index]
        record.end = perf_counter()
        self._stack.pop()
        if record.parent >= 0:
            self.spans[record.parent].children += record.duration
        return record

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Attribute every span opened inside to operation *op_id*."""
        previous = self.current_op
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = previous

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        keep: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> None:
        """Register a wrapper for ``owner.attr`` (applied by :meth:`install`).

        *keep* maps ``(args, result)`` to something stored on the span,
        e.g. the bytes an encoder produced.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                record = tracer._close(index)
            if keep is not None:
                record.keep = keep(args, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", attr)
        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._patches.append((owner, attr, raw, replacement))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)
        self._installed = False

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -------------------------------------------------------

    def child_totals(self, parent: str, child: str) -> list[float]:
        """For each span named *parent*: summed durations of its *child* spans."""
        totals = {i: 0.0 for i, r in enumerate(self.spans) if r.name == parent}
        for record in self.spans:
            if record.name == child and record.parent in totals:
                totals[record.parent] += record.duration
        return list(totals.values())

    def durations(self, name: str, *, self_time: bool = False) -> list[float]:
        return [
            record.self_time if self_time else record.duration
            for record in self.spans
            if record.name == name
        ]

    def median_ms(self, name: str, *, self_time: bool = False) -> tuple[float, int]:
        values = self.durations(name, self_time=self_time)
        if not values:
            raise ValueError(f"no spans named {name!r}")
        return float(np.median(values)) * 1e3, len(values)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (done once, at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record.name,
                            "start": record.start,
                            "end": record.end,
                            "parent": record.parent,
                            "op": record.op,
                            "self": record.self_time,
                        }
                    )
                    + "\n"
                )
