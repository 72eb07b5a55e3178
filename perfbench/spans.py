"""Layer-span tracer: in-memory spans around calls into each layer.

A span is ``(name, start, end, parent, op)``.  Spans nest by call order
(one thread), so a layer's *self time* is its span's duration minus the
durations of its direct children; the self times of an op's spans tile
the op's wall time exactly.  Spans are kept in memory and written out
once, at the end of the run (:meth:`LayerTracer.write`).
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["self_times", "LayerTracer", "SpanTotals", "OP_SPAN", "is_generator_like"]

#: name of the root span opened around every op; its self time is the
#: op wall that no layer span covers (``other.self_s``)
OP_SPAN = "op"
#: raw spans a tracer keeps for :meth:`LayerTracer.write`; later ones
#: are only counted, which bounds memory on long runs
KEEP_MAX = 2_000_000


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    *parent* holds the index of each span's parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - children


@dataclass
class SpanTotals:
    """Per-name sums over every closed span of a run."""

    calls: dict[str, int] = field(default_factory=dict)
    inclusive: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)

    def add(self, names: list[str], ids, dur, self_dur) -> None:
        k = len(names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_dur, minlength=k)
        for i in np.flatnonzero(calls):
            name = names[i]
            self.calls[name] = self.calls.get(name, 0) + int(calls[i])
            self.inclusive[name] = self.inclusive.get(name, 0.0) + float(incl[i])
            self.self_s[name] = self.self_s.get(name, 0.0) + float(own[i])

    @staticmethod
    def prefixed(table: dict, prefix: str) -> float:
        """Sum of *table* over every name equal to or under *prefix*."""
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))


class LayerTracer:
    """Records spans for wrapped functions; folds them per op.

    Spans of the op in progress are held in plain lists; at
    :meth:`end_op` their self times are folded into :attr:`totals` and
    the raw spans are kept until :data:`KEEP_MAX` spans are held (later ones
    are counted in :attr:`dropped`), which bounds memory on long runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.totals = SpanTotals()
        self.dropped = 0
        self._kept: list[tuple[np.ndarray, ...]] = []
        self._kept_n = 0
        self._reset_op(-1)

    # ------------------------------------------------------------ recording
    def _reset_op(self, op_id: int) -> None:
        self._op = op_id
        self._ids: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._ids.append(nid)
        stack = self._stack
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """*fn* wrapped so that each call records one span named *name*."""
        nid = self.name_id(name)
        tracer_open, tracer_close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer_open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer_close(idx)

        traced.__perfbench_wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ ops
    def begin_op(self, op_id: int) -> int:
        self._reset_op(op_id)
        return self.open(self.name_id(OP_SPAN))

    def end_op(self, root: int) -> None:
        self.close(root)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open at op end")
        ids = np.asarray(self._ids, dtype=np.int32)
        start = np.asarray(self._start)
        end = np.asarray(self._end)
        parent = np.asarray(self._parent, dtype=np.int64)
        self.totals.add(self.names, ids, end - start, self_times(start, end, parent))
        if self._kept_n + len(ids) <= KEEP_MAX:
            op = np.full(len(ids), self._op, dtype=np.int32)
            self._kept.append((ids, start, end, parent.astype(np.int32), op))
            self._kept_n += len(ids)
        else:
            self.dropped += len(ids)
        self._reset_op(-1)

    def write(self, path) -> None:
        """Write the kept spans as ``.npz``: one row per span, with
        parents as indices into the same op's rows."""
        cols = list(zip(*self._kept)) if self._kept else [[] for _ in range(5)]
        cat = [np.concatenate(c) if len(c) else np.zeros(0) for c in cols]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=cat[0], start=cat[1], end=cat[2], parent=cat[3], op=cat[4],
            dropped=np.array(self.dropped),
        )


def is_generator_like(fn) -> bool:
    """True for generator functions and ``@contextmanager`` factories,
    whose call returns before the work is done."""
    inner = getattr(fn, "__wrapped__", None)
    return inspect.isgeneratorfunction(fn) or (
        inner is not None and inspect.isgeneratorfunction(inner)
    )
