"""Self-time arithmetic on nested spans."""

import numpy as np
import pytest

from perfbench import spans
from perfbench.spans import OP_SPAN, LayerTracer, SpanTotals, self_times


def test_self_time_is_duration_minus_direct_children():
    #        0 root [0, 10]
    #        1 ├─ a [1, 4]
    #        2 │  └─ a1 [2, 3]
    #        3 └─ b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times tile the root


def test_empty_and_flat():
    assert self_times([], [], []).tolist() == []
    assert self_times([0, 2], [1, 5], [-1, -1]).tolist() == [1, 3]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_tracer_folds_nested_calls_per_op():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def outer():
        clock.advance(2.0)
        leaf_w()
        leaf_w()
        clock.advance(0.5)

    leaf_w = tracer.wrap("arrays.leaf", leaf)
    outer_w = tracer.wrap("skeletons.array_map", outer)
    root = tracer.begin_op(0)
    clock.advance(0.25)
    outer_w()
    tracer.end_op(root)

    t = tracer.totals
    assert t.calls == {OP_SPAN: 1, "skeletons.array_map": 1, "arrays.leaf": 2}
    assert t.self_s["arrays.leaf"] == 2.0
    assert t.self_s["skeletons.array_map"] == 2.5
    assert t.inclusive["skeletons.array_map"] == 4.5
    assert t.self_s[OP_SPAN] == 0.25
    assert sum(t.self_s.values()) == t.inclusive[OP_SPAN] == 4.75


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    root = tracer.begin_op(0)
    with pytest.raises(KeyError):
        tracer.wrap("lang.parse", boom)()
    tracer.end_op(root)
    assert tracer.totals.self_s["lang.parse"] == 1.0


def test_prefix_sums_and_kept_spans(tmp_path, monkeypatch):
    table = {"obs": 1.0, "obs.analysis.x": 2.0, "observer": 4.0, "lang.parse": 8.0}
    assert SpanTotals.prefixed(table, "obs") == 3.0

    clock = FakeClock()
    monkeypatch.setattr(spans, "KEEP_MAX", 3)
    tracer = LayerTracer(clock=clock)
    f = tracer.wrap("apps.f", lambda: clock.advance(1.0))
    for op in range(2):
        root = tracer.begin_op(op)
        f()
        tracer.end_op(root)
    assert tracer.dropped == 2  # the second op's two spans did not fit
    path = tmp_path / "spans.npz"
    tracer.write(path)
    saved = np.load(path)
    assert set(saved["names"]) == {OP_SPAN, "apps.f"}
    assert saved["parent"].tolist() == [-1, 0]
    assert saved["op"].tolist() == [0, 0]
