"""A wrong result is a failed op, never a latency sample."""

import numpy as np

from perfbench import workloads
from perfbench.core import PROBE_REF_S, e2e_metrics, run_cycles
from perfbench.workloads import Cell, Outcome, check_sim, values

SIM = {"sim_s": 1.5, "messages": 4, "bytes_sent": 64, "skeleton_calls": 2}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def fake_cell(key, seconds, clock, corrupt=False, raises=False, sim=SIM):
    def run(inputs):
        clock.t += seconds
        if raises:
            raise FloatingPointError("singular")
        value = inputs * 2
        return Outcome(value + 1 if corrupt else value, dict(sim))

    return Cell(key, lambda rng: np.arange(4.0), run,
                values(lambda got, want: bool(np.array_equal(got, want))),
                lambda inputs: inputs * 2)


def loop(cycle, clock, reference):
    return run_cycles(
        cycle, 10.0, make_inputs=lambda c: c.make(None),
        expect=lambda c, inputs: c.want(inputs), reference=reference,
        check_sim=check_sim, min_ops=100,
        clock=clock)


def test_corrupted_value_counts_as_failed_not_latency():
    clock = FakeClock()
    good = fake_cell("good", 0.01, clock)
    bad = fake_cell("bad", 0.5, clock, corrupt=True)
    reference = {"good": SIM, "bad": SIM}
    records = loop([good] * 9 + [bad], clock, reference)
    cycles = len(records) // 10
    assert len(records) == 10 * cycles and 9 * cycles >= 100
    assert [r.key for r in records if not r.ok] == ["bad"] * cycles
    m = e2e_metrics(records)
    assert m["error_rate"] == 0.1
    # the half-second wrong ops appear in no latency percentile
    assert abs(m["op_p90_ms"] - 10.0) < 1e-6 and abs(m["op_p50_ms"] - 10.0) < 1e-6


def test_raising_op_and_moved_statistics_fail():
    clock = FakeClock()
    moved = dict(SIM, messages=5)
    cycle = [fake_cell("good", 0.01, clock)] * 8 + [
        fake_cell("raises", 0.01, clock, raises=True),
        fake_cell("moved", 0.01, clock, sim=moved),
    ]
    reference = {"good": SIM, "raises": SIM, "moved": SIM}
    records = loop(cycle, clock, reference)
    failures = {r.key: r.problems for r in records if not r.ok}
    assert failures["raises"] == ["FloatingPointError: singular"]
    assert failures["moved"] == ["messages: 5 != reference 4"]
    assert e2e_metrics(records)["error_rate"] == 0.2


def test_run_stops_when_too_few_ops_succeed():
    clock = FakeClock()
    cycle = [fake_cell("bad", 0.5, clock, corrupt=True)]
    records = loop(cycle, clock, {"bad": SIM})
    assert not any(r.ok for r in records)
    assert 40.0 < clock.t < 42.0  # gave up past four times the run length


def test_missing_reference_fails():
    assert check_sim("nowhere", SIM, {}) == ["no reference statistics for nowhere"]


def test_real_paper_cell_corrupted_is_caught():
    cell = next(c for c in workloads.paper_cells() if c.key == "t1.shpaths.skil.p4.n100")
    inputs = cell.make(workloads.input_rng(0, cell.key))
    outcome = cell.run(inputs)
    want = cell.want(inputs)
    reference = workloads.load_reference()
    assert cell.check(outcome, want) == []
    assert check_sim(cell.key, outcome.sim, reference) == []
    outcome.value[0, 1] += 1.0
    assert cell.check(outcome, want) == ["values differ from the reference"]


def test_times_scale_to_reference_host_speed():
    clock = FakeClock()
    cycle = [fake_cell("good", 0.01, clock)]
    # the host runs at half the reference speed: the probe takes twice as long
    records = run_cycles(
        cycle, 10.0, make_inputs=lambda c: c.make(None),
        expect=lambda c, inputs: c.want(inputs), reference={"good": SIM},
        check_sim=check_sim, min_ops=100, clock=clock,
        probe=lambda: 2 * PROBE_REF_S)
    scaled, measured = e2e_metrics(records), e2e_metrics(records, scaled=False)
    assert abs(measured["op_p50_ms"] - 10.0) < 1e-6
    assert abs(scaled["op_p50_ms"] - 5.0) < 1e-6
    assert abs(scaled["ops_per_s"] - 2 * measured["ops_per_s"]) < 1e-6
