"""The sweep driver shared by the chain and CP solvers."""

import pytest

from tnsolve import flops
from tnsolve.config import Tolerances
from tnsolve.records import TraceEntry, run_sweeps

TOLS = Tolerances(convergence=1e-3)


def scripted(energies, calls=None):
    """An update that returns the scripted energies in turn and charges one
    operation per call."""
    it = iter(energies)

    def update(sweep, mode):
        if calls is not None:
            calls.append((sweep, mode))
        flops.add(1)
        return next(it)

    return update


# two modes per sweep; the sweeps end at 3, 2, 2, 1, 1 + 5e-4, 1
SWEEP_ENDS = [9.0, 3.0, 5.0, 2.0, 4.0, 2.0, 3.0, 1.0, 2.0, 1.0 + 5e-4, 1.5, 1.0]


@pytest.mark.parametrize("patience, sweeps_run", [(1, 3), (2, 6)])
def test_patience_counts_consecutive_calm_sweeps(patience, sweeps_run):
    # sweep 2 ends where sweep 1 did, but sweep 3 moves again, so patience 2
    # waits for sweeps 4 and 5, which both end within the tolerance
    trace = []
    stop = run_sweeps(scripted(SWEEP_ENDS), [range(2)], 10, TOLS, trace,
                      patience=patience)
    assert stop is None
    assert len(trace) == 2 * sweeps_run
    assert trace[-1].sweep == sweeps_run - 1


def test_sweep_cap_and_mode_orders_cycle():
    calls, trace = [], []
    stop = run_sweeps(scripted(SWEEP_ENDS, calls), [range(2), range(1, -1, -1)],
                      3, TOLS, trace, patience=2)
    assert stop is None
    assert calls == [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)]
    assert [(t.sweep, t.mode) for t in trace] == calls


def test_abandoned_update_returns_position_and_writes_no_entry():
    trace = [TraceEntry(0, 0, 0, 0.0)]
    stop = run_sweeps(scripted([3.0, 2.0, 1.5, None, 0.0]), [range(2)], 10, TOLS,
                      trace, stage=2)
    assert stop == (1, 1)
    assert [(t.stage, t.sweep, t.mode) for t in trace] == [(0, 0, 0), (2, 0, 0),
                                                           (2, 0, 1), (2, 1, 0)]


def test_entries_carry_stage_and_flop_total():
    trace = []
    with flops.tally() as counter:
        flops.add(10)
        run_sweeps(scripted([3.0, 2.0, 2.0, 2.0]), [range(2)], 5, TOLS, trace,
                   stage=3)
    assert trace == [TraceEntry(3, 0, 0, 3.0, 11), TraceEntry(3, 0, 1, 2.0, 12),
                     TraceEntry(3, 1, 0, 2.0, 13), TraceEntry(3, 1, 1, 2.0, 14)]
    assert counter.total == 14
