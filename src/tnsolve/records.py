"""Shared trace record and sweep driver for the iterative solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import flops


@dataclass(frozen=True)
class TraceEntry:
    """One recorded solver update.

    stage: greedy addend number (0 for single-stage methods)
    sweep: sweep/pass number within the stage
    mode:  mode or site index that was updated
    energy: Rayleigh quotient after the update
    flops: cumulative contraction operations at record time (0 if untallied)
    note:  optional event marker (e.g. restarts)
    clock: time.perf_counter() at record time (0.0 if unset); not compared
    """

    stage: int
    sweep: int
    mode: int
    energy: float
    flops: int = 0
    note: str = ""
    clock: float = field(default=0.0, compare=False)


def run_sweeps(update, modes, sweeps: int, tols, trace: list, stage: int = 0,
               patience: int = 1):
    """Alternating least squares over the modes of a format.

    Sweep s visits the modes in order modes[s % len(modes)] and calls
    update(s, mode), which solves that local problem and returns the
    Rayleigh quotient after it, or None to abandon the run.  Every energy is
    appended to `trace` as a TraceEntry of `stage` with the flop total and
    the clock.  The run stops after `sweeps` sweeps, or once `patience`
    consecutive sweeps each end within tols.convergence of the sweep before.
    Returns None, or the (sweep, mode) of the abandoned update, which is not
    recorded.
    """
    last, calm = None, 0
    for sweep in range(sweeps):
        for mode in modes[sweep % len(modes)]:
            energy = update(sweep, mode)
            if energy is None:
                return sweep, mode
            trace.append(TraceEntry(stage, sweep, mode, energy, flops.current_total(),
                                    clock=time.perf_counter()))
        settled = last is not None and abs(energy - last) < tols.convergence
        calm = calm + 1 if settled else 0
        if calm >= patience:
            break
        last = energy
    return None
