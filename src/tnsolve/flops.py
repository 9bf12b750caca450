"""Operation counting for contraction kernels.

A "flop" here is one fused multiply-add: every pairwise tensor contraction
is charged output_size * contracted_size.  Dense factorizations (SVD, eig)
are deliberately not charged; the counters exist to check contraction
*schemes* against their cost bounds, not BLAS internals.

Counting is off unless a `tally()` context is active, so production runs
pay only a context-variable lookup per contraction.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np

_ACTIVE: contextvars.ContextVar["FlopCounter | None"] = contextvars.ContextVar(
    "tnsolve_flops", default=None
)


@dataclass
class FlopCounter:
    total: int = 0
    steps: list = field(default_factory=list)

    @property
    def max_step(self) -> int:
        return max(self.steps, default=0)

    def add(self, n: int) -> None:
        self.total += int(n)
        self.steps.append(int(n))


def add(n: int) -> None:
    """Charge `n` operations to the active counter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.add(n)


def current_total() -> int:
    counter = _ACTIVE.get()
    return counter.total if counter is not None else 0


@contextlib.contextmanager
def tally():
    """Activate a fresh counter for the duration of the block."""
    counter = FlopCounter()
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def tdot(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """np.tensordot (axes a pair) that charges output_size * contracted_size operations."""
    ax_a, ax_b = axes
    if isinstance(ax_a, int):
        ax_a, ax_b = (ax_a,), (ax_b,)
    contracted = 1
    for ax in ax_a:
        contracted *= a.shape[ax]
    out_size = (a.size // contracted) * (b.size // contracted)
    add(out_size * contracted)
    return np.tensordot(a, b, axes=(tuple(ax_a), tuple(ax_b)))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul (batched over leading axes) that charges output_size *
    contracted_size operations."""
    out = np.matmul(a, b)
    add(out.size * a.shape[-1])
    return out
