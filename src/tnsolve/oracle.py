"""Exact ground truth: ground states and Rayleigh quotients of the full
2^p-dimensional problem.

Both work matrix-free on the Pauli-string form of the Hamiltonian
(:func:`hamiltonian.pauli_form`); the ground state comes from
:func:`tensor.krylov_min`, a Lanczos recurrence with full
reorthogonalization whose real tridiagonal projected matrix is solved every
third step, at most 2 matvecs past convergence.  So the 2^p x 2^p
matrix is never formed, and the solver holds one basis of 2^p-vectors and
no images of it.  The ground state is still capped at desk scale (p <= 14)
and exists to anchor every structured-format result; ``materialize_dense``
plus a full eigensolve stays as the tests' cross-check at small p.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import SpinHamiltonian, apply, pauli_form
# not called here; the benchmark's tracer self-test checks that this
# imported name is rebound
from .hamiltonian import materialize_dense  # noqa: F401
from .tensor import DenseState, DimensionCapError, _real_part, krylov_min


def ground_state_dense(h: SpinHamiltonian,
                       tols: Tolerances = DEFAULT_TOLS) -> tuple:
    """Smallest eigenvalue and a unit-norm, phase-normalized eigenvector.

    Lanczos recurrence on the Pauli-string action from a fixed-seed real
    Gaussian start vector: a symmetric start (uniform, say) can be
    orthogonal to the symmetry sector of the ground state.
    """
    if h.p > tols.dense_site_cap:
        raise DimensionCapError(f"p={h.p} exceeds dense cap {tols.dense_site_cap}")
    start = np.random.default_rng(0).standard_normal(2**h.p)
    energy, x = krylov_min(pauli_form(h).matvec, start, tols)
    return energy, DenseState(h.p, x)


def rayleigh(h: SpinHamiltonian, x: DenseState,
             tols: Tolerances = DEFAULT_TOLS) -> float:
    """(x^H H x) / (x^H x), asserted real within the configured residue."""
    nrm2 = np.real(np.vdot(x.vector, x.vector))
    if nrm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    hx = apply(h, x)
    num = np.vdot(x.vector, hx.vector)
    return _real_part(num / nrm2, tols, "Rayleigh quotient")
