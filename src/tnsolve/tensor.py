"""Dense state vectors, layout helpers, labelled contraction and the small
linear-algebra kernel.

Layout doctrine (used by every module in this package): a tensor with shape
``(n_1, ..., n_p)`` is linearized with the *first index fastest*, i.e.
``lin(i_1, ..., i_p) = i_1 + n_1*i_2 + n_1*n_2*i_3 + ...``.  For a state of
``p`` binary sites this means site 1 is the least significant bit of the
vector index; :func:`ravel` and :func:`unravel` convert between the two
views.  Kronecker products of per-site matrices therefore list the *last*
site first when built with ``np.kron`` (see :func:`kron_first_fastest`).

Networks of tensors whose legs carry labels (grid sites, chain bits, bonds)
are contracted pairwise by ``_contract_labelled``, which sums over every
label the two tensors share and charges the step to the operation counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances


class SingularDenominatorError(RuntimeError):
    """Raised when the denominator of a generalized eigenproblem is not
    positive definite; callers may project onto the nonsingular subspace."""


class DimensionCapError(ValueError):
    """Raised when a dense materialization would exceed the configured cap."""


# ---------------------------------------------------------------------------
# layout

def ravel(t: np.ndarray) -> np.ndarray:
    """Vector view of a tensor in the package linearization order."""
    return t.reshape(-1, order="F")


def unravel(v: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Tensor view of a vector in the package linearization order."""
    return np.asarray(v).reshape(tuple(shape), order="F")


def kron_first_fastest(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-mode matrices acting on first-index-fastest
    vectors: mode 1 is the least significant index of the result."""
    out = np.eye(1)
    for m in mats:  # np.kron puts the *first* factor most significant
        out = np.kron(m, out)
    return out


@dataclass
class DenseState:
    """Full coefficient vector of a p-site state (2**p complex amplitudes)."""

    p: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != 2**self.p:
            raise ValueError(
                f"expected 2**{self.p} amplitudes, got {self.amplitudes.size}"
            )

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes

    def tensor(self) -> np.ndarray:
        """View with one binary mode per site (site 1 fastest)."""
        return unravel(self.amplitudes, (2,) * self.p)

    @classmethod
    def from_tensor(cls, t: np.ndarray) -> "DenseState":
        p = t.ndim
        if t.shape != (2,) * p:
            raise ValueError("state tensor must have all modes of size 2")
        return cls(p, ravel(t))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


# ---------------------------------------------------------------------------
# tensor operations

def outer_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Rank-one tensor with entries prod_j factors[j][i_j]."""
    if len(factors) == 0:
        raise ValueError("outer_product needs at least one factor")
    arrs = [np.asarray(f) for f in factors]
    for f in arrs:
        if f.ndim != 1 or f.size == 0:
            raise ValueError("factors must be nonempty vectors")
    out = arrs[0]
    for f in arrs[1:]:
        out = np.multiply.outer(out, f)
    return out


def _contract_labelled(a: np.ndarray, labels_a, b: np.ndarray, labels_b):
    """Contract `a` and `b` over every label they share (in sorted label
    order), counting the step.  Returns the result and its labels: the
    leftover legs of `a`, then those of `b`."""
    shared = sorted(set(labels_a) & set(labels_b))
    ax_a = tuple(labels_a.index(l) for l in shared)
    ax_b = tuple(labels_b.index(l) for l in shared)
    out = flops.tdot(a, b, axes=(ax_a, ax_b))
    labels = tuple(l for l in labels_a if l not in shared) + \
        tuple(l for l in labels_b if l not in shared)
    return out, labels


# ---------------------------------------------------------------------------
# linear-algebra kernel

def _phase_normalize_columns(u: np.ndarray, v: np.ndarray | None = None):
    """Rotate each column of `u` so its first nonzero entry is real positive.

    If `v` is given its rows absorb the conjugate phase, keeping u @ v fixed.
    Columns without an entry above 1e-300 are left untouched.
    """
    nonzero = np.abs(u) > 1e-300
    cols = np.flatnonzero(nonzero.any(axis=0))
    z = u[nonzero.argmax(axis=0)[cols], cols]
    # Rounding matches a per-column loop: hypot is what abs() of a complex
    # scalar computes (np.abs of an array rounds differently), and each
    # column is scaled as one array by one broadcast factor.
    phase = z / np.hypot(z.real, z.imag)
    u[:, cols] = (u[:, cols].T * np.conj(phase)[:, None]).T
    if v is not None:
        v[cols, :] *= phase[:, None]
    return u, v


def svd(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Economy SVD m = U @ diag(s) @ V with a deterministic phase convention.

    Singular values are nonincreasing and nonnegative; `U` has orthonormal
    columns, `V` orthonormal rows, and the first nonzero entry of each column
    of `U` is real positive.
    """
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd requires finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    u = np.ascontiguousarray(u)
    vh = np.ascontiguousarray(vh)
    _phase_normalize_columns(u, vh)
    return u, s, vh


def hermitian_eig(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Eigenvalues (ascending) and phase-normalized orthonormal eigenvectors
    of a Hermitian matrix.  Refuses inputs that are not Hermitian within
    `tols.hermitian` relative to the matrix norm; symmetrizes before solving.
    """
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, np.linalg.norm(m))
    defect = np.linalg.norm(m - m.conj().T)
    if defect > tols.hermitian * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    msym = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(msym)
    v = np.ascontiguousarray(v)
    _phase_normalize_columns(v)
    return w, v


def _padded(a: np.ndarray, shape) -> np.ndarray:
    """Copy of `a` in the leading corner of a zero array of `shape`."""
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(slice(0, s) for s in a.shape)] = a
    return out


def krylov_min(matvec, v0: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Lowest eigenpair of a Hermitian operator given only as `matvec`.

    Rayleigh-Ritz on a Krylov space that starts at `v0` and is fully
    reorthogonalized (two Gram-Schmidt passes per new vector); the projected
    matrix goes through :func:`hermitian_eig`, so an operator that is not
    Hermitian is refused.  Each step extends the space by the Ritz residual
    and stops once ||A x - theta x|| <= tols.convergence * max(1, |theta|),
    or when the space is invariant or spans the whole vector space.  Since
    `v0` lies in the space, theta never exceeds its Rayleigh quotient.
    Returns (theta, x) with x of unit norm and the usual phase convention.
    """
    u = np.asarray(v0, dtype=complex).reshape(-1)
    n = u.size
    nrm = np.linalg.norm(u)
    if not nrm > 0.0:
        raise ValueError("krylov_min needs a nonzero start vector")
    u = u / nrm
    # basis vectors and their images by row, and the projected matrix, in
    # buffers that double when full; rows keep every product a contiguous
    # matrix-vector product, and vs^H r is formed as conj(vs @ conj(r)) so
    # the basis is never copied
    vs = ws = np.zeros((0, n), dtype=complex)
    t = np.zeros((0, 0), dtype=complex)
    k = 0
    while True:
        if k == vs.shape[0]:
            cap = min(n, max(8, 2 * k))
            vs, ws, t = _padded(vs, (cap, n)), _padded(ws, (cap, n)), \
                _padded(t, (cap, cap))
        vs[k] = u
        ws[k] = np.asarray(matvec(u), dtype=complex).reshape(-1)
        k += 1
        t[:k, k - 1] = (vs[:k] @ ws[k - 1].conj()).conj()
        t[k - 1, :k] = ws[:k] @ u.conj()
        w, y = hermitian_eig(t[:k, :k], tols)
        theta, y0 = float(w[0]), y[:, 0]
        x = y0 @ vs[:k]
        r = y0 @ ws[:k] - theta * x
        scale = tols.convergence * max(1.0, abs(theta))
        if np.linalg.norm(r) <= scale or k == n:
            break
        for _ in range(2):
            r = r - (vs[:k] @ r.conj()).conj() @ vs[:k]
        beta = np.linalg.norm(r)
        if beta <= scale:
            break
        u = r / beta
    x, _ = _phase_normalize_columns((x / np.linalg.norm(x)).reshape(-1, 1))
    return theta, x[:, 0]


def pd_floor(b: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Positive-definiteness floor for a denominator matrix."""
    b = np.asarray(b)
    return tols.pd_floor_scale * float(np.real(np.trace(b))) / b.shape[0]


def generalized_eig_min(a: np.ndarray, b: np.ndarray,
                        tols: Tolerances = DEFAULT_TOLS):
    """Smallest eigenpair of the Hermitian pencil (a, b) with b positive
    definite, via Cholesky reduction.  Returns (lambda_min, v) normalized to
    v^H b v = 1 with the usual phase convention.

    Raises SingularDenominatorError when lambda_min(b) falls below the floor,
    signalling the caller to project onto the nonsingular subspace instead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    floor = pd_floor(b, tols)
    bw = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    if bw[0] <= floor:
        raise SingularDenominatorError(
            f"denominator eigenvalue {bw[0]:.3e} at or below floor {floor:.3e}"
        )
    l = np.linalg.cholesky(0.5 * (b + b.conj().T))
    # reduced = L^-1 a L^-H, kept Hermitian by construction
    tmp = np.linalg.solve(l, a)
    reduced = np.linalg.solve(l, tmp.conj().T).conj().T
    w, v = hermitian_eig(reduced, tols)
    x = np.linalg.solve(l.conj().T, v[:, 0])
    nb = np.sqrt(np.real(np.vdot(x, b @ x)))
    x = x / nb
    x, _ = _phase_normalize_columns(x.reshape(-1, 1))
    return float(w[0]), x[:, 0]


def generalized_eig_min_projected(a: np.ndarray, b: np.ndarray,
                                  tols: Tolerances = DEFAULT_TOLS):
    """Like :func:`generalized_eig_min` but solves on the numerically
    nonsingular eigenspace of b and embeds the eigenvector back."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    w, q = hermitian_eig(b, tols)
    floor = pd_floor(b, tols)
    keep = w > max(floor, 0.0)
    if not np.any(keep):
        raise SingularDenominatorError("denominator has no positive eigenvalues")
    qk = q[:, keep]
    ap = qk.conj().T @ a @ qk
    bp = np.diag(w[keep])
    lam, y = generalized_eig_min(ap, bp, tols)
    x = qk @ y
    x, _ = _phase_normalize_columns(x.reshape(-1, 1))
    return lam, x[:, 0]
