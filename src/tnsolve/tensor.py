"""Dense state vectors, layout helpers, labelled contraction and the small
linear-algebra kernel.

Layout doctrine (used by every module in this package): a tensor with shape
``(n_1, ..., n_p)`` is linearized with the *first index fastest*, i.e.
``lin(i_1, ..., i_p) = i_1 + n_1*i_2 + n_1*n_2*i_3 + ...``.  For a state of
``p`` binary sites this means site 1 is the least significant bit of the
vector index, and ``reshape(-1, order="F")`` turns the tensor into its
vector.  Kronecker products of per-site matrices therefore list the *last*
site first when built with ``np.kron`` (see :func:`kron_first_fastest`).

Dtype doctrine (also package-wide): arrays take their dtype from their
operands, the ``np.result_type`` of the Hamiltonian's operators (its MPO)
and of the inputs, at least float64.  So a real Hamiltonian gives real site
tensors, factors, environments and Krylov bases, and one complex operand
makes them complex; seeded random starts draw real Gaussians when the
operator they start is real (:func:`_gaussian`).  There is one code path
for both.  Only :class:`DenseState` is always complex.

Networks of tensors whose legs carry labels (grid sites, chain bits, bonds)
are contracted pairwise by ``_contract_labelled``, which sums over every
label the two tensors share and charges the step to the operation counter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances


class DimensionCapError(ValueError):
    """Raised when a dense materialization would exceed the configured cap."""


# ---------------------------------------------------------------------------
# layout

def kron_first_fastest(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-mode matrices acting on first-index-fastest
    vectors: mode 1 is the least significant index of the result.  Stacks of
    shape (..., a, b) are multiplied stack entry by stack entry."""
    out = np.eye(1)
    for m in mats:  # each later mode is more significant, as in np.kron(m, out)
        out = np.asarray(m)[..., :, None, :, None] * out[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                            out.shape[-2] * out.shape[-1]))
    return out


@dataclass(eq=False)
class DenseState:
    """Full coefficient vector of a p-site state: `vector` holds its 2**p
    complex entries in the package layout (site 1 the fastest bit)."""

    p: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex).reshape(-1)
        if self.vector.size != 2**self.p:
            raise ValueError(
                f"expected 2**{self.p} entries, got {self.vector.size}"
            )


# ---------------------------------------------------------------------------
# tensor operations

def _inexact(arrays) -> list:
    """`arrays` as arrays of one dtype: their result type, at least float64."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.result_type(np.float64, *arrays)
    return [a.astype(dtype, copy=False) for a in arrays]


def _gaussian(rng, shape, dtype) -> np.ndarray:
    """A seeded Gaussian draw of `dtype`: one standard normal draw when it
    is real, real and imaginary parts from two when it is complex."""
    if np.issubdtype(dtype, np.complexfloating):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _group_order_vector(groups, tens: np.ndarray) -> np.ndarray:
    """`tens`, its axis i on the sites of groups[i], as a vector in site order."""
    sites = [s for g in groups for s in g]
    axes = sorted(range(len(sites)), key=sites.__getitem__)  # argsort
    return tens.reshape((2,) * len(sites), order="F").transpose(axes).reshape(-1, order="F")


def _product_vector(groups, cols) -> np.ndarray:
    """The product of `cols` over site groups as a vector: column i on the
    sites of groups[i], its first site the fastest bit."""
    return _group_order_vector(groups, functools.reduce(np.multiply.outer, cols))


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


def _real_part(value: complex, tols: Tolerances, what: str = "expectation") -> float:
    """The real part of `value`, refused when its imaginary residue exceeds
    tols.rayleigh_imag relative to max(1, |real part|)."""
    if abs(value.imag) > tols.rayleigh_imag * max(1.0, abs(value.real)):
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


# ---------------------------------------------------------------------------
# linear-algebra kernel

def _phase_normalize_columns(u: np.ndarray, v: np.ndarray | None = None):
    """Rotate each column of `u` so its first nonzero entry is real positive.

    If `v` is given its rows absorb the conjugate phase, keeping u @ v fixed.
    Columns without an entry above 1e-300 are left untouched.  A real `u`
    stays real: z / |z| is exactly +-1 for a real z.
    """
    nonzero = np.abs(u) > 1e-300
    z = u[nonzero.argmax(axis=0), np.arange(u.shape[1])]
    z = np.where(nonzero.any(axis=0), z, 1.0)
    # Rounding matches a per-column loop: hypot is what abs() of a complex
    # scalar computes (np.abs of an array rounds differently), and a column
    # without a nonzero entry is scaled by exactly 1.
    phase = z / np.hypot(z.real, z.imag)
    u *= np.conj(phase)
    if v is not None:
        v *= phase[:, None]
    return u, v


def svd(m: np.ndarray):
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


def _hermitian_part(m: np.ndarray, tols: Tolerances) -> np.ndarray:
    """(m + m^H) / 2, refusing an `m` that is not Hermitian within
    `tols.hermitian` relative to max(1, ||m||), or whose defect is NaN.  A
    real `m` stays real (a real symmetric matrix), any other is made
    complex."""
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    mh = m.conj().T
    scale = max(1.0, np.linalg.norm(m))
    defect = np.linalg.norm(m - mh)
    if not defect <= tols.hermitian * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return 0.5 * (m + mh)


def hermitian_eig(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Eigenvalues (ascending) and phase-normalized orthonormal eigenvectors
    of a Hermitian matrix.  Refuses inputs that are not Hermitian within
    `tols.hermitian` relative to the matrix norm; symmetrizes before solving.
    A real symmetric matrix is solved in real arithmetic and has real
    eigenvectors.
    """
    w, v = np.linalg.eigh(_hermitian_part(m, tols))
    v = np.ascontiguousarray(v)
    _phase_normalize_columns(v)
    return w, v


# steps between krylov_min's solves of its projected T: a longer stride saves
# eigh calls but can run more matvecs past convergence
_RITZ_STRIDE = 3


def krylov_min(matvec, v0: np.ndarray, tols: Tolerances = DEFAULT_TOLS,
               bound: float | None = None):
    """Lowest eigenpair of a Hermitian operator given only as `matvec`.

    Lanczos recurrence with full reorthogonalization; real tridiagonal
    projected matrix.  The basis starts at `v0`.  Step k applies the
    operator once to the newest basis vector v_k, forms h = V^H A v_k, takes
    alpha_k = Re h_k and orthogonalizes A v_k against the whole basis by two
    Gram-Schmidt passes; the norm of what is left is beta_k and its
    direction is v_{k+1}.  The projected matrix V^H A V has h as column k
    and beta_{k-1} below its diagonal, so it must be Hermitian within
    `tols.hermitian` relative to max(1, ||V^H A V||): its defect accumulates
    from Im alpha_k, h_{k-1} - beta_{k-1} and the h_j, j < k - 1, which all
    vanish for a Hermitian operator.  So an operator that is not Hermitian
    is refused; that is the only check T gets.  T, real symmetric
    tridiagonal and kept as its two diagonals, goes straight to
    ``np.linalg.eigh`` at every third step (k % _RITZ_STRIDE == 0), at
    k = n, and whenever beta_k <= bound * max(1, ||T||_F), which holds at
    an invariant space.  `bound` defaults to tols.convergence; a caller
    that needs the pair only roughly (an early ALS sweep, see
    :func:`mps._chain_local`) passes a larger one.  Only the lowest Ritz
    pair (theta, y) of a solve is read; it has the residual
    ||A x - theta x|| = beta_k |y_k|, and the recurrence stops once that is
    <= bound * max(1, |theta|) or the basis spans the whole vector space.
    So it stops at most 2 matvecs after the step at which the residual
    first met that bound.  The Hermiticity defect and the Gram-Schmidt
    passes still run at every step, and an image that makes the defect NaN
    is refused as not Hermitian at once.  Since `v0` lies in
    the space, theta never exceeds its Rayleigh quotient.  The basis takes
    its dtype from `v0` and the images: it is real while they are, and the
    first complex image widens it to complex, so no imaginary part is ever
    dropped and no matvec is spent on finding the dtype.  Returns
    (theta, x) with x of unit norm, the basis dtype and the usual phase
    convention.
    """
    bound = tols.convergence if bound is None else bound
    u = np.asarray(v0).reshape(-1)
    n = u.size
    nrm = np.linalg.norm(u)
    if not nrm > 0.0:
        raise ValueError("krylov_min needs a nonzero start vector")
    u = u / nrm
    # the basis by rows, in one buffer that doubles in place when full (a
    # reallocation, so the basis is never held twice; no view of it outlives
    # a statement, which is what makes refcheck=False safe); rows keep every
    # product a contiguous matrix-vector product, and V^H w is formed as
    # conj(V @ conj(w)) so the basis is never copied (conj of a real array is
    # the array itself).  T is kept as its two diagonals.
    vs = np.zeros((0, n), dtype=u.dtype)
    alphas, betas = [], []
    beta = defect2 = norm2 = 0.0
    k = 0
    while True:
        if k == vs.shape[0]:
            vs.resize((min(n, max(8, 2 * k)), n), refcheck=False)
        vs[k] = u
        w = np.asarray(matvec(u)).reshape(-1)
        if np.iscomplexobj(w) and not np.iscomplexobj(vs):
            vs = vs.astype(complex)  # widen once, keeping the imaginary part
        k += 1
        h = (vs[:k] @ w.conj()).conj()
        # column k of V^H A V - (V^H A V)^H: its diagonal entry h_k -
        # conj(h_k), which is NaN for a NaN image even when it is real, and
        # the entries above the diagonal
        above = h[:-1].copy()
        if k > 1:
            above[-1] -= beta
        defect2 += abs(h[-1] - h[-1].conj()) ** 2 + 2.0 * np.vdot(above, above).real
        norm2 += np.vdot(h, h).real + beta ** 2
        if not np.sqrt(defect2) <= tols.hermitian * max(1.0, np.sqrt(norm2)):
            raise ValueError(f"matrix is not Hermitian: defect {np.sqrt(defect2):.3e}")
        w = w - h @ vs[:k]  # not in place: w may be matvec's own array
        w -= (vs[:k] @ w.conj()).conj() @ vs[:k]
        alphas.append(h[-1].real)
        beta = np.linalg.norm(w)
        betas.append(beta)
        if k % _RITZ_STRIDE == 0 or k == n \
                or beta <= bound * max(1.0, np.sqrt(norm2)):
            lam, y = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
            theta, y0 = float(lam[0]), y[:, 0]
            if beta * abs(y0[-1]) <= bound * max(1.0, abs(theta)) or k == n:
                break
        u = w / beta
    x = y0 @ vs[:k]
    x, _ = _phase_normalize_columns((x / np.linalg.norm(x)).reshape(-1, 1))
    return theta, x[:, 0]


def _whitening(b: np.ndarray, tols: Tolerances) -> np.ndarray:
    """S = Q_k W_k^{-1/2} for the Hermitian positive semidefinite b: its
    eigenvalues at or below the floor tols.pd_floor_scale * trace(b) /
    dim(b) are dropped, and S whitens the kept eigenspace (S^H b S = I).
    kron(b, I_n) has the same floor and the same kept eigenvalues, each n
    times, so S (x) I_n whitens it.  Raises ValueError when b is not
    Hermitian or no eigenvalue lies above the floor."""
    b = _hermitian_part(b, tols)
    w, q = np.linalg.eigh(b)
    floor = tols.pd_floor_scale * float(np.trace(b).real) / b.shape[0]
    keep = w > max(floor, 0.0)
    if not keep.any():
        raise ValueError(f"denominator has no eigenvalue above the floor {floor:.3e}")
    return q[:, keep] / np.sqrt(w[keep])


def generalized_eig_min(a: np.ndarray, b: np.ndarray,
                        tols: Tolerances = DEFAULT_TOLS):
    """Smallest eigenpair of the Hermitian pencil (a, b), b positive
    semidefinite, as (lambda_min, x) with x^H b x = 1 and the usual phase
    convention.  b is eigendecomposed once by :func:`_whitening`, which
    drops its eigenvalues at or below the floor, and the lowest eigenpair
    (lambda, y) of S^H a S gives x = S y.  So one path serves a regular b
    and a singular one.  Raises ValueError when a or b is not Hermitian or
    no eigenvalue of b lies above the floor.  No solver in the package calls
    it: it is kept as the dense reference that the CP mode and bordered
    solves are tested against.
    """
    a = _hermitian_part(a, tols)
    s = _whitening(b, tols)
    reduced = s.conj().T @ a @ s
    lam, y = np.linalg.eigh(0.5 * (reduced + reduced.conj().T))
    x, _ = _phase_normalize_columns(s @ y[:, :1])
    return float(lam[0]), x[:, 0]
