"""Matrix product states (tensor trains) over blocked site groups.

Site j of a chain with blocking widths (t_1, ..., t_q) holds an array of
shape (D_j, 2^{t_j}, D_{j+1}), all sites of one dtype: real when every input
is real, complex otherwise (the package dtype rule, see :mod:`tensor`).
Entry [m, i, m'] is the (m, m') element of the matrix selected by the
physical index i.  Within a block the first site
is the fastest bit of the physical index, matching the package layout.
Open chains have D_1 = D_{q+1} = 1; periodic chains close with a trace, so
D_{q+1} = D_1.

A Hamiltonian enters every chain contraction as its matrix product operator
(:func:`hamiltonian.mpo`).  ALS runs an open chain whatever the boundary
of H: a periodic Hamiltonian's wrap bond is one more channel of its MPO, so
the ALS environments have shape (w, D, D), w the operator bond, and the
wrap legs of a periodic chain appear only in :func:`_zipper`.  ALS on a
real MPO starts from a real chain, so its sites, environments and local
Krylov bases stay real; that covers every real Hamiltonian, the XY chain's
included (its Y factors enter the MPO as iY and -iY).  A local solve
applies its effective operator as three fixed-shape matmuls per matvec, on
vectors laid out (d, Dl, Dr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import (
    Blocking,
    SpinHamiltonian,
    mpo,
    mpo_apply,
)
from .records import run_sweeps
from .tensor import (
    DenseState,
    DimensionCapError,
    _gaussian,
    _inexact,
    _real_part,
    krylov_min,
    ravel,
    svd,
)
# Not called here any more; tnbench/selftest.py checks that its tracer
# rebinds this imported name.
from .tensor import hermitian_eig  # noqa: F401


@dataclass
class MpsState:
    boundary: str
    blocking: Blocking
    sites: list

    def __post_init__(self):
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"bad boundary {self.boundary!r}")
        if len(self.sites) != self.blocking.q:
            raise ValueError("one site tensor per block required")
        self.sites = _inexact(self.sites)
        for j, (s, w) in enumerate(zip(self.sites, self.blocking.widths)):
            if s.ndim != 3 or s.shape[1] != 2**w:
                raise ValueError(f"site {j} must have shape (D, {2**w}, D')")
        for j in range(len(self.sites) - 1):
            if self.sites[j].shape[2] != self.sites[j + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {j} and {j + 1}")
        if self.boundary == "open":
            if self.sites[0].shape[0] != 1 or self.sites[-1].shape[2] != 1:
                raise ValueError("open boundary requires outer bonds of size 1")
        else:
            if self.sites[0].shape[0] != self.sites[-1].shape[2]:
                raise ValueError("periodic boundary requires matching wrap bonds")

    @property
    def p(self) -> int:
        return self.blocking.p

    @property
    def q(self) -> int:
        return self.blocking.q

    def copy(self) -> "MpsState":
        return MpsState(self.boundary, self.blocking,
                        [s.copy() for s in self.sites])


@dataclass
class GaugeStatus:
    """The squared norm, when the gauge sweep exposes it (open chains)."""

    gamma: float | None = None


# ---------------------------------------------------------------------------
# construction

def random_mps(p: int, d_bond: int, boundary: str = "open",
               blocking: Blocking | None = None, seed: int = 0,
               dtype=complex) -> MpsState:
    """Reproducible Gaussian state of `dtype` (:func:`tensor._gaussian`,
    scaled by 1/sqrt(2)): complex by default, real when ALS starts it for a
    real Hamiltonian.  Open-boundary bonds are clamped to min(D, 2^{left
    bits}, 2^{right bits}) so no bond exceeds what the cut can carry."""
    blocking = blocking or Blocking.single_sites(p)
    if blocking.p != p:
        raise ValueError("blocking does not cover p sites")
    rng = np.random.default_rng(seed)
    cuts = blocking.cuts
    if boundary == "open":
        bonds = [min(d_bond, 2**s, 2 ** (p - s)) for s in cuts]
    else:
        bonds = [d_bond] * (blocking.q + 1)
    sites = []
    for j, w in enumerate(blocking.widths):
        shape = (bonds[j], 2**w, bonds[j + 1])
        sites.append(_gaussian(rng, shape, dtype) / np.sqrt(2.0))
    return MpsState(boundary, blocking, sites)


def from_unit_vector(index: int, p: int) -> MpsState:
    """Basis vector e_index as a bond-dimension-1 chain: site r holds the
    indicator of bit r of `index` (site 1 is the least significant bit)."""
    if not 0 <= index < 2**p:
        raise ValueError("basis index out of range")
    sites = []
    for r in range(p):
        a = np.zeros((1, 2, 1))
        a[0, (index >> r) & 1, 0] = 1.0
        sites.append(a)
    return MpsState("open", Blocking.single_sites(p), sites)


# ---------------------------------------------------------------------------
# evaluation

def to_dense(x: MpsState, cap: int = DEFAULT_TOLS.dense_site_cap) -> DenseState:
    """Full coefficient vector in the package layout."""
    if x.p > cap:
        raise DimensionCapError(f"p={x.p} exceeds dense cap {cap}")
    acc = x.sites[0]
    for site in x.sites[1:]:
        acc = np.tensordot(acc, site, axes=(acc.ndim - 1, 0))
    if x.boundary == "open":
        tens = acc[0, ..., 0]
    else:
        tens = np.trace(acc, axis1=0, axis2=acc.ndim - 1)
    return DenseState(x.p, ravel(tens))


# ---------------------------------------------------------------------------
# structure

def add(x: MpsState, y: MpsState) -> MpsState:
    """Sum of two chains: every site block-diagonal in its bonds.  An open
    chain then sums its first site over the left bond and its last site over
    the right bond, which concatenates the boundary vectors (and gives a + b
    for a single block).  Bond dimensions add."""
    if x.p != y.p or x.boundary != y.boundary or x.blocking != y.blocking:
        raise ValueError("summands must share length, boundary and blocking")
    sites = []
    for a, b in zip(x.sites, y.sites):
        c = np.zeros((a.shape[0] + b.shape[0], a.shape[1], a.shape[2] + b.shape[2]),
                     dtype=np.result_type(a, b))
        c[: a.shape[0], :, : a.shape[2]] = a
        c[a.shape[0] :, :, a.shape[2] :] = b
        sites.append(c)
    if x.boundary == "open":
        sites[0] = sites[0].sum(axis=0, keepdims=True)
        sites[-1] = sites[-1].sum(axis=2, keepdims=True)
    return MpsState(x.boundary, x.blocking, sites)


def _merge_rows(site: np.ndarray) -> np.ndarray:
    """Site (D, d, D') as the (d D, D') matrix whose row index is the
    (bond, phys) pair with the bond fast."""
    return np.swapaxes(site, 0, 1).reshape(-1, site.shape[2])


def _split_rows(u: np.ndarray, dl: int, d: int) -> np.ndarray:
    """Inverse of :func:`_merge_rows`."""
    return u.reshape(d, dl, -1).transpose(1, 0, 2)


def _qr_shift_right(sites: list, c: int) -> None:
    """Left-gauge sites[c] by reduced QR, keeping every direction, and push
    R into sites[c + 1]."""
    dl, d, _ = sites[c].shape
    q, r = np.linalg.qr(_merge_rows(sites[c]))
    sites[c] = _split_rows(q, dl, d)
    sites[c + 1] = flops.tdot(r, sites[c + 1], axes=(1, 0))


def _move_center(sites: list, a: int, b: int) -> None:
    """Move the orthogonality center from sites[a] to sites[b], in place, by
    :func:`_qr_shift_right` steps.  Going right, each site passed is
    left-gauged; going left, each is right-gauged by the same step on the
    mirrored pair.  The represented vector is unchanged, and a bond shrinks
    only where its site cannot carry it."""
    for c in range(a, b):
        _qr_shift_right(sites, c)
    for c in range(a, b, -1):
        pair = [sites[c].transpose(2, 1, 0), sites[c - 1].transpose(2, 1, 0)]
        _qr_shift_right(pair, 0)
        sites[c], sites[c - 1] = (t.transpose(2, 1, 0) for t in pair)


def _truncate_bonds(sites: list, d_max: int, tols: Tolerances) -> None:
    """Cap every bond of an open chain at d_max, in place.  One exact QR
    step at the top clamps bond 1 to what site 0 carries (a chain that just
    absorbed an MPO can hold far more there), a QR pass from the bottom
    right-gauges the chain without truncation, and a top-down SVD pass then
    left-gauges each site and cuts its bond against the true spectrum,
    keeping at most d_max singular values above tols.zero_singular times
    the largest (and at least one), so a cap at or above the exact bond rank
    loses nothing."""
    if len(sites) < 2:
        return
    _qr_shift_right(sites, 0)
    _move_center(sites, len(sites) - 1, 0)
    for c in range(len(sites) - 1):
        dl, d, _ = sites[c].shape
        u, s, v = svd(_merge_rows(sites[c]))
        rank = max(1, min(int(np.sum(s > tols.zero_singular * s[0])), d_max))
        sites[c] = _split_rows(u[:, :rank], dl, d)
        sites[c + 1] = flops.tdot(s[:rank, None] * v[:rank], sites[c + 1], axes=(1, 0))


def normalize_left_sweep(x: MpsState):
    """Left-gauge sites 1..q-1 by successive QR steps, pushing the remaining
    factor to the right (:func:`_move_center`).  The represented vector is
    unchanged; for open chains the returned status carries gamma = squared
    norm."""
    out = x.copy()
    _move_center(out.sites, 0, out.q - 1)
    gamma = float(np.sum(np.abs(out.sites[-1]) ** 2))
    return out, GaugeStatus(gamma if out.boundary == "open" else None)


def normalize_right_sweep(x: MpsState):
    """Mirror image of :func:`normalize_left_sweep`: gauges sites q..2."""
    out = x.copy()
    _move_center(out.sites, out.q - 1, 0)
    gamma = float(np.sum(np.abs(out.sites[0]) ** 2))
    return out, GaugeStatus(gamma if out.boundary == "open" else None)


def gauge_residual_left(site: np.ndarray) -> float:
    """|| sum_i U^(i)H U^(i) - I || for one site tensor."""
    m = _merge_rows(site)
    g = m.conj().T @ m
    return float(np.linalg.norm(g - np.eye(g.shape[0])))


def gauge_residual_right(site: np.ndarray) -> float:
    """|| sum_i U^(i) U^(i)H - I || for one site tensor: the left residual
    of the mirrored site."""
    return gauge_residual_left(site.transpose(2, 1, 0))


# ---------------------------------------------------------------------------
# contractions

def _env_step_right(env: np.ndarray, bra: np.ndarray, ket: np.ndarray,
                    w: np.ndarray | None = None) -> np.ndarray:
    """Grow a (bra, ket) environment (w_j, ..., Dl, Dl) by one site from
    the left: L'[b, ..., y', x'] = sum L[a, ..., y, x] conj(bra[y, i, y'])
    H_j[a, b, i, j] ket[x, j, x'] with H_j = w the site's MPO tensor
    (w_j, w_{j+1}, d, d), or the identity when w is None.  Axes between the
    first and the last two are batch axes: :func:`_zipper` carries the wrap
    legs there as (w, W, Dl, Dl); the ALS environments have none."""
    f = np.moveaxis(flops.tdot(env, ket, axes=(-1, 0)), -2, 1)  # (a, j, ..., y, x')
    if w is not None:
        f = mpo_apply(w, f)                                     # (b, i, ..., y, x')
    f = flops.tdot(f, bra.conj(), axes=((1, -2), (1, 0)))      # (b, ..., x', y')
    return np.swapaxes(f, -1, -2)


def _env_step_left(env: np.ndarray, bra: np.ndarray, ket: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """Mirror image of :func:`_env_step_right`: (w_{j+1}, ..., Dr, Dr) ->
    (w_j, ..., Dl, Dl), the right step on the mirrored sites with the MPO
    site applied from its right bond."""
    return _env_step_right(env, bra.transpose(2, 1, 0), ket.transpose(2, 1, 0),
                           np.swapaxes(w, 0, 1))


def _zipper(bras: list, kets: list, ws: list | None = None) -> complex:
    """sum_i conj(bra_i) (H ket)_i over two site lists, H the MPO with sites
    ws (the identity when ws is None): one environment, with the wrap legs
    as its batch axis, starts as the identity from the wrap legs (wrap_y,
    wrap_x) to the first bonds, grows site by site by
    :func:`_env_step_right` and is closed by tracing the wrap legs against
    the last bonds.  Open chains have size-1 wrap legs, so the same sweep
    covers both boundaries."""
    dy, dx = bras[0].shape[0], kets[0].shape[0]
    e = np.eye(dy * dx).reshape(1, dy * dx, dy, dx)
    for bra, ket, w in zip(bras, kets, ws or [None] * len(kets)):
        e = _env_step_right(e, bra, ket, w)
    flops.add(dy * dx)
    return complex(np.einsum("abab->", e.reshape(dy, dx, dy, dx)))


def inner(x: MpsState, y: MpsState) -> complex:
    """<y, x> = sum_i conj(y_i) x_i, contracted site by site without ever
    materializing the dense vectors.  Operation count stays below 4 D^3 p
    for open chains and 4 D^5 p + D^2 for periodic ones."""
    if x.p != y.p or x.blocking != y.blocking or x.boundary != y.boundary:
        raise ValueError("inner product requires matching chains")
    return _zipper(y.sites, x.sites)


def expectation(h: SpinHamiltonian, x: MpsState,
                tols: Tolerances = DEFAULT_TOLS) -> float:
    """<x, H x> by one zipper with the Hamiltonian's MPO woven onto the
    physical bonds; never forms H x as a state.  Refuses an imaginary
    residue above tols.rayleigh_imag (relative)."""
    total = _zipper(x.sites, x.sites, mpo(h, x.blocking.groups))
    return _real_part(total, tols)


def _apply_mpo(ws: list, sites: list) -> list:
    """Sites of the MPO with sites ws applied to a chain: MPO site j of shape
    (w_j, w_{j+1}, n_out, n_in) meets chain site j of shape (D_j, n_in,
    D_{j+1}), its operator bonds merged into the chain's (operator bond
    slow), so site j becomes (w_j D_j, n_out, w_{j+1} D_{j+1})."""
    out = []
    for w, site in zip(ws, sites):
        wl, wr, n_out, n_in = w.shape
        dl, _, dr = site.shape
        # the operator bond pair (a, b) as one outgoing bond of a size-1 one
        t = mpo_apply(w.reshape(1, wl * wr, n_out, n_in),
                      site.transpose(1, 0, 2)[None])
        t = t.reshape(wl, wr, n_out, dl, dr).transpose(0, 3, 2, 1, 4)
        out.append(t.reshape(wl * dl, n_out, wr * dr))
    return out


def mps_energy(h: SpinHamiltonian, x: MpsState,
               tols: Tolerances = DEFAULT_TOLS) -> float:
    """Rayleigh quotient from contractions only."""
    nrm = inner(x, x)
    return expectation(h, x, tols) / float(np.real(nrm))


# ---------------------------------------------------------------------------
# ALS ground-state search

def _local_operator(lenv: np.ndarray, w: np.ndarray, renv: np.ndarray):
    """The matvec of sum_{a,b} L_a x H_c[a, b] x R_b on site tensors held
    as (d, Dl, Dr), physical index slowest, from the (w_c, Dl, Dl) left
    environments, the center's MPO site H_c = w of shape (w_c, w_{c+1}, d,
    d) and the (w_{c+1}, Dr, Dr) right environments.  The operands are
    reshaped once, so each product is three fixed-shape matmuls: L_a
    against every x_j (batched), H_c as one (w_{c+1} d, w_c d) matrix on
    the (a, j) rows, and each R_b^T (batched), summed over b.  Each call is
    charged w_c Dl^2 d Dr + w_c w_{c+1} d^2 Dl Dr + w_{c+1} d Dl Dr^2
    operations."""
    wl, wr, d, _ = w.shape
    dl, dr = lenv.shape[-1], renv.shape[-1]
    lmat = lenv[:, None]                                          # (a, 1, Dl, Dl)
    wmat = w.transpose(1, 2, 0, 3).reshape(wr * d, wl * d)        # (b i, a j)
    rmat = np.ascontiguousarray(renv.swapaxes(1, 2))[:, None]     # (b, 1, Dr, Dr)
    cost = wl * dl * dl * d * dr + wl * wr * d * d * dl * dr + wr * d * dl * dr * dr

    def matvec(v: np.ndarray) -> np.ndarray:
        flops.add(cost)
        y = np.matmul(lmat, v.reshape(d, dl, dr))                 # (a, j, Dl, Dr)
        y = wmat @ y.reshape(wl * d, dl * dr)                     # (b i, Dl Dr)
        return np.matmul(y.reshape(wr, d, dl, dr), rmat).sum(axis=0)

    return matvec


def _chain_local(ws: list, state: MpsState, tols: Tolerances):
    """ALS update of an open chain, for :func:`run_sweeps`.

    The Hamiltonian enters as its MPO `ws` (:func:`mpo`, sites H_j with
    operator bonds w_j), of either boundary: a periodic H's wrap bond is
    one more MPO channel.  One cached (left, right) environment pair per
    cut, of shape (w, D, D) and grown from a (1, 1, 1) edge at both chain
    ends, gives the effective operator of the center site as
    sum_{a,b} L_a x H_c[a, b] x R_b.

    The chain is kept in mixed-canonical gauge, so the update is a
    Hermitian eigenproblem.  :func:`_local_operator` builds the operator
    once per update as a matvec of fixed-shape matmuls on vectors laid out
    (d, Dl, Dr), and :func:`krylov_min` (a Lanczos recurrence with full
    reorthogonalization whose tridiagonal projected matrix goes to ``eigh``
    every third step) finds its lowest eigenpair from a Krylov space
    started at the current center tensor, so no update raises the energy.
    The center tensor is transposed to that layout once on the way in, and
    the solution once on the way out.

    update(sweep, c) moves the center to c: it re-gauges the site left
    behind by one QR step (:func:`_move_center`), which keeps its bonds, and
    grows the environments over it (even sweeps go right, odd ones left),
    then replaces site c by the lowest local eigenvector and returns its
    energy.
    """
    q = state.q

    def grown(env, c, step):
        step_fn = _env_step_right if step > 0 else _env_step_left
        return step_fn(env, state.sites[c], state.sites[c], ws[c])

    edge = np.ones((1, 1, 1))
    lenv = [edge] + [None] * (q - 1)
    renv = [None] * (q - 1) + [edge]
    for j in range(q - 1, 0, -1):  # right environments for center 0
        renv[j - 1] = grown(renv[j], j, -1)

    def update(sweep, c):
        step = 1 if sweep % 2 == 0 else -1
        behind = c - step
        if 0 <= behind < q:
            _move_center(state.sites, behind, c)
            envs = lenv if step > 0 else renv
            envs[c] = grown(envs[behind], behind, step)
        site = state.sites[c]
        matvec = _local_operator(lenv[c], ws[c], renv[c])
        energy, vec = krylov_min(matvec, _merge_rows(site), tols)
        state.sites[c] = _split_rows(vec, *site.shape[:2])
        return energy

    return update


def als_ground_state(h: SpinHamiltonian, p: int, d_bond: int,
                     boundary: str = "open", sweeps: int = 10, seed: int = 0,
                     blocking: Blocking | None = None,
                     tols: Tolerances = DEFAULT_TOLS) -> tuple:
    """Alternating single-site minimization of the Rayleigh quotient.

    The search runs an open chain for either boundary of H, whose wrap
    bond is one more channel of its MPO; `boundary` names the Hamiltonian's
    boundary for callers and must be "open" or "periodic".  One cached
    environment per cut against the MPO grows by one site after every
    update.  The chain stays in mixed-canonical gauge, so every update is a
    standard Hermitian eigenproblem, solved matrix-free by a Lanczos
    recurrence with full reorthogonalization whose real tridiagonal
    projected matrix is solved every third step (so a converged pair costs
    at most 2 extra matvecs).  It starts at the current site tensor, and the
    effective matrix is never formed: each update reshapes its environments
    and MPO site once, and every matvec is three fixed-shape matmuls.  The
    random start takes its dtype from the Hamiltonian's MPO, so a real MPO
    (the Ising and XY chains and lattices) is solved in real arithmetic
    throughout.  One sweep is one directional pass; direction alternates,
    re-gauging by QR after every update, and two consecutive sweeps that
    move the energy by less than tols.convergence stop the search.  Returns
    (trace, state) with a nonincreasing energy trace and an open state.
    """
    if boundary not in ("open", "periodic"):
        raise ValueError(f"bad boundary {boundary!r}")
    if d_bond < 1 or sweeps < 1:
        raise ValueError("need d_bond >= 1 and sweeps >= 1")
    if h.p != p:
        raise ValueError("Hamiltonian size does not match p")
    blocking = blocking or Blocking.single_sites(p)
    ws = mpo(h, blocking.groups)
    state = random_mps(p, d_bond, "open", blocking, seed, ws[0].dtype)
    state, _ = normalize_right_sweep(state)
    trace = []
    run_sweeps(_chain_local(ws, state, tols),
               (range(state.q), range(state.q - 1, -1, -1)), sweeps, tols, trace,
               patience=2)
    return trace, state
