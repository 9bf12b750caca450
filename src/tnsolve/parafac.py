"""Blocked canonical (CP) ansatz: rank-D sums of block-vector tensor products.

A state over site groups (g_1, ..., g_q), any partition of the sites,
stores one factor matrix per mode, shape (2^{|g_i|}, D), g_i's first site
its fastest bit; addend l is the tensor product of the columns
factors[i][:, l], scaled by weights[l].  Contractions reduce to per-mode
Gram matrices, so an inner product costs q block dots per addend pair.
Only :func:`as_diagonal_mps` needs the groups to be blocks in chain order.

A :class:`MixedTerm` is one product term over its own site groups: the
one product-term type, whether its groups are a blocking's blocks, a cyclic
blocking's, a 2D pattern's (`mixed.pattern_groups`) or any other partition.

The solvers read the Hamiltonian only as its MPO over the modes' site
groups, and every local problem, greedy or simultaneous, comes from
environments cached against it (:class:`_Environments`), so a sweep costs
O(q) block contractions.  A greedy stage is such a tuple of site groups,
and the addend it adds is a MixedTerm with one factor per group; frozen
addends on the same groups ride in the stage's one environment as trailing
ket columns.  One loop, :func:`_greedy_core`, runs every list of stages
and picks the first start and each stage's cross terms itself;
:func:`greedy_als` and `mixed.ground_state_mixed_greedy` only build the
list and wrap the addends.

Local solves cost what their small matrices cost: a simultaneous mode is
whitened at its r x r Gram matrix (:func:`_mode_solve`), and a greedy
update's bordered denominator, a scaled identity plus one border, in
closed form through its Schur complement (:func:`_bordered_solve`), so no
denominator is eigendecomposed at full size; the Kronecker sums that
build the numerators are one matmul each (:func:`_kron_sum`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import Blocking, BlockedHamiltonian, SpinHamiltonian, _partition, mpo
from .mps import MpsState
from .records import TraceEntry, run_sweeps
from .tensor import (
    DenseState,
    _gaussian,
    _hermitian_part,
    _inexact,
    _phase_normalize_columns,
    _product_vector,
    _whitening,
    hermitian_eig,
)


@dataclass
class BlockedCp:
    groups: tuple
    factors: list
    weights: np.ndarray = None

    def __post_init__(self):
        self.factors = _inexact(self.factors)
        self.groups = _partition(self.groups, lengths=[f.shape[0] for f in self.factors])
        if len({f.shape[1] for f in self.factors}) != 1:
            raise ValueError("all modes must hold the same number of addends")
        if self.weights is None:
            self.weights = np.ones(self.rank)
        else:
            self.weights = _inexact([self.weights])[0].reshape(-1)
            if self.weights.size != self.rank:
                raise ValueError("one weight per addend required")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def p(self) -> int:
        return sum(map(len, self.groups))

    def copy(self) -> "BlockedCp":
        return BlockedCp(self.groups, [f.copy() for f in self.factors],
                         self.weights.copy())

    def normalize_addends(self) -> "BlockedCp":
        """Scale every stored factor to unit norm, the weight carrying the
        magnitude.  The represented vector is unchanged."""
        out = self.copy()
        for i, f in enumerate(out.factors):
            norms = np.linalg.norm(f, axis=0)
            safe = np.where(norms > 0.0, norms, 1.0)
            out.factors[i] = f / safe
            out.weights = out.weights * norms
        return out


@dataclass
class MixedTerm:
    """weight * (x_1 (x) ... (x) x_q), x_i on the sites of groups[i] (in
    factor bit order), the groups any partition of the sites.  The factors
    share one dtype, real when all of them are; the weight is a real or
    complex scalar (real for the addends of the greedy solvers on a real
    Hamiltonian)."""

    groups: tuple
    factors: list
    weight: float | complex = 1.0

    def __post_init__(self):
        self.factors = [f.reshape(-1) for f in _inexact(self.factors)]
        self.groups = _partition(self.groups, lengths=[f.size for f in self.factors])

    @property
    def p(self) -> int:
        return sum(map(len, self.groups))


def random_cp(blocking: Blocking, rank: int, seed: int = 0,
              dtype=complex) -> BlockedCp:
    """Reproducible state of unit-norm Gaussian columns of `dtype`
    (:func:`tensor._gaussian`): complex by default, real when the
    simultaneous solver starts it for a real Hamiltonian."""
    rng = np.random.default_rng(seed)
    factors = []
    for w in blocking.widths:
        f = _gaussian(rng, (2**w, rank), dtype)
        factors.append(f / np.linalg.norm(f, axis=0))
    return BlockedCp(blocking.groups, factors)


def to_dense(x: BlockedCp) -> DenseState:
    total = np.zeros(2**x.p, dtype=complex)
    for l in range(x.rank):
        total += x.weights[l] * _product_vector(x.groups, [f[:, l] for f in x.factors])
    return DenseState(x.p, total)


# ---------------------------------------------------------------------------
# contractions

def inner(y: BlockedCp, x: BlockedCp) -> complex:
    """<y, x> = w_y^H (Hadamard product over modes of Y_i^H X_i) w_x: per
    addend pair a product of q block dots."""
    if y.groups != x.groups:
        raise ValueError("inner product requires identical site groups")
    prod = 1.0
    for i, (fy, fx) in enumerate(zip(y.factors, x.factors)):
        gram = flops.matmul(fy.conj().T, fx)
        if i:
            flops.add(gram.size)
        prod = prod * gram
    flops.add(prod.size + prod.shape[0])
    return complex(y.weights.conj() @ prod @ x.weights)


def expectation_form(ws: list, y: BlockedCp, x: BlockedCp) -> complex:
    """<y, H x> = w_y^H E w_x, E the (m, m') environment of the addend
    pairs chained left to right over the MPO sites `ws` of H on the common
    site groups of y and x: E_{i+1}[b] = sum_a E_i[a] * (Y_i^H W_i[a, b]
    X_i) (:func:`_transfer`), from E_0 = 1 at the one "start" channel."""
    if y.groups != x.groups or len(ws) != len(x.groups):
        raise ValueError("expectation requires one common set of site groups")
    env = np.ones((1, y.rank, x.rank))
    for w, fy, fx in zip(ws, y.factors, x.factors):
        t = _transfer(fy, flops.matmul(w, fx))
        flops.add(t.size)
        env = (env[:, None] * t).sum(axis=0)
    flops.add(env.size + env.shape[1])
    return complex(y.weights.conj() @ env[0] @ x.weights)


def apply_hamiltonian(h: SpinHamiltonian, x: BlockedCp) -> BlockedCp:
    """H x as a blocked CP state of rank M * D, addend k*D + l holding term
    k applied to addend l; coefficients are absorbed into the first mode."""
    table = BlockedHamiltonian(h, x.groups)
    factors = []
    for i, (ops, f) in enumerate(zip(table.ops, x.factors)):
        applied = flops.matmul(ops, f)[table.idx[:, i]]
        if i == 0:
            applied = applied * table.alpha[:, None, None]
        factors.append(applied.transpose(1, 0, 2).reshape(f.shape[0], -1))
    return BlockedCp(x.groups, factors, np.tile(x.weights, table.alpha.size))


def as_diagonal_mps(x: BlockedCp) -> MpsState:
    """Equivalent open chain with diagonal matrices: addend l occupies the
    l-th diagonal entry of every bond; weights fold into the first site.
    Refuses groups that are not blocks in chain order."""
    blocking, eye = Blocking.from_groups(x.groups), np.eye(x.rank)
    sites = []
    for i, f in enumerate(x.factors):
        a = f[None] * eye[:, None]  # a[l, :, m] = delta_lm f[:, m]
        if i == 0:
            a = (a * x.weights[:, None, None]).sum(axis=0, keepdims=True)
        if i == blocking.q - 1:
            a = a.sum(axis=2, keepdims=True)
        sites.append(a)
    return MpsState("open", blocking, sites)


# ---------------------------------------------------------------------------
# spectral initialization

def spectral_init(h: SpinHamiltonian, blocking: Blocking, rank: int) -> BlockedCp:
    """Mode-i factors from the lowest eigenvectors of the block-local part of
    the Hamiltonian: a term contributes to a block only if its whole support
    lies inside that block, and it enters with its coefficient."""
    return BlockedCp(blocking.groups, _spectral_factors(mpo(h, blocking.groups), rank))


def _spectral_factors(ws: list, rank: int) -> list:
    """The factor matrices of :func:`spectral_init`, one per site of the MPO
    `ws`; columns beyond a group's dimension are random unit vectors of the
    MPO's dtype, drawn from a fixed generator, so the start is the same on
    every call."""
    rng = np.random.default_rng(0)
    factors = []
    for w in ws:
        dim = w.shape[-1]
        # the start -> done entry holds the terms inside this group (a term
        # with empty support only shifts the first group's by the identity)
        _, vecs = hermitian_eig(w[0, -1])
        cols = list(vecs[:, :rank].T)
        while len(cols) < rank:
            extra = _gaussian(rng, dim, w.dtype)
            cols.append(extra / np.linalg.norm(extra))
        factors.append(np.stack(cols, axis=1))
    return factors


# ---------------------------------------------------------------------------
# environments over the Hamiltonian's MPO

def _transfer(bra: np.ndarray, image: np.ndarray) -> np.ndarray:
    """bra^H W[a, b] ket for every channel pair (a, b) of an MPO site W of
    shape (w_i, w_{i+1}, n, n): (w_i, w_{i+1}, m, m') from the (n, m) bra
    column stack of one block and the image W ket (w_i, w_{i+1}, n, m') of
    its ket stack."""
    return flops.matmul(bra.conj().T, image)


class _Environments:
    """Cached environments of a CP sweep, bra stacks against ket stacks,
    over the Hamiltonian's MPO (sites W_j), as `mps._chain_local` keeps
    them for a chain.  left[i][a] (m, m') sums, over the automaton paths
    that reach channel a at cut i, the Hadamard products over blocks j < i
    of the transfers bra_j^H W_j[a_j, a_{j+1}] ket_j (:func:`_transfer`);
    right[i][b] does the same over blocks j > i from channel b at cut
    i + 1.  The "start" (first) and "done" (last) channels carry only
    identities, so left[i][0] * right[i][-1] is the product over j != i of
    the overlaps bra_j^H ket_j.

    :meth:`blocks` serves the modes of a sweep in the order 0, ..., q - 1,
    as :func:`run_sweeps` visits them: mode 0 rebuilds every right
    environment from the current stacks, and mode i > 0 grows left[i] over
    block i - 1, the one just solved: 2(q - 1) transfers a sweep.  Each
    transfer applies W_j to its ket stack; `fixed_kets`, stacks that never
    change, trail it as columns whose images W_j are formed once."""

    def __init__(self, ws: list, shape: tuple, fixed_kets: list | None = None):
        edge = np.ones((1,) + shape)
        self.ws = ws
        self.left = [edge] + [None] * (len(ws) - 1)
        self.right = [None] * (len(ws) - 1) + [edge]
        self.images = (None if fixed_kets is None else
                       [flops.matmul(w, k) for w, k in zip(ws, fixed_kets)])

    def image(self, kets: list, j: int) -> np.ndarray:
        """W_j [kets[j] | fixed_kets[j]], shape (w_j, w_{j+1}, n, m')."""
        out = flops.matmul(self.ws[j], kets[j])
        if self.images is None:
            return out
        return np.concatenate((out, self.images[j]), axis=-1)

    def blocks(self, bras: list, kets: list, i: int, scale) -> np.ndarray:
        """scale * left[i][a] * right[i][b] for every channel pair (a, b) of
        block i, shape (w_i, w_{i+1}, m, m'): the coefficient of W_i[a, b] in
        the local problem of mode i."""
        if i == 0:
            for j in range(len(self.ws) - 1, 0, -1):
                t = _transfer(bras[j], self.image(kets, j))
                flops.add(t.size)
                self.right[j - 1] = (t * self.right[j][None]).sum(axis=1)
        else:
            t = _transfer(bras[i - 1], self.image(kets, i - 1))
            flops.add(t.size)
            self.left[i] = (self.left[i - 1][:, None] * t).sum(axis=0)
        out = scale * self.left[i][:, None] * self.right[i][None]
        flops.add(2 * out.size)
        return out


# ---------------------------------------------------------------------------
# greedy one-addend-at-a-time ALS

def _stack_addends(terms) -> BlockedCp:
    """BlockedCp holding frozen MixedTerm addends that share one set of
    site groups."""
    return BlockedCp(terms[0].groups,
                     [np.stack(cols, axis=1) for cols in zip(*(t.factors for t in terms))],
                     np.array([t.weight for t in terms]))


def _aligned_vectors(image: np.ndarray, y_i: np.ndarray, coeff: np.ndarray) -> tuple:
    """Cross vectors u_i = sum_{a,b} (W_i Y_i)[a, b] C[a, b, 0, 1:] and
    v_i = Y_i C[start, done, 0, 1:] of an aligned greedy stage at mode i, from
    the blocks C (w_i, w_{i+1}, 1, 1 + R) of its environment, whose ket
    columns 1..R are the frozen factors y_i = Y_i, and their image W_i Y_i:
    u_i is one matmul of the image laid out (n, w_i w_{i+1} R) with C's
    columns 1..R flattened."""
    c = coeff[:, :, 0, 1:]
    laid_out = image.transpose(2, 0, 1, 3).reshape(image.shape[2], -1)
    return flops.matmul(laid_out, c.reshape(-1)), flops.matmul(y_i, c[0, -1])


def _bordered_solve(h_i: np.ndarray, u_i: np.ndarray, beta: float, gamma: float,
                    v_i: np.ndarray, rho: float, tols: Tolerances) -> tuple:
    """Lowest eigenpair (lambda, x) of a greedy stage's pencil over (x_i, 1),
    numerator A = [[h_i, u_i], [u_i^H, beta]] and denominator
    B = [[gamma I, v_i], [v_i^H, rho]]: the self block h_i and gamma (the
    working columns' rank-one mode problem in :func:`_greedy_core`), the
    cross vectors u_i and v_i against the frozen addends
    (:func:`_aligned_vectors` or `mixed._MixedCrossTerms`), and the frozen
    addends' own scalars.  A is refused unless Hermitian within
    tols.hermitian.  B is never formed: it is gamma I plus one border, so
    S = [[I/sqrt(gamma), -v_i/(gamma sqrt(s))], [0, 1/sqrt(s)]], with s =
    rho - ||v_i||^2/gamma its Schur complement, gives S^H B S = I; S^H A S
    costs O(n^2), one ``eigh`` of it gives y, and x = S y.  B's eigenvalues
    are gamma and those of [[gamma, ||v_i||], [||v_i||, rho]]; when the
    lowest is at or below the floor tols.pd_floor_scale * tr(B) / (n + 1),
    as :func:`tensor.generalized_eig_min` would drop it, the frozen sum
    already spans the working addend, and the pinned direction is dropped
    instead (S keeps only its first n columns), so x[n] = 0.  x has no
    phase convention: the caller divides by x[n]."""
    n = h_i.shape[0]
    a = np.empty((n + 1, n + 1), dtype=np.result_type(h_i, u_i, v_i))
    a[:n, :n], a[:n, n], a[n, :n], a[n, n] = h_i, u_i, u_i.conj(), beta
    a = _hermitian_part(a, tols)
    vv = float(np.vdot(v_i, v_i).real)
    s = rho - vv / gamma
    # the lowest eigenvalue as det / highest, positive exactly when s is
    low = gamma * s / (0.5 * (gamma + rho) + np.hypot(0.5 * (gamma - rho), np.sqrt(vv)))
    keep = bool(low > max(tols.pd_floor_scale * (n * gamma + rho) / (n + 1), 0.0))
    # a <- S^H a S, S = [[g I, w], [0, c]], by columns then rows; c = 0 and
    # w = 0 leave the pinned row and column zero, and they are cut off
    g, c = 1.0 / np.sqrt(gamma), (1.0 / np.sqrt(s) if keep else 0.0)
    w = (-c / gamma) * v_i
    a[:, n] = a[:, :n] @ w + c * a[:, n]
    a[:, :n] *= g
    a[n] = w.conj() @ a[:n] + c * a[n]
    a[:n] *= g
    lam, vecs = np.linalg.eigh(a[:n + keep, :n + keep])
    y = vecs[:, 0]
    pin = y[n] if keep else 0.0
    return float(lam[0]), np.append(g * y[:n] + pin * w, c * pin)


def _greedy_core(h: SpinHamiltonian, stages: list, sweeps: int, seed: int,
                 tols: Tolerances, init: str = "random") -> tuple:
    """The one greedy loop: stage d optimizes one new addend, one factor per
    site group of stages[d] (a tuple of tuples), against the frozen earlier
    ones.  Stage 1 starts from the block-local ground states with
    init='spectral' (:func:`_spectral_factors`), every other stage from a
    random draw.  Each stage keeps one environment over its MPO
    (:class:`_Environments`), bra the working columns x_j and ket stack
    [x_j | Y_j] at scale [1, w_1, ..., w_R], Y_j the frozen factors if they
    share the stage's groups, else x_j alone.  Column 0 of its blocks C is
    the rank-one mode problem of the working columns, h_i = sum_{a,b}
    C[a, b, 0, 0] W_i[a, b] and gamma = C[start, done, 0, 0], so a pure
    rank-one stage is solved as a simultaneous mode is (:func:`_mode_solve`);
    columns 1..R give the cross vectors (:func:`_aligned_vectors`), else
    `mixed._MixedCrossTerms` does, and :func:`_bordered_solve` solves the
    update; one whose pinned coordinate vanishes restarts the stage.  An
    unknown init and fewer than one sweep are refused, and the MPOs of all
    distinct stages built and checked, before the first solve.  Returns
    (trace, frozen), each frozen addend a MixedTerm on its stage's groups."""
    if sweeps < 1:
        raise ValueError("need at least one sweep per stage")
    if init not in ("random", "spectral"):
        raise ValueError(f"unknown init {init!r}")
    from .mixed import _MixedCrossTerms, _group_mpos  # mixed imports this module
    rng = np.random.default_rng(seed)
    trace = []
    frozen = []
    max_restarts = 10
    mpos = _group_mpos(h, stages)

    for stage, groups in enumerate(stages):
        ws = mpos[groups]

        def fresh_cols():
            cols = []
            for n in (2 ** len(sites) for sites in groups):
                v = _gaussian(rng, n, ws[0].dtype)
                cols.append(v / np.linalg.norm(v))
            return cols

        x_cols = ([f[:, 0] for f in _spectral_factors(ws, 1)]
                  if stage == 0 and init == "spectral" else fresh_cols())
        cross, scale = None, 1.0
        if not frozen:
            envs = _Environments(ws, (1, 1))
        elif all(t.groups == groups for t in frozen):
            y = _stack_addends(frozen)
            envs = _Environments(ws, (1, 1 + y.rank), y.factors)
            scale = np.concatenate(([1.0], y.weights))
            beta, rho = float(expectation_form(ws, y, y).real), float(inner(y, y).real)
        else:
            cross = _MixedCrossTerms(groups, mpos, frozen, tols)
            envs, beta, rho = _Environments(ws, (1, 1)), cross.beta, cross.rho

        def update(it, i):
            cols = [x[:, None] for x in x_cols]
            coeff = envs.blocks(cols, cols, i, scale)
            if not frozen:
                lam, x_cols[i] = _mode_solve(coeff, ws[i], tols)
                return lam
            u_i, v_i = (_aligned_vectors(envs.images[i], y.factors[i], coeff)
                        if cross is None else cross.vectors(x_cols, i))
            lam, vec = _bordered_solve(_kron_sum(coeff[..., :1], ws[i]), u_i, beta,
                                       float(coeff[0, -1, 0, 0].real), v_i, rho, tols)
            pin = vec[-1]
            if abs(pin) < 1e-12 * np.linalg.norm(vec):
                return None  # the pinned coordinate vanished: restart the stage
            x_cols[i] = vec[:-1] / pin
            return lam

        restarts, degenerate = 0, False
        while (stop := run_sweeps(update, [range(len(groups))], sweeps, tols,
                                  trace, stage + 1)) is not None:
            restarts += 1
            degenerate = restarts > max_restarts
            trace.append(TraceEntry(stage + 1, *stop, float("nan"), flops.current_total(),
                                    "degenerate-stage" if degenerate else "restart",
                                    time.perf_counter()))
            if degenerate:
                # the frozen sum is already optimal within this dictionary:
                # freeze a weight-zero addend
                break
            x_cols = fresh_cols()
        # freeze the finished addend in normalized form
        norms = [np.linalg.norm(c) for c in x_cols]
        weight = 0.0 if degenerate else float(np.prod(norms))
        cols = [c / n if n > 0 else c for c, n in zip(x_cols, norms)]
        frozen.append(MixedTerm(groups, cols, weight))

    return trace, frozen


def greedy_als(h: SpinHamiltonian, blocking: Blocking, d_final: int,
               inner_iters: int = 30, seed: int = 0,
               tols: Tolerances = DEFAULT_TOLS, init: str = "random") -> tuple:
    """Grow the rank one addend at a time on the groups of `blocking`
    (:func:`_greedy_core`): a pure rank-one stage first, solved as a
    simultaneous mode at rank one, then each new addend from the bordered
    problem with all earlier addends frozen.  :func:`_bordered_solve` drops
    the pinned direction when the denominator's lowest eigenvalue falls to
    its floor, which happens when the frozen sum already spans the working
    addend; the pinned coordinate is then 0 and the stage restarts.
    Returns (trace, BlockedCp).  No stage depends on d_final: a rank-r run is the rank-R
    run cut after stage r, entry for entry and addend for addend."""
    if d_final < 1:
        raise ValueError("need d_final >= 1")
    trace, frozen = _greedy_core(h, [blocking.groups] * d_final, inner_iters,
                                 seed, tols, init)
    return trace, _stack_addends(frozen)


# ---------------------------------------------------------------------------
# simultaneous ALS (all addends of one mode at once)

def _kron_sum(coeff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{a,b} kron(coeff[a, b], W[a, b]) from (w_i, w_{i+1}, k, k')
    coefficient blocks and an MPO site W of shape (w_i, w_{i+1}, n, n): the
    (k n, k' n) matrix over addend-major stacks of block vectors.  One
    fixed-shape matmul, coeff laid out (w_i w_{i+1}, k k') and transposed
    against W laid out (w_i w_{i+1}, n^2), charged k k' n^2 w_i w_{i+1}."""
    w_i, w_j, k, k2 = coeff.shape
    n = w.shape[-1]
    mat = flops.matmul(coeff.reshape(w_i * w_j, k * k2).T, w.reshape(w_i * w_j, n * n))
    return mat.reshape(k, k2, n, n).transpose(0, 2, 1, 3).reshape(k * n, k2 * n)


def _mode_solve(coeff: np.ndarray, w: np.ndarray, tols: Tolerances) -> tuple:
    """Lowest eigenpair of the mode pencil (sum_{a,b} kron(coeff[a, b],
    W[a, b]), kron(G, I_n)), G = coeff[0, -1] the addends' Gram matrix,
    whitened at the r x r level: :func:`tensor._whitening` gives S_G (r, k)
    from G alone, the blocks become S_G^H coeff[a, b] S_G before the
    Kronecker products, and the lowest eigenvector y of that (k n)^2 matrix
    (``np.linalg.eigh``) maps back to x = (S_G (x) I_n) y.  Returns
    (lambda, x), x^H kron(G, I_n) x = 1 with the usual phase convention.
    The Hermiticity check runs once, before the whitening, which scales
    rounding by up to 1/lambda_min(G); the whitened matrix is only
    symmetrized, and goes to ``eigh`` unchecked."""
    _hermitian_part(_kron_sum(coeff, w), tols)
    s = _whitening(coeff[0, -1], tols)
    reduced = _kron_sum(flops.matmul(flops.matmul(s.conj().T, coeff), s), w)
    lam, y = np.linalg.eigh(0.5 * (reduced + reduced.conj().T))
    x = flops.matmul(s, y[:, 0].reshape(s.shape[1], -1)).reshape(-1, 1)
    x, _ = _phase_normalize_columns(x)
    return float(lam[0]), x[:, 0]


def simultaneous_als(h: SpinHamiltonian, blocking: Blocking, rank: int,
                     sweeps: int = 50, seed: int = 0, init: str = "random",
                     tols: Tolerances = DEFAULT_TOLS) -> tuple:
    """Per mode, replace the whole slab of addend vectors by the minimizer of
    the rank*2^{t_i} generalized eigenproblem; addends are renormalized at
    the end of every sweep, and a sweep that moves the energy by less than
    tols.convergence stops the search.  Returns (trace, BlockedCp).

    The Hamiltonian enters as its MPO, built once, and the local problems
    come from cached environments indexed by (addend l, addend l', channel
    a) (:class:`_Environments`): the right ones are rebuilt at mode 0 of
    every sweep, after the renormalization, and the left one grows by the
    transfer X_i^H W_i[a, b] X_i of each block just solved, so a sweep costs
    O(q) transfers.  With ww = conj(w) w^T the numerator of mode i is
    sum_{a,b} kron(ww * L_i[a] * R_i[b], W_i[a, b]) and the addends' Gram
    matrix is ww * L_i[start] * R_i[done]; :func:`_mode_solve` whitens the
    pencil at that r x r Gram, never forming kron(G, I)."""
    if rank < 1 or sweeps < 1:
        raise ValueError("need rank >= 1 and sweeps >= 1")
    ws = mpo(h, blocking.groups)
    if init == "spectral":
        x = BlockedCp(blocking.groups, _spectral_factors(ws, rank))
    elif init == "random":
        x = random_cp(blocking, rank, seed, ws[0].dtype)
    else:
        raise ValueError(f"unknown init {init!r}")

    envs = _Environments(ws, (rank, rank))

    def update(sweep, i):
        nonlocal x
        ww = np.outer(x.weights.conj(), x.weights)
        lam, vec = _mode_solve(envs.blocks(x.factors, x.factors, i, ww), ws[i], tols)
        x.factors[i] = vec.reshape(rank, -1).T
        x.weights = np.ones(rank)
        if i == blocking.q - 1:
            x = x.normalize_addends()
        return lam

    trace = []
    run_sweeps(update, [range(blocking.q)], sweeps, tols, trace)
    return trace, x
