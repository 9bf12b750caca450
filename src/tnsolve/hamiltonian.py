"""Spin Hamiltonians as weighted sums of Kronecker terms of 2x2 operators.

Terms are stored fully expanded to length p (identities explicit), which
keeps block tables and blocked contractions uniform.  2D lattices are numbered
row-major: site (r, c) of a rows x cols lattice is chain position r*cols + c.

A :class:`BlockedHamiltonian` compiles the terms against any partition of
the sites into groups (the blocks of a :class:`Blocking`, the factors of a
mixed term, or one stage of a greedy solver, which is a tuple of site
groups): per group a stack of the distinct block operators, identity first,
and an integer incidence saying which entry each term uses there.
:func:`mpo` builds that table from H and the groups and compiles it into
the matrix product operator, the one form of H that the chain, CP and mixed
solvers contract; apart from that the table serves only the CP
`apply_hamiltonian` and its own per-term views.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import flops
from .config import DEFAULT_TOLS
from .tensor import DenseState, DimensionCapError, kron_first_fastest

# I, X and Z are real and Y is complex; a custom operator is always complex
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)

_NAMED = {
    "I": IDENTITY_2,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
}


@dataclass(frozen=True)
class SiteOperator:
    """A single-site 2x2 operator: one of I, X, Y, Z or a custom matrix."""

    kind: str
    _matrix: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def named(cls, kind: str) -> "SiteOperator":
        if kind not in _NAMED:
            raise ValueError(f"unknown operator kind {kind!r}")
        return cls(kind)

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "SiteOperator":
        """A custom 2x2 operator, stored complex whatever its entries."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("custom site operator must be 2x2")
        return cls("custom", matrix)

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == "custom":
            return self._matrix
        return _NAMED[self.kind]

    @property
    def is_identity(self) -> bool:
        return self.kind == "I"

    @property
    def key(self) -> str:
        """The letter of a named operator, a custom one's matrix bytes:
        equality ignores the custom matrix, keys do not."""
        if self.kind == "custom":
            return f"C[{self.matrix.tobytes().hex()}]"
        return self.kind


OP_I = SiteOperator.named("I")
OP_X = SiteOperator.named("X")
OP_Y = SiteOperator.named("Y")
OP_Z = SiteOperator.named("Z")


@dataclass(frozen=True)
class KroneckerTerm:
    """coefficient * Q_1 (x) Q_2 (x) ... (x) Q_p."""

    coefficient: float
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def p(self) -> int:
        return len(self.factors)

    def support(self) -> tuple:
        """Chain positions (0-based) carrying a non-identity factor."""
        return tuple(j for j, f in enumerate(self.factors) if not f.is_identity)


def _single_site_term(p: int, coeff: float, ops: dict) -> KroneckerTerm:
    factors = [OP_I] * p
    for site, op in ops.items():
        factors[site] = op
    return KroneckerTerm(coeff, tuple(factors))


@dataclass(frozen=True)
class Blocking:
    """Ordered partition of p sites into contiguous blocks of given widths."""

    widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) == 0 or any(w < 1 for w in widths):
            raise ValueError("block widths must be positive integers")
        object.__setattr__(self, "widths", widths)

    @classmethod
    def single_sites(cls, p: int) -> "Blocking":
        return cls((1,) * p)

    @classmethod
    def from_string(cls, text: str) -> "Blocking":
        try:
            widths = tuple(int(tok) for tok in text.split(","))
        except ValueError as err:
            raise ValueError(f"invalid blocking {text!r}: {err}") from None
        return cls(widths)

    @property
    def p(self) -> int:
        return sum(self.widths)

    @property
    def q(self) -> int:
        return len(self.widths)

    @functools.cached_property
    def cuts(self) -> tuple:
        """Cut points s_0 = 0 < s_1 < ... < s_q = p."""
        out = [0]
        for w in self.widths:
            out.append(out[-1] + w)
        return tuple(out)

    @functools.cached_property
    def groups(self) -> tuple:
        """The sites of each block: block i holds s_i, ..., s_{i+1} - 1."""
        cuts = self.cuts
        return tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))

    def shifted(self, offset: int) -> tuple:
        """The groups of the cyclic blocking whose block 1 starts at site
        `offset`; a nonzero offset makes one block wrap the seam."""
        if not 0 <= offset < self.p:
            raise ValueError("offset must lie in [0, p)")
        return tuple(tuple((offset + s) % self.p for s in g) for g in self.groups)

    @classmethod
    def from_groups(cls, groups) -> "Blocking":
        """The blocking whose blocks are `groups`, which must be contiguous
        runs of sites in chain order."""
        out = cls(tuple(map(len, groups)))
        if out.groups != tuple(map(tuple, groups)):
            raise ValueError(f"groups {tuple(groups)} are not blocks in chain order")
        return out


def _partition(groups, p: int | None = None, lengths=None) -> tuple:
    """`groups` as a tuple of tuples, refused unless they are nonempty and
    partition range(p) (p defaults to their total size) and, if factor
    `lengths` are given, unless group i has a factor of length 2^|g_i|."""
    groups = tuple(tuple(g) for g in groups)
    sites = sorted(s for g in groups for s in g)
    p = len(sites) if p is None else p
    if not groups or not all(groups) or sites != list(range(p)):
        raise ValueError(f"groups {groups} do not partition {p} sites")
    if lengths is not None and list(lengths) != [2 ** len(g) for g in groups]:
        raise ValueError(f"factor lengths {list(lengths)} do not fit groups {groups}")
    return groups


@dataclass(frozen=True)
class SpinHamiltonian:
    """Sum of M Kronecker terms on p sites; Hermitian by construction for
    the model builders (real coefficients, Hermitian factors)."""

    p: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.p != self.p:
                raise ValueError("all terms must share the same site count")

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def model_key(self) -> str:
        """Deterministic description used for oracle caching.  Named
        operators appear by their letter, custom ones by their matrix bytes."""
        parts = [f"p={self.p}"]
        for t in self.terms:
            ops = "".join(f.key for f in t.factors)
            parts.append(f"{t.coefficient!r}:{ops}")
        return ";".join(parts)


# ---------------------------------------------------------------------------
# model builders

def build_ising(p: int, lam: float, boundary: str = "open") -> SpinHamiltonian:
    """Transverse-field Ising chain: the 1 x p lattice of
    :func:`build_ising_2d`, nearest-neighbor ZZ terms with unit coupling
    plus lam * X on every site."""
    if p < 2:
        raise ValueError("Ising chain needs p >= 2")
    return build_ising_2d(1, p, lam, boundary)


def build_heisenberg_xy(p: int, jx: float, jy: float, lam: float,
                        boundary: str = "open") -> SpinHamiltonian:
    """XY chain: nearest-neighbor jx*XX + jy*YY plus lam * X local terms."""
    _check_boundary(boundary)
    if p < 2:
        raise ValueError("XY chain needs p >= 2")
    terms = []
    for a, b in _lattice_bonds(1, p, boundary):
        terms.append(_single_site_term(p, float(jx), {a: OP_X, b: OP_X}))
        terms.append(_single_site_term(p, float(jy), {a: OP_Y, b: OP_Y}))
    for k in range(p):
        terms.append(_single_site_term(p, float(lam), {k: OP_X}))
    return SpinHamiltonian(p, terms)


def build_ising_2d(rows: int, cols: int, lam: float,
                   boundary: str = "open") -> SpinHamiltonian:
    """Ising model on a rows x cols lattice (row-major numbering): ZZ on the
    nearest-neighbor pairs of :func:`_lattice_bonds`, lam * X on every site."""
    _check_boundary(boundary)
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice needs rows and cols >= 1, got {rows} x {cols}")
    p = rows * cols
    if p < 2:
        raise ValueError("lattice must contain at least 2 sites")
    terms = [_single_site_term(p, 1.0, {a: OP_Z, b: OP_Z})
             for a, b in _lattice_bonds(rows, cols, boundary)]
    for k in range(p):
        terms.append(_single_site_term(p, float(lam), {k: OP_X}))
    return SpinHamiltonian(p, terms)


def _lattice_bonds(rows: int, cols: int, boundary: str) -> list:
    """Nearest-neighbor site pairs of a rows x cols lattice (row-major
    numbering): the horizontal bonds row by row, then the vertical bonds
    column by column as the horizontal bonds of the transposed lattice.
    A periodic wrap bond closes every line of extent at least 2, last in its
    line (extent 1 would be a self-loop; extent 2 doubles the bond, as in
    the periodic p = 2 chain).  The order fixes the term order, and with it
    every oracle cache key."""

    def horizontal(n_rows: int, n_cols: int) -> list:
        wrap = int(boundary == "periodic" and n_cols >= 2)
        return [((r, c), (r, (c + 1) % n_cols))
                for r in range(n_rows) for c in range(n_cols - 1 + wrap)]

    pairs = horizontal(rows, cols) + [(a[::-1], b[::-1]) for a, b in horizontal(cols, rows)]
    return [(a[0] * cols + a[1], b[0] * cols + b[1]) for a, b in pairs]


def _check_boundary(boundary: str) -> None:
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")


# ---------------------------------------------------------------------------
# dense materialization and matrix-free action

def materialize_dense(h: SpinHamiltonian, cap: int = DEFAULT_TOLS.dense_site_cap) -> np.ndarray:
    """Explicit 2^p x 2^p matrix sum of all Kronecker terms, real when every
    coefficient and factor is."""
    if h.p > cap:
        raise DimensionCapError(f"p={h.p} exceeds dense cap {cap}")
    dim = 2**h.p
    dtype = np.result_type(np.float64, *(t.coefficient for t in h.terms),
                           *{f.matrix.dtype for t in h.terms for f in t.factors})
    out = np.zeros((dim, dim), dtype=dtype)
    for t in h.terms:
        out += t.coefficient * kron_first_fastest([f.matrix for f in t.factors])
    return out


def _pauli_components(op: SiteOperator) -> tuple:
    """(letter, c_P) pairs with op = sum_P c_P P over P in {I, X, Y, Z};
    c_P = tr(P M)/2.  A named factor is its own single component."""
    if op.kind != "custom":
        return ((op.kind, 1.0),)
    comps = ((k, np.trace(_NAMED[k] @ op.matrix) / 2) for k in "IXYZ")
    return tuple((k, complex(c)) for k, c in comps if c != 0)


@dataclass(frozen=True, eq=False)
class PauliForm:
    """H as a sum over flip sets F of flip_F(w_F * x) on the state tensor.

    Every Kronecker term is expanded into Pauli strings; a string with X/Y
    sites F, Z/Y sites S and coefficient c adds c * i^{#Y} * (-1)^{sum_S b_s}
    to the weight w_F (Y = i X Z: the sign is read before the flip).  `groups`
    holds (flip axes, w_F) per flip set; w_F is a scalar when no string of
    the group has a sign site, and real whenever it is real.  Axes index the
    C-order view ``vector.reshape((2,) * p)``, whose axis a is site p - 1 - a.
    """

    p: int
    groups: tuple

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec for a length-2^p vector: one product and one flip per group."""
        t = np.asarray(vec).reshape((2,) * self.p)
        out = np.zeros(t.shape, np.result_type(t, *(w for _, w in self.groups)))
        for axes, weight in self.groups:
            out += np.flip(weight * t, axes)
        return out.reshape(-1)


def pauli_form(h: SpinHamiltonian) -> PauliForm:
    """The Pauli-string form of `h`, strings grouped by flip set."""
    p = h.p
    by_flips: dict = {}  # flip sites -> {sign sites: summed coefficient}
    for t in h.terms:
        for combo in itertools.product(*map(_pauli_components, t.factors)):
            letters = "".join(k for k, _ in combo)
            coeff = t.coefficient * 1j ** letters.count("Y") \
                * np.prod([c for _, c in combo])
            flips = tuple(j for j, k in enumerate(letters) if k in "XY")
            signs = tuple(j for j, k in enumerate(letters) if k in "ZY")
            parts = by_flips.setdefault(flips, {})
            parts[signs] = parts.get(signs, 0) + coeff
    groups = []
    for flips, parts in by_flips.items():
        terms = [c * _sign_pattern(p, signs) for signs, c in parts.items() if c != 0]
        if not terms:
            continue
        weight = np.asarray(sum(terms))
        if not weight.imag.any():
            weight = weight.real.copy()
        groups.append((tuple(p - 1 - j for j in flips), weight))
    return PauliForm(p, tuple(groups))


def _sign_pattern(p: int, sites: tuple):
    """(-1)^{sum of the bits at `sites`}, broadcastable to the (2,)*p view
    (the scalar 1 when `sites` is empty)."""
    out = 1.0
    for j in sites:
        shape = [1] * p
        shape[p - 1 - j] = 2
        out = out * np.array([1.0, -1.0]).reshape(shape)
    return out


def apply(h: SpinHamiltonian, x: DenseState) -> DenseState:
    """Matrix-free H @ x through the Pauli-string form: one elementwise
    product and one flip per flip set, so the work is O(#groups * 2^p)."""
    if x.p != h.p:
        raise ValueError(f"state has {x.p} sites, Hamiltonian has {h.p}")
    return DenseState(h.p, pauli_form(h).matvec(x.vector))


# ---------------------------------------------------------------------------
# block-operator tables over a partition of the sites

class BlockedHamiltonian:
    """The terms of a Hamiltonian restricted to a partition of its sites
    into groups, with per-term views: whether H_i^(k), group i of term k,
    is the identity, its matrix, and its action.

    ``ops[i]`` stacks the distinct restrictions of the terms to ``groups[i]``
    as (U_i, n_i, n_i) matrices, the identity as entry 0; term k restricts
    to ``ops[i][idx[k, i]]`` and carries coefficient ``alpha[k]``.  A group's
    first site is its fastest bit (:func:`kron_first_fastest`, ``order="F"``).
    The solvers read the table through :func:`mpo`, which builds it, and
    the CP `apply_hamiltonian`; the benchmark tracer wraps the per-term
    views.  ``dtype`` is the result type of the coefficients and block
    operators: real unless some operator is complex (a Pauli Y or a custom
    operator).
    """

    def __init__(self, h: SpinHamiltonian, groups):
        self.groups = _partition(groups, h.p)
        self.idx = np.zeros((h.num_terms, len(self.groups)), dtype=np.intp)
        ops = []
        for i, sites in enumerate(self.groups):
            seen = {("I",) * len(sites): 0}
            distinct = [[OP_I] * len(sites)]
            for k, term in enumerate(h.terms):
                factors = [term.factors[s] for s in sites]
                key = tuple(f.key for f in factors)
                if key not in seen:
                    seen[key] = len(distinct)
                    distinct.append(factors)
                self.idx[k, i] = seen[key]
            mats = np.array([[f.matrix for f in fs] for fs in distinct])
            ops.append(kron_first_fastest(mats.transpose(1, 0, 2, 3)))
        self.ops = tuple(ops)
        self.alpha = np.array([t.coefficient for t in h.terms])
        self.dtype = np.result_type(np.float64, self.alpha, *self.ops)

    def is_identity_block(self, k: int, i: int) -> bool:
        return bool(self.idx[k, i] == 0)

    def block_matrix(self, k: int, i: int) -> np.ndarray:
        """Explicit n_i x n_i matrix of group i of term k."""
        return self.ops[i][self.idx[k, i]]

    def apply_block(self, k: int, i: int, vec: np.ndarray) -> np.ndarray:
        """Group i of term k applied to a length-n_i vector or to an
        (n_i, m) stack of columns, charged as a dense product."""
        vec = np.asarray(vec)
        stack = vec.reshape(self.ops[i].shape[1], -1)
        return flops.matmul(self.block_matrix(k, i), stack).reshape(vec.shape)


# ---------------------------------------------------------------------------
# matrix product operators

def mpo(h: SpinHamiltonian, groups) -> list:
    """`h` as a matrix product operator over `groups`, any partition of its
    sites (refused otherwise), compiled from the :class:`BlockedHamiltonian`
    of `h` over them: sites W_i of shape (w_i, w_{i+1}, n_i, n_i),
    H the sum over automaton paths of the Kronecker products of the entries
    W_i[a_i, a_{i+1}].

    At an interior cut the open-string automaton is in "start" (identity so
    far, index 0), in the channel of a term whose support straddles the
    cut, or in "done" (identity from here on, the last index), so w_i = 2 +
    (straddling terms); the outer cuts hold only "start" and only "done".
    A term enters its channel with its coefficient at its first group and
    leaves at its last; a term inside one group, or with empty support
    (taken as inside the first), is a start -> done entry.

    A block is purely imaginary when its real part is zero and its
    imaginary part is not (Y, or Y (x) X inside one group).  A term with an
    even number of them, such as a YY bond split over two groups, carries
    them times -i, +i, -i, ... in turn, in group order: each becomes real,
    and the phases multiply to 1 along the term's path.  The sites are
    built in the table's dtype and returned as float64 when all of them are
    then real, so the MPO of a real Hamiltonian, the XY chain's included,
    is real; a term with an odd number of such blocks keeps it complex.
    """
    table = BlockedHamiltonian(h, groups)
    support = table.idx != 0
    q = support.shape[1]
    first = np.argmax(support, axis=1)
    last = np.where(support.any(axis=1),
                    q - 1 - np.argmax(support[:, ::-1], axis=1), 0)
    cuts = np.arange(q + 1)
    straddle = (first[:, None] < cuts) & (cuts <= last[:, None])
    chan = np.cumsum(straddle, axis=0)  # channel index of each straddling term
    width = 2 + straddle.sum(axis=0)
    width[0] = width[q] = 1
    sites = []
    for i, ops in enumerate(table.ops):
        w = np.zeros((width[i], width[i + 1]) + ops.shape[1:], dtype=table.dtype)
        if i < q - 1:
            w[0, 0] = ops[0]
        if i > 0:
            w[-1, -1] = ops[0]
        # gather each class's blocks alone: all M at once would hold M n x n matrices
        local = (first == i) & (last == i)
        w[0, -1] = np.tensordot(table.alpha[local], ops[table.idx[local, i]], axes=1)
        enter = (first == i) & (last > i)
        w[0, chan[enter, i + 1]] = table.alpha[enter, None, None] * ops[table.idx[enter, i]]
        through = (first < i) & (last > i)
        w[chan[through, i], chan[through, i + 1]] = ops[table.idx[through, i]]
        leave = (first < i) & (last == i)
        w[chan[leave, i], -1] = ops[table.idx[leave, i]]
        sites.append(w)
    if table.dtype.kind != "c":
        return sites
    imag = np.stack([(~ops.real.any(axis=(1, 2)) & ops.imag.any(axis=(1, 2)))[table.idx[:, i]]
                     for i, ops in enumerate(table.ops)], axis=1)
    turn = imag & (imag.sum(axis=1) % 2 == 0)[:, None]
    phase = np.where(np.cumsum(imag, axis=1) % 2 == 1, -1j, 1j)
    for i, w in enumerate(sites):
        # a turned term spans two groups or more, so its block here is
        # an enter, through or leave entry, never the start -> done one
        k = np.flatnonzero(turn[:, i])
        rows = np.where(first[k] == i, 0, chan[k, i])
        cols = np.where(last[k] == i, -1, chan[k, i + 1])
        w[rows, cols] *= phase[k, i, None, None]
    if any(w.imag.any() for w in sites):
        return sites
    return [np.ascontiguousarray(w.real) for w in sites]


def mpo_apply(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{a, j} W[a, b, i, j] t[a, j, ...] for an MPO site W of shape
    (w_i, w_{i+1}, n_out, n_in) and a tensor t of shape (w_i, n_in, ...)
    whose first axis meets the left operator bond and whose second is a
    ket's physical index; the result has shape (w_{i+1}, n_out, ...).
    Swapping the first two axes of W applies the site from the right.  Every
    contraction with an MPO site goes through here and is charged to the
    flop counter, except the chain ALS local operator
    (:func:`mps._local_operator`), which reshapes its site into one matrix
    per update and charges the same count per matvec."""
    return flops.tdot(w, t, axes=((0, 3), (0, 1)))
