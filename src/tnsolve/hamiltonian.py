"""Spin Hamiltonians as weighted sums of Kronecker terms of 2x2 operators.

Terms are stored fully expanded to length p (identities explicit), which
keeps regrouping and blocked contractions uniform.  2D lattices are numbered
row-major: site (r, c) of a rows x cols lattice is chain position r*cols + c.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .tensor import DenseState, DimensionCapError, kron_first_fastest

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

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

    def block_sites(self, i: int) -> range:
        cuts = self.cuts
        return range(cuts[i], cuts[i + 1])

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.widths)


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
            ops = "".join(f.kind if f.kind != "custom"
                          else f"C[{f.matrix.tobytes().hex()}]" for f in t.factors)
            parts.append(f"{t.coefficient!r}:{ops}")
        return ";".join(parts)


# ---------------------------------------------------------------------------
# model builders

def build_ising(p: int, lam: float, boundary: str = "open") -> SpinHamiltonian:
    """Transverse-field Ising chain: sum of nearest-neighbor ZZ terms with
    unit coupling plus lam * X on every site."""
    _check_boundary(boundary)
    if p < 2:
        raise ValueError("Ising chain needs p >= 2")
    terms = []
    for k in range(p - 1):
        terms.append(_single_site_term(p, 1.0, {k: OP_Z, k + 1: OP_Z}))
    if boundary == "periodic":
        terms.append(_single_site_term(p, 1.0, {p - 1: OP_Z, 0: OP_Z}))
    for k in range(p):
        terms.append(_single_site_term(p, float(lam), {k: OP_X}))
    return SpinHamiltonian(p, terms)


def build_heisenberg_xy(p: int, jx: float, jy: float, lam: float,
                        boundary: str = "open") -> SpinHamiltonian:
    """XY chain: nearest-neighbor jx*XX + jy*YY plus lam * X local terms."""
    _check_boundary(boundary)
    if p < 2:
        raise ValueError("XY chain needs p >= 2")
    bonds = [(k, k + 1) for k in range(p - 1)]
    if boundary == "periodic":
        bonds.append((p - 1, 0))
    terms = []
    for a, b in bonds:
        terms.append(_single_site_term(p, float(jx), {a: OP_X, b: OP_X}))
        terms.append(_single_site_term(p, float(jy), {a: OP_Y, b: OP_Y}))
    for k in range(p):
        terms.append(_single_site_term(p, float(lam), {k: OP_X}))
    return SpinHamiltonian(p, terms)


def build_ising_2d(rows: int, cols: int, lam: float,
                   boundary: str = "open") -> SpinHamiltonian:
    """Ising model on a rows x cols lattice (row-major numbering): ZZ on all
    horizontal and vertical nearest-neighbor pairs, lam * X on every site.

    Periodic wrap bonds are added along a direction only when its extent is
    at least 2 (extent 1 would produce a self-loop).
    """
    _check_boundary(boundary)
    p = rows * cols
    if p < 2:
        raise ValueError("lattice must contain at least 2 sites")

    def site(r: int, c: int) -> int:
        return r * cols + c

    bonds = []
    for r in range(rows):
        for c in range(cols - 1):
            bonds.append((site(r, c), site(r, c + 1)))
        if boundary == "periodic" and cols >= 2:
            bonds.append((site(r, cols - 1), site(r, 0)))
    for c in range(cols):
        for r in range(rows - 1):
            bonds.append((site(r, c), site(r + 1, c)))
        if boundary == "periodic" and rows >= 2:
            bonds.append((site(rows - 1, c), site(0, c)))

    terms = [_single_site_term(p, 1.0, {a: OP_Z, b: OP_Z}) for a, b in bonds]
    for k in range(p):
        terms.append(_single_site_term(p, float(lam), {k: OP_X}))
    return SpinHamiltonian(p, terms)


def _check_boundary(boundary: str) -> None:
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")


# ---------------------------------------------------------------------------
# dense materialization and matrix-free action

def materialize_dense(h: SpinHamiltonian, cap: int = DEFAULT_TOLS.dense_site_cap) -> np.ndarray:
    """Explicit 2^p x 2^p matrix sum of all Kronecker terms."""
    if h.p > cap:
        raise DimensionCapError(f"p={h.p} exceeds dense cap {cap}")
    dim = 2**h.p
    out = np.zeros((dim, dim), dtype=complex)
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
# regrouping to a blocking

class BlockedHamiltonian:
    """View of a Hamiltonian regrouped to a blocking: per term k and block i
    exposes H_i^(k), the Kronecker product of the term's factors inside the
    block, both matrix-free and as an explicit matrix."""

    def __init__(self, h: SpinHamiltonian, blocking: Blocking):
        if blocking.p != h.p:
            raise ValueError(
                f"blocking covers {blocking.p} sites, Hamiltonian has {h.p}"
            )
        self.hamiltonian = h
        self.blocking = blocking
        self._matrix_cache: dict = {}

    @property
    def num_terms(self) -> int:
        return self.hamiltonian.num_terms

    @property
    def q(self) -> int:
        return self.blocking.q

    def coefficient(self, k: int) -> float:
        return self.hamiltonian.terms[k].coefficient

    def block_factors(self, k: int, i: int) -> list:
        sites = self.blocking.block_sites(i)
        return [self.hamiltonian.terms[k].factors[j] for j in sites]

    def is_identity_block(self, k: int, i: int) -> bool:
        return all(f.is_identity for f in self.block_factors(k, i))

    def block_matrix(self, k: int, i: int) -> np.ndarray:
        """Explicit 2^{t_i} x 2^{t_i} matrix of block i of term k."""
        key = (k, i)
        if key not in self._matrix_cache:
            self._matrix_cache[key] = kron_first_fastest(
                [f.matrix for f in self.block_factors(k, i)]
            )
        return self._matrix_cache[key]

    def apply_block(self, k: int, i: int, vec: np.ndarray) -> np.ndarray:
        """Matrix-free action of block i of term k on length-2^{t_i} vectors.

        Accepts a vector or a (2^{t_i}, m) stack of columns; identity factors
        are skipped.  Costs one length-2^{t_i} pass per non-identity site.
        """
        from . import flops

        vec = np.asarray(vec, dtype=complex)
        t_i = self.blocking.widths[i]
        stack = vec.reshape(2**t_i, -1)
        cols = stack.shape[1]
        cur = stack.reshape((2,) * t_i + (cols,), order="F")
        for r, f in enumerate(self.block_factors(k, i)):
            if f.is_identity:
                continue
            cur = np.moveaxis(np.tensordot(f.matrix, cur, axes=(1, r)), 0, r)
            flops.add(2 * cur.size)
        out = cur.reshape(2**t_i, cols, order="F")
        return out.reshape(vec.shape)


def regroup(h: SpinHamiltonian, blocking: Blocking) -> BlockedHamiltonian:
    return BlockedHamiltonian(h, blocking)
