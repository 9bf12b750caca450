"""Sums of tensor-product terms, each over its own partition of the sites.

Every term is a :class:`MixedTerm` (defined beside `parafac.BlockedCp`,
re-exported here): factor i lives on the sites of groups[i], the group's
first site its fastest bit, and the groups are any partition: a
:class:`Blocking`'s blocks, a cyclic blocking's groups
(:meth:`Blocking.shifted`), a 2D pattern's pairs of subblocks
(:func:`pattern_groups`) or scattered sites.  A sum reads nothing but its
terms.  All kernels contract without materializing 2^p vectors and count
their operations.

Every inner product is one labelled network (:func:`_contract_network`) over
bit-level pieces: a block tensor carries one label per chain site and, for
block chains, one per bond.  Only the open-boundary pair kernel
(:func:`inner_mixed_obc`), for groups that are blocks in chain order, keeps
the paper's dedicated left-to-right sweep.

H enters as its matrix product operator over the site groups of one product
term, whatever they are (:func:`_term_chains`): the term becomes a chain
of unit bonds and its image under H a chain of the MPO's bonds, so
<y, H x> is one network per (image, bra) pair.  The greedy solver hands the
one greedy loop (`parafac._greedy_core`) the blocks of each scheduled
blocking as the site groups of its stages; the loop builds the cross
terms against frozen addends on other groups (:class:`_MixedCrossTerms`)
from the frozen addends' images through the MPOs it compiled for its
stages, and the solver returns the frozen MixedTerm addends as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import Blocking, SpinHamiltonian, _partition, mpo
from .mps import MpsState, _apply_mpo
from .parafac import MixedTerm, _greedy_core
from .tensor import DenseState, _contract_labelled, _product_vector, _real_part


def pattern_groups(sb_rows: int, sb_cols: int, r_sites: int, pattern: int) -> tuple:
    """Site groups of one of four tilings of a subblock lattice by pairs of
    subblocks, one group per pair, the first subblock its fast half.

    The lattice has sb_rows x sb_cols subblocks of r_sites chain sites each
    (a subblock is a horizontal run of r_sites lattice columns; the physical
    lattice is sb_rows x (sb_cols * r_sites), numbered row-major, so
    subblock k holds sites k*r_sites, ..., (k+1)*r_sites - 1).  The four
    patterns pair subblocks (1) horizontally, (2) horizontally shifted by one
    column with wrap, (3) vertically, (4) vertically shifted by one row with
    wrap; patterns 3 and 4 are patterns 1 and 2 on the transposed subblock
    lattice.  Patterns tile only even x even subblock lattices.
    """
    if sb_rows % 2 or sb_cols % 2:
        raise ValueError("patterns tile only even x even subblock lattices")
    if pattern not in (1, 2, 3, 4):
        raise ValueError("pattern must be 1..4")
    vertical = pattern > 2
    shift = 1 - pattern % 2
    lines, extent = (sb_cols, sb_rows) if vertical else (sb_rows, sb_cols)
    groups = []
    for line in range(lines):
        for c in range(shift, extent + shift, 2):
            pair = ((line, c % extent), (line, (c + 1) % extent))
            subblocks = [row * sb_cols + col for row, col in
                         (rc[::-1] if vertical else rc for rc in pair)]
            groups.append(tuple(k * r_sites + s for k in subblocks for s in range(r_sites)))
    return tuple(groups)


@dataclass(eq=False)
class MixedTermSum:
    """Sum of tensor-product terms; every term has its own site groups."""

    p: int
    terms: list

    def __post_init__(self):
        for t in self.terms:
            if t.p != self.p:
                raise ValueError("all terms must cover the same sites")


# ---------------------------------------------------------------------------
# dense expansion (oracle plumbing)

def _product_pieces(groups, cols) -> list:
    """(site labels, bit tensor) pairs of the product of `cols` over site
    groups: column i on groups[i], its first site the fastest bit."""
    return [(tuple(("s", s) for s in sites), np.reshape(c, (2,) * len(sites), order="F"))
            for sites, c in zip(groups, cols)]


def _outer_labelled(pieces, order) -> np.ndarray:
    """Outer product of (labels, tensor) pieces with its axes in label
    order `order`."""
    tens = None
    labels = ()
    for l, t in pieces:
        tens = t if tens is None else np.multiply.outer(tens, t)
        labels = labels + tuple(l)
    return np.transpose(tens, [labels.index(s) for s in order])


def term_to_dense(term) -> DenseState:
    return DenseState(term.p, term.weight * _product_vector(term.groups, term.factors))


def sum_to_dense(x: MixedTermSum) -> DenseState:
    vectors = (t.weight * _product_vector(t.groups, t.factors) for t in x.terms)
    return DenseState(x.p, sum(vectors, np.zeros(2**x.p)))


# ---------------------------------------------------------------------------
# generic piece-network contraction

def _pair_score(la, sa, lb, sb_, open_labels):
    shared = (set(la) & set(lb)) - open_labels
    if not shared:
        return None
    shared_bits = sum(sa[la.index(s)].bit_length() - 1 for s in shared)
    left_bits = sum(n.bit_length() - 1 for lab, n in zip(la + lb, sa + sb_)
                    if lab not in shared)
    return shared_bits - left_bits


def _contract_network(pieces, open_labels=()):
    """Contract a list of (labels, tensor) pieces over all labels shared by
    two pieces, leaving `open_labels` as free legs.

    Pair choice maximizes (contracted bits - leftover bits), i.e. the
    summation part is kept larger than the remaining indices; ties fall to
    the piece pair containing the leftmost label.  Returns (scalar, tensor
    with its axes in the order of `open_labels`, or None).
    """
    order = tuple(open_labels)
    open_labels = frozenset(order)
    work, scalar = [], 1.0

    def push(labels, t):
        # a fully contracted piece joins the scalar at once, real while
        # every piece is
        nonlocal scalar
        if t.ndim == 0:
            scalar *= t.item()
        else:
            work.append((tuple(labels), t))

    for labels, t in pieces:
        push(labels, np.asarray(t))
    while True:
        best = None
        for ia in range(len(work)):
            for ib in range(ia + 1, len(work)):
                la, ta = work[ia]
                lb, tb = work[ib]
                gain = _pair_score(la, ta.shape, lb, tb.shape, open_labels)
                if gain is None:
                    continue
                tie = min(min(la), min(lb))
                if best is None or (-gain, tie, ia, ib) < best:
                    best = (-gain, tie, ia, ib)
        if best is None:
            break
        _, _, ia, ib = best
        la, ta = work[ia]
        lb, tb = work[ib]
        tc, lc = _contract_labelled(ta, la, tb, lb)
        work = [w for i, w in enumerate(work) if i not in (ia, ib)]
        push(lc, tc)

    if not open_labels:
        if work:
            raise ValueError("network left unconnected non-scalar pieces")
        return scalar, None
    if {l for labels, _ in work for l in labels} != set(open_labels):
        raise ValueError("open legs do not match the requested labels")
    return scalar, _outer_labelled(work, order)


# ---------------------------------------------------------------------------
# pair kernels

def inner_mixed_obc(x: MixedTerm, y: MixedTerm) -> complex:
    """<y, x> for terms whose groups are blocks in chain order (refused
    otherwise): left-to-right partial contraction, always folding the
    shorter leading block into the longer one's prefix.  Costs at most 2^r
    per step over (k + m) steps, r the widest block."""
    if x.p != y.p:
        raise ValueError("terms must cover the same chain")
    cuts = (Blocking.from_groups(x.groups).cuts, Blocking.from_groups(y.groups).cuts)
    acc = complex(np.conj(y.weight) * x.weight)
    # side 0 is x, side 1 is y; carry[s] is the vector of side s's block
    # idx[s], which ends at chain position end[s]
    facs = ([f.copy() for f in x.factors], [f.conj() for f in y.factors])
    idx = [0, 0]
    carry = [facs[0][0], facs[1][0]]
    end = [cuts[0][1], cuts[1][1]]
    pos = 0
    while True:
        if end[0] == end[1]:
            flops.add(carry[0].size)
            acc *= complex(carry[1] @ carry[0])
            if end[0] == x.p:
                return acc
            steps = (0, 1)
        else:
            a = int(end[1] < end[0])
            mat = carry[1 - a].reshape(2 ** (end[a] - pos), -1, order="F")
            flops.add(mat.size)
            carry[1 - a] = carry[a] @ mat
            steps = (a,)
        pos = end[steps[0]]
        for s in steps:
            idx[s] += 1
            carry[s] = facs[s][idx[s]]
            end[s] = cuts[s][idx[s] + 1]


def inner_terms(x: MixedTerm, y: MixedTerm) -> complex:
    """<y, x> for terms on any site groups, 2D patterns included: one
    network over the bit-level pieces of both terms, each step contracting
    the pair whose summed indices outweigh the leftover ones.  Keeps each
    step below 2^{3r/2} operations on a cyclic blocking and (2^r)^3 on two
    patterns of one subblock lattice."""
    if x.p != y.p:
        raise ValueError("terms must cover the same chain")
    pieces = _product_pieces(x.groups, x.factors) + [
        (sites, t.conj()) for sites, t in _product_pieces(y.groups, y.factors)]
    scalar, _ = _contract_network(pieces)
    return complex(np.conj(y.weight) * x.weight * scalar)


def inner_sum(x: MixedTermSum, y: MixedTermSum) -> complex:
    """<y, x> over all term pairs, one :func:`inner_terms` network each;
    bilinear in the term weights."""
    if x.p != y.p:
        raise ValueError("sums must share their sites")
    return sum((inner_terms(tx, ty) for tx in x.terms for ty in y.terms), 0j)


# ---------------------------------------------------------------------------
# block chains on different site groups

def _chain_pieces(groups, sites, tag, periodic=False) -> list:
    """Labelled bit-level pieces of a chain over site groups: site j carries
    the sites of groups[j] and the bonds ("b", tag, j) and ("b", tag, j + 1).
    An open chain drops its two unit outer bonds; a periodic one closes its
    last bond onto bond 0, traced at once when a single site holds both ends."""
    q = len(sites)
    pieces = []
    for j, site in enumerate(sites):
        right = (j + 1) % q if periodic else j + 1
        labels = [("b", tag, j)] + [("s", s) for s in groups[j]] + [("b", tag, right)]
        shape = (site.shape[0],) + (2,) * (len(labels) - 2) + (site.shape[2],)
        t = site.reshape(shape, order="F")
        if periodic and q == 1:
            flops.add(t.size // shape[0])
            labels, t = labels[1:-1], np.trace(t, axis1=0, axis2=-1)
        elif not periodic:
            lo, hi = int(j == 0), len(labels) - int(j == q - 1)
            labels, t = labels[lo:hi], t.reshape(shape[lo:hi])
        pieces.append((tuple(labels), t))
    return pieces


def inner_block_mps_mixed(x: MpsState, y: MpsState) -> complex:
    """<y, x> for block chains whose site groups may differ: one network over
    the bit-level pieces of both chains, so the sites of differently cut
    blocks meet as shared labels."""
    if x.p != y.p or x.boundary != y.boundary:
        raise ValueError("chains must share length and boundary")
    periodic = x.boundary == "periodic"
    bras = [(labels, t.conj()) for labels, t in
            _chain_pieces(y.groups, y.sites, "y", periodic)]
    scalar, _ = _contract_network(_chain_pieces(x.groups, x.sites, "x", periodic) + bras)
    return complex(scalar)


# ---------------------------------------------------------------------------
# Hamiltonian images of product terms

def _group_mpos(h: SpinHamiltonian, group_tuples) -> dict:
    """The MPO of `h` over each distinct tuple of site groups, compiled once."""
    return {g: mpo(h, g) for g in dict.fromkeys(group_tuples)}


def _term_chains(ws: list, term: MixedTerm, tag) -> tuple:
    """(ket, image, bra) pieces of a product term over any site groups, its
    weight on the first factor: the term as an open chain of unit bonds, its
    image under H (that chain through the MPO sites `ws` of H over the
    term's groups, :func:`mps._apply_mpo`, so image bond j is the MPO's
    w_j), both with bond tag `tag`, and the conjugate term as product
    pieces."""
    chain = [np.reshape(c, (1, -1, 1)) for c in term.factors]
    chain[0] = term.weight * chain[0]
    image = _apply_mpo(ws, chain)
    return (_chain_pieces(term.groups, chain, tag), _chain_pieces(term.groups, image, tag),
            _product_pieces(term.groups, [np.conj(c) for c in chain]))


def _closed_sum(kets, bras) -> complex:
    """sum over (ket, bra) pairs of the closed network of their pieces."""
    return sum(_contract_network(ket + bra)[0] for ket in kets for bra in bras)


def expectation_mixed(h: SpinHamiltonian, x: MixedTermSum,
                      tols: Tolerances = DEFAULT_TOLS) -> float:
    """<x, H x> for terms on any site groups: each term pushed through the
    MPO of `h` over its own groups (:func:`_term_chains`; one MPO per
    distinct group tuple), then one network per (image, bra) pair.  Refuses
    an imaginary residue above tols.rayleigh_imag (relative)."""
    if h.p != x.p:
        raise ValueError("Hamiltonian and state sizes differ")
    mpos = _group_mpos(h, [t.groups for t in x.terms])
    chains = [_term_chains(mpos[t.groups], t, n) for n, t in enumerate(x.terms)]
    return _real_part(_closed_sum([c[1] for c in chains], [c[2] for c in chains]), tols)


# ---------------------------------------------------------------------------
# greedy ground-state search over a schedule of blockings

class _MixedCrossTerms:
    """Cross contractions of the working addend against frozen MixedTerm
    addends on any site groups, via labelled piece networks with the sites
    of the working group left open.

    Each frozen addend y and its image H y are built once per stage
    (:func:`_term_chains`) through the MPO of its groups in `mpos`, the
    MPOs the greedy loop compiled once for all its stages: one network per
    frozen addend.  `beta` and `rho` are the frozen sum's <y, H y> and
    <y, y> over the same pieces."""

    def __init__(self, groups: tuple, mpos: dict, frozen: list, tols: Tolerances):
        self.groups = groups
        self.kets, self.images, bras = zip(*(_term_chains(mpos[y.groups], y, n)
                                             for n, y in enumerate(frozen)))
        self.beta = _real_part(_closed_sum(self.images, bras), tols)
        self.rho = float(_closed_sum(self.kets, bras).real)

    def _open_contract(self, x_cols, i, kets):
        open_sites = tuple(("s", s) for s in self.groups[i])
        bras = [(labels, t.conj()) for j, (labels, t) in
                enumerate(_product_pieces(self.groups, x_cols)) if j != i]
        contracted = (_contract_network(pieces + bras, open_labels=open_sites)
                      for pieces in kets)
        return sum(scalar * tens.reshape(-1, order="F") for scalar, tens in contracted)

    def vectors(self, x_cols, i) -> tuple:
        """(u_i, v_i): the working group left open against the frozen
        images H y and the frozen addends y."""
        return (self._open_contract(x_cols, i, self.images),
                self._open_contract(x_cols, i, self.kets))


def ground_state_mixed_greedy(h: SpinHamiltonian, schedule, d_per_blocking,
                              sweeps: int = 30, seed: int = 0,
                              tols: Tolerances = DEFAULT_TOLS) -> tuple:
    """Greedy addend-by-addend minimization (`parafac._greedy_core`) where
    the n-th run of d_per_blocking stages takes schedule[n] as its site
    groups: a :class:`Blocking`, a tuple of block widths, or site groups in
    any order (read by :func:`hamiltonian._partition`).  An empty schedule
    and a blocking that does not cover the chain are refused before any
    MPO is built.  Returns (trace, MixedTermSum), the sum's terms the frozen
    addends on their stages' groups."""
    if d_per_blocking < 1 or not schedule:
        raise ValueError("need a schedule and a positive addend count per blocking")
    stages = [_partition(b, h.p) for b in schedule for _ in range(d_per_blocking)]
    trace, frozen = _greedy_core(h, stages, sweeps, seed, tols)
    return trace, MixedTermSum(h.p, frozen)

