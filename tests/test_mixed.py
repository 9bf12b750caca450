"""Mixed-blocking terms: 1D open/periodic kernels, block chains, 2D patterns."""

import copy
from dataclasses import fields

import numpy as np
import pytest

from tnsolve import flops, mixed, parafac
from tnsolve.config import DEFAULT_TOLS
from tnsolve.hamiltonian import (
    Blocking,
    _partition,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    materialize_dense,
    mpo,
)
from tnsolve.mixed import (
    MixedTerm,
    MixedTermSum,
    _MixedCrossTerms,
    _group_mpos,
    expectation_mixed,
    ground_state_mixed_greedy,
    inner_block_mps_mixed,
    inner_mixed_obc,
    inner_sum,
    inner_terms,
    pattern_groups,
    sum_to_dense,
    term_to_dense,
)
from tnsolve.mps import (
    MpsState,
    als_ground_state,
    from_unit_vector,
    inner as mps_inner,
    random_mps,
    to_dense,
)
from tnsolve.oracle import rayleigh
from tnsolve.parafac import _greedy_core, greedy_als, random_cp, simultaneous_als
from tnsolve.peps import random_peps
from tnsolve.tensor import DenseState


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_term(rng, widths, weight=None, offset=0):
    b = Blocking(widths)
    factors = [crandn(rng, 2**w) for w in b.widths]
    w = weight if weight is not None else complex(crandn(rng, 1)[0])
    return MixedTerm(b.shifted(offset), factors, w)


def random_cyclic_partition(rng, p):
    q = int(rng.integers(2, 4))
    cuts = sorted(rng.choice(np.arange(1, p), size=q - 1, replace=False).tolist())
    widths = np.diff([0] + cuts + [p]).tolist()
    offset = int(rng.integers(0, p))
    return tuple(widths), offset


# ---------------------------------------------------------------------------
# term plumbing

def test_term_to_dense_product_structure():
    rng = np.random.default_rng(0)
    t = random_term(rng, (2, 2), weight=1.0)
    v = term_to_dense(t).vector
    a, b = t.factors
    for i in range(4):
        for j in range(4):
            assert v[i + 4 * j] == pytest.approx(a[i] * b[j], abs=1e-13)


def test_term_to_dense_wrapped_blocking():
    rng = np.random.default_rng(1)
    t = random_term(rng, (3, 3), offset=4, weight=1.0)
    v = term_to_dense(t).vector
    # block 0 covers sites (4, 5, 0), block 1 covers (1, 2, 3)
    a, b = t.factors
    for i in range(64):
        bits = [(i >> r) & 1 for r in range(6)]
        ia = bits[4] + 2 * bits[5] + 4 * bits[0]
        ib = bits[1] + 2 * bits[2] + 4 * bits[3]
        assert v[i] == pytest.approx(a[ia] * b[ib], abs=1e-13)


def test_term_validation():
    with pytest.raises(ValueError):
        MixedTerm(Blocking((2, 2)).groups, [np.ones(4)], 1.0)
    with pytest.raises(ValueError):
        MixedTerm(Blocking((2, 2)).groups, [np.ones(4), np.ones(3)], 1.0)
    with pytest.raises(ValueError):
        MixedTerm(Blocking((2, 2)).shifted(4), [np.ones(4), np.ones(4)], 1.0)


# ---------------------------------------------------------------------------
# open-boundary kernel

def test_obc_identical_blockings_blockwise_dots():
    rng = np.random.default_rng(2)
    x = random_term(rng, (2, 3), weight=1.0)
    y = random_term(rng, (2, 3), weight=1.0)
    expect = np.prod([np.vdot(fy, fx) for fy, fx in zip(y.factors, x.factors)])
    assert inner_mixed_obc(x, y) == pytest.approx(expect, abs=1e-12 * abs(expect))


def test_obc_matches_dense():
    rng = np.random.default_rng(3)
    x = random_term(rng, (2, 2))
    y = random_term(rng, (1, 3))
    expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
    assert inner_mixed_obc(x, y) == pytest.approx(expect, abs=1e-13 * max(1.0, abs(expect)))


@pytest.mark.parametrize("wx,wy", [((5, 5), (2, 3, 5)), ((4, 6), (2, 2, 2, 4)),
                                   ((10,), (3, 3, 4))])
def test_obc_random_blockings_vs_dense(wx, wy):
    rng = np.random.default_rng(sum(wx) + len(wy))
    x = random_term(rng, wx)
    y = random_term(rng, wy)
    expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
    assert inner_mixed_obc(x, y) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))


def test_obc_cost_bound():
    rng = np.random.default_rng(4)
    x = random_term(rng, (5, 5))
    y = random_term(rng, (2, 3, 5))
    with flops.tally() as fc:
        inner_mixed_obc(x, y)
    r = 5
    assert fc.total <= 2**r * (2 + 3)


def test_obc_rejects_wrapped():
    rng = np.random.default_rng(5)
    x = random_term(rng, (2, 2))
    y = random_term(rng, (2, 2), offset=1)
    with pytest.raises(ValueError):
        inner_mixed_obc(x, y)


# ---------------------------------------------------------------------------
# periodic kernel

def test_pbc_aligned_cuts_equals_obc():
    rng = np.random.default_rng(6)
    x = random_term(rng, (3, 3))
    y = random_term(rng, (2, 4))
    assert inner_terms(x, y) == pytest.approx(inner_mixed_obc(x, y), abs=1e-12)


def test_pbc_random_cyclic_vs_dense():
    rng = np.random.default_rng(7)
    p = 6
    for _ in range(25):
        wx, ox = random_cyclic_partition(rng, p)
        wy, oy = random_cyclic_partition(rng, p)
        x = random_term(rng, wx, offset=ox)
        y = random_term(rng, wy, offset=oy)
        expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
        assert inner_terms(x, y) == pytest.approx(
            expect, abs=1e-13 * max(1.0, abs(expect))
        )


def test_pbc_per_step_cost_bound():
    rng = np.random.default_rng(8)
    p = 10
    for _ in range(20):
        wx, ox = random_cyclic_partition(rng, p)
        wy, oy = random_cyclic_partition(rng, p)
        x = random_term(rng, wx, offset=ox)
        y = random_term(rng, wy, offset=oy)
        r = max(max(wx), max(wy))
        with flops.tally() as fc:
            inner_terms(x, y)
        k, m = len(wx), len(wy)
        assert fc.max_step <= 4 * 2 ** int(np.ceil(1.5 * r))
        assert fc.total <= 4 * 2 ** int(np.ceil(1.5 * r)) * (k + m)


# ---------------------------------------------------------------------------
# sums

def test_inner_sum_single_terms_reduce_to_kernel():
    rng = np.random.default_rng(9)
    x = MixedTermSum(6, [random_term(rng, (3, 3))])
    y = MixedTermSum(6, [random_term(rng, (2, 4))])
    assert inner_sum(x, y) == pytest.approx(
        inner_mixed_obc(x.terms[0], y.terms[0]), abs=1e-13
    )


def test_inner_sum_three_terms_vs_dense():
    rng = np.random.default_rng(10)
    p = 8
    x = MixedTermSum(p, [random_term(rng, w) for w in [(4, 4), (2, 3, 3), (8,)]])
    y = MixedTermSum(p, [random_term(rng, w) for w in [(3, 5), (4, 4)]])
    expect = np.vdot(sum_to_dense(y).vector, sum_to_dense(x).vector)
    assert inner_sum(x, y) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))


def test_inner_sum_conjugate_symmetric_and_bilinear():
    rng = np.random.default_rng(11)
    x = MixedTermSum(6, [random_term(rng, (2, 4)), random_term(rng, (3, 3))])
    y = MixedTermSum(6, [random_term(rng, (6,))])
    assert inner_sum(x, y) == pytest.approx(np.conj(inner_sum(y, x)), abs=1e-12)
    x2 = MixedTermSum(6, [
        MixedTerm(t.groups, t.factors, 2.5j * t.weight) for t in x.terms
    ])
    assert inner_sum(x2, y) == pytest.approx(2.5j * inner_sum(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# expectation

def test_expectation_identity_hamiltonian():
    rng = np.random.default_rng(12)
    from tnsolve.hamiltonian import KroneckerTerm, OP_I, SpinHamiltonian

    h = SpinHamiltonian(6, [KroneckerTerm(1.0, (OP_I,) * 6)])
    x = MixedTermSum(6, [random_term(rng, (2, 4)), random_term(rng, (3, 3))])
    assert expectation_mixed(h, x) == pytest.approx(
        inner_sum(x, x).real, abs=1e-11
    )


def test_expectation_matches_dense():
    rng = np.random.default_rng(13)
    h = build_ising(8, 1.0, "open")
    x = MixedTermSum(8, [random_term(rng, w) for w in [(4, 4), (2, 3, 3)]])
    dense = sum_to_dense(x).vector
    expect = np.vdot(dense, materialize_dense(h) @ dense).real
    assert expectation_mixed(h, x) == pytest.approx(
        expect, abs=1e-11 * max(1.0, abs(expect))
    )


def test_expectation_honours_caller_tolerances():
    from tnsolve.config import Tolerances
    from tnsolve.hamiltonian import KroneckerTerm, OP_I, SiteOperator, SpinHamiltonian

    rng = np.random.default_rng(14)
    raising = SiteOperator.custom(np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = SpinHamiltonian(6, [KroneckerTerm(1.0, (OP_I, raising) + (OP_I,) * 4)])
    x = MixedTermSum(6, [random_term(rng, (2, 4)), random_term(rng, (3, 3))])
    dense = sum_to_dense(x).vector
    numerator = np.vdot(dense, materialize_dense(h) @ dense)
    assert abs(numerator.imag) > 1e-3
    with pytest.raises(ValueError):
        expectation_mixed(h, x)
    loose = Tolerances(rayleigh_imag=1e3)
    assert expectation_mixed(h, x, loose) == pytest.approx(
        numerator.real, abs=1e-10 * max(1.0, abs(numerator.real)))


def test_expectation_periodic_geometry():
    # the complex YY terms of periodic XY cross the wrapping group
    rng = np.random.default_rng(14)
    for h in (build_ising(6, 0.7, "periodic"),
              build_heisenberg_xy(6, 1.0, 0.6, 0.3, "periodic")):
        terms = []
        for _ in range(2):
            w, o = random_cyclic_partition(rng, 6)
            terms.append(random_term(rng, w, offset=o))
        x = MixedTermSum(6, terms)
        dense = sum_to_dense(x).vector
        expect = np.vdot(dense, materialize_dense(h) @ dense).real
        assert expectation_mixed(h, x) == pytest.approx(
            expect, abs=1e-11 * max(1.0, abs(expect))
        )


# ---------------------------------------------------------------------------
# block chains with different blockings

def test_block_mps_mixed_equal_blockings_reduces_to_inner():
    x = random_mps(6, 2, "open", blocking=Blocking((2, 2, 2)), seed=15)
    y = random_mps(6, 2, "open", blocking=Blocking((2, 2, 2)), seed=16)
    assert inner_block_mps_mixed(x, y) == pytest.approx(
        mps_inner(x, y), abs=1e-13 * max(1.0, abs(mps_inner(x, y)))
    )


def test_block_mps_mixed_vs_dense():
    x = random_mps(6, 2, "open", blocking=Blocking((2, 2, 2)), seed=17)
    y = random_mps(6, 3, "open", blocking=Blocking((3, 3)), seed=18)
    expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
    assert inner_block_mps_mixed(x, y) == pytest.approx(
        expect, abs=1e-12 * max(1.0, abs(expect))
    )


def test_block_mps_mixed_more_blockings():
    # the last case walks a 2 x 6 lattice along its ladder against row-major
    ladder = tuple((r * 6 + c,) for c in range(6) for r in range(2))
    for p, gx, gy, dx, dy, seed in [(6, Blocking((1, 2, 3)), Blocking((4, 2)), 2, 3, 19),
                                    (8, Blocking((2, 2, 2, 2)), Blocking((3, 5)), 3, 2, 20),
                                    (8, Blocking((8,)), Blocking((1,) * 8), 1, 2, 21),
                                    (12, ladder, Blocking((1,) * 12), 3, 2, 24)]:
        x = random_mps(p, dx, "open", blocking=gx, seed=seed)
        y = random_mps(p, dy, "open", blocking=gy, seed=seed + 50)
        expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
        assert inner_block_mps_mixed(x, y) == pytest.approx(
            expect, abs=1e-12 * max(1.0, abs(expect))
        )


def test_block_mps_mixed_periodic():
    # a single block's bond closes on itself; bond dimensions may differ
    for wx, wy, dx, dy in [((2, 2, 2), (3, 3), 2, 2), ((6,), (2, 4), 2, 2),
                           ((2, 2, 2), (3, 3), 2, 3)]:
        x = random_mps(6, dx, "periodic", blocking=Blocking(wx), seed=22)
        y = random_mps(6, dy, "periodic", blocking=Blocking(wy), seed=23)
        expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
        assert inner_block_mps_mixed(x, y) == pytest.approx(
            expect, abs=1e-12 * max(1.0, abs(expect))
        )


def test_block_mps_mixed_unit_vectors():
    e5a = from_unit_vector(5, 6)
    e5b = from_unit_vector(5, 6)
    assert inner_block_mps_mixed(e5a, e5b) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# 2D four-pattern terms

def random_pattern_term(rng, sb_rows, sb_cols, r_sites, pattern):
    n_pairs = sb_rows * sb_cols // 2
    factors = [crandn(rng, 4**r_sites) for _ in range(n_pairs)]
    return MixedTerm(pattern_groups(sb_rows, sb_cols, r_sites, pattern), factors,
                     complex(crandn(rng, 1)[0]))


def test_pattern_validation():
    rng = np.random.default_rng(24)
    with pytest.raises(ValueError):
        random_pattern_term(rng, 3, 2, 1, 1)
    with pytest.raises(ValueError):
        random_pattern_term(rng, 2, 2, 1, 5)
    t = random_pattern_term(rng, 2, 2, 1, 1)
    assert t.p == 4
    # every subblock appears in exactly one superblock
    seen = [sb for pair in pattern_groups(2, 2, 1, 1) for sb in pair]
    assert sorted(seen) == list(range(4))


@pytest.mark.parametrize("pattern", [1, 2, 3, 4])
def test_pattern_tiles_lattice(pattern):
    seen = [sb for pair in pattern_groups(4, 4, 1, pattern) for sb in pair]
    assert sorted(seen) == list(range(16))


@pytest.mark.parametrize("sb_rows, sb_cols, pattern, pairs", [
    (2, 4, 1, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    (2, 4, 2, [(1, 2), (3, 0), (5, 6), (7, 4)]),
    (2, 4, 3, [(0, 4), (1, 5), (2, 6), (3, 7)]),
    (2, 4, 4, [(4, 0), (5, 1), (6, 2), (7, 3)]),
    (4, 2, 1, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    (4, 2, 2, [(1, 0), (3, 2), (5, 4), (7, 6)]),
    (4, 2, 3, [(0, 2), (4, 6), (1, 3), (5, 7)]),
    (4, 2, 4, [(2, 4), (6, 0), (3, 5), (7, 1)]),
])
def test_pattern_pair_order(sb_rows, sb_cols, pattern, pairs):
    # factor k covers pair k, first subblock as the fast half; with one site
    # per subblock, subblock ids are chain sites
    assert list(pattern_groups(sb_rows, sb_cols, 1, pattern)) == pairs
    assert MixedTerm(pattern_groups(sb_rows, sb_cols, 1, pattern),
                     [np.ones(4)] * 4).groups == tuple(pairs)


def test_pattern_identical_patterns_product_of_dots():
    rng = np.random.default_rng(25)
    x = random_pattern_term(rng, 2, 2, 2, 1)
    y = random_pattern_term(rng, 2, 2, 2, 1)
    expect = np.conj(y.weight) * x.weight * np.prod(
        [np.vdot(fy, fx) for fy, fx in zip(y.factors, x.factors)]
    )
    assert inner_terms(x, y) == pytest.approx(expect, abs=1e-12 * abs(expect))


@pytest.mark.parametrize("pa,pb", [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)])
def test_pattern_cross_patterns_vs_dense_small(pa, pb):
    rng = np.random.default_rng(26 + pa * 4 + pb)
    x = random_pattern_term(rng, 2, 2, 2, pa)  # p = 8
    y = random_pattern_term(rng, 2, 2, 2, pb)
    expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
    assert inner_terms(x, y) == pytest.approx(
        expect, abs=1e-12 * max(1.0, abs(expect))
    )


def test_pattern_4x2_subblocks_vs_dense():
    # 4 x 4 physical lattice cut into 1x2 subblocks: 4 x 2 subblock lattice
    rng = np.random.default_rng(27)
    x = random_pattern_term(rng, 4, 2, 2, 1)  # p = 16
    y = random_pattern_term(rng, 4, 2, 2, 3)
    expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
    assert inner_terms(x, y) == pytest.approx(
        expect, abs=1e-12 * max(1.0, abs(expect))
    )


def test_pattern_per_step_cost():
    rng = np.random.default_rng(28)
    r = 2
    x = random_pattern_term(rng, 4, 2, r, 1)
    y = random_pattern_term(rng, 4, 2, r, 3)
    with flops.tally() as fc:
        inner_terms(x, y)
    assert fc.max_step <= 4 * 2 ** (3 * r)


def test_pattern_lattice_mismatch():
    rng = np.random.default_rng(29)
    x = random_pattern_term(rng, 2, 2, 1, 1)
    y = random_pattern_term(rng, 2, 2, 2, 1)
    with pytest.raises(ValueError):
        inner_terms(x, y)
    # equal p = 8 on transposed subblock lattices is contracted to the dense value
    x = random_pattern_term(rng, 2, 4, 1, 1)
    y = random_pattern_term(rng, 4, 2, 1, 3)
    expect = np.vdot(term_to_dense(y).vector, term_to_dense(x).vector)
    assert inner_terms(x, y) == pytest.approx(
        expect, abs=1e-12 * max(1.0, abs(expect))
    )


def test_pattern_expectation_2d_hamiltonian():
    rng = np.random.default_rng(30)
    for boundary, patterns in (("open", (1, 3)), ("periodic", (2, 4))):
        h = build_ising_2d(2, 4, 0.9, boundary)  # 2x4 lattice, p = 8
        terms = [random_pattern_term(rng, 2, 2, 2, p) for p in patterns]
        x = MixedTermSum(8, terms)
        dense = sum_to_dense(x).vector
        expect = np.vdot(dense, materialize_dense(h) @ dense).real
        assert expectation_mixed(h, x) == pytest.approx(
            expect, abs=1e-11 * max(1.0, abs(expect))
        )


# ---------------------------------------------------------------------------
# greedy solver over blocking schedules

def random_addend(rng, groups):
    """A frozen addend as the greedy solver keeps it."""
    return MixedTerm(groups, [crandn(rng, 2 ** len(g)) for g in groups],
                     complex(crandn(rng, 1)[0]))


def product_dense(groups, cols):
    """The product of `cols` over site groups as a dense vector."""
    operands = []
    for g, c in zip(groups, cols):
        operands += [c.reshape((2,) * len(g), order="F"), list(g)]
    p = sum(map(len, groups))
    return np.einsum(*operands, list(range(p))).reshape(-1, order="F")


def open_contract_dense(vec, groups, x_cols, i):
    """<x_{j != i}| vec> with the sites of groups[i] left open, in the
    group's own bit order (its first site fastest)."""
    p = sum(map(len, groups))
    operands = [vec.reshape((2,) * p, order="F"), list(range(p))]
    for j, (g, x) in enumerate(zip(groups, x_cols)):
        if j != i:
            operands += [x.conj().reshape((2,) * len(g), order="F"), list(g)]
    return np.einsum(*operands, list(groups[i])).reshape(-1, order="F")


def check_cross_terms(h, working, frozen, rng):
    # u_i and v_i are <x_{j != i}| H Y> and <x_{j != i}| Y> with the working
    # group left open; beta and rho are <Y, H Y> and <Y, Y>
    addends = [random_addend(rng, g) for g in frozen]
    cross = _MixedCrossTerms(working, _group_mpos(h, [a.groups for a in addends]),
                             addends, DEFAULT_TOLS)
    y = sum(t.weight * product_dense(t.groups, t.factors) for t in addends)
    hy = materialize_dense(h) @ y
    x_cols = [crandn(rng, 2 ** len(g)) for g in working]
    for i in range(len(working)):
        u_i, v_i = cross.vectors(x_cols, i)
        for got, want in ((u_i, open_contract_dense(hy, working, x_cols, i)),
                          (v_i, open_contract_dense(y, working, x_cols, i))):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), i
    beta, rho = np.vdot(y, hy).real, np.vdot(y, y).real
    assert cross.beta == pytest.approx(beta, abs=1e-12 * max(1.0, abs(beta)))
    assert cross.rho == pytest.approx(rho, abs=1e-12 * rho)


def test_mixed_cross_vectors_match_dense():
    # frozen addends on two other blockings, complex XY terms
    h = build_heisenberg_xy(8, 1.0, 0.6, 0.3, "open")
    check_cross_terms(h, Blocking((4, 1, 3)).groups,
                      [Blocking((3, 5)).groups, Blocking((2, 2, 4)).groups],
                      np.random.default_rng(60))


WRAPPING_GROUPS = [((6, 7, 0), (1, 2, 3, 4, 5)), ((5, 1), (0, 4), (2, 6, 3, 7))]


@pytest.mark.parametrize("model, working, frozen", [
    # the working group (2, 0) is not ascending
    ("xy-open", ((2, 0), (1, 3), (4, 5, 6, 7)),
     [Blocking((3, 5)).groups, Blocking((2, 2, 4)).groups]),
    # frozen addends on a wrapping and on non-contiguous groups
    ("xy-periodic", Blocking((4, 1, 3)).groups, WRAPPING_GROUPS),
    ("xy-periodic", ((2, 0), (1, 3), (4, 5, 6, 7)), WRAPPING_GROUPS),
    ("ising-2x4-periodic", Blocking((4, 1, 3)).groups, WRAPPING_GROUPS),
], ids=["non-ascending-working", "xy-wrapping-frozen", "xy-all-unordered",
        "2d-wrapping-frozen"])
def test_mixed_cross_vectors_on_any_groups(model, working, frozen):
    h = {"xy-open": lambda: build_heisenberg_xy(8, 1.0, 0.6, 0.3, "open"),
         "xy-periodic": lambda: build_heisenberg_xy(8, 1.0, 0.6, 0.3, "periodic"),
         "ising-2x4-periodic": lambda: build_ising_2d(2, 4, 0.9, "periodic")}[model]()
    check_cross_terms(h, working, frozen, np.random.default_rng(61))


def test_mixed_greedy_refuses_a_short_blocking_before_any_update(monkeypatch):
    # the second scheduled blocking covers 5 of the 6 sites
    calls = []
    monkeypatch.setattr(parafac, "run_sweeps", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="partition"):
        ground_state_mixed_greedy(build_ising(6, 1.0), [(3, 3), (2, 3)], 1)
    assert calls == []


def test_mixed_greedy_reads_site_groups_like_greedy_als():
    # a schedule entry may be site groups in any order, as greedy_als takes
    h = build_ising(4, 1.0)
    groups = ((0, 2), (1, 3))
    t1, cp = greedy_als(h, groups, 1, inner_iters=5)
    t2, state = ground_state_mixed_greedy(h, [groups], 1, 5)
    assert t2 == t1
    assert [t.groups for t in state.terms] == [groups]
    assert np.allclose(sum_to_dense(state).vector, parafac.to_dense(cp).vector, atol=1e-13)


def _solved(result) -> list:
    """A solver's trace energies and its state's groups and arrays."""
    trace, x = result
    arrays = x.sites if isinstance(x, MpsState) else [*x.factors, x.weights]
    return [[t.energy for t in trace], x.groups, *arrays]


_H4 = build_ising(4, 0.7)
WIDTH_READERS = {
    "random_mps": lambda b: random_mps(4, 2, blocking=b, seed=3).sites,
    "random_cp": lambda b: random_cp(b, 2, seed=3).factors,
    "mpo": lambda b: mpo(_H4, b),
    "MixedTerm": lambda b: [MixedTerm(b, [np.ones(4), np.arange(4.0)]).groups],
    "greedy_als": lambda b: _solved(greedy_als(_H4, b, 2, 5)),
    "simultaneous_als": lambda b: _solved(simultaneous_als(_H4, b, 2, 5)),
    "als_ground_state": lambda b: _solved(als_ground_state(_H4, 4, 2, "open", 3, 0, b)),
}


@pytest.mark.parametrize("reader", list(WIDTH_READERS))
def test_block_widths_read_as_their_blocking(reader):
    # every entry point reads a partition through _partition, widths included
    got, want = (WIDTH_READERS[reader](b) for b in ((2, 2), Blocking((2, 2))))
    assert len(got) == len(want)
    for u, v in zip(map(np.asarray, got), map(np.asarray, want)):
        assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())


@pytest.mark.parametrize("read", [
    lambda groups: _partition(groups, 4),
    lambda groups: greedy_als(build_ising(4, 1.0), groups, 1, 3),
    lambda groups: ground_state_mixed_greedy(build_ising(4, 1.0), [groups], 1, 3),
], ids=["_partition", "greedy_als", "ground_state_mixed_greedy"])
@pytest.mark.parametrize("groups", [((0, 1), 2), (2, (2, 3))], ids=["group-then-width",
                                                                  "width-then-group"])
def test_mixed_widths_and_groups_are_a_value_error(read, groups):
    with pytest.raises(ValueError, match="neither"):
        read(groups)


def test_mixed_greedy_refuses_an_empty_schedule_before_any_mpo(monkeypatch):
    # an empty schedule would return an empty sum, whose recheck is 0.0 / 0.0
    built = []
    monkeypatch.setattr(mixed, "mpo", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="schedule"):
        ground_state_mixed_greedy(build_ising(4, 1.0), [], 1)
    assert built == []


def test_mixed_greedy_identical_schedule_matches_parafac():
    h = build_ising(8, 1.0, "open")
    b = Blocking((4, 4))
    t1, s1 = greedy_als(h, b, 2, inner_iters=8, seed=5)
    t2, s2 = ground_state_mixed_greedy(h, [b], 2, sweeps=8, seed=5)
    e1 = [t.energy for t in t1 if not np.isnan(t.energy)]
    e2 = [t.energy for t in t2 if not np.isnan(t.energy)]
    assert len(e1) == len(e2)
    assert np.allclose(e1, e2, atol=1e-10)


def test_mixed_greedy_superset_not_worse():
    h = build_ising(10, 1.0, "open")
    single_trace, _ = greedy_als(h, Blocking((5, 5)), 2, inner_iters=10, seed=3)
    mixed_trace, state = ground_state_mixed_greedy(
        h, [(5, 5), (2, 3, 5)], 2, sweeps=10, seed=3
    )
    assert mixed_trace[-1].energy <= single_trace[-1].energy + 1e-12
    # self-consistency of the returned state
    dense = sum_to_dense(state).vector
    assert rayleigh(h, DenseState(10, dense)) == pytest.approx(
        mixed_trace[-1].energy, abs=1e-9
    )


def test_mixed_greedy_trace_nonincreasing():
    h = build_ising(8, 1.0, "open")
    trace, _ = ground_state_mixed_greedy(h, [(4, 4), (2, 2, 4)], 1, sweeps=8, seed=1)
    energies = [t.energy for t in trace if not np.isnan(t.energy)]
    # within a stage updates never increase; across stages the first update
    # of a fresh random addend may sit above the previous optimum only
    # before its first solve, which the solver never reports
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))


def test_mixed_greedy_trace_pinned():
    # default sweeps and seed; entries, markers and final energy are pinned
    h = build_ising(8, 1.0, "open")
    trace, state = ground_state_mixed_greedy(h, [(4, 4), (2, 2, 4)], 1)
    assert len(trace) == 51
    assert sum(1 for t in trace if t.note) == 0
    assert trace[-1].energy == pytest.approx(-9.800326107681581, abs=1e-12)
    assert trace[-1].energy == pytest.approx(rayleigh(h, sum_to_dense(state)), abs=1e-10)


def test_mixed_greedy_refuses_zero_sweeps_before_any_update(monkeypatch):
    calls = []
    monkeypatch.setattr(parafac, "run_sweeps", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="sweep"):
        ground_state_mixed_greedy(build_ising(6, 1.0), [(3, 3)], 1, sweeps=0)
    assert calls == []


def test_cp_greedy_never_builds_mixed_cross_terms(monkeypatch):
    # every CP greedy stage shares the frozen addends' groups, so its cross
    # terms come from the stage environment; a schedule of two blockings on
    # the same chain builds piece networks for its two (2, 4) stages only
    built = []
    cls = mixed._MixedCrossTerms
    monkeypatch.setattr(mixed, "_MixedCrossTerms",
                        lambda *args: built.append(args[0]) or cls(*args))
    h = build_ising(6, 1.0)
    for init in ("random", "spectral"):
        greedy_als(h, Blocking((3, 3)), 3, inner_iters=5, init=init)
    assert built == []
    ground_state_mixed_greedy(h, [(3, 3), (2, 4)], 2, sweeps=5)
    assert built == [Blocking((2, 4)).groups] * 2


def test_mixed_greedy_returns_addends_on_their_stage_groups():
    schedule = [Blocking((3, 3)), (2, 2, 2)]
    _, state = ground_state_mixed_greedy(build_ising(6, 1.0), schedule, 2, sweeps=3)
    stages = [Blocking((3, 3)).groups] * 2 + [Blocking((2, 2, 2)).groups] * 2
    assert [t.groups for t in state.terms] == stages
    assert [f.name for f in fields(MixedTermSum)] == ["p", "terms"]


# ---------------------------------------------------------------------------
# terms and sums over any site groups

@pytest.mark.parametrize("groups", [((0, 1), (1, 2, 3)), ((0, 1), (3,)), ((0, 1), ()),
                                    ((0, 1), (2, 4))],
                         ids=["overlap", "missing-site", "empty-group", "outside"])
def test_product_terms_refuse_groups_that_do_not_partition(groups):
    factors = [np.ones(2 ** len(g)) for g in groups]
    with pytest.raises(ValueError, match="partition"):
        MixedTerm(groups, factors)
    with pytest.raises(ValueError, match="partition"):
        parafac.BlockedCp(groups, [f[:, None] for f in factors])
    with pytest.raises(ValueError, match="partition"):
        MpsState("open", groups, [f.reshape(1, -1, 1) for f in factors])


def test_sum_of_chain_order_and_wrapping_terms_matches_dense():
    rng = np.random.default_rng(72)
    h = build_heisenberg_xy(6, 1.0, 0.6, 0.3, "periodic")
    x = MixedTermSum(6, [random_term(rng, (2, 4)), random_term(rng, (3, 3), offset=4)])
    y = MixedTermSum(6, [random_term(rng, (1, 2, 3), offset=5), random_term(rng, (6,))])
    dx, dy = (sum(t.weight * product_dense(t.groups, t.factors) for t in s.terms)
              for s in (x, y))
    expect = np.vdot(dy, dx)
    assert inner_sum(x, y) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))
    expect = np.vdot(dx, materialize_dense(h) @ dx).real
    assert expectation_mixed(h, x) == pytest.approx(expect, abs=1e-11 * max(1.0, abs(expect)))


def test_sum_of_a_pattern_and_a_chain_term_matches_dense():
    # both terms cover p = 8; one is on pattern-1 groups of the 2 x 2
    # subblock lattice of a 2 x 4 lattice, the other on the blocks 4,4
    rng = np.random.default_rng(73)
    h = build_ising_2d(2, 4, 0.9, "periodic")
    x = MixedTermSum(8, [random_pattern_term(rng, 2, 2, 2, 1), random_term(rng, (4, 4))])
    dense = sum_to_dense(x).vector
    expect = np.vdot(dense, dense)
    assert inner_sum(x, x) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))
    expect = np.vdot(dense, materialize_dense(h) @ dense).real
    assert expectation_mixed(h, x) == pytest.approx(expect, abs=1e-11 * max(1.0, abs(expect)))


def test_greedy_stages_on_pattern_groups():
    # stages on pattern 1, pattern 3 and the blocks 4,4 of a 2 x 4 lattice
    # (2 x 2 subblocks of two sites): every later stage crosses frozen
    # addends on other groups
    h = build_ising_2d(2, 4, 3.0)
    stages = [pattern_groups(2, 2, 2, 1), pattern_groups(2, 2, 2, 3), Blocking((4, 4)).groups]
    trace, frozen = _greedy_core(h, stages, 5, 0, DEFAULT_TOLS)
    assert all(isinstance(t, MixedTerm) for t in frozen)
    assert [t.groups for t in frozen] == stages
    dense = sum_to_dense(MixedTermSum(8, frozen))
    assert trace[-1].energy == pytest.approx(rayleigh(h, dense), abs=1e-10)
    energies = [t.energy for t in trace if np.isfinite(t.energy)]
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))


@pytest.mark.parametrize("make", [
    lambda: random_mps(4, 2),
    lambda: random_cp(Blocking((2, 2)), 2),
    lambda: MixedTerm(((0, 2), (1, 3)), [np.ones(4), np.ones(4)]),
    lambda: MixedTermSum(4, [MixedTerm(((0, 1), (2, 3)), [np.ones(4), np.ones(4)])]),
    lambda: random_peps(2, 2, 2),
    lambda: DenseState(2, np.ones(4)),
], ids=["MpsState", "BlockedCp", "MixedTerm", "MixedTermSum", "PepsState", "DenseState"])
def test_states_compare_by_identity(make):
    # states hold arrays, so == is identity: a copy is a different state,
    # not an ambiguous array comparison
    x = make()
    assert x == x
    assert (x == copy.deepcopy(x)) is False
    if hasattr(x, "copy"):
        assert (x == x.copy()) is False
