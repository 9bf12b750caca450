"""Model builders, dense materialization, matrix-free apply, block tables, MPOs."""

import numpy as np
import pytest

from tnsolve.hamiltonian import (
    BlockedHamiltonian,
    Blocking,
    KroneckerTerm,
    OP_I,
    OP_X,
    OP_Y,
    OP_Z,
    SiteOperator,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    apply,
    materialize_dense,
    mpo,
    pauli_form,
)
from tnsolve.mixed import MixedTerm
from tnsolve.tensor import DenseState, DimensionCapError, kron_first_fastest


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def compositions(p):
    """All ordered partitions of p."""
    if p == 0:
        yield ()
        return
    for first in range(1, p + 1):
        for rest in compositions(p - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# builders

def test_ising_two_site_dense():
    h = build_ising(2, 0.0, "open")
    assert np.allclose(materialize_dense(h), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_ising_three_site_ground_energy():
    h = build_ising(3, 0.0, "open")
    w = np.linalg.eigvalsh(materialize_dense(h))
    assert w[0] == pytest.approx(-2.0)


def test_ising_term_count():
    assert build_ising(5, 0.3, "open").num_terms == 2 * 5 - 1
    assert build_ising(5, 0.3, "periodic").num_terms == 2 * 5


def test_ising_dense_matches_eigensolve():
    h = build_ising(4, 1.0, "open")
    m = materialize_dense(h)
    w = np.linalg.eigvalsh(m)
    assert m.shape == (16, 16)
    assert np.isfinite(w[0])


def test_heisenberg_xx_only():
    h = build_heisenberg_xy(2, 1.0, 0.0, 0.0, "open")
    m = materialize_dense(h)
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(m, np.kron(px, px))
    assert np.allclose(np.linalg.eigvalsh(m), [-1, -1, 1, 1])


def test_heisenberg_xx_yy_spectrum():
    h = build_heisenberg_xy(2, 1.0, 1.0, 0.0, "open")
    w = np.linalg.eigvalsh(materialize_dense(h))
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_heisenberg_hermitian():
    h = build_heisenberg_xy(3, 1.0, 1.0, 0.5, "open")
    m = materialize_dense(h)
    assert np.linalg.norm(m - m.conj().T) == 0.0


def test_builders_hermitian_everywhere():
    for h in [
        build_ising(4, 0.7, "periodic"),
        build_heisenberg_xy(3, 0.4, 1.2, 0.1, "periodic"),
        build_ising_2d(2, 3, 0.9, "open"),
        build_ising_2d(2, 2, 0.5, "periodic"),
    ]:
        m = materialize_dense(h)
        assert np.linalg.norm(m - m.conj().T) <= 1e-14 * max(1.0, np.linalg.norm(m))


def test_ising_2d_degenerate_row_equals_chain():
    h1 = build_ising_2d(1, 5, 0.8, "open")
    h2 = build_ising(5, 0.8, "open")
    assert np.allclose(materialize_dense(h1), materialize_dense(h2))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_ising_chain_cache_key_is_the_chain_term_list(boundary):
    # oracle cache keys hash model_key(): the chain's keys stay those of its
    # term list, ZZ on (k, k + 1) with the wrap bond last, then lam * X
    for p in range(2, 13):
        bonds = [(k, k + 1) for k in range(p - 1)]
        if boundary == "periodic":
            bonds.append((p - 1, 0))
        for lam in (0.0, 0.7, 1.0):
            parts = [f"p={p}"]
            parts += ["1.0:" + "".join("Z" if j in bond else "I" for j in range(p))
                      for bond in bonds]
            parts += [f"{lam!r}:" + "".join("X" if j == k else "I" for j in range(p))
                      for k in range(p)]
            assert build_ising(p, lam, boundary).model_key() == ";".join(parts)
    with pytest.raises(ValueError, match="p >= 2"):
        build_ising(1, 1.0, boundary)


def _key(p, bond_terms, lam):
    """model_key() of (coefficient, ops, bond) bond terms followed by lam * X
    on every site."""
    parts = [f"p={p}"]
    parts += [f"{coeff!r}:" + "".join(op if j in bond else "I" for j in range(p))
              for coeff, op, bond in bond_terms]
    parts += [f"{lam!r}:" + "".join("X" if j == k else "I" for j in range(p))
              for k in range(p)]
    return ";".join(parts)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_ising_2d_cache_key_is_the_lattice_term_list(boundary):
    # horizontal bonds row by row, then vertical bonds column by column; a
    # wrap bond ends every line of length >= 2 (twice the bond at length 2)
    for rows in range(1, 5):
        for cols in range(1, 5):
            if rows * cols < 2:
                continue
            bonds = []
            for r in range(rows):
                bonds += [(r * cols + c, r * cols + c + 1) for c in range(cols - 1)]
                if boundary == "periodic" and cols >= 2:
                    bonds.append((r * cols + cols - 1, r * cols))
            for c in range(cols):
                bonds += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1)]
                if boundary == "periodic" and rows >= 2:
                    bonds.append(((rows - 1) * cols + c, c))
            for lam in (0.0, 0.7, 1.0):
                expect = _key(rows * cols, [(1.0, "Z", b) for b in bonds], lam)
                assert build_ising_2d(rows, cols, lam, boundary).model_key() == expect


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_xy_chain_cache_key_is_the_chain_term_list(boundary):
    # XX then YY on (k, k + 1), the wrap bond last, then lam * X
    for p in range(2, 9):
        bonds = [(k, k + 1) for k in range(p - 1)]
        if boundary == "periodic":
            bonds.append((p - 1, 0))
        for jx, jy, lam in ((1.0, 1.0, 0.0), (0.5, -0.3, 0.7), (2.0, 1.0, 1.0)):
            terms = [t for b in bonds for t in ((jx, "X", b), (jy, "Y", b))]
            expect = _key(p, terms, lam)
            assert build_heisenberg_xy(p, jx, jy, lam, boundary).model_key() == expect


def test_ising_2d_2x2_ground_energy():
    h = build_ising_2d(2, 2, 0.0, "open")
    zz_terms = [t for t in h.terms if len(t.support()) == 2]
    assert len(zz_terms) == 4
    w = np.linalg.eigvalsh(materialize_dense(h))
    assert w[0] == pytest.approx(-4.0)


def test_ising_2d_term_count():
    h = build_ising_2d(3, 3, 1.0, "open")
    assert h.num_terms == 12 + 9


@pytest.mark.parametrize("rows,cols", [(-2, -3), (-1, -2), (0, 4), (3, 0)])
def test_ising_2d_refuses_a_side_below_one(rows, cols):
    with pytest.raises(ValueError, match="rows and cols >= 1"):
        build_ising_2d(rows, cols, 1.0)


def test_builder_preconditions():
    with pytest.raises(ValueError):
        build_ising(1, 0.0)
    with pytest.raises(ValueError):
        build_heisenberg_xy(1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_ising_2d(1, 1, 0.0)
    with pytest.raises(ValueError):
        build_ising(3, 0.0, "twisted")


# ---------------------------------------------------------------------------
# materialize / apply

def test_materialize_identity_term():
    h = SpinHamiltonian(3, [KroneckerTerm(1.0, (OP_I, OP_I, OP_I))])
    assert np.allclose(materialize_dense(h), np.eye(8))


def test_materialize_cap():
    h = build_ising(4, 0.0)
    with pytest.raises(DimensionCapError):
        materialize_dense(h, cap=3)


def test_apply_identity_hamiltonian():
    rng = np.random.default_rng(0)
    h = SpinHamiltonian(3, [KroneckerTerm(1.0, (OP_I, OP_I, OP_I))])
    x = DenseState(3, crandn(rng, 8))
    assert np.allclose(apply(h, x).vector, x.vector)


def test_apply_zz_on_basis_state():
    h = SpinHamiltonian(2, [KroneckerTerm(1.0, (OP_Z, OP_Z))])
    e0 = DenseState(2, np.eye(4)[:, 0])
    assert np.allclose(apply(h, e0).vector, e0.vector)


def test_apply_matches_dense_multiply():
    rng = np.random.default_rng(1)
    h = build_ising(6, 0.7, "open")
    m = materialize_dense(h)
    x = DenseState(6, crandn(rng, 64))
    assert np.linalg.norm(apply(h, x).vector - m @ x.vector) <= 1e-12 * np.linalg.norm(m @ x.vector)


@pytest.mark.parametrize("p,boundary", [(4, "open"), (7, "periodic"), (10, "open")])
def test_apply_matches_dense_random_models(p, boundary):
    rng = np.random.default_rng(p)
    h = build_heisenberg_xy(p, 0.8, -0.3, 0.6, boundary)
    m = materialize_dense(h)
    for _ in range(3):
        x = DenseState(p, crandn(rng, 2**p))
        ref = m @ x.vector
        assert np.linalg.norm(apply(h, x).vector - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


PAULI_MODELS = {
    "ising-open": build_ising(7, 0.7, "open"),
    "ising-periodic": build_ising(6, 1.3, "periodic"),
    "xy-open": build_heisenberg_xy(7, 0.8, -0.3, 0.6, "open"),
    "xy-periodic": build_heisenberg_xy(6, 1.0, 0.5, 0.7, "periodic"),
    "2d-open": build_ising_2d(2, 4, 0.9, "open"),
    "2d-periodic": build_ising_2d(3, 3, 0.5, "periodic"),
}


def assert_apply_matches_dense(h, seed):
    rng = np.random.default_rng(seed)
    m = materialize_dense(h)
    for _ in range(3):
        x = DenseState(h.p, crandn(rng, 2**h.p))
        ref = m @ x.vector
        err = np.linalg.norm(apply(h, x).vector - ref)
        assert err <= 1e-12 * max(1.0, np.linalg.norm(ref))


# the open Ising and the XY chains are covered by the tests above
@pytest.mark.parametrize("name", ["ising-periodic", "2d-open", "2d-periodic"])
def test_pauli_apply_matches_dense_builders(name):
    assert_apply_matches_dense(PAULI_MODELS[name], seed=len(name))


@pytest.mark.parametrize("name", list(PAULI_MODELS))
def test_pauli_form_of_builders_is_real(name):
    # Y (x) Y = -X Z (x) X Z is real, so every builder's weights are real
    form = pauli_form(PAULI_MODELS[name])
    assert all(np.isrealobj(w) for _, w in form.groups)


def test_pauli_form_groups_by_flip_set():
    # Ising: one diagonal weight array for every ZZ term, and one scalar
    # weight per single-site X flip
    p = 5
    form = pauli_form(build_ising(p, 0.7, "open"))
    groups = dict(form.groups)
    assert len(groups) == p + 1
    assert np.shape(groups[()]) == (2,) * p
    for a in range(p):
        assert np.ndim(groups[(a,)]) == 0 and groups[(a,)] == 0.7


CUSTOM_FULL = np.array([[0.3 + 0.1j, 1.2 - 0.4j], [-0.7 + 0.9j, -1.1 + 0.2j]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("case", ["full", "sigma-plus", "identity-only", "mixed"])
def test_pauli_apply_matches_dense_custom(case):
    p = 4
    full, splus = SiteOperator.custom(CUSTOM_FULL), SiteOperator.custom(SIGMA_PLUS)
    terms = {
        "full": [KroneckerTerm(0.8, (full, OP_I, full, OP_Z))],
        "sigma-plus": [KroneckerTerm(1.5, (splus, OP_Y, OP_I, splus))],
        "identity-only": [KroneckerTerm(-2.5, (OP_I,) * p)],
        "mixed": [KroneckerTerm(0.8, (full, OP_X, OP_I, splus)),
                  KroneckerTerm(0.4, (OP_Y, OP_Y, OP_I, OP_I)),
                  KroneckerTerm(-2.5, (OP_I,) * p)],
    }[case]
    assert_apply_matches_dense(SpinHamiltonian(p, terms), seed=p)


def test_pauli_form_keeps_nonzero_components():
    # sigma+ = (X + iY)/2 has two components, which share the flip: the
    # weight (1 - (-1)^b)/2 keeps bit 1 only, and is real
    splus = SpinHamiltonian(1, [KroneckerTerm(1.0, (SiteOperator.custom(SIGMA_PLUS),))])
    groups = dict(pauli_form(splus).groups)
    assert set(groups) == {(0,)} and np.array_equal(groups[(0,)], [0.0, 1.0])
    # a full matrix has all four
    full = SpinHamiltonian(1, [KroneckerTerm(1.0, (SiteOperator.custom(CUSTOM_FULL),))])
    groups = dict(pauli_form(full).groups)
    assert set(groups) == {(), (0,)}
    assert all(np.shape(w) == (2,) for w in groups.values())


def test_apply_size_mismatch():
    h = build_ising(3, 0.0)
    with pytest.raises(ValueError):
        apply(h, DenseState(4, np.zeros(16)))


# ---------------------------------------------------------------------------
# blockings and the block table of a blocking

def test_blocking_validation():
    b = Blocking((2, 3))
    assert b.p == 5 and b.q == 2 and b.cuts == (0, 2, 5)
    assert Blocking.from_string("5,5").widths == (5, 5)
    with pytest.raises(ValueError):
        Blocking((0, 2))
    with pytest.raises(ValueError):
        Blocking.from_string("2,x")


def test_blocking_cuts_cached_keeps_equality():
    a, b = Blocking((3, 1, 2)), Blocking((3, 1, 2))
    assert a.cuts is a.cuts and a.cuts == (0, 3, 4, 6)
    assert a == b and hash(a) == hash(b)
    assert a != Blocking((3, 3)) and len({a, b}) == 1


def test_blocking_shifted_groups_wrap_the_seam():
    b = Blocking((3, 1, 2))
    assert b.shifted(0) == b.groups
    assert b.shifted(4) == ((4, 5, 0), (1,), (2, 3))
    for offset in (-1, 6):
        with pytest.raises(ValueError, match="offset"):
            b.shifted(offset)


def test_blocking_from_groups_needs_chain_order():
    assert Blocking.from_groups(((0, 1, 2), (3,), (4, 5))) == Blocking((3, 1, 2))
    for groups in (((4, 5, 0), (1,), (2, 3)), ((1, 0), (2,)), ((0, 2), (1,))):
        with pytest.raises(ValueError, match="chain order"):
            Blocking.from_groups(groups)


def test_blocked_hamiltonian_single_block_is_full_term():
    h = build_ising(4, 1.0, "open")
    g = BlockedHamiltonian(h, Blocking((4,)).groups)
    m = materialize_dense(h)
    total = sum(g.alpha[k] * g.ops[0][g.idx[k, 0]] for k in range(len(g.alpha)))
    assert np.allclose(total, m, atol=1e-14)


def test_blocked_hamiltonian_single_sites_are_factors():
    h = build_ising(3, 0.5, "open")
    g = BlockedHamiltonian(h, Blocking((1, 1, 1)).groups)
    for k, term in enumerate(h.terms):
        for i, f in enumerate(term.factors):
            assert np.allclose(g.ops[i][g.idx[k, i]], f.matrix)


def test_blocked_hamiltonian_reassembles_dense():
    h = build_ising(4, 1.0, "open")
    g = BlockedHamiltonian(h, Blocking((2, 2)).groups)
    total = np.zeros((16, 16), dtype=complex)
    for k in range(len(g.alpha)):
        total += g.alpha[k] * kron_first_fastest(
            [g.ops[0][g.idx[k, 0]], g.ops[1][g.idx[k, 1]]]
        )
    assert np.linalg.norm(total - materialize_dense(h)) <= 1e-14 * np.linalg.norm(total)


def test_blocked_hamiltonian_partition_invariant_all_blockings():
    p = 8
    h = build_ising(p, 0.9, "open")
    dense = materialize_dense(h)
    for widths in compositions(p):
        g = BlockedHamiltonian(h, Blocking(widths).groups)
        total = np.zeros_like(dense)
        for k in range(len(g.alpha)):
            total += g.alpha[k] * kron_first_fastest(
                [g.ops[i][g.idx[k, i]] for i in range(len(g.groups))]
            )
        assert np.linalg.norm(total - dense) <= 1e-12 * max(1.0, np.linalg.norm(dense))


def test_blocked_hamiltonian_blocking_must_cover():
    h = build_ising(4, 0.0)
    with pytest.raises(ValueError):
        BlockedHamiltonian(h, Blocking((2, 3)).groups)


@pytest.mark.parametrize("groups", [
    [(0, 1), (1, 2, 3)], [(0, 1), (3,)], [(0, 1), (2, 3, 4)],
], ids=["overlap", "missing-site", "outside"])
def test_block_table_groups_must_partition_the_sites(groups):
    # mpo builds its table from the raw groups, so it refuses them too
    for build in (BlockedHamiltonian, mpo):
        with pytest.raises(ValueError, match="partition"):
            build(build_ising(4, 1.0), groups)


def test_apply_block_matches_matrix():
    rng = np.random.default_rng(2)
    h = build_heisenberg_xy(6, 1.0, 0.5, 0.2, "open")
    g = BlockedHamiltonian(h, Blocking((3, 3)).groups)
    for k in range(0, len(g.alpha), 3):
        for i in range(2):
            v = crandn(rng, 8)
            assert np.allclose(g.apply_block(k, i, v), g.block_matrix(k, i) @ v,
                               atol=1e-13)
            stack = crandn(rng, 8, 4)
            assert np.allclose(g.apply_block(k, i, stack),
                               g.block_matrix(k, i) @ stack, atol=1e-13)


# ---------------------------------------------------------------------------
# block-operator tables

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = SIGMA_PLUS.T


def hopping_chain(p):
    """sigma+ sigma- hops in both directions plus a Z field: a custom-operator
    model whose custom factors compare equal as SiteOperators."""
    sp, sm = SiteOperator.custom(SIGMA_PLUS), SiteOperator.custom(SIGMA_MINUS)
    terms = []
    for a in range(p - 1):
        for left, right in ((sp, sm), (sm, sp)):
            factors = [OP_I] * p
            factors[a], factors[a + 1] = left, right
            terms.append(KroneckerTerm(0.5, factors))
    for a in range(p):
        terms.append(KroneckerTerm(0.3, [OP_Z if j == a else OP_I for j in range(p)]))
    return SpinHamiltonian(p, terms)


TABLE_MODELS = {
    "ising": lambda: build_ising(10, 0.7, "periodic"),
    "xy": lambda: build_heisenberg_xy(10, 1.0, 0.5, 0.2, "open"),
    "ising-2d": lambda: build_ising_2d(2, 5, 0.9, "periodic"),
    "custom": lambda: hopping_chain(10),
}


def _mixed_term_groups():
    b = Blocking((3, 4, 3))
    term = MixedTerm(b.shifted(8), [np.zeros(2**w) for w in b.widths])
    return term.groups


TABLE_GROUPS = {
    "5,5": lambda: list(Blocking((5, 5)).groups),
    "2,3,5": lambda: list(Blocking((2, 3, 5)).groups),
    "single-sites": lambda: [(s,) for s in range(10)],
    "mixed-term": _mixed_term_groups,
}


@pytest.mark.parametrize("groups", TABLE_GROUPS)
@pytest.mark.parametrize("model", TABLE_MODELS)
def test_block_table_restricts_every_term(model, groups):
    h = TABLE_MODELS[model]()
    sites_list = TABLE_GROUPS[groups]()
    table = BlockedHamiltonian(h, sites_list)
    assert table.idx.shape == (h.num_terms, len(sites_list))
    assert np.array_equal(table.alpha, [t.coefficient for t in h.terms])
    for i, sites in enumerate(sites_list):
        assert np.array_equal(table.ops[i][0], np.eye(2 ** len(sites)))
        for k, term in enumerate(h.terms):
            expect = kron_first_fastest([term.factors[s].matrix for s in sites])
            assert np.array_equal(table.ops[i][table.idx[k, i]], expect), (k, i)


def test_block_table_keeps_distinct_custom_operators():
    sp, sm = SiteOperator.custom(SIGMA_PLUS), SiteOperator.custom(SIGMA_MINUS)
    assert sp == sm  # SiteOperator equality ignores the matrix
    h = SpinHamiltonian(2, [KroneckerTerm(1.0, (sp, OP_I)),
                            KroneckerTerm(1.0, (sm, OP_I)),
                            KroneckerTerm(2.0, (sp, OP_I))])
    table = BlockedHamiltonian(h, [(0,), (1,)])
    assert list(table.idx[:, 0]) == [1, 2, 1]
    assert list(table.idx[:, 1]) == [0, 0, 0]
    assert np.array_equal(table.ops[0][1], SIGMA_PLUS)
    assert np.array_equal(table.ops[0][2], SIGMA_MINUS)
    assert table.ops[1].shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# matrix product operators

def mpo_dense(sites):
    """The operator of an MPO as a matrix, its first group the fastest."""
    acc = sites[0]
    for w in sites[1:]:
        acc = np.einsum("abIJ,bcij->aciIjJ", acc, w)
        a, c, n, m = acc.shape[:4]
        acc = acc.reshape(a, c, n * m, n * m)
    return acc[0, 0]


def custom_chain(p):
    full, splus = SiteOperator.custom(CUSTOM_FULL), SiteOperator.custom(SIGMA_PLUS)
    return SpinHamiltonian(p, [
        KroneckerTerm(0.8, [full, OP_I, OP_I, splus] + [OP_I] * (p - 4)),
        KroneckerTerm(0.4, [OP_I, splus, full] + [OP_I] * (p - 4) + [OP_Z]),
        KroneckerTerm(1.1, [OP_I, OP_I, full] + [OP_I] * (p - 3)),
        KroneckerTerm(-2.5, [OP_I] * p),
    ])


def xy_with_term(factors):
    """The open XY chain plus one term on the first sites: Y X Y has two
    purely imaginary blocks on single sites and on 2,1,3, Y Y Y has three
    on single sites and one on 2,1,3 (where Y (x) Y is a real block)."""
    p = 6
    return SpinHamiltonian(p, build_heisenberg_xy(p, 1.0, 0.5, 0.7).terms
                           + (KroneckerTerm(0.4, factors + [OP_I] * (p - 3)),))


MPO_MODELS = {
    "ising-open": lambda: build_ising(6, 0.7, "open"),
    "ising-periodic": lambda: build_ising(6, 1.3, "periodic"),
    "xy-open": lambda: build_heisenberg_xy(6, 0.8, -0.3, 0.6, "open"),
    "xy-periodic": lambda: build_heisenberg_xy(6, 0.8, -0.3, 0.6, "periodic"),
    "xy-yxy": lambda: xy_with_term([OP_Y, OP_X, OP_Y]),
    "xy-yyy": lambda: xy_with_term([OP_Y, OP_Y, OP_Y]),
    "2d-open": lambda: build_ising_2d(2, 3, 0.9, "open"),
    "2d-periodic": lambda: build_ising_2d(2, 3, 0.5, "periodic"),
    "custom": lambda: custom_chain(6),
    "identity-only": lambda: SpinHamiltonian(6, [KroneckerTerm(-2.5, [OP_I] * 6)]),
}


@pytest.mark.parametrize("blocking", [
    "1,1,1,1,1,1", "2,1,3",
    # partitions that are not blockings: a wrapping group, unordered groups
    pytest.param(((4, 5, 0), (1, 2, 3)), id="4.5.0|1.2.3"),
    pytest.param(((5, 1), (0, 4), (2, 3)), id="5.1|0.4|2.3"),
])
@pytest.mark.parametrize("model", MPO_MODELS)
def test_mpo_matches_dense(model, blocking):
    h = MPO_MODELS[model]()
    groups = Blocking.from_string(blocking).groups if isinstance(blocking, str) else blocking
    sites = mpo(h, groups)
    assert [w.shape[2] for w in sites] == [2 ** len(g) for g in groups]
    # the dense matrix in the partition's bit order: the sites of the
    # groups in turn, the first of each group its fastest bit
    order = [s for g in groups for s in g]
    ref = materialize_dense(h).reshape((2,) * 2 * h.p, order="F")
    ref = ref.transpose(order + [h.p + s for s in order]).reshape(2**h.p, -1, order="F")
    assert np.linalg.norm(mpo_dense(sites) - ref) <= 1e-12 * np.linalg.norm(ref)
    # float64 exactly when H is real: the XY chain's Y blocks, and those of
    # the Y X Y term, enter as iY and -iY; a term with an odd number of
    # imaginary blocks (Y Y Y) keeps the MPO complex
    assert {w.dtype for w in sites} == {np.dtype(complex if ref.imag.any() else float)}
    # bond w at every cut: 2 + the terms whose support straddles it, 1 outside
    group_of = {s: i for i, g in enumerate(groups) for s in g}
    spans = [(min(gs), max(gs)) for gs in
             ([group_of[s] for s in t.support()] for t in h.terms) if gs]
    widths = [sites[0].shape[0]] + [w.shape[1] for w in sites]
    assert widths[0] == widths[-1] == 1
    for c in range(1, len(groups)):
        assert widths[c] == 2 + sum(lo < c <= hi for lo, hi in spans), c


@pytest.mark.parametrize("model,bond", [("ising-open", 3), ("xy-open", 4),
                                        ("ising-periodic", 4)])
def test_mpo_bond_of_chains(model, bond):
    sites = mpo(MPO_MODELS[model](), Blocking.single_sites(6).groups)
    assert [w.shape[:2] for w in sites] == \
        [(1, bond)] + [(bond, bond)] * 4 + [(bond, 1)]

