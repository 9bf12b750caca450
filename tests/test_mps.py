"""Matrix-product-state representation, gauging, contractions, ALS."""

import numpy as np
import pytest

from tnsolve import flops, mps
from tnsolve.config import DEFAULT_TOLS, Tolerances
from tnsolve.hamiltonian import (
    Blocking,
    KroneckerTerm,
    OP_I,
    SiteOperator,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    materialize_dense,
    mpo,
)
from tnsolve.mps import (
    MpsState,
    _env_step_left,
    _env_step_right,
    _local_operator,
    add,
    als_ground_state,
    expectation,
    from_unit_vector,
    gauge_residual_left,
    gauge_residual_right,
    inner,
    mps_energy,
    normalize_left_sweep,
    normalize_right_sweep,
    random_mps,
    to_dense,
)
from tnsolve.oracle import ground_state_dense, rayleigh
from tnsolve.peps import inner_peps, random_peps


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def randn(rng, *shape):
    return rng.standard_normal(shape)


def bond_dims(x):
    """Bond sizes from the left edge to the right edge of a chain."""
    return tuple(s.shape[0] for s in x.sites) + (x.sites[-1].shape[2],)


def bits_of(index, p):
    return [(index >> r) & 1 for r in range(p)]


# ---------------------------------------------------------------------------
# construction and evaluation

def test_unit_vector_mps_evaluates_to_indicator():
    p = 5
    for j in [0, 7, 19, 31]:
        dense = to_dense(from_unit_vector(j, p)).vector
        for i in range(2**p):
            expect = 1.0 if i == j else 0.0
            assert dense[i] == pytest.approx(expect)


def test_unit_vector_dense_is_basis_vector():
    p = 6
    for j in [0, 1, 5, 63]:
        v = to_dense(from_unit_vector(j, p)).vector
        assert np.array_equal(v, np.eye(2**p)[:, j])


def test_product_state_evaluation():
    rng = np.random.default_rng(0)
    p = 4
    facs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(p)]
    sites = [f.reshape(1, 2, 1) for f in facs]
    dense = to_dense(MpsState("open", Blocking.single_sites(p), sites)).vector
    for i in [0, 3, 9, 15]:
        b = bits_of(i, p)
        expect = np.prod([facs[r][b[r]] for r in range(p)])
        assert dense[i] == pytest.approx(expect)


def test_dense_equals_ancilla_sum_expansion():
    # independent expansion: sum over ancilla tuples of outer products
    x = random_mps(4, 2, "periodic", seed=2)
    d = [s.shape[0] for s in x.sites] + [x.sites[-1].shape[2]]
    total = np.zeros(16, dtype=complex)
    from itertools import product

    from tnsolve.tensor import _product_vector
    for ms in product(*[range(dd) for dd in d[:-1]]):
        ms = ms + (ms[0],)
        vecs = [x.sites[j][ms[j], :, ms[j + 1]] for j in range(4)]
        total += _product_vector(Blocking.single_sites(4).groups, vecs)
    assert np.allclose(total, to_dense(x).vector, atol=1e-12)


def test_random_mps_reproducible_and_clamped():
    a = random_mps(4, 8, "open", seed=9)
    b = random_mps(4, 8, "open", seed=9)
    for sa, sb in zip(a.sites, b.sites):
        assert np.array_equal(sa, sb)
    assert bond_dims(a) == (1, 2, 4, 2, 1)
    c = random_mps(4, 1, "open", seed=3)
    assert bond_dims(c) == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# sums

@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("widths", [(1,) * 5, (2, 3), (2, 1, 2), (3,)],
                         ids=lambda w: ",".join(map(str, w)))
def test_add_dense_additivity(boundary, widths):
    blocking = Blocking(widths)
    x = random_mps(blocking.p, 2, boundary, blocking, seed=4)
    y = random_mps(blocking.p, 2, boundary, blocking, seed=5)
    s = add(x, y)
    assert np.linalg.norm(
        to_dense(s).vector - (to_dense(x).vector + to_dense(y).vector)
    ) <= 1e-13 * max(1.0, np.linalg.norm(to_dense(s).vector))


def test_add_unit_vectors():
    s = add(from_unit_vector(0, 4), from_unit_vector(1, 4))
    expect = np.eye(16)[:, 0] + np.eye(16)[:, 1]
    assert np.allclose(to_dense(s).vector, expect)


def test_add_bond_profile():
    x = random_mps(5, 2, "open", seed=6)
    y = random_mps(5, 3, "open", seed=7)
    s = add(x, y)
    bx, by, bs = bond_dims(x), bond_dims(y), bond_dims(s)
    for j in range(1, 5):
        assert bs[j] == bx[j] + by[j]
    assert bs[0] == bs[5] == 1


def test_add_periodic():
    x = random_mps(4, 2, "periodic", seed=8)
    y = random_mps(4, 2, "periodic", seed=9)
    s = add(x, y)
    assert np.allclose(
        to_dense(s).vector, to_dense(x).vector + to_dense(y).vector, atol=1e-12
    )


def test_add_incompatible():
    with pytest.raises(ValueError):
        add(random_mps(4, 2, "open"), random_mps(5, 2, "open"))
    with pytest.raises(ValueError):
        add(random_mps(4, 2, "open"), random_mps(4, 2, "periodic"))


# ---------------------------------------------------------------------------
# normalization sweeps

@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_left_sweep_gauges_and_preserves(boundary):
    x = random_mps(6, 3, boundary, seed=10)
    before = to_dense(x).vector
    gauged, status = normalize_left_sweep(x)
    after = to_dense(gauged).vector
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)
    for j in range(gauged.q - 1):
        assert gauge_residual_left(gauged.sites[j]) <= 1e-12
    if boundary == "open":
        assert status.gamma == pytest.approx(np.linalg.norm(before) ** 2, rel=1e-12)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_right_sweep_gauges_and_preserves(boundary):
    x = random_mps(6, 3, boundary, seed=11)
    before = to_dense(x).vector
    gauged, status = normalize_right_sweep(x)
    after = to_dense(gauged).vector
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)
    for j in range(1, gauged.q):
        assert gauge_residual_right(gauged.sites[j]) <= 1e-12
    if boundary == "open":
        assert status.gamma == pytest.approx(np.linalg.norm(before) ** 2, rel=1e-12)


def test_gauge_sweeps_charge_their_carries():
    # each shift SVDs one site (uncounted) and contracts the kept factor,
    # of the new bond's size by the old one, into the neighbour
    x = random_mps(7, 4, "open", seed=14)
    with flops.tally() as fc:
        gauged, _ = normalize_left_sweep(x)
    assert fc.total == sum(gauged.sites[j].shape[2] * x.sites[j + 1].size
                           for j in range(x.q - 1))
    with flops.tally() as fc:
        gauged, _ = normalize_right_sweep(x)
    assert fc.total == sum(gauged.sites[j].shape[0] * x.sites[j - 1].size
                           for j in range(1, x.q))
    assert fc.total > 0


def test_left_sweep_idempotent_at_dense_level():
    x = random_mps(5, 2, "open", seed=12)
    g1, _ = normalize_left_sweep(x)
    g2, _ = normalize_left_sweep(g1)
    assert np.allclose(to_dense(g1).vector, to_dense(g2).vector, atol=1e-12)


def test_block_mps_gauge_sweep():
    x = random_mps(6, 3, "open", blocking=Blocking((2, 2, 2)), seed=13)
    before = to_dense(x).vector
    gauged, _ = normalize_left_sweep(x)
    assert np.linalg.norm(to_dense(gauged).vector - before) <= 1e-12 * np.linalg.norm(before)
    for j in range(gauged.q - 1):
        assert gauge_residual_left(gauged.sites[j]) <= 1e-12


# ---------------------------------------------------------------------------
# inner products

def test_inner_unit_vectors():
    e3, e5 = from_unit_vector(3, 4), from_unit_vector(5, 4)
    assert inner(e3, e3) == pytest.approx(1.0)
    assert inner(e3, e5) == pytest.approx(0.0)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_inner_matches_dense(boundary):
    x = random_mps(8, 3, boundary, seed=17)
    y = random_mps(8, 3, boundary, seed=18)
    expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
    assert inner(x, y) == pytest.approx(expect, abs=1e-12 * abs(expect))


def test_inner_conjugate_symmetric():
    x = random_mps(6, 2, "open", seed=19)
    y = random_mps(6, 2, "open", seed=20)
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-13)


@pytest.mark.parametrize("d_bond", [2, 4, 8])
def test_inner_cost_bound_open(d_bond):
    p = 8
    x = random_mps(p, d_bond, "open", seed=21)
    y = random_mps(p, d_bond, "open", seed=22)
    # clamped bonds only make it cheaper than the uniform-D bound
    with flops.tally() as fc:
        inner(x, y)
    assert fc.total <= 4 * d_bond**3 * p


@pytest.mark.parametrize("d_bond", [2, 4, 8])
def test_inner_cost_bound_periodic(d_bond):
    p = 8
    x = random_mps(p, d_bond, "periodic", seed=23)
    y = random_mps(p, d_bond, "periodic", seed=24)
    with flops.tally() as fc:
        inner(x, y)
    assert fc.total <= 4 * (4 * d_bond**5 * p)


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        inner(random_mps(4, 2, "open"), random_mps(5, 2, "open"))


# ---------------------------------------------------------------------------
# Hamiltonian action and expectation

def mpo_image(h, x):
    """H x as one chain: the MPO-chain product that the mixed cross terms
    and the grid contraction use, so bond j grows from D_j to w_j D_j."""
    return MpsState(x.boundary, x.groups, mps._apply_mpo(mpo(h, x.groups), x.sites))


def test_apply_identity_hamiltonian_dense_equal():
    h = SpinHamiltonian(4, [KroneckerTerm(1.0, (OP_I,) * 4)])
    x = random_mps(4, 2, "open", seed=25)
    y = mpo_image(h, x)
    assert np.allclose(to_dense(y).vector, to_dense(x).vector, atol=1e-13)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_apply_hamiltonian_matches_dense(boundary):
    h = build_ising(4, 1.0, boundary)
    x = random_mps(4, 2, boundary, seed=26)
    y = mpo_image(h, x)
    expect = materialize_dense(h) @ to_dense(x).vector
    assert np.linalg.norm(to_dense(y).vector - expect) <= 1e-12 * np.linalg.norm(expect)


def test_apply_hamiltonian_bond_growth():
    h = build_ising(4, 1.0, "open")
    x = random_mps(4, 2, "open", seed=27)
    y = mpo_image(h, x)
    bx = bond_dims(x)
    widths = [w.shape[0] for w in mpo(h, x.groups)] + [1]
    assert widths == [1, 3, 3, 3, 1]
    for j in range(5):
        assert bond_dims(y)[j] == widths[j] * bx[j]


def test_expectation_all_up_state_zero_field():
    for p in (4, 6):
        h = build_ising(p, 0.0, "open")
        e0 = from_unit_vector(0, p)
        assert expectation(h, e0) == pytest.approx(p - 1.0)


def test_expectation_matches_dense_numerator():
    h = build_ising(6, 1.0, "open")
    x = random_mps(6, 3, "open", seed=28)
    dense = to_dense(x).vector
    expect = np.vdot(dense, materialize_dense(h) @ dense).real
    assert expectation(h, x) == pytest.approx(expect, abs=1e-10 * max(1.0, abs(expect)))


def test_energy_matches_rayleigh():
    h = build_ising(6, 0.9, "open")
    x = random_mps(6, 3, "open", seed=29)
    gauged, _ = normalize_left_sweep(x)
    assert mps_energy(h, gauged) == pytest.approx(
        rayleigh(h, to_dense(x)), abs=1e-10
    )


def test_expectation_honours_caller_tolerances():
    raising = SiteOperator.custom(np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = SpinHamiltonian(4, [KroneckerTerm(1.0, (raising, OP_I, OP_I, OP_I))])
    x = random_mps(4, 2, "open", seed=31)
    dense = to_dense(x).vector
    numerator = np.vdot(dense, materialize_dense(h) @ dense)
    assert abs(numerator.imag) > 1e-3
    with pytest.raises(ValueError):
        expectation(h, x)
    with pytest.raises(ValueError):
        mps_energy(h, x)
    loose = Tolerances(rayleigh_imag=1e3)
    assert expectation(h, x, loose) == pytest.approx(numerator.real, abs=1e-10)
    assert mps_energy(h, x, loose) == pytest.approx(
        numerator.real / np.vdot(dense, dense).real, abs=1e-10)


def test_expectation_cost_bound():
    p, d_bond = 6, 4
    h = build_ising(p, 1.0, "periodic")
    x = random_mps(p, d_bond, "periodic", seed=30)
    with flops.tally() as fc:
        expectation(h, x)
    assert fc.total <= 4 * (4 * d_bond**5 * h.num_terms * p)


# ---------------------------------------------------------------------------
# dense-equivalence sweep across boundaries and bond dimensions

@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("p,d_bond", [(4, 2), (6, 3), (8, 4)])
def test_dense_equivalence_suite(boundary, p, d_bond):
    h = build_ising(p, 0.8, boundary)
    x = random_mps(p, d_bond, boundary, seed=p * d_bond)
    y = random_mps(p, d_bond, boundary, seed=p * d_bond + 1)
    dx, dy = to_dense(x).vector, to_dense(y).vector
    scale = np.linalg.norm(dx)
    assert np.linalg.norm(to_dense(add(x, y)).vector - (dx + dy)) <= 1e-12 * scale
    g, _ = normalize_left_sweep(x)
    assert np.linalg.norm(to_dense(g).vector - dx) <= 1e-12 * scale
    g, _ = normalize_right_sweep(x)
    assert np.linalg.norm(to_dense(g).vector - dx) <= 1e-12 * scale
    hx = mpo_image(h, x)
    ref = materialize_dense(h) @ dx
    assert np.linalg.norm(to_dense(hx).vector - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# ALS ground state

def test_als_exact_capable_reaches_oracle():
    h = build_ising(8, 1.0, "open")
    e0, _ = ground_state_dense(h)
    trace, state = als_ground_state(h, 8, 16, "open", sweeps=10, seed=0)
    assert abs(trace[-1].energy - e0) <= 1e-8
    energies = [t.energy for t in trace]
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))


def test_als_product_state_zero_field():
    for p in (4, 6):
        h = build_ising(p, 0.0, "open")
        trace, _ = als_ground_state(h, p, 1, "open", sweeps=6, seed=1)
        assert trace[-1].energy == pytest.approx(-(p - 1), abs=1e-9)


def test_als_energy_equals_true_rayleigh():
    h = build_ising(6, 1.0, "open")
    trace, state = als_ground_state(h, 6, 2, "open", sweeps=4, seed=2)
    assert trace[-1].energy == pytest.approx(rayleigh(h, to_dense(state)), abs=1e-10)
    # gauging keeps the represented vector at unit norm between updates
    assert abs(inner(state, state) - 1.0) <= 1e-8


def test_als_periodic_converges():
    # a periodic H runs on the open chain: its wrap bond is one more MPO
    # channel, and D = 8 carries every cut of six sites
    h = build_ising(6, 1.0, "periodic")
    e0, _ = ground_state_dense(h)
    trace, state = als_ground_state(h, 6, 8, "periodic", sweeps=8, seed=3)
    assert state.boundary == "open"
    energies = [t.energy for t in trace]
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))
    assert abs(trace[-1].energy - e0) <= 1e-8
    assert trace[-1].energy == pytest.approx(rayleigh(h, to_dense(state)), abs=1e-9)


@pytest.mark.parametrize("blocking,d_bond,seed", [
    ("2,1,3", 8, 0), ("2,1,3", 8, 1), ("2,1,3", 8, 2), ("2,2,2", 4, 1),
], ids=["2,1,3-0", "2,1,3-1", "2,1,3-2", "2,2,2-1"])
def test_als_blocked_periodic_reaches_oracle(blocking, d_bond, seed):
    # the middle cut of 2,1,3 carries 8, so D = 4 would stop short of e0;
    # every cut of 2,2,2 carries at most 4
    h = build_ising(6, 1.0, "periodic")
    e0, _ = ground_state_dense(h)
    trace, _ = als_ground_state(h, 6, d_bond, "periodic", sweeps=6, seed=seed,
                                blocking=Blocking.from_string(blocking))
    energies = [t.energy for t in trace]
    assert min(energies) >= e0 - 1e-9
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))
    assert abs(energies[-1] - e0) <= 1e-8


# the 2 x 6 lattice walked along its ladder: column by column, row 0 first
LADDER = tuple((r * 6 + c,) for c in range(6) for r in range(2))


def test_ladder_order_chain_dense_matches_mpo_energy():
    # to_dense moves the bits from chain order to site order; the matrix-free
    # oracle reads that vector, while mps_energy contracts the MPO over the
    # permuted groups, an independent path
    h = build_ising_2d(2, 6, 3.0)
    x = random_mps(12, 4, "open", LADDER, seed=32)
    assert x.groups == LADDER
    assert rayleigh(h, to_dense(x)) == pytest.approx(mps_energy(h, x), abs=1e-12)


def test_ladder_order_chain_reaches_oracle():
    # in row-major order the same lattice stops near 2e-2 above E0 at D = 8
    h = build_ising_2d(2, 6, 3.0)
    e0, _ = ground_state_dense(h)
    trace, state = als_ground_state(h, 12, 8, "open", 20, 0, LADDER)
    assert state.groups == LADDER
    assert min(t.energy for t in trace) >= e0 - 1e-9
    assert trace[-1].energy - e0 <= 1e-6
    assert trace[-1].energy == pytest.approx(rayleigh(h, to_dense(state)), abs=1e-9)


def spy_svd(monkeypatch):
    """Shapes of every matrix handed to np.linalg.svd from now on."""
    shapes, svd = [], np.linalg.svd

    def wrapped(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", wrapped)
    return shapes


@pytest.mark.parametrize("boundary,blocking", [
    ("open", None), ("periodic", None), ("periodic", "2,1,3"),
], ids=["open", "periodic", "blocked-periodic"])
def test_center_moves_take_no_svd(monkeypatch, boundary, blocking):
    # QR moves every orthogonality center, in ALS and in both sweeps
    shapes = spy_svd(monkeypatch)
    blocks = Blocking.from_string(blocking) if blocking else None
    als_ground_state(build_ising(6, 1.0, boundary), 6, 4, boundary, sweeps=2,
                     seed=0, blocking=blocks)
    x = random_mps(6, 3, boundary, blocking=blocks, seed=10)
    normalize_left_sweep(x)
    normalize_right_sweep(x)
    assert shapes == []


def test_only_a_bond_cut_takes_an_svd(monkeypatch):
    # the grid contraction cuts its grown bonds to d_cut by SVD
    shapes = spy_svd(monkeypatch)
    inner_peps(random_peps(3, 3, 2, seed=9), random_peps(3, 3, 2, seed=109), d_cut=2)
    assert shapes


def test_als_keeps_its_bonds_at_zero_singular_values():
    # at lam = 0 the ground state is a product state, so the gauge steps meet
    # singular values that are exactly zero; a QR step keeps every bond,
    # which single-site ALS could never regrow
    trace, state = als_ground_state(build_ising(8, 0.0), 8, 4, "open", sweeps=6, seed=1)
    assert bond_dims(state) == (1, 2, 4, 4, 4, 4, 4, 2, 1)
    assert trace[-1].energy == pytest.approx(-7.0, abs=1e-12)


@pytest.mark.parametrize("boundary,p,d_bond,entries,energy", [
    ("open", 8, 4, 48, -9.837949818606878),
    ("periodic", 6, 2, 60, -7.594599361547537),
], ids=["open", "periodic"])
def test_als_trace_pinned(boundary, p, d_bond, entries, energy):
    # default sweeps and seed; entries, markers and final energy are pinned
    trace, _ = als_ground_state(build_ising(p, 1.0, boundary), p, d_bond, boundary)
    assert len(trace) == entries
    assert sum(1 for t in trace if t.note) == 0
    assert trace[-1].energy == pytest.approx(energy, abs=1e-12)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_real_hamiltonian_keeps_chain_als_real(monkeypatch, boundary):
    # a real H has a real MPO, so the start, the environments, the local
    # Lanczos bases (every basis vector goes through the matvec), the local
    # solutions and the final site tensors are all float64
    seen = []
    step, krylov = mps._env_step_right, mps.krylov_min

    def recording_step(*args):
        out = step(*args)
        seen.append(("environment", out.dtype))
        return out

    def recording_krylov(matvec, v0, tols, **kwargs):
        def spy(v):
            seen.append(("basis", v.dtype))
            return matvec(v)
        theta, x = krylov(spy, v0, tols, **kwargs)
        seen.append(("solution", x.dtype))
        return theta, x

    monkeypatch.setattr(mps, "_env_step_right", recording_step)
    monkeypatch.setattr(mps, "krylov_min", recording_krylov)
    # the XY chain's Y factors enter its MPO as the real iY and -iY
    for h in (build_ising(6, 0.8, boundary), build_heisenberg_xy(6, 1.0, 0.5, 0.7, boundary)):
        seen.clear()
        assert {w.dtype for w in mpo(h, Blocking.single_sites(6).groups)} == {np.dtype(float)}
        _, state = als_ground_state(h, 6, 2, boundary, sweeps=3)
        assert {s.dtype for s in state.sites} == {np.dtype(float)}
        assert {k for k, _ in seen} == {"environment", "basis", "solution"}
        assert {d for _, d in seen} == {np.dtype(float)}


def recorded_bounds(monkeypatch, *args, **kwargs):
    """(trace, bounds): an ALS run and the residual bound its local solve
    of each trace entry got."""
    bounds, krylov = [], mps.krylov_min

    def recording_krylov(matvec, v0, tols, bound=None):
        bounds.append(bound)
        return krylov(matvec, v0, tols, bound=bound)

    monkeypatch.setattr(mps, "krylov_min", recording_krylov)
    trace, _ = als_ground_state(*args, **kwargs)
    assert len(bounds) == len(trace)
    return trace, bounds


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_local_bound_follows_the_sweep(monkeypatch, boundary):
    # sweeps 0 and 1 solve to 1e-3; later sweeps to a tenth of the relative
    # change between the last two sweep ends, never below tols.convergence
    h = build_ising(8, 1.0, boundary)
    trace, bounds = recorded_bounds(monkeypatch, h, 8, 4, boundary, sweeps=12, seed=1)
    ends = {t.sweep: t.energy for t in trace}
    assert max(ends) >= 3
    for t, bound in zip(trace, bounds):
        if t.sweep < 2:
            assert bound == 1e-3
        else:
            last, before = ends[t.sweep - 1], ends[t.sweep - 2]
            assert bound == max(DEFAULT_TOLS.convergence,
                                0.1 * abs(last - before) / max(1.0, abs(last)))
    assert min(bounds) >= DEFAULT_TOLS.convergence
    # the sweeps that stop the run moved the energy by less than
    # tols.convergence, so the last one solved to that bound
    assert bounds[-1] == DEFAULT_TOLS.convergence


def test_local_bound_never_below_the_convergence_tolerance(monkeypatch):
    tols = Tolerances(convergence=1e-2)
    h = build_ising(8, 1.0, "open")
    trace, bounds = recorded_bounds(monkeypatch, h, 8, 4, "open", sweeps=6, seed=0,
                                    tols=tols)
    assert [b for t, b in zip(trace, bounds) if t.sweep < 2] == [1e-2] * 16
    assert min(bounds) >= 1e-2


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_als_traces_nonincreasing_under_loose_local_solves(boundary):
    # every local solve starts at the current site, so even a loose one
    # never raises the energy
    for h in (build_ising(8, 1.0, boundary), build_heisenberg_xy(8, 1.0, 0.5, 0.7, boundary)):
        for seed in range(3):
            trace, _ = als_ground_state(h, 8, 4, boundary, sweeps=8, seed=seed)
            energies = [t.energy for t in trace]
            assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def complex_field_chain(p):
    """Open Ising couplings plus a field along a custom Hermitian operator
    with an imaginary off-diagonal: a Hamiltonian that is not real."""
    c = SiteOperator.custom([[0.3, 0.5 - 0.4j], [0.5 + 0.4j, -0.3]])
    field = [KroneckerTerm(0.9, tuple(c if j == k else OP_I for j in range(p)))
             for k in range(p)]
    return SpinHamiltonian(p, build_ising(p, 0.0).terms + tuple(field))


def test_complex_operator_keeps_chain_als_complex():
    # D = 8 carries every bond of a 6-site chain, so ALS reaches the ground
    # energy; the imaginary part of H must survive the MPO and the solver
    h = complex_field_chain(6)
    want = np.linalg.eigvalsh(materialize_dense(h))[0]
    assert {w.dtype for w in mpo(h, Blocking.single_sites(6).groups)} == {np.dtype(complex)}
    trace, state = als_ground_state(h, 6, 8, "open", sweeps=12)
    assert {s.dtype for s in state.sites} == {np.dtype(complex)}
    assert trace[-1].energy == pytest.approx(want, abs=1e-10)
    assert mps_energy(h, state) == pytest.approx(want, abs=1e-10)
    e0, x0 = ground_state_dense(h)
    assert e0 == pytest.approx(want, abs=1e-10)
    # the ground state is complex beyond a global phase
    assert np.linalg.norm(x0.vector.imag) > 1e-2


def test_env_steps_charge_their_contractions():
    wl, wr, dl, d, dr = 3, 4, 4, 2, 5
    rng = np.random.default_rng(40)
    bra, ket = crandn(rng, dl, d, dr), crandn(rng, dl, d, dr)
    w = crandn(rng, wl, wr, d, d)
    left, right = crandn(rng, wl, dl, dl), crandn(rng, wr, dr, dr)
    # one contraction of the environment with the ket, one with the MPO
    # site and one with the bra
    mpo_site = wl * wr * d * d * dl * dr
    with flops.tally() as fc:
        grown = _env_step_right(left, bra, ket, w)
    assert fc.total == wl * dl * dl * d * dr + mpo_site + wr * dl * d * dr * dr
    assert np.allclose(grown, np.einsum("kab,aic,klij,bjd->lcd", left, bra.conj(), w, ket))
    with flops.tally() as fc:
        grown = _env_step_left(right, bra, ket, w)
    assert fc.total == wr * dr * dr * d * dl + mpo_site + wl * dr * d * dl * dl
    assert np.allclose(grown, np.einsum("lcd,aic,klij,bjd->kab", right, bra.conj(), w, ket))


def test_env_steps_carry_wrap_legs_as_batch():
    wl, wr, nw, dl, d, dr = 3, 2, 4, 2, 2, 3
    rng = np.random.default_rng(42)
    bra, ket = crandn(rng, dl, d, dr), crandn(rng, dl, d, dr)
    w = crandn(rng, wl, wr, d, d)
    left, right = crandn(rng, wl, nw, dl, dl), crandn(rng, wr, nw, dr, dr)
    mpo_site = wl * wr * d * d * nw * dl * dr
    with flops.tally() as fc:
        grown = _env_step_right(left, bra, ket, w)
    assert fc.total == nw * (wl * dl * dl * d * dr + wr * dl * d * dr * dr) + mpo_site
    assert np.allclose(grown, np.einsum("kwab,aic,klij,bjd->lwcd",
                                        left, bra.conj(), w, ket))
    with flops.tally() as fc:
        grown = _env_step_left(right, bra, ket, w)
    assert fc.total == nw * (wr * dr * dr * d * dl + wl * dr * d * dl * dl) + mpo_site
    assert np.allclose(grown, np.einsum("lwcd,aic,klij,bjd->kwab",
                                        right, bra.conj(), w, ket))


def test_heff_apply_matches_kron_assembly():
    # the fixed-shape operator on (d, Dl, Dr) vectors against the Kronecker
    # sum on (Dl, d, Dr) ones: real and complex operands, bonds of size 1 at
    # either end, and a blocked d = 4 site
    rng = np.random.default_rng(41)
    cases = [(3, 2, 3, 4, 2, crandn), (3, 3, 5, 2, 4, randn),
             (1, 3, 1, 2, 4, crandn), (3, 1, 4, 2, 1, randn), (4, 3, 2, 4, 3, randn)]
    for wl, wr, dl, d, dr, draw in cases:
        lenv, w, renv = draw(rng, wl, dl, dl), draw(rng, wl, wr, d, d), draw(rng, wr, dr, dr)
        x = draw(rng, dl, d, dr)
        heff = sum(np.kron(lenv[a], np.kron(w[a, b], renv[b]))
                   for a in range(wl) for b in range(wr))
        matvec = _local_operator(lenv, w, renv)
        with flops.tally() as fc:
            got = matvec(x.transpose(1, 0, 2).reshape(-1))
        assert got.shape == (d, dl, dr) and got.dtype == x.dtype
        assert np.allclose(got.transpose(1, 0, 2).reshape(-1), heff @ x.reshape(-1))
        # the same three contractions, and counts, as the tensordot form
        assert fc.total == wl * dl * dl * d * dr + wl * wr * d * d * dl * dr \
            + wr * d * dl * dr * dr


def test_open_als_local_solves_stay_small(monkeypatch):
    # p = 10 at D = 16 has local problems of dimension 16 * 2 * 16 = 512;
    # no matrix handed to an eigensolver may come near that size
    local_dims, eig_dims = [], []

    def spy(fn, record, size):
        def wrapped(*args, **kwargs):
            record.append(size(args))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mps, "krylov_min", spy(mps.krylov_min, local_dims,
                                               lambda a: np.size(a[1])))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, eig_dims,
                                               lambda a: np.shape(a[0])[0]))
    h = build_ising(10, 1.0, "open")
    trace, _ = als_ground_state(h, 10, 16, "open", sweeps=4, seed=0)
    assert max(local_dims) == 512
    assert eig_dims and max(eig_dims) < 128
    e0, _ = ground_state_dense(h)
    assert abs(trace[-1].energy - e0) <= 1e-8


def test_als_rejects_bad_parameters():
    h = build_ising(4, 0.0)
    with pytest.raises(ValueError):
        als_ground_state(h, 4, 0, "open")
    with pytest.raises(ValueError):
        als_ground_state(h, 5, 2, "open")
    with pytest.raises(ValueError):
        als_ground_state(h, 4, 2, "twisted")
