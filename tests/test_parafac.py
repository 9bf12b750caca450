"""Blocked CP representation, contractions, greedy and simultaneous ALS."""

import numpy as np
import pytest

from tnsolve import flops, mixed, parafac, tensor
from tnsolve.config import DEFAULT_TOLS, Tolerances
from tnsolve.hamiltonian import (
    Blocking,
    BlockedHamiltonian,
    KroneckerTerm,
    OP_I,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    materialize_dense,
    mpo,
)
from tnsolve.mps import to_dense as mps_to_dense
from tnsolve.oracle import ground_state_dense, rayleigh
from tnsolve.parafac import (
    BlockedCp,
    MixedTerm,
    _Environments,
    _aligned_vectors,
    _bordered_solve,
    _greedy_core,
    _kron_sum,
    _mode_solve,
    _spectral_factors,
    _stack_addends,
    as_diagonal_mps,
    apply_hamiltonian,
    expectation_form,
    greedy_als,
    inner,
    random_cp,
    simultaneous_als,
    to_dense,
)
from tnsolve.tensor import DenseState, generalized_eig_min, kron_first_fastest


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def randn(rng, dtype, *shape):
    return crandn(rng, *shape) if dtype is complex else rng.standard_normal(shape)


def _cp_energy(h, x):
    """Rayleigh quotient of a CP state from its contractions."""
    num = expectation_form(mpo(h, x.groups), x, x)
    return float(num.real / inner(x, x).real)


# ---------------------------------------------------------------------------
# representation

def test_to_dense_rank_one_ones():
    b = Blocking((2, 2))
    x = BlockedCp(b.groups, [np.ones((4, 1)), np.ones((4, 1))])
    assert np.allclose(to_dense(x).vector, np.ones(16))


def test_to_dense_rank_two_known_sum():
    b = Blocking((1, 1))
    e0, e1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    x = BlockedCp(b.groups, [np.hstack([e0, e1]), np.hstack([e0, e1])])
    # e0 (x) e0 + e1 (x) e1 -> entries at indices 0 and 3
    assert np.allclose(to_dense(x).vector, [1.0, 0.0, 0.0, 1.0])


def test_to_dense_triple_loop_oracle():
    rng = np.random.default_rng(0)
    b = Blocking((1, 2, 1))
    x = BlockedCp(b.groups, [crandn(rng, 2, 3), crandn(rng, 4, 3), crandn(rng, 2, 3)],
                  crandn(rng, 3))
    dense = to_dense(x).vector
    for i0 in range(2):
        for i1 in range(4):
            for i2 in range(2):
                expect = sum(
                    x.weights[l] * x.factors[0][i0, l] * x.factors[1][i1, l]
                    * x.factors[2][i2, l]
                    for l in range(3)
                )
                pos = i0 + 2 * i1 + 8 * i2
                assert dense[pos] == pytest.approx(expect, abs=1e-13)


def test_normalize_addends_preserves_dense():
    x = random_cp(Blocking((2, 3)), 3, seed=1)
    x.factors[0] *= 3.7
    x.weights = x.weights * (0.2 + 0.9j)
    before = to_dense(x).vector
    y = x.normalize_addends()
    for f in y.factors:
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0)
    assert np.allclose(to_dense(y).vector, before, atol=1e-13 * np.linalg.norm(before))


# ---------------------------------------------------------------------------
# inner products

def test_inner_orthogonal_first_mode():
    b = Blocking((1, 1))
    x = BlockedCp(b.groups, [np.eye(2)[:, :1], np.ones((2, 1))])
    y = BlockedCp(b.groups, [np.eye(2)[:, 1:], np.ones((2, 1))])
    assert inner(y, x) == pytest.approx(0.0)


def test_inner_self_nonnegative():
    x = random_cp(Blocking((2, 2, 2)), 4, seed=2)
    val = inner(x, x)
    assert val.imag == pytest.approx(0.0, abs=1e-13)
    assert val.real >= 0.0


def test_inner_matches_dense_conj_dot():
    rng = np.random.default_rng(3)
    b = Blocking((5, 5))
    x = BlockedCp(b.groups, [crandn(rng, 32, 4), crandn(rng, 32, 4)], crandn(rng, 4))
    y = BlockedCp(b.groups, [crandn(rng, 32, 4), crandn(rng, 32, 4)], crandn(rng, 4))
    expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
    assert inner(y, x) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))


def test_inner_blocking_mismatch():
    with pytest.raises(ValueError):
        inner(random_cp(Blocking((2, 2)), 2), random_cp(Blocking((1, 3)), 2))


def test_inner_cost_per_addend_pair():
    p, q, rank = 10, 2, 4
    x = random_cp(Blocking((5, 5)), rank, seed=4)
    y = random_cp(Blocking((5, 5)), rank, seed=5)
    with flops.tally() as fc:
        inner(y, x)
    per_pair = fc.total / rank**2
    assert per_pair <= q * (2 * 2 ** (p // q) + 1)


# ---------------------------------------------------------------------------
# expectation and Hamiltonian application

def test_expectation_identity_hamiltonian_reduces_to_inner():
    h = SpinHamiltonian(4, [KroneckerTerm(1.0, (OP_I,) * 4)])
    b = Blocking((2, 2))
    x = random_cp(b, 2, seed=6)
    y = random_cp(b, 2, seed=7)
    g = mpo(h, b.groups)
    assert expectation_form(g, y, x) == pytest.approx(inner(y, x), abs=1e-13)


def test_expectation_matches_dense():
    rng = np.random.default_rng(8)
    h = build_ising(6, 1.0, "open")
    b = Blocking((3, 3))
    x = BlockedCp(b.groups, [crandn(rng, 8, 2), crandn(rng, 8, 2)], crandn(rng, 2))
    y = BlockedCp(b.groups, [crandn(rng, 8, 2), crandn(rng, 8, 2)], crandn(rng, 2))
    g = mpo(h, b.groups)
    expect = np.vdot(to_dense(y).vector, materialize_dense(h) @ to_dense(x).vector)
    assert expectation_form(g, y, x) == pytest.approx(expect, abs=1e-11 * max(1.0, abs(expect)))


def test_expectation_self_real():
    h = build_ising(6, 0.8, "open")
    b = Blocking((2, 2, 2))
    x = random_cp(b, 3, seed=9)
    g = mpo(h, b.groups)
    assert expectation_form(g, x, x).imag == pytest.approx(0.0, abs=1e-11)


def test_expectation_cost_bound():
    p, q, rank = 10, 2, 3
    h = build_ising(p, 1.0, "open")
    b = Blocking((5, 5))
    g = mpo(h, b.groups)
    x = random_cp(b, rank, seed=10)
    with flops.tally() as fc:
        expectation_form(g, x, x)
    bound = 2 * h.num_terms * rank**2 * q * (3 * 2 ** (p // q) + 1)
    assert fc.total <= 4 * bound


def test_apply_hamiltonian_identity():
    h = SpinHamiltonian(4, [KroneckerTerm(1.0, (OP_I,) * 4)])
    x = random_cp(Blocking((2, 2)), 2, seed=11)
    y = apply_hamiltonian(h, x)
    assert np.allclose(to_dense(y).vector, to_dense(x).vector, atol=1e-13)


def test_apply_hamiltonian_dense_and_rank():
    h = build_ising(6, 0.5, "open")
    x = random_cp(Blocking((3, 3)), 2, seed=12)
    y = apply_hamiltonian(h, x)
    assert y.rank == h.num_terms * x.rank
    expect = materialize_dense(h) @ to_dense(x).vector
    assert np.linalg.norm(to_dense(y).vector - expect) <= 1e-12 * max(1.0, np.linalg.norm(expect))


# ---------------------------------------------------------------------------
# structural identity: CP as diagonal-matrix chain

def test_cp_as_diagonal_mps_dense_equal():
    for widths, rank, seed in [((1, 1, 1, 1), 3, 13), ((2, 3), 2, 14), ((4,), 2, 15)]:
        x = random_cp(Blocking(widths), rank, seed=seed)
        x.weights = x.weights * (1.3 - 0.4j)
        chain = as_diagonal_mps(x)
        assert np.allclose(
            mps_to_dense(chain).vector, to_dense(x).vector, atol=1e-13
        )


# ---------------------------------------------------------------------------
# spectral initialization

def test_spectral_init_rank_one_block_ground_states():
    # XY on 2,3,5 has an interior block, whose local terms sit in the MPO
    # site beside the channels of the terms that cross its edges
    for h, b in [(build_ising(6, 1.0, "open"), Blocking((3, 3))),
                 (build_heisenberg_xy(10, 1.0, 0.6, 0.3, "open"), Blocking((2, 3, 5)))]:
        x = BlockedCp(b.groups, _spectral_factors(mpo(h, b.groups), 1))
        g = BlockedHamiltonian(h, b.groups)
        for i, sites in enumerate(b.groups):
            n = 2 ** len(sites)
            local = np.zeros((n, n), dtype=complex)
            for k, term in enumerate(h.terms):
                sup = term.support()
                if sup and all(s in sites for s in sup):
                    local += term.coefficient * g.ops[i][g.idx[k, i]]
            w = np.linalg.eigvalsh(local)
            val = np.vdot(x.factors[i][:, 0], local @ x.factors[i][:, 0]).real
            assert val == pytest.approx(w[0], abs=1e-10)


def test_spectral_init_full_rank():
    h = build_ising(10, 1.0, "open")
    b = Blocking((5, 5))
    x = BlockedCp(b.groups, _spectral_factors(mpo(h, b.groups), 4))
    for f in x.factors:
        assert np.linalg.matrix_rank(f) == 4


def test_spectral_init_beats_random_median():
    h = build_ising(10, 1.0, "open")
    b = Blocking((5, 5))
    e_spec = _cp_energy(h, BlockedCp(b.groups, _spectral_factors(mpo(h, b.groups), 2)))
    rand_energies = [_cp_energy(h, random_cp(b, 2, seed=s)) for s in range(20)]
    assert e_spec <= np.median(rand_energies)


def test_spectral_start_reads_the_run_tolerances(monkeypatch):
    # a [tolerances] hermitian value must reach the block-local eigensolves
    # of both solvers' spectral starts, not only their local solves
    seen = []

    def spy(m, tols=DEFAULT_TOLS):
        seen.append(tols)
        return tensor.hermitian_eig(m, tols)

    monkeypatch.setattr(parafac, "hermitian_eig", spy)
    h, b = build_ising(6, 1.0, "open"), Blocking((3, 3))
    tols = Tolerances(hermitian=1e-9)
    for solve in (simultaneous_als, greedy_als):
        seen.clear()
        solve(h, b, 2, 2, 0, init="spectral", tols=tols)
        assert len(seen) == b.q
        assert all(t is tols for t in seen)


def test_spectral_init_pads_beyond_capacity():
    h = build_ising(4, 1.0, "open")
    b = Blocking((1, 1, 1, 1))
    x = BlockedCp(b.groups, _spectral_factors(mpo(h, b.groups), 3))
    for f in x.factors:
        assert f.shape == (2, 3)
        assert np.all(np.isfinite(f))


# ---------------------------------------------------------------------------
# greedy ALS

def test_greedy_rank_one_zero_field():
    for widths in [(2, 2), (1, 1, 1, 1), (3, 1)]:
        h = build_ising(4, 0.0, "open")
        trace, state = greedy_als(h, Blocking(widths), 1, inner_iters=10, seed=0)
        assert trace[-1].energy == pytest.approx(-3.0, abs=1e-9)


def test_greedy_energy_never_below_oracle():
    h = build_ising(8, 1.0, "open")
    e0, _ = ground_state_dense(h)
    trace, state = greedy_als(h, Blocking((4, 4)), 3, inner_iters=15, seed=1)
    for entry in trace:
        if not np.isnan(entry.energy):
            assert entry.energy >= e0 - 1e-10
    assert _cp_energy(h, state) == pytest.approx(trace[-1].energy, abs=1e-9)


def test_greedy_stagewise_improvement():
    h = build_ising(8, 1.0, "open")
    trace, _ = greedy_als(h, Blocking((4, 4)), 3, inner_iters=20, seed=2)
    stage_last = {}
    for t in trace:
        if not np.isnan(t.energy):
            stage_last[t.stage] = t.energy
    assert stage_last[2] <= stage_last[1] + 1e-10
    assert stage_last[3] <= stage_last[2] + 1e-10


def test_greedy_error_weakly_decreasing_in_rank():
    h = build_ising(8, 1.0, "open")
    e0, _ = ground_state_dense(h)
    errs = []
    for d in (1, 2, 3):
        trace, _ = greedy_als(h, Blocking((4, 4)), d, inner_iters=25, seed=4)
        errs.append(abs(trace[-1].energy - e0))
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(errs, errs[1:]))


def test_greedy_spectral_start_matches_simultaneous():
    h = build_ising(8, 1.0, "open")
    t1, _ = greedy_als(h, Blocking((4, 4)), 1, inner_iters=20, seed=0,
                       init="spectral")
    t2, _ = simultaneous_als(h, Blocking((4, 4)), 1, sweeps=20, init="spectral")
    assert abs(t1[-1].energy - t2[-1].energy) <= 1e-12


def test_greedy_trace_energy_is_true_rayleigh():
    h = build_ising(6, 1.0, "open")
    trace, state = greedy_als(h, Blocking((3, 3)), 2, inner_iters=12, seed=3)
    assert trace[-1].energy == pytest.approx(
        rayleigh(h, to_dense(state)), abs=1e-10
    )


# ---------------------------------------------------------------------------
# simultaneous ALS

def test_greedy_restarts_then_freezes_degenerate_stage():
    # one two-site block: the rank-one stage already reaches the ground
    # energy, and every bordered solve of stage 2 leaves the pinned
    # coordinate at 0, so the stage restarts until it gives up
    trace, x = greedy_als(build_ising(2, 0.0), Blocking((2,)), 2, 20, 0)
    assert len(trace) == 13
    notes = [t.note for t in trace]
    assert notes.count("restart") == 10 and notes[-1] == "degenerate-stage"
    assert all(np.isnan(t.energy) for t in trace if t.note)
    assert np.allclose(x.weights, [1, 0], rtol=0, atol=1e-12)


def _entry_fields(t):
    # NaN energies of markers compare equal as text; real energies exactly
    energy = "nan" if np.isnan(t.energy) else t.energy
    return t.stage, t.sweep, t.mode, energy, t.flops, t.note


@pytest.mark.parametrize("h,blocking,top,sweeps,init,notes", [
    (build_ising(8, 1.0, "open"), Blocking((4, 4)), 3, 30, "random", {""}),
    (build_ising(8, 1.0, "open"), Blocking((4, 4)), 3, 30, "spectral", {""}),
    (build_ising(2, 0.0), Blocking((2,)), 3, 20, "random",
     {"", "restart", "degenerate-stage"}),
], ids=["p8", "p8-spectral", "restarts"])
def test_greedy_rank_r_run_is_a_prefix_of_the_top_rank_run(h, blocking, top,
                                                          sweeps, init, notes):
    # stage d does not depend on the final rank, so a rank-r run is the
    # first r stages of a longer one: entries, markers, flop counts and
    # frozen addends
    with flops.tally():
        full, x_full = greedy_als(h, blocking, top, sweeps, 0, init=init)
    assert {t.note for t in full} == notes
    for r in range(1, top):
        with flops.tally():
            trace, x = greedy_als(h, blocking, r, sweeps, 0, init=init)
        assert ([_entry_fields(t) for t in trace]
                == [_entry_fields(t) for t in full if t.stage <= r])
        for f, f_full in zip(x.factors, x_full.factors):
            assert np.array_equal(f, f_full[:, :r])
        assert np.array_equal(x.weights, x_full.weights[:r])


def test_simultaneous_full_capacity_single_block():
    h = build_ising(4, 1.0, "open")
    e0, _ = ground_state_dense(h)
    trace, state = simultaneous_als(h, Blocking((4,)), 1, sweeps=1, seed=0)
    assert abs(trace[0].energy - e0) <= 1e-10


def test_simultaneous_capacity_rank_two_projected():
    # rank-1 Gram is singular at rank 2 with q = 1; the solve on the kept
    # denominator directions still reaches the exact optimum in one update
    h = build_ising(4, 1.0, "open")
    e0, _ = ground_state_dense(h)
    trace, _ = simultaneous_als(h, Blocking((4,)), 2, sweeps=1, seed=1)
    assert abs(trace[0].energy - e0) <= 1e-10


def test_simultaneous_trace_monotone_and_consistent():
    h = build_ising(10, 1.0, "open")
    trace, state = simultaneous_als(h, Blocking((5, 5)), 3, sweeps=25,
                                    init="spectral")
    energies = [t.energy for t in trace]
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(rayleigh(h, to_dense(state)), abs=1e-10)
    assert energies[-1] == pytest.approx(_cp_energy(h, state), abs=1e-10)


def test_simultaneous_not_worse_than_greedy_small():
    h = build_ising(8, 1.0, "open")
    b = Blocking((4, 4))
    g_trace, _ = greedy_als(h, b, 2, inner_iters=40, seed=0)
    s_trace, _ = simultaneous_als(h, b, 2, sweeps=40, init="spectral")
    assert s_trace[-1].energy <= g_trace[-1].energy + 1e-12


# ---------------------------------------------------------------------------
# local matrices against explicit per-term loops

LOCAL_MODELS = {
    "ising": lambda: build_ising(10, 0.8, "open"),
    "xy": lambda: build_heisenberg_xy(10, 1.0, 0.6, 0.3, "open"),
}


def term_blocks(h, blocking):
    """ops[k][j]: term k restricted to block j, from its factors directly."""
    return [[kron_first_fastest([t.factors[s].matrix for s in sites])
             for sites in blocking.groups] for t in h.terms]


def close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("model", LOCAL_MODELS)
def test_aligned_numerator_vector_matches_term_loop(model):
    # an aligned stage's one environment has ket stack [x_j | Y_j] and scale
    # [1, w_1, ..., w_R]: column 0 of its blocks is the self block of the
    # (1, 1) environment, and columns 1..R give
    # u_i = sum_k alpha_k sum_l w_l (prod_{j != i} x_j^H H_j^(k) y_j^(l)) H_i^(k) y_i^(l)
    # v_i = sum_l w_l (prod_{j != i} x_j^H y_j^(l)) y_i^(l)
    h, b = LOCAL_MODELS[model](), Blocking((2, 3, 5))
    ops = term_blocks(h, b)
    rng = np.random.default_rng(51)
    frozen = [MixedTerm(b.groups, [crandn(rng, 2**w) for w in b.widths],
                        complex(crandn(rng, 1)[0])) for _ in range(3)]
    ws, y = mpo(h, b.groups), _stack_addends(frozen)
    envs = _Environments(ws, (1, 1 + y.rank), y.factors)
    self_envs = _Environments(ws, (1, 1))
    x_cols = [crandn(rng, 2**w) for w in b.widths]
    cols = [x[:, None] for x in x_cols]
    for i in range(b.q):
        others = [j for j in range(b.q) if j != i]
        u_ref = np.zeros(2 ** b.widths[i], dtype=complex)
        v_ref = np.zeros(2 ** b.widths[i], dtype=complex)
        for t in frozen:
            v_ref += t.weight * np.prod([np.vdot(x_cols[j], t.factors[j])
                                         for j in others]) * t.factors[i]
            for k, term in enumerate(h.terms):
                scale = np.prod([np.vdot(x_cols[j], ops[k][j] @ t.factors[j])
                                 for j in others])
                u_ref += term.coefficient * t.weight * scale * (ops[k][i] @ t.factors[i])
        coeff = envs.blocks(cols, cols, i, np.concatenate(([1.0], y.weights)))
        u_i, v_i = _aligned_vectors(envs.images[i], y.factors[i], coeff)
        assert close(coeff[..., :1], self_envs.blocks(cols, cols, i, 1.0)), i
        assert close(u_i, u_ref), i
        assert close(v_i, v_ref), i


@pytest.mark.parametrize("model", LOCAL_MODELS)
def test_stage_matrix_matches_term_loop(model):
    # a greedy stage's self block is the rank-one mode problem of its
    # unnormalized working columns at scale 1:
    # h_i = sum_k alpha_k (prod_{j != i} x_j^H H_j^(k) x_j) H_i^(k) and
    # gamma = prod_{j != i} x_j^H x_j
    h, b = LOCAL_MODELS[model](), Blocking((2, 3, 5))
    ops = term_blocks(h, b)
    rng = np.random.default_rng(50)
    x_cols = [crandn(rng, 2**w) for w in b.widths]
    factors = [x[:, None] for x in x_cols]
    ws = mpo(h, b.groups)
    envs = _Environments(ws, (1, 1))
    for i in range(b.q):
        coeff = envs.blocks(factors, factors, i, 1.0)
        h_i, gamma = _kron_sum(coeff, ws[i]), coeff[0, -1, 0, 0]
        others = [j for j in range(b.q) if j != i]
        gamma_ref = np.prod([np.vdot(x_cols[j], x_cols[j]).real for j in others])
        ref = sum(t.coefficient * ops[k][i] * np.prod(
            [np.vdot(x_cols[j], ops[k][j] @ x_cols[j]).real for j in others])
            for k, t in enumerate(h.terms))
        assert gamma == pytest.approx(gamma_ref, rel=1e-12)
        assert close(h_i, ref), (i, np.linalg.norm(h_i - ref))


@pytest.mark.parametrize("model", LOCAL_MODELS)
def test_mode_problem_matches_term_loop(model):
    h, b = LOCAL_MODELS[model](), Blocking((2, 3, 5))
    ops = term_blocks(h, b)
    x = random_cp(b, 3, seed=52)
    x.weights = np.array([0.7 + 0.2j, -1.1, 0.4j])
    ww = np.outer(x.weights.conj(), x.weights)
    ws = mpo(h, b.groups)
    envs = _Environments(ws, (3, 3))
    for i in range(b.q):
        others = [j for j in range(b.q) if j != i]
        a_ref = 0
        for k, t in enumerate(h.terms):
            coeff = ww.copy()
            for j in others:
                coeff = coeff * (x.factors[j].conj().T @ ops[k][j] @ x.factors[j])
            a_ref = a_ref + t.coefficient * np.kron(coeff, ops[k][i])
        gram = ww.copy()
        for j in others:
            gram = gram * (x.factors[j].conj().T @ x.factors[j])
        coeff = envs.blocks(x.factors, x.factors, i, ww)
        numerator = _kron_sum(coeff, ws[i])
        denominator = np.kron(coeff[0, -1], np.eye(2 ** b.widths[i]))
        assert close(numerator, a_ref), i
        assert close(denominator, np.kron(gram, np.eye(2 ** b.widths[i]))), i


def hermitian_blocks(rng, *shape):
    m = crandn(rng, *shape)
    return m + np.swapaxes(m, -1, -2).conj()


def check_mode_solve_matches_dense_pencil(coeff, w):
    # the Gram-level whitening against generalized_eig_min on the dense
    # pencil (sum_{a,b} kron(coeff[a, b], W[a, b]), kron(G, I)), G = coeff[0, -1]
    n = w.shape[-1]
    a = sum(np.kron(coeff[j, k], w[j, k])
            for j in range(w.shape[0]) for k in range(w.shape[1]))
    b = np.kron(coeff[0, -1], np.eye(n))
    lam_ref, x_ref = generalized_eig_min(a, b)
    lam, x = _mode_solve(coeff, w, DEFAULT_TOLS)
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=1e-12)
    assert np.vdot(x, b @ x).real == pytest.approx(1.0, abs=1e-12)
    overlap = np.vdot(x_ref, x)
    assert np.linalg.norm(x - overlap / abs(overlap) * x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("gram_rank", [3, 2, 1], ids=["full", "rank-2", "rank-1"])
def test_mode_solve_matches_dense_pencil_on_random_grams(gram_rank):
    rng = np.random.default_rng(80 + gram_rank)
    coeff = hermitian_blocks(rng, 2, 3, 3, 3)
    v = crandn(rng, 3, gram_rank)
    coeff[0, -1] = v @ v.conj().T
    check_mode_solve_matches_dense_pencil(coeff, hermitian_blocks(rng, 2, 3, 4, 4))


@pytest.mark.parametrize("case", ["dependent-addends", "one-group"])
def test_mode_solve_matches_dense_pencil_on_rank_deficient_grams(case):
    # linearly dependent addends (addend 2 repeats addend 0 on every block),
    # and a single group at rank 2, where ww = conj(w) w^T has rank one
    rng = np.random.default_rng(82)
    if case == "dependent-addends":
        h, b = build_heisenberg_xy(10, 1.0, 0.6, 0.3, "open"), Blocking((2, 3, 5))
        x = random_cp(b, 3, seed=83)
        for f in x.factors:
            f[:, 2] = f[:, 0]
    else:
        h, b = build_ising(4, 0.7, "open"), Blocking((4,))
        x = random_cp(b, 2, seed=84)
    x.weights = crandn(rng, x.rank)
    ww = np.outer(x.weights.conj(), x.weights)
    ws = mpo(h, b.groups)
    envs = _Environments(ws, (x.rank, x.rank))
    for i in range(b.q):
        coeff = envs.blocks(x.factors, x.factors, i, ww)
        assert np.linalg.matrix_rank(coeff[0, -1], tol=1e-10) < x.rank
        check_mode_solve_matches_dense_pencil(coeff, ws[i])


def test_real_hamiltonian_keeps_cp_solvers_real(monkeypatch):
    # a real H has a real MPO: random and spectral starts (the latter with
    # random columns beyond a group's dimension), environment blocks, the
    # solutions of every local problem, greedy columns and frozen addends
    # are all float64
    seen = []

    def spy(owner, name, pick):
        fn = getattr(owner, name)

        def recording(*args):
            out = fn(*args)
            seen.append((name, pick(out).dtype))
            return out
        monkeypatch.setattr(owner, name, recording)

    spy(parafac._Environments, "blocks", lambda out: out)
    spy(parafac, "_bordered_solve", lambda out: out[1])
    spy(parafac, "_mode_solve", lambda out: out[1])
    h, b = build_ising(6, 1.0), Blocking((2, 4))
    states = [simultaneous_als(h, b, 5, sweeps=3, init=init)[1]
              for init in ("random", "spectral")]
    states.append(greedy_als(h, b, 3, inner_iters=3)[1])
    for x in states:
        assert {f.dtype for f in x.factors} | {x.weights.dtype} == {np.dtype(float)}
    _, mixed_sum = mixed.ground_state_mixed_greedy(h, [(2, 4), (3, 3)], 2, sweeps=3)
    for term in mixed_sum.terms:
        assert {f.dtype for f in term.factors} == {np.dtype(float)}
        assert isinstance(term.weight, float)
    assert {name for name, _ in seen} == {"blocks", "_bordered_solve", "_mode_solve"}
    assert {d for _, d in seen} == {np.dtype(float)}


def test_simultaneous_sweep_costs_order_q(monkeypatch):
    # single sites, p = 10, rank 4: at most 2q block transfers a sweep, no
    # bordered solve, and no local matrix beyond rank * 2^(max width)
    b, rank = Blocking.single_sites(10), 4
    transfers, eig_dims, bordered = [], [], []
    transfer, eig, solve = parafac._transfer, np.linalg.eigh, parafac._bordered_solve
    monkeypatch.setattr(parafac, "_transfer",
                        lambda *args: transfers.append(1) or transfer(*args))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m, *args: eig_dims.append(len(m)) or eig(m, *args))
    monkeypatch.setattr(parafac, "_bordered_solve",
                        lambda *args: bordered.append(1) or solve(*args))
    trace, _ = simultaneous_als(build_ising(10, 1.0, "open"), b, rank, sweeps=4)
    sweeps = trace[-1].sweep + 1
    assert len(trace) == b.q * sweeps
    assert 0 < len(transfers) <= 2 * b.q * sweeps
    assert bordered == []
    assert max(eig_dims) <= rank * 2 ** max(b.widths)


@pytest.mark.parametrize("mode,rank,entries,energy", [
    ("simultaneous", 2, 10, -9.83623444731134),
    ("greedy", 3, 44, -9.835372622840563),
], ids=["simultaneous", "greedy"])
def test_cp_trace_pinned(mode, rank, entries, energy):
    # default sweeps, seed and start; entries, markers and final energy are pinned
    solver = simultaneous_als if mode == "simultaneous" else greedy_als
    trace, _ = solver(build_ising(8, 1.0, "open"), Blocking((4, 4)), rank)
    assert len(trace) == entries
    assert sum(1 for t in trace if t.note) == 0
    assert trace[-1].energy == pytest.approx(energy, abs=1e-12)


def dense_bordered(h_i, u_i, beta, gamma, v_i, rho):
    """The greedy pencil (numerator, denominator) over (x_i, 1), formed."""
    n = h_i.shape[0]
    a = np.block([[h_i, u_i[:, None]], [u_i.conj()[None], np.array([[beta]])]])
    b = np.block([[gamma * np.eye(n), v_i[:, None]], [v_i.conj()[None], np.array([[rho]])]])
    return a, b


def test_effective_problem_hermitian_and_psd():
    rng = np.random.default_rng(40)
    h_i = crandn(rng, 8, 8)
    h_i = h_i + h_i.conj().T
    u_i, v_i = crandn(rng, 8), crandn(rng, 8)
    args = (h_i, u_i, 2.5, 1.5, 0.1 * v_i, 3.0)
    a, b = dense_bordered(*args)
    assert max(np.linalg.norm(a - a.conj().T), np.linalg.norm(b - b.conj().T)) <= 1e-12
    bw = np.linalg.eigvalsh(b)
    assert bw[0] >= -1e-12
    lam, vec = _bordered_solve(*args, DEFAULT_TOLS)
    resid = a @ vec - lam * (b @ vec)
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(a)
    lam_ref, vec_ref = generalized_eig_min(a, b)
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    assert np.vdot(vec, b @ vec).real == pytest.approx(1.0, abs=1e-12)
    # the dense solver handles a singular denominator
    lam, vec = generalized_eig_min(np.diag([2.0, 1.0]), np.diag([1.0, 0.0]))
    assert lam == pytest.approx(2.0)


def bordered_case(rng, dtype, n, case):
    """(h_i, u_i, beta, gamma, v_i, rho) of a greedy pencil: a denominator
    well away from its floor, one with lambda_min / lambda_max about 1e-5,
    or one whose Schur complement rho - ||v||^2 / gamma sits below the floor."""
    h_i = randn(rng, dtype, n, n)
    h_i = h_i + h_i.conj().T
    u_i, v_i = randn(rng, dtype, n), randn(rng, dtype, n)
    gamma, beta = 1.3, 0.7
    norm_v, rho = {"well": (0.5, 1.0), "ill": (1.0, 1.0 / gamma + 4e-5),
                   "floor": (1.0, (1.0 + 1e-15) / gamma)}[case]
    return h_i, u_i, beta, gamma, v_i * (norm_v / np.linalg.norm(v_i)), rho


@pytest.mark.parametrize("n", [1, 2, 8, 32])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", ["well", "ill", "floor"])
def test_bordered_solve_matches_dense_pencil(case, dtype, n):
    # the closed-form whitening of the bordered denominator against
    # generalized_eig_min on the formed pencil
    rng = np.random.default_rng(90 + n)
    args = bordered_case(rng, dtype, n, case)
    a, b = dense_bordered(*args)
    bw = np.linalg.eigvalsh(b)
    lam, x = _bordered_solve(*args, DEFAULT_TOLS)
    assert x.dtype == np.dtype(dtype)
    if case == "floor":
        # the pinned direction is dropped: x = (y / sqrt(gamma), 0) for the
        # lowest eigenvector y of h_i / gamma
        assert bw[0] <= DEFAULT_TOLS.pd_floor_scale * np.trace(b).real / (n + 1)
        assert x[n] == 0
        assert lam == pytest.approx(np.linalg.eigvalsh(args[0])[0] / args[3], rel=1e-12)
        return
    assert 5e-6 <= bw[0] / bw[-1] <= 2e-5 if case == "ill" else bw[0] / bw[-1] > 1e-2
    lam_ref, x_ref = generalized_eig_min(a, b)
    assert lam == pytest.approx(lam_ref, rel=1e-10)
    ratio, ratio_ref = x[:n] / x[n], x_ref[:n] / x_ref[n]
    assert np.linalg.norm(ratio - ratio_ref) <= 1e-8 * np.linalg.norm(ratio_ref)


def test_bordered_solve_refuses_non_hermitian_numerator():
    rng = np.random.default_rng(95)
    h_i, *rest = bordered_case(rng, complex, 4, "well")
    h_i[0, 1] += 1e-3
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        _bordered_solve(h_i, *rest, DEFAULT_TOLS)


@pytest.mark.parametrize("dtype", [float, complex])
def test_kron_sum_and_aligned_vectors_match_einsum(dtype):
    # one matmul each, at the counted cost of the tensordot forms: output
    # size times contracted size
    rng = np.random.default_rng(96)
    w_i, w_j, n, k, k2, r = 2, 3, 4, 3, 2, 5
    w, coeff = randn(rng, dtype, w_i, w_j, n, n), randn(rng, dtype, w_i, w_j, k, k2)
    want = np.einsum("abkl,abij->kilj", coeff, w).reshape(k * n, k2 * n)
    with flops.tally() as counter:
        got = _kron_sum(coeff, w)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert counter.total == want.size * w_i * w_j
    y_i, coeff = randn(rng, dtype, n, r), randn(rng, dtype, w_i, w_j, 1, 1 + r)
    image = np.matmul(w, y_i)
    u_want = np.einsum("abnr,abr->n", image, coeff[:, :, 0, 1:])
    v_want = y_i @ coeff[0, -1, 0, 1:]
    with flops.tally() as counter:
        u_i, v_i = _aligned_vectors(image, y_i, coeff)
    assert np.linalg.norm(u_i - u_want) <= 1e-14 * np.linalg.norm(u_want)
    assert np.linalg.norm(v_i - v_want) <= 1e-14 * np.linalg.norm(v_want)
    assert counter.total == n * (w_i * w_j * r) + n * r


def test_simultaneous_rejects_bad_args():
    h = build_ising(4, 0.0)
    with pytest.raises(ValueError):
        simultaneous_als(h, Blocking((2, 2)), 0)
    with pytest.raises(ValueError):
        simultaneous_als(h, Blocking((2, 2)), 1, init="mystery")


# ---------------------------------------------------------------------------
# site groups that are not blocks in chain order

SCATTERED = ((0, 2, 4), (5, 1), (3,))


def groups_dense(groups, cols):
    """The product of `cols` over site groups as a dense vector, column i on
    groups[i] with its first site the fastest bit."""
    operands = []
    for g, c in zip(groups, cols):
        operands += [np.reshape(c, (2,) * len(g), order="F"), list(g)]
    p = sum(map(len, groups))
    return np.einsum(*operands, list(range(p))).reshape(-1, order="F")


def cp_dense(x):
    return sum(w * groups_dense(x.groups, [f[:, l] for f in x.factors])
               for l, w in enumerate(x.weights))


def test_blocked_cp_on_scattered_groups_matches_dense():
    rng = np.random.default_rng(70)
    h = build_heisenberg_xy(6, 1.0, 0.6, 0.3, "periodic")
    x, y = (BlockedCp(SCATTERED, [crandn(rng, 2 ** len(g), 3) for g in SCATTERED],
                      crandn(rng, 3)) for _ in range(2))
    dx, dy = cp_dense(x), cp_dense(y)
    assert np.linalg.norm(to_dense(x).vector - dx) <= 1e-13 * np.linalg.norm(dx)
    expect = np.vdot(dy, dx)
    assert inner(y, x) == pytest.approx(expect, abs=1e-12 * abs(expect))
    expect = np.vdot(dy, materialize_dense(h) @ dx)
    assert expectation_form(mpo(h, SCATTERED), y, x) == pytest.approx(
        expect, abs=1e-12 * abs(expect))
    chain = mps_to_dense(as_diagonal_mps(x)).vector
    assert np.linalg.norm(chain - dx) <= 1e-13 * np.linalg.norm(dx)


def test_greedy_core_runs_aligned_stages_on_scattered_groups():
    # three stages on the even and the odd sites of a periodic chain; each
    # later stage stacks the frozen addends on the same scattered groups
    h = build_ising(6, 1.0, "periodic")
    groups = ((0, 2, 4), (1, 3, 5))
    trace, frozen = _greedy_core(h, [groups] * 3, 30, 0, DEFAULT_TOLS)
    assert [t.groups for t in frozen] == [groups] * 3
    y = sum(t.weight * groups_dense(t.groups, t.factors) for t in frozen)
    e0, _ = ground_state_dense(h)
    energies = [t.energy for t in trace if np.isfinite(t.energy)]
    assert trace[-1].energy == pytest.approx(rayleigh(h, DenseState(6, y)), abs=1e-10)
    assert min(energies) >= e0


# the two halves of the 2 x 6 lattice, each walked along the ladder: a
# partition that no Blocking gives
LADDER_HALVES = tuple(tuple(r * 6 + c for c in cols for r in range(2))
                      for cols in (range(3), range(3, 6)))


def test_cp_solvers_run_on_ladder_halves():
    h = build_ising_2d(2, 6, 3.0)
    e0, _ = ground_state_dense(h)
    trace, x = greedy_als(h, LADDER_HALVES, 4, 50, init="spectral")
    assert x.groups == LADDER_HALVES
    assert e0 - 1e-9 <= trace[-1].energy <= e0 + 2e-4
    assert trace[-1].energy == pytest.approx(_cp_energy(h, x), abs=1e-9)
    trace, x = simultaneous_als(h, LADDER_HALVES, 4, 50, 0, "random")
    assert x.groups == LADDER_HALVES
    assert e0 - 1e-9 <= trace[-1].energy <= e0 + 1e-4
    assert trace[-1].energy == pytest.approx(_cp_energy(h, x), abs=1e-9)


def test_greedy_update_makes_one_environment_call(monkeypatch):
    # the self block and the aligned cross terms come from one environment:
    # one blocks call per mode solve of stage 1 and per bordered solve after
    calls = {"blocks": 0, "_mode_solve": 0, "_bordered_solve": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    count(parafac._Environments, "blocks")
    count(parafac, "_mode_solve")
    count(parafac, "_bordered_solve")
    greedy_als(build_ising(8, 1.0, "open"), Blocking((2, 3, 3)), 3, inner_iters=5)
    assert calls["_mode_solve"] > 0 and calls["_bordered_solve"] > 0
    assert calls["blocks"] == calls["_mode_solve"] + calls["_bordered_solve"]


def test_greedy_refuses_zero_sweeps():
    with pytest.raises(ValueError, match="sweep"):
        greedy_als(build_ising(4, 1.0), Blocking((2, 2)), 1, inner_iters=0)


def test_greedy_core_refuses_unknown_init_before_any_update(monkeypatch):
    calls = []
    monkeypatch.setattr(parafac, "run_sweeps", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown init 'bogus'"):
        _greedy_core(build_ising(6, 1.0), [((0, 1, 2), (3, 4, 5))], 5, 0, DEFAULT_TOLS,
                     init="bogus")
    assert calls == []
