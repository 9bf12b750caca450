"""Dense tensor utilities and the linear-algebra kernel."""

import tracemalloc

import numpy as np
import pytest

from tnsolve.tensor import (
    DenseState,
    _phase_normalize_columns,
    _product_vector,
    generalized_eig_min,
    hermitian_eig,
    kron_first_fastest,
    krylov_min,
    svd,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# layout

def test_first_index_fastest():
    # site 1 is the least significant bit: entry i_1 + 2 i_2 + 4 i_3
    rng = np.random.default_rng(11)
    f = [crandn(rng, 2) for _ in range(3)]
    sites = ((0,), (1,), (2,))
    v = _product_vector(sites, f)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert v[i + 2 * j + 4 * k] == pytest.approx(f[0][i] * f[1][j] * f[2][k])
    # so the stride of the first site is 1, of the last 4
    e0, e1 = np.eye(2)
    assert np.flatnonzero(_product_vector(sites, [e1, e0, e0])).tolist() == [1]
    assert np.flatnonzero(_product_vector(sites, [e0, e0, e1])).tolist() == [4]


def test_kron_first_fastest_matches_layout():
    rng = np.random.default_rng(7)
    a, b = crandn(rng, 2, 2), crandn(rng, 2, 2)
    va, vb = crandn(rng, 2), crandn(rng, 2)
    big = kron_first_fastest([a, b])
    prod = big @ _product_vector(((0,), (1,)), [va, vb])
    expect = _product_vector(((0,), (1,)), [a @ va, b @ vb])
    assert np.allclose(prod, expect, atol=1e-13)


def test_dense_state_roundtrip():
    rng = np.random.default_rng(3)
    v = crandn(rng, 32)
    st = DenseState(5, v)
    assert np.array_equal(st.vector, v)
    assert np.array_equal(DenseState(5, st.vector).vector, v)
    with pytest.raises(ValueError):
        DenseState(4, v)


# ---------------------------------------------------------------------------
# SVD

def test_svd_identity():
    _, s, _ = svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_diag():
    _, s, _ = svd(np.diag([3.0, 0.0]))
    assert np.allclose(s, [3.0, 0.0])


def test_svd_random_residuals():
    rng = np.random.default_rng(12)
    for shape in [(4, 6), (6, 4), (64, 64)]:
        m = crandn(rng, *shape)
        u, s, v = svd(m)
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(m - (u * s) @ v) <= 1e-12 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])) <= 1e-12
        assert np.linalg.norm(v @ v.conj().T - np.eye(v.shape[0])) <= 1e-12
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_phase_deterministic():
    rng = np.random.default_rng(13)
    m = crandn(rng, 5, 5)
    u1, _, _ = svd(m)
    u2, _, _ = svd(m.copy())
    assert np.array_equal(u1, u2)
    for k in range(u1.shape[1]):
        first = u1[np.flatnonzero(np.abs(u1[:, k]) > 1e-300)[0], k]
        assert first.imag == pytest.approx(0.0, abs=1e-15)
        assert first.real > 0


def test_phase_normalize_matches_column_loop():
    def column_loop(u, v):
        for k in range(u.shape[1]):
            col = u[:, k]
            nz = np.flatnonzero(np.abs(col) > 1e-300)
            if nz.size == 0:
                continue
            z = col[nz[0]]
            phase = z / abs(z)
            u[:, k] = col * np.conj(phase)
            v[k, :] = v[k, :] * phase
        return u, v

    # complex draws, then real ones: a real u stays real, its phases +-1
    def rrandn(rng, *shape):
        return rng.standard_normal(shape)

    for seed, draw in [(17, crandn), (18, rrandn)]:
        rng = np.random.default_rng(seed)
        for rows, cols in [(1, 1), (1, 3), (6, 4), (40, 40)]:
            u = draw(rng, rows, cols)
            u[: rows // 2, 0] = 0.0   # first nonzero entry further down
            u[:, -1] = 0.0            # an all-zero column stays as it is
            u[0, -1] = -1e-310        # below the threshold: no phase taken
            v = draw(rng, cols, 3)
            expect_u, expect_v = column_loop(u.copy(), v.copy())
            got_u, got_v = _phase_normalize_columns(u.copy(), v.copy())
            assert got_u.dtype == u.dtype and got_v.dtype == v.dtype
            assert got_u.tobytes() == expect_u.tobytes()
            assert got_v.tobytes() == expect_v.tobytes()


def test_svd_nonfinite_rejected():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Hermitian eigensolver

def test_eigh_diag():
    w, _ = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0])


def test_eigh_pauli_x():
    px = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = hermitian_eig(px)
    assert np.allclose(w, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(v[:, 0], [s, -s], atol=1e-14)
    assert np.allclose(v[:, 1], [s, s], atol=1e-14)


def test_eigh_random_residuals():
    rng = np.random.default_rng(14)
    a = crandn(rng, 8, 8)
    m = a + a.conj().T
    w, v = hermitian_eig(m)
    nrm = np.linalg.norm(m)
    for k in range(8):
        assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * nrm
    assert np.linalg.norm(v.conj().T @ v - np.eye(8)) <= 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_real_symmetric_stays_real():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((9, 9))
    m = a + a.T
    w, v = hermitian_eig(m)
    assert v.dtype == np.float64
    wc, vc = hermitian_eig(m.astype(complex))
    assert np.abs(w - wc).max() <= 1e-12
    assert np.abs(v - vc).max() <= 1e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(a)


# ---------------------------------------------------------------------------
# generalized eigenproblem

def test_gen_eig_identity_denominator():
    lam, v = generalized_eig_min(np.diag([2.0, 1.0]), np.eye(2))
    assert lam == pytest.approx(1.0)
    assert np.allclose(np.abs(v), [0.0, 1.0], atol=1e-14)


def test_gen_eig_scaled_identity():
    rng = np.random.default_rng(15)
    a = crandn(rng, 5, 5)
    a = a + a.conj().T
    lam, v = generalized_eig_min(a, 4.0 * np.eye(5))
    w, vecs = hermitian_eig(a)
    assert lam == pytest.approx(w[0] / 4.0, abs=1e-12)
    # same eigenvector direction; v itself is normalized to v^H b v = 1
    assert np.linalg.norm(v) == pytest.approx(0.5, abs=1e-12)
    overlap = abs(np.vdot(vecs[:, 0], v / np.linalg.norm(v)))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_gen_eig_random_vs_cholesky_dense_oracle():
    rng = np.random.default_rng(16)
    a = crandn(rng, 6, 6)
    a = a + a.conj().T
    l = crandn(rng, 6, 6)
    b = l @ l.conj().T + 0.5 * np.eye(6)
    lam, v = generalized_eig_min(a, b)
    # independent dense oracle: eigendecompose inv(chol) a inv(chol)^H directly
    lc = np.linalg.cholesky(b)
    red = np.linalg.inv(lc) @ a @ np.linalg.inv(lc).conj().T
    w = np.linalg.eigvalsh(0.5 * (red + red.conj().T))
    assert lam == pytest.approx(w[0], abs=1e-9)
    assert np.linalg.norm(a @ v - lam * (b @ v)) <= 1e-9 * np.linalg.norm(a)
    assert np.vdot(v, b @ v).real == pytest.approx(1.0, abs=1e-10)


def test_gen_eig_matches_hermitian_eig_at_identity():
    rng = np.random.default_rng(17)
    a = crandn(rng, 7, 7)
    a = a + a.conj().T
    lam, v = generalized_eig_min(a, np.eye(7))
    w, vecs = hermitian_eig(a)
    assert lam == pytest.approx(w[0], abs=1e-11)
    assert abs(abs(np.vdot(vecs[:, 0], v)) - 1.0) < 1e-10


def test_gen_eig_singular_denominator_signals():
    # the direction b cannot resolve is dropped, not refused
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 0.0])
    lam, v = generalized_eig_min(a, b)
    assert lam == pytest.approx(1.0)
    assert abs(v[1]) < 1e-12


@pytest.mark.parametrize("b", [np.zeros((3, 3)), np.diag([0.0, -1.0, -2.0]), -np.eye(3)],
                         ids=["zero", "negative-semidefinite", "negative"])
def test_gen_eig_denominator_without_kept_direction_refused(b):
    with pytest.raises(ValueError, match="floor"):
        generalized_eig_min(np.eye(3), b)


def test_gen_eig_refuses_non_hermitian():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        generalized_eig_min(skew, np.eye(2))
    with pytest.raises(ValueError, match="not Hermitian"):
        generalized_eig_min(np.eye(2), skew)


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_gen_eig_rank_deficient_denominator(rank):
    rng = np.random.default_rng(18 + rank)
    a = crandn(rng, 8, 8)
    a = a + a.conj().T
    l = crandn(rng, 8, rank)
    b = l @ l.conj().T
    lam, x = generalized_eig_min(a, b)
    # x lies in range(b) = range(l) and solves the pencil there; a x keeps
    # a component in null(b), so the residual is taken on range(b)
    qk, _ = np.linalg.qr(l)
    assert np.linalg.norm(x - qk @ (qk.conj().T @ x)) <= 1e-10 * np.linalg.norm(x)
    resid = qk.conj().T @ (a @ x - lam * (b @ x))
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(a) * np.linalg.norm(x)
    assert np.vdot(x, b @ x).real == pytest.approx(1.0, abs=1e-10)
    # lambda is the lowest quotient on range(b): the compressed pencil agrees
    w = np.linalg.eigvals(np.linalg.solve(qk.conj().T @ b @ qk, qk.conj().T @ a @ qk))
    assert lam == pytest.approx(w.real.min(), abs=1e-9)


# ---------------------------------------------------------------------------
# Krylov eigensolver

def random_hermitian(rng, n):
    a = crandn(rng, n, n)
    return a + a.conj().T


@pytest.mark.parametrize("n", [1, 7, 64])
def test_krylov_min_matches_hermitian_eig(n):
    rng = np.random.default_rng(30 + n)
    a = random_hermitian(rng, n)
    theta, x = krylov_min(lambda v: a @ v, crandn(rng, n))
    w, _ = hermitian_eig(a)
    assert theta == pytest.approx(w[0], abs=1e-10)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(a @ x - theta * x) <= 1e-9 * max(1.0, abs(theta))
    lead = x[np.flatnonzero(np.abs(x) > 1e-300)[0]]
    assert abs(lead.imag) <= 1e-15 * abs(lead) and lead.real > 0.0


def test_krylov_min_not_above_start_quotient():
    rng = np.random.default_rng(31)
    for n in (2, 5, 40):
        a = random_hermitian(rng, n)
        v0 = crandn(rng, n)
        theta, _ = krylov_min(lambda v: a @ v, v0)
        assert theta <= (np.vdot(v0, a @ v0) / np.vdot(v0, v0)).real


def test_krylov_min_stops_on_invariant_start():
    # an eigenvector spans an invariant space: its eigenvalue comes back
    # even though a lower one exists
    rng = np.random.default_rng(32)
    a = random_hermitian(rng, 9)
    w, vecs = hermitian_eig(a)
    calls = []

    def matvec(v):
        calls.append(v)
        return a @ v

    theta, x = krylov_min(matvec, vecs[:, 3])
    assert len(calls) == 1
    assert theta == pytest.approx(w[3], abs=1e-10)
    assert abs(abs(np.vdot(vecs[:, 3], x)) - 1.0) < 1e-12


def test_krylov_min_refuses_non_hermitian():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((7, 7))
    with pytest.raises(ValueError):
        krylov_min(lambda v: a @ v, crandn(rng, 7))
    with pytest.raises(ValueError):
        krylov_min(lambda v: v, np.zeros(3))


def chain_matrix(n, eps, at):
    # real tridiagonal with a positive off-diagonal: started at e_0, the
    # Lanczos basis is the standard basis, so the projected matrix is the
    # matrix itself and a perturbation at `at` (two or more places above the
    # diagonal) reaches only the coefficients above the tridiagonal band
    a = np.diag(np.arange(n, dtype=float)) + np.diag(np.ones(n - 1), 1) \
        + np.diag(np.ones(n - 1), -1)
    a[at] += eps * np.linalg.norm(a)
    return a


def test_krylov_min_refuses_defect_above_band():
    n, at = 12, (0, 3)
    start = np.eye(n)[0]
    a = chain_matrix(n, 1e-6, at)
    with pytest.raises(ValueError, match="not Hermitian"):
        krylov_min(lambda v: a @ v, start)
    a = chain_matrix(n, 1e-13, at)
    theta, _ = krylov_min(lambda v: a @ v, start)
    assert theta == pytest.approx(np.linalg.eigvalsh(chain_matrix(n, 0.0, at))[0], abs=1e-10)


def test_krylov_min_scale_invariant_refusal():
    # the Hermitian defect is relative to the projected matrix's norm
    rng = np.random.default_rng(34)
    a = 1e8 * random_hermitian(rng, 40)
    theta, x = krylov_min(lambda v: a @ v, crandn(rng, 40))
    w, _ = hermitian_eig(a)
    assert theta == pytest.approx(w[0], rel=1e-12)
    assert np.linalg.norm(a @ x - theta * x) <= 1e-9 * abs(theta)


def test_krylov_min_stops_at_invariant_space():
    # five distinct eigenvalues: the Krylov space is invariant after five
    # vectors, whatever the dimension
    rng = np.random.default_rng(35)
    d = np.resize([3.0, -1.0, 0.5, 2.0, -4.0], 64)
    calls = []

    def matvec(v):
        calls.append(1)
        return d * v

    theta, x = krylov_min(matvec, crandn(rng, 64))
    assert len(calls) <= 5
    assert theta == pytest.approx(-4.0, abs=1e-12)
    assert np.linalg.norm(d * x - theta * x) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_krylov_min_stops_at_invariant_space_at_every_residue(m):
    # m distinct eigenvalues: beta collapses at step m, which falls on every
    # residue modulo the stride of the tridiagonal solves, and the collapse
    # itself forces a solve there
    rng = np.random.default_rng(37 + m)
    d = np.resize(np.linspace(-2.0, 3.0, m), 60)
    calls = []

    def matvec(v):
        calls.append(1)
        return d * v

    theta, x = krylov_min(matvec, crandn(rng, 60))
    assert len(calls) <= m
    assert theta == pytest.approx(-2.0, abs=1e-12)
    assert np.linalg.norm(d * x - theta * x) <= 1e-10


def test_krylov_min_solves_t_every_third_step(monkeypatch):
    # 40 evenly spaced eigenvalues keep the recurrence going for tens of
    # steps; the tridiagonal T is solved only every third one, plus the
    # step at which the recurrence stops
    d = np.resize(np.linspace(-1.0, 1.0, 40), 400)
    v0 = np.random.default_rng(38).standard_normal(400)
    calls, solves = [], []
    solve = np.linalg.eigh

    def recording(m, *args, **kwargs):
        solves.append(np.shape(m)[0])
        return solve(m, *args, **kwargs)

    def matvec(v):
        calls.append(1)
        return d * v

    monkeypatch.setattr(np.linalg, "eigh", recording)
    theta, _ = krylov_min(matvec, v0)
    assert 0 < len(solves) <= len(calls) // 3 + 2
    assert theta == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("at", [1, 2])
def test_krylov_min_refuses_non_finite_image(at):
    # a NaN image is refused as not Hermitian at the step that makes it,
    # before any further matvec and whether or not T is solved there
    calls = []

    def matvec(v):
        calls.append(1)
        return np.full_like(v, np.nan) if len(calls) == at else np.arange(8.0) * v

    with pytest.raises(ValueError, match="not Hermitian"):
        krylov_min(matvec, np.ones(8))
    assert len(calls) == at
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_krylov_min_widens_a_real_start_for_a_complex_operator():
    # the first image is complex: the basis widens, and the complex
    # eigenpair comes back
    rng = np.random.default_rng(37)
    m = crandn(rng, 12, 12)
    a = m + m.conj().T
    want = np.linalg.eigvalsh(a)[0]
    theta, x = krylov_min(lambda v: a @ v, rng.standard_normal(12))
    assert x.dtype == np.dtype(complex)
    assert theta == pytest.approx(want, abs=1e-10)
    assert np.linalg.norm(a @ x - theta * x) <= 1e-8
    assert np.linalg.norm(x.imag) > 1e-2


def test_krylov_min_widens_at_a_later_complex_image():
    # a chain whose first hop is real and whose later hops carry phases:
    # A e_0 = e_1 is real, and the second image is the first complex one
    n = 10
    a = np.zeros((n, n), dtype=complex)
    hops = np.exp(1j * np.linspace(0.0, 2.0, n - 1))
    hops[0] = 1.0
    a[np.arange(n - 1), np.arange(1, n)] = hops
    a = a + a.conj().T + np.diag(np.linspace(-1.0, 1.0, n))
    images = []

    def matvec(v):
        out = a @ v
        images.append(bool(np.any(out.imag)))
        return out if images[-1] else out.real

    v0 = np.zeros(n)
    v0[0] = 1.0
    theta, x = krylov_min(matvec, v0)
    assert images[:2] == [False, True]
    assert theta == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-10)
    assert np.linalg.norm(a @ x - theta * x) <= 1e-8


def test_krylov_min_holds_one_basis_buffer():
    # 40 evenly spaced eigenvalues keep the recurrence going to the
    # invariant space, so the basis buffer has doubled to 64 rows; the basis
    # is all the solver holds (no buffer of images), and it grows in place
    n = 2**14
    d = np.resize(np.linspace(0.0, 1.0, 40), n)
    v0 = np.random.default_rng(36).standard_normal(n)
    calls = []

    def matvec(v):
        calls.append(1)
        return d * v

    tracemalloc.start()
    try:
        theta, _ = krylov_min(matvec, v0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 32 < len(calls) <= 64
    assert theta == pytest.approx(0.0, abs=1e-10)
    assert peak < 1.5 * 64 * n * np.dtype(complex).itemsize
