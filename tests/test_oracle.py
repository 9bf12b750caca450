"""Dense ground-state oracle and Rayleigh quotient."""

import numpy as np
import pytest

from tnsolve import oracle
from tnsolve.config import DEFAULT_TOLS
from tnsolve.hamiltonian import (
    OP_I,
    OP_X,
    OP_Z,
    KroneckerTerm,
    SiteOperator,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    materialize_dense,
)
from tnsolve.oracle import ground_state_dense, rayleigh
from tnsolve.tensor import DenseState, DimensionCapError


def test_two_site_ground_energy():
    e0, x0 = ground_state_dense(build_ising(2, 0.0, "open"))
    assert e0 == pytest.approx(-1.0)
    assert np.linalg.norm(x0.vector) == pytest.approx(1.0)


@pytest.mark.parametrize("p", range(2, 9))
def test_zero_field_chain_energy(p):
    e0, _ = ground_state_dense(build_ising(p, 0.0, "open"))
    assert e0 == pytest.approx(-(p - 1), abs=1e-10)


def test_critical_chain_reference_value():
    # this value anchors the blocked-format reproductions
    e0, x0 = ground_state_dense(build_ising(10, 1.0, "open"))
    assert e0 < -10.0
    assert rayleigh(build_ising(10, 1.0, "open"), x0) == pytest.approx(e0, abs=1e-10)


def test_rayleigh_of_eigenvector():
    h = build_ising(5, 0.7, "open")
    e0, x0 = ground_state_dense(h)
    assert rayleigh(h, x0) == pytest.approx(e0, abs=1e-10)


def test_rayleigh_lower_bound_random_states():
    rng = np.random.default_rng(42)
    h = build_ising(6, 1.0, "open")
    e0, _ = ground_state_dense(h)
    for _ in range(1000):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert rayleigh(h, DenseState(6, v)) >= e0 - 1e-10


def test_rayleigh_scale_invariant():
    rng = np.random.default_rng(1)
    h = build_ising(4, 0.3, "open")
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    r1 = rayleigh(h, DenseState(4, v))
    r2 = rayleigh(h, DenseState(4, 7.0 * v))
    assert abs(r1 - r2) <= 1e-13 * max(1.0, abs(r1))


def test_rayleigh_zero_vector_rejected():
    h = build_ising(3, 0.0)
    with pytest.raises(ValueError):
        rayleigh(h, DenseState(3, np.zeros(8)))


# ---------------------------------------------------------------------------
# matrix-free ground state against the dense cross-check

ORACLE_MODELS = {
    "ising-open-10": lambda: build_ising(10, 1.0, "open"),
    "ising-periodic-10": lambda: build_ising(10, 1.0, "periodic"),
    "ising-open-7-weak": lambda: build_ising(7, 0.3, "open"),
    "xy-open-10": lambda: build_heisenberg_xy(10, 1.0, 0.5, 0.7, "open"),
    "xy-periodic-9": lambda: build_heisenberg_xy(9, 0.8, -0.3, 0.6, "periodic"),
    "2d-open-2x5": lambda: build_ising_2d(2, 5, 1.0, "open"),
    "2d-periodic-3x3": lambda: build_ising_2d(3, 3, 0.5, "periodic"),
}


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_oracle_matches_dense_eigvalsh(name):
    h = ORACLE_MODELS[name]()
    m = materialize_dense(h)
    want = np.linalg.eigvalsh(m)[0]
    e0, x0 = ground_state_dense(h)
    assert abs(e0 - want) <= 1e-12 * max(1.0, abs(want))
    assert abs(np.linalg.norm(x0.vector) - 1.0) <= 1e-12
    assert np.linalg.norm(m @ x0.vector - e0 * x0.vector) <= 1e-8


def test_oracle_vector_phase_normalized():
    _, x0 = ground_state_dense(build_heisenberg_xy(6, 1.0, 0.5, 0.7, "open"))
    first = x0.vector[np.flatnonzero(np.abs(x0.vector) > 1e-300)[0]]
    assert first.imag == 0.0 and first.real > 0.0


@pytest.mark.parametrize("name", ["ising-open-10", "xy-open-10", "2d-open-2x5"])
def test_oracle_basis_is_real_for_real_weights(monkeypatch, name):
    # every builder's pauli_form weights are real (the XY chain's YY terms
    # too), so the whole Lanczos basis, each vector of which goes through
    # the matvec, is float64; the returned state is complex
    seen = []
    krylov = oracle.krylov_min

    def recording(matvec, v0, tols):
        return krylov(lambda v: seen.append(v.dtype) or matvec(v), v0, tols)

    monkeypatch.setattr(oracle, "krylov_min", recording)
    h = ORACLE_MODELS[name]()
    e0, x0 = ground_state_dense(h)
    assert set(seen) == {np.dtype(float)}
    assert x0.vector.dtype == np.dtype(complex)
    assert e0 == pytest.approx(np.linalg.eigvalsh(materialize_dense(h))[0], abs=1e-10)


def test_oracle_never_materializes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle formed the dense matrix")

    monkeypatch.setattr(oracle, "materialize_dense", refuse)
    e0, _ = ground_state_dense(build_ising(8, 1.0, "periodic"))
    assert np.isfinite(e0)


def test_oracle_eigensolves_stay_small(monkeypatch):
    # the projected Krylov matrices are all that reach the dense eigensolver
    sizes = []
    solve = np.linalg.eigh

    def recording(m, *args, **kwargs):
        sizes.append(np.shape(m)[0])
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for build in (ORACLE_MODELS["ising-open-10"], ORACLE_MODELS["xy-open-10"],
                  ORACLE_MODELS["2d-open-2x5"]):
        ground_state_dense(build())
    assert sizes and max(sizes) < 256


def test_oracle_refuses_a_nan_hamiltonian():
    # a NaN coupling makes a NaN image, refused as not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        ground_state_dense(build_ising(8, float("nan")))


def test_oracle_cap_still_refuses():
    with pytest.raises(DimensionCapError):
        ground_state_dense(build_ising(DEFAULT_TOLS.dense_site_cap + 1, 1.0))


@pytest.mark.parametrize("p", [2, 5, 8, 10])
def test_oracle_degenerate_ground_space_residual(p):
    # at zero field the ground space is two-fold degenerate: any vector of it
    # is an answer, and it must be an eigenvector to the residual bound
    h = build_ising(p, 0.0, "open")
    e0, x0 = ground_state_dense(h)
    assert e0 == pytest.approx(-(p - 1), abs=1e-10)
    r = materialize_dense(h) @ x0.vector - e0 * x0.vector
    assert np.linalg.norm(r) <= 1e-8


def test_oracle_refuses_non_hermitian():
    splus = SiteOperator.custom([[0.0, 1.0], [0.0, 0.0]])
    h = SpinHamiltonian(3, [KroneckerTerm(1.0, (splus, OP_Z, OP_I)),
                            KroneckerTerm(0.5, (OP_X, OP_X, OP_X))])
    with pytest.raises(ValueError, match="not Hermitian"):
        ground_state_dense(h)


@pytest.mark.parametrize("h,energy", [
    (build_ising(8, 1.0, "open"), "-0x1.3ad07f8dcf2b9p+3"),
    (build_ising(6, 1.0, "periodic"), "-0x1.ee8dd4748bf12p+2"),
    (build_heisenberg_xy(8, 1.0, 0.5, 0.7, "open"), "-0x1.ea46d6c502f79p+2"),
    (build_ising_2d(2, 4, 3.0), "-0x1.8e27ffdcf527bp+4"),
], ids=["ising-open-8", "ising-periodic-6", "xy-open-8", "2d-2x4"])
def test_oracle_energies_pinned_bitwise(monkeypatch, h, energy):
    # the oracle's Krylov solve stops at tols.convergence, not at a looser
    # bound of the chain sweeps, so its energies are pinned to the last bit
    bounds = []
    krylov = oracle.krylov_min

    def recording(matvec, v0, tols, **kwargs):
        bounds.append(kwargs.get("bound"))
        return krylov(matvec, v0, tols, **kwargs)

    monkeypatch.setattr(oracle, "krylov_min", recording)
    e0, _ = ground_state_dense(h)
    assert bounds == [None]
    assert e0.hex() == energy
