"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Shared oracle energies are computed once per session.
"""

import json
import warnings

import numpy as np
import pytest

from tnsolve import checks
from tnsolve.cli import main
from tnsolve.hamiltonian import Blocking, build_ising
from tnsolve.mixed import inner_block_mps_mixed
from tnsolve.mps import (
    add,
    als_ground_state,
    from_unit_vector,
    gauge_residual_left,
    gauge_residual_right,
    inner as mps_inner,
    normalize_left_sweep,
    normalize_right_sweep,
    random_mps,
    to_dense as mps_to_dense,
)
from tnsolve.oracle import ground_state_dense
from tnsolve.parafac import (
    as_diagonal_mps,
    greedy_als,
    random_cp,
    simultaneous_als,
    to_dense as cp_to_dense,
)
from tnsolve.peps import from_mps_row, inner_peps


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def ising10():
    h = build_ising(10, 1.0, "open")
    e0, _ = ground_state_dense(h)
    return h, e0


@pytest.fixture(scope="module")
def ising12():
    h = build_ising(12, 1.0, "open")
    e0, _ = ground_state_dense(h)
    return h, e0


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_self_consistency():
    for p in range(2, 13):
        e0, _ = ground_state_dense(build_ising(p, 0.0, "open"))
        assert abs(e0 - (-(p - 1))) <= 1e-10, f"p={p}: {e0}"
    report(1, "zero-field chain energies equal -(p-1) for p = 2..12 within 1e-10")


def test_criterion_2_contraction_equivalence():
    reports = checks.run_all(instances=200, seed=0)
    for rep in reports:
        if "max_abs_err" not in rep:
            continue
        assert rep["instances"] >= 200, rep["check"]
        assert rep["max_abs_err"] <= 1e-11, rep
    names = [r["check"] for r in reports if "max_abs_err" in r]
    report(2, f"{len(names)} kernel families x 200 random instances agree "
              f"with dense conjugate dots within 1e-11 ({', '.join(names)})")


def test_criterion_3_mps_exactness():
    h = build_ising(8, 1.0, "open")
    e0, _ = ground_state_dense(h)
    trace, _ = als_ground_state(h, 8, 16, "open", sweeps=10, seed=0)
    assert abs(trace[-1].energy - e0) <= 1e-8
    energies = [t.energy for t in trace]
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))
    report(3, f"exact-capable chain solve reaches |E - E0| = "
              f"{abs(trace[-1].energy - e0):.2e} <= 1e-8 with a "
              f"nonincreasing trace of {len(trace)} updates")


def test_criterion_4_ten_spin_reproduction(ising10):
    h, e0 = ising10
    b = Blocking((5, 5))
    sim_errs = {}
    greedy_errs = {}
    for rank in (1, 2, 3, 4):
        tr_s, _ = simultaneous_als(h, b, rank, sweeps=50, init="spectral")
        sim_errs[rank] = abs(tr_s[-1].energy - e0)
        # matched comparison: the greedy stages start from the same
        # block-local spectral point the simultaneous solver uses
        tr_g, _ = greedy_als(h, b, rank, inner_iters=50, seed=0,
                             init="spectral")
        greedy_errs[rank] = abs(tr_g[-1].energy - e0)
    for r1, r2 in zip((1, 2, 3), (2, 3, 4)):
        assert sim_errs[r2] <= sim_errs[r1] + 1e-12, (sim_errs, r1, r2)
    assert sim_errs[4] <= 1e-3 * abs(e0)
    for rank in (1, 2, 3, 4):
        assert sim_errs[rank] <= greedy_errs[rank] + 1e-12, (rank, sim_errs,
                                                             greedy_errs)
    report(4, "ten-spin [5,5] simultaneous errors decrease in D "
              f"({', '.join(f'{sim_errs[r]:.1e}' for r in (1, 2, 3, 4))}), "
              f"D=4 error <= 1e-3|E0|, and never exceed matched greedy errors")


def test_criterion_5_twelve_spin_reproduction(ising12):
    h, e0 = ising12
    blockings = [(6, 6), (4, 4, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2, 2)]
    errs = []
    for widths in blockings:
        tr, _ = simultaneous_als(h, Blocking(widths), 2, sweeps=50,
                                 init="spectral")
        errs.append(abs(tr[-1].energy - e0))
    # hard requirement: the coarsest blocking beats the finest
    assert errs[0] <= errs[-1] + 1e-12, errs
    # intermediate inversions are flagged, not failed
    for (w1, e1), (w2, e2) in zip(zip(blockings, errs), zip(blockings[1:], errs[1:])):
        if e2 + 1e-12 < e1:
            warnings.warn(f"ordering inversion: {w2} error {e2:.3e} "
                          f"below {w1} error {e1:.3e}")
    report(5, "twelve-spin errors over [6,6] -> [2x6] at D=2: "
              + ", ".join(f"{e:.2e}" for e in errs)
              + " (coarsest <= finest)")


def test_criterion_6_gauge_invariants():
    rng = np.random.default_rng(6)
    count = 0
    worst_resid = 0.0
    worst_change = 0.0
    worst_gamma = 0.0
    while count < 100:
        p = int(rng.integers(3, 9))
        d = int(rng.integers(1, 5))
        boundary = "open" if count % 2 == 0 else "periodic"
        x = random_mps(p, d, boundary, seed=int(rng.integers(2**31)))
        before = mps_to_dense(x).vector
        scale = np.linalg.norm(before)
        for sweep, resid_fn, rng_sites in (
            (normalize_left_sweep, gauge_residual_left, lambda q: range(q - 1)),
            (normalize_right_sweep, gauge_residual_right, lambda q: range(1, q)),
        ):
            gauged, status = sweep(x)
            after = mps_to_dense(gauged).vector
            worst_change = max(worst_change,
                               np.linalg.norm(after - before) / scale)
            for j in rng_sites(gauged.q):
                worst_resid = max(worst_resid, resid_fn(gauged.sites[j]))
            if boundary == "open":
                worst_gamma = max(worst_gamma,
                                  abs(status.gamma - scale**2) / scale**2)
        count += 1
    assert worst_resid <= 1e-12
    assert worst_change <= 1e-12
    assert worst_gamma <= 1e-12
    report(6, f"100 random chains: gauge residual {worst_resid:.1e}, dense "
              f"change {worst_change:.1e}, norm scalar deviation "
              f"{worst_gamma:.1e}, all <= 1e-12")


def test_criterion_7_cost_bounds():
    reports = checks.run_all(instances=200, seed=7)
    bounded = [r for r in reports if r.get("cost_bound") is not None]
    assert len(bounded) >= 5
    for rep in bounded:
        assert rep["within_4x_bound"], rep
    slope = next(r for r in reports if r["check"] == "peps-cost-slope")["slope"]
    assert 9.0 <= slope <= 11.0, slope
    report(7, f"{len(bounded)} instrumented kernel bounds hold within 4x; "
              f"grid-contraction cost slope {slope:.2f} in 10 +/- 1")


def test_contract_check_counts_pinned():
    # the count fields of a small contract-check report: instances, the
    # worst measured cost and its bound per family, and the grid-contraction
    # counts behind the slope; any change in a kernel's contraction order
    # shows here
    reports = checks.run_all(instances=20, seed=0)
    assert {r["check"]: (r["instances"], r["cost_measured"], r["cost_bound"])
            for r in reports if "instances" in r} == {
        "mps-inner-open": (20, 17, 16),
        "mps-inner-periodic": (20, 1028, 1028),
        "cp-inner": (20, 12.5, 20),
        "mixed-inner-obc": (20, 14, 20),
        "mixed-inner-pbc": (20, 8, 32),
        "block-mps-mixed-inner": (20, None, None),
        "pattern-2d-inner": (20, 64, 64),
        "peps-inner-lossless": (20, None, None),
    }
    assert reports[-1]["counts"] == [68, 32015, 3104278]


def test_criterion_8_structural_identities():
    rng = np.random.default_rng(8)
    # sum-of-chains additivity
    for _ in range(10):
        p = int(rng.integers(3, 8))
        x = random_mps(p, 2, "open", seed=int(rng.integers(2**31)))
        y = random_mps(p, 3, "open", seed=int(rng.integers(2**31)))
        dense = mps_to_dense(add(x, y)).vector
        expect = mps_to_dense(x).vector + mps_to_dense(y).vector
        assert np.linalg.norm(dense - expect) <= 1e-12 * max(1.0, np.linalg.norm(expect))
    # unit vectors as bond-1 chains
    for p in (4, 7, 10):
        for j in map(int, rng.integers(0, 2**p, size=4)):
            assert np.array_equal(mps_to_dense(from_unit_vector(j, p)).vector,
                                  np.eye(2**p)[:, j])
    # canonical sums embed as diagonal-matrix chains
    for widths, rank in [((1, 1, 1, 1, 1), 3), ((2, 3), 4), ((3, 2, 2), 2)]:
        cp_state = random_cp(Blocking(widths), rank, seed=int(rng.integers(2**31)))
        cp_state.weights = cp_state.weights * (0.7 - 1.1j)
        delta = mps_to_dense(as_diagonal_mps(cp_state)).vector - cp_to_dense(cp_state).vector
        assert np.linalg.norm(delta) <= 1e-12 * np.linalg.norm(cp_to_dense(cp_state).vector)
    # single-row grids reproduce chains
    x = random_mps(6, 2, "open", seed=80)
    y = random_mps(6, 2, "open", seed=81)
    expect = mps_inner(x, y)
    assert abs(inner_peps(from_mps_row(x), from_mps_row(y), d_cut=4) - expect) \
        <= 1e-12 * max(1.0, abs(expect))
    # width-1 blockings are the standard chain
    xb = random_mps(6, 2, "open", blocking=Blocking((1,) * 6), seed=82)
    xs = random_mps(6, 2, "open", seed=82)
    assert np.array_equal(mps_to_dense(xb).vector, mps_to_dense(xs).vector)
    got = inner_block_mps_mixed(xb, xs)
    norm = mps_inner(xs, xs)
    assert abs(got - norm) <= 1e-12 * abs(norm)
    report(8, "sum additivity, unit-vector chains, diagonal-chain embedding, "
              "single-row grids and width-1 blockings all hold within 1e-12")


def test_criterion_9_cli_determinism(tmp_path):
    args = ["parafac-als", "--model", "ising", "-p", "10", "--lam", "1.0",
            "--blocking", "5,5", "--rank", "2", "--mode", "simultaneous",
            "--init", "spectral", "--sweeps", "10", "--seed", "3",
            "--out", str(tmp_path / "run")]
    assert main(args) == 0
    with open(tmp_path / "run" / "trace.csv", "rb") as fh:
        csv1 = fh.read()
    with open(tmp_path / "run" / "summary.json", "rb") as fh:
        json1 = fh.read()
    assert main(args) == 0
    with open(tmp_path / "run" / "trace.csv", "rb") as fh:
        assert fh.read() == csv1
    with open(tmp_path / "run" / "summary.json", "rb") as fh:
        assert fh.read() == json1
    # the emitted error column agrees with the documented tolerance regime
    summary = json.loads(json1)
    assert summary["abs_error"] is not None
    report(9, "repeated runs with one config and seed emit byte-identical "
              "CSV and JSON")
