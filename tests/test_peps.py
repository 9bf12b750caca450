"""2D grid states: dense oracle and column-by-column inner product."""

import warnings

import numpy as np
import pytest

from tnsolve import flops, mps
from tnsolve.config import DEFAULT_TOLS
from tnsolve.hamiltonian import Blocking
from tnsolve.mps import (
    _apply_mpo,
    inner as mps_inner,
    random_mps,
    to_dense as mps_to_dense,
)
from tnsolve.peps import (
    PepsState,
    _merge_pair_column,
    from_mps_row,
    inner_peps,
    random_peps,
    to_dense,
)
from tnsolve.tensor import DimensionCapError, _product_vector


def dense_conj_dot(x, y):
    return np.vdot(to_dense(y).vector, to_dense(x).vector)


# ---------------------------------------------------------------------------
# dense expansion

def test_row_lattice_matches_chain_dense():
    chain = random_mps(5, 2, "open", seed=0)
    grid = from_mps_row(chain)
    assert np.allclose(to_dense(grid).vector, mps_to_dense(chain).vector,
                       atol=1e-13)


def test_product_grid_dense():
    grid = random_peps(2, 3, 1, seed=1)
    factors = [grid.sites[r][c][:, 0, 0, 0, 0]
               for r in range(2) for c in range(3)]
    expect = _product_vector(Blocking.single_sites(6).groups, factors)
    assert np.allclose(to_dense(grid).vector, expect, atol=1e-13)


def test_dense_cap():
    grid = random_peps(4, 4, 1, seed=2)
    with pytest.raises(DimensionCapError):
        to_dense(grid)


def test_bond_mismatch_rejected():
    grid = random_peps(2, 2, 2, seed=3)
    bad = [[t for t in row] for row in grid.sites]
    bad[0][0] = np.zeros((2, 1, 3, 1, 2))
    with pytest.raises(ValueError):
        PepsState(2, 2, bad)


# ---------------------------------------------------------------------------
# inner product

def test_inner_row_lattice_equals_chain_inner():
    x = random_mps(6, 2, "open", seed=4)
    y = random_mps(6, 2, "open", seed=5)
    expect = mps_inner(x, y)
    got = inner_peps(from_mps_row(x), from_mps_row(y), d_cut=4)
    assert got == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))


@pytest.mark.parametrize("rows,cols,seed", [(3, 3, 6), (3, 4, 7), (2, 4, 8)])
def test_inner_lossless_cap_matches_dense(rows, cols, seed):
    x = random_peps(rows, cols, 2, seed=seed)
    y = random_peps(rows, cols, 2, seed=seed + 100)
    expect = dense_conj_dot(x, y)
    got = inner_peps(x, y, d_cut=4)
    assert got == pytest.approx(expect, abs=1e-11 * max(1.0, abs(expect)))


def test_inner_truncation_sweep_reports_deviation():
    x = random_peps(3, 3, 2, seed=9)
    y = random_peps(3, 3, 2, seed=109)
    expect = dense_conj_dot(x, y)
    scale = abs(expect)
    devs = []
    for cap in (1, 2, 3, 4):
        val = inner_peps(x, y, d_cut=cap)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        devs.append(abs(val - expect) / scale)
    assert devs[-1] <= 1e-11
    if any(d2 > d1 + 1e-12 for d1, d2 in zip(devs, devs[1:])):
        warnings.warn(f"deviation not monotone in the cap: {devs}")


def svd_step(chain, r, tols, d_max=None):
    """Left-gauge chain[r] by a numpy SVD that drops the singular values at
    or below zero_singular * sigma_max (and keeps at most d_max), and push
    s v into chain[r + 1]."""
    dl, d, dr = chain[r].shape
    u, s, v = np.linalg.svd(chain[r].transpose(1, 0, 2).reshape(d * dl, dr),
                            full_matrices=False)
    rank = max(1, int(np.sum(s > tols.zero_singular * s[0])))
    rank = rank if d_max is None else min(rank, d_max)
    chain[r] = u[:, :rank].reshape(d, dl, rank).transpose(1, 0, 2)
    chain[r + 1] = np.tensordot(s[:rank, None] * v[:rank], chain[r + 1], axes=(1, 0))


def svd_gauge_inner(x, y, d_cut, tols=DEFAULT_TOLS):
    """The column scheme with the earlier SVD passes after every absorption:
    an uncapped bottom-up right-gauge, then the capped top-down sweep."""
    rows = x.rows
    chain = [t[..., 0].transpose(0, 2, 1) for t in _merge_pair_column(x, y, 0)]
    for c in range(1, x.cols):
        chain = _apply_mpo(_merge_pair_column(x, y, c), chain)
        for r in range(rows - 1, 0, -1):
            # the rightward step on the mirrored pair right-gauges chain[r]
            pair = [chain[r].transpose(2, 1, 0), chain[r - 1].transpose(2, 1, 0)]
            svd_step(pair, 0, tols)
            chain[r], chain[r - 1] = (t.transpose(2, 1, 0) for t in pair)
        for r in range(rows - 1):
            svd_step(chain, r, tols, d_max=d_cut)
    env = chain[rows - 1][:, 0, 0]
    for r in range(rows - 2, -1, -1):
        env = chain[r][:, 0, :] @ env
    return complex(env[0])


@pytest.mark.parametrize("rows,cols,d,seed,caps", [
    (4, 4, 4, 20, (4,)),
    (3, 3, 2, 9, (1, 2, 3, 4)),   # the grid of the truncation sweep above
])
def test_inner_truncated_matches_svd_gauge_scheme(rows, cols, d, seed, caps):
    # any exact right-canonical gauge gives the same truncated chain, so the
    # QR passes move the capped value by rounding only
    x = random_peps(rows, cols, d, seed=seed)
    y = random_peps(rows, cols, d, seed=seed + 100)
    for cap in caps:
        expect = svd_gauge_inner(x, y, cap)
        got = inner_peps(x, y, d_cut=cap)
        assert abs(got - expect) <= 1e-12 * abs(expect), cap


def test_inner_factorizations_stay_small(monkeypatch):
    # clamping the top bond first keeps the gauge passes off the grown
    # (16 * 256, 256) site that an uncapped bottom-up pass would factor
    shapes = []

    def spy(factor):
        def wrapped(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return factor(m, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(mps, "svd", spy(mps.svd))
    monkeypatch.setattr(np.linalg, "qr", spy(np.linalg.qr))
    x = random_peps(4, 4, 4, seed=21)
    y = random_peps(4, 4, 4, seed=121)
    inner_peps(x, y, d_cut=4)
    assert shapes
    assert max(a * b for a, b in shapes) <= 1024 * 64, max(shapes, key=np.prod)


def test_inner_tall_lattice_matches_dense():
    # five rows: the top QR step, four bottom-up steps and three interior cuts
    x = random_peps(5, 2, 2, seed=22)
    y = random_peps(5, 2, 2, seed=122)
    expect = dense_conj_dot(x, y)
    got = inner_peps(x, y, d_cut=4)
    assert got == pytest.approx(expect, abs=1e-11 * max(1.0, abs(expect)))


def test_inner_refuses_nan_entry():
    x = random_peps(3, 3, 2, seed=23)
    y = random_peps(3, 3, 2, seed=123)
    x.sites[1][1][0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        inner_peps(x, y, d_cut=2)


def test_inner_errors():
    x = random_peps(2, 2, 2, seed=10)
    y = random_peps(2, 3, 2, seed=11)
    with pytest.raises(ValueError):
        inner_peps(x, y, d_cut=2)
    with pytest.raises(ValueError):
        inner_peps(x, x, d_cut=0)


# ---------------------------------------------------------------------------
# cost scaling

def test_cost_scaling_slope():
    counts = []
    dims = [1, 2, 3]
    for d in dims:
        x = random_peps(4, 4, d, seed=12 + d)
        y = random_peps(4, 4, d, seed=212 + d)
        with flops.tally() as fc:
            inner_peps(x, y, d_cut=d)
        counts.append(fc.total)
    slope = np.polyfit(np.log(dims), np.log(counts), 1)[0]
    assert 9.0 <= slope <= 11.0, f"slope {slope}, counts {counts}"
