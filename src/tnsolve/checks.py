"""Randomized dense-equivalence and cost-bound checks for every contraction
kernel.  Each check contracts random instances both through the structured
kernel and through the full coefficient vectors, returning the worst
deviation together with measured operation counts and their bounds."""

from __future__ import annotations

import numpy as np

from . import flops, mixed, mps, parafac, peps
from .hamiltonian import Blocking
from .tensor import _gaussian


def _result(name, errs, cost_measured, cost_bound):
    worst = float(max(errs)) if errs else 0.0
    report = {
        "check": name,
        "instances": len(errs),
        "max_abs_err": worst,
        "cost_measured": cost_measured,
        "cost_bound": cost_bound,
    }
    if cost_bound is not None:
        report["within_4x_bound"] = bool(cost_measured <= 4 * cost_bound)
    return report


def _family(name, rng, instances, draw, to_dense, measure=None) -> dict:
    """One report over `instances` draws.  draw(rng) gives (x, y, kernel,
    bound); kernel(x, y) is held against the dense <y, x>, and the worst
    measure(counter, x) against its bound."""
    errs = []
    worst_cost = 0
    worst_bound = 1
    for _ in range(instances):
        x, y, kernel, bound = draw(rng)
        with flops.tally() as fc:
            got = kernel(x, y)
        expect = np.vdot(to_dense(y).vector, to_dense(x).vector)
        errs.append(abs(got - expect) / max(1.0, abs(expect)))
        if measure is not None:
            cost = measure(fc, x)
            if cost / bound > worst_cost / worst_bound:
                worst_cost, worst_bound = cost, bound
    if measure is None:
        return _result(name, errs, None, None)
    return _result(name, errs, worst_cost, worst_bound)


def _total(fc, x):
    return fc.total


def check_mps_inner(instances: int = 200, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for boundary, bound_power in (("open", 3), ("periodic", 5)):
        def draw(rng, boundary=boundary, bound_power=bound_power):
            p = int(rng.integers(4, 11))
            d = int(rng.integers(1, 4))
            x = mps.random_mps(p, d, boundary, seed=int(rng.integers(2**31)))
            y = mps.random_mps(p, d, boundary, seed=int(rng.integers(2**31)))
            bound = 4 * d**bound_power * p + (d**2 if boundary == "periodic" else 0)
            return x, y, mps.inner, bound
        out.append(_family(f"mps-inner-{boundary}", rng, instances, draw,
                           mps.to_dense, _total))
    return out


def check_cp_inner(instances: int = 200, seed: int = 1) -> list:
    def draw(rng):
        p = int(rng.integers(4, 11))
        q = int(rng.integers(1, min(4, p) + 1))
        widths = _random_widths(rng, p, q)
        rank = int(rng.integers(1, 5))
        b = Blocking(widths)
        x = parafac.random_cp(b, rank, seed=int(rng.integers(2**31)))
        y = parafac.random_cp(b, rank, seed=int(rng.integers(2**31)))
        # per-addend-pair bound with the widest block standing in for 2^(p/q)
        bound = len(widths) * (2 * 2 ** max(widths) + 1)
        return x, y, lambda x, y: parafac.inner(y, x), bound
    return [_family("cp-inner", np.random.default_rng(seed), instances, draw,
                    parafac.to_dense, lambda fc, x: fc.total / x.rank**2)]


def _random_widths(rng, p, q):
    if q == 1:
        return (p,)
    cuts = sorted(rng.choice(np.arange(1, p), size=q - 1, replace=False).tolist())
    return tuple(int(w) for w in np.diff([0] + cuts + [p]))


def _random_mixed_term(rng, p, periodic=False):
    q = int(rng.integers(2, 4))
    widths = _random_widths(rng, p, min(q, p))
    offset = int(rng.integers(0, p)) if periodic else 0
    factors = [_gaussian(rng, 2**w, complex) for w in widths]
    return mixed.MixedTerm(Blocking(widths).shifted(offset), factors,
                           complex(_gaussian(rng, 1, complex)[0]))


def _check_mixed_terms(name, instances, seed, kernel, periodic, step_power):
    def draw(rng):
        p = int(rng.integers(4, 11))
        x = _random_mixed_term(rng, p, periodic)
        y = _random_mixed_term(rng, p, periodic)
        r = max(map(len, x.groups + y.groups))
        return x, y, kernel, 2 ** int(np.ceil(step_power * r)) * len(x.groups + y.groups)
    return [_family(name, np.random.default_rng(seed), instances, draw,
                    mixed.term_to_dense, _total)]


def check_mixed_obc(instances: int = 200, seed: int = 2) -> list:
    return _check_mixed_terms("mixed-inner-obc", instances, seed,
                              mixed.inner_mixed_obc, False, 1)


def check_mixed_pbc(instances: int = 200, seed: int = 3) -> list:
    return _check_mixed_terms("mixed-inner-pbc", instances, seed,
                              mixed.inner_terms, True, 1.5)


def check_block_mps_mixed(instances: int = 200, seed: int = 4) -> list:
    def draw(rng):
        p = int(rng.integers(4, 11))
        bx = Blocking(_random_widths(rng, p, int(rng.integers(1, min(4, p) + 1))))
        by = Blocking(_random_widths(rng, p, int(rng.integers(1, min(4, p) + 1))))
        x = mps.random_mps(p, int(rng.integers(1, 4)), "open", bx,
                           seed=int(rng.integers(2**31)))
        y = mps.random_mps(p, int(rng.integers(1, 4)), "open", by,
                           seed=int(rng.integers(2**31)))
        return x, y, mixed.inner_block_mps_mixed, None
    return [_family("block-mps-mixed-inner", np.random.default_rng(seed), instances,
                    draw, mps.to_dense)]


def check_pattern_2d(instances: int = 200, seed: int = 5) -> list:
    def draw(rng):
        sb_rows, sb_cols, r_sites = (2, 2, int(rng.integers(1, 3)))
        pa, pb = rng.integers(1, 5, size=2)
        n_pairs = sb_rows * sb_cols // 2
        x, y = (mixed.MixedTerm(
            mixed.pattern_groups(sb_rows, sb_cols, r_sites, int(pattern)),
            [_gaussian(rng, 4**r_sites, complex) for _ in range(n_pairs)],
            complex(_gaussian(rng, 1, complex)[0])) for pattern in (pa, pb))
        return x, y, mixed.inner_terms, 2 ** (3 * r_sites)
    return [_family("pattern-2d-inner", np.random.default_rng(seed), instances, draw,
                    mixed.term_to_dense, lambda fc, x: fc.max_step)]


def check_peps_inner(instances: int = 200, seed: int = 6) -> list:
    def draw(rng):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 5))
        if rows * cols > 12:
            cols = 12 // rows
        d = int(rng.integers(1, 3))
        x = peps.random_peps(rows, cols, d, seed=int(rng.integers(2**31)))
        y = peps.random_peps(rows, cols, d, seed=int(rng.integers(2**31)))
        return x, y, lambda x, y: peps.inner_peps(x, y, d_cut=d * d), None
    return [_family("peps-inner-lossless", np.random.default_rng(seed), instances,
                    draw, peps.to_dense)]


def peps_cost_slope(seed: int = 7) -> dict:
    """Slope of log counted operations against log bond dimension for the
    boundary contraction of two seeded 4 x 4 grids at D = 1, 2, 3."""
    dims = (1, 2, 3)
    counts = []
    for d in dims:
        x = peps.random_peps(4, 4, d, seed=seed + d)
        y = peps.random_peps(4, 4, d, seed=seed + 100 + d)
        with flops.tally() as fc:
            peps.inner_peps(x, y, d_cut=d)
        counts.append(fc.total)
    slope = float(np.polyfit(np.log(dims), np.log(counts), 1)[0])
    return {"check": "peps-cost-slope", "dims": list(dims),
            "counts": counts, "slope": slope}


def run_all(instances: int = 200, seed: int = 0) -> list:
    reports = []
    reports += check_mps_inner(instances, seed)
    reports += check_cp_inner(instances, seed + 1)
    reports += check_mixed_obc(instances, seed + 2)
    reports += check_mixed_pbc(instances, seed + 3)
    reports += check_block_mps_mixed(instances, seed + 4)
    reports += check_pattern_2d(instances, seed + 5)
    reports += check_peps_inner(instances, seed + 6)
    reports.append(peps_cost_slope(seed=seed + 7))
    return reports
