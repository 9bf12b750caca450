"""The four benchmark workloads and their correctness gates.

A workload is built once per process (models, references and inputs, all
derived from the seed) and then runs whole passes.  Every pass records its
gates in a ``Gates`` log; a gate compares an output with a reference from
``references.py``, never with the code being timed.  README.md says why
each workload exists and which layers it exercises.
"""

from __future__ import annotations

import math
import shutil
import tempfile

import numpy as np

from tnsolve import checks, cli, hamiltonian, mixed, mps, oracle, peps
from tnsolve.tensor import DenseState

import references as ref

#: An energy may undercut its exact reference by at most this much.
VARIATIONAL_SLACK = 1e-9
#: Solver energies that should be exact, and trace energies against an
#: independently recomputed Rayleigh quotient.
SOLVER_TOL = 1e-8
#: Oracle energies, and every kernel against its reference contraction.
EXACT_TOL = 1e-10


class Gates:
    """Counts correctness gates attempted and keeps the failures, plus notes
    on findings that are recorded but not failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.notes: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, got, want, tol: float) -> None:
        self.check(name, bool(abs(got - want) <= tol),
                   f"{got!r} vs {want!r} (tol {tol:.1e})")

    def above(self, name: str, energies, e0: float) -> None:
        """Every energy is at least e0 - VARIATIONAL_SLACK (NaN markers of
        restarts excluded; an empty list fails)."""
        finite = [e for e in energies if math.isfinite(e)]
        lowest = min(finite, default=float("nan"))
        self.check(name, lowest >= e0 - VARIATIONAL_SLACK,
                   f"lowest energy {lowest!r} below E0 {e0!r}")


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _random_chain(rng, p: int, d: int, boundary: str) -> mps.MpsState:
    """Chain input with one spin per site; open bonds are clamped to what the
    cut can carry."""
    if boundary == "open":
        bonds = [min(d, 2**s, 2 ** (p - s)) for s in range(p + 1)]
    else:
        bonds = [d] * (p + 1)
    sites = [_complex_gaussian(rng, (bonds[j], 2, bonds[j + 1])) for j in range(p)]
    return mps.MpsState(boundary, hamiltonian.Blocking.single_sites(p), sites)


def _random_grid(rng, rows: int, cols: int, d: int) -> peps.PepsState:
    sites = [[_complex_gaussian(rng, (2, 1 if r == 0 else d, 1 if r == rows - 1 else d,
                                      1 if c == 0 else d, 1 if c == cols - 1 else d))
              for c in range(cols)] for r in range(rows)]
    return peps.PepsState(rows, cols, sites)


class ChainAls:
    """Single-site chain ALS; mps local solves and environments dominate."""

    layers = ("mps", "tensor", "hamiltonian")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        xy_params = (1.0, 0.5, 0.7)
        # (name, model, p, D, boundary, sweeps, E0, energy should be exact)
        self.cases = [
            ("ising-open-16", hamiltonian.build_ising(16, 1.0, "open"), 16, 16,
             "open", 4, ref.ising_open_e0(16, 1.0), True),
            ("ising-periodic-8", hamiltonian.build_ising(8, 1.0, "periodic"), 8, 4,
             "periodic", 6, ref.ising_periodic_e0(8, 1.0), False),
            ("xy-open-10", hamiltonian.build_heisenberg_xy(10, *xy_params, "open"),
             10, 16, "open", 4, ref.STORED_E0[("xy", 10, xy_params, "open")], True),
        ]

    def run(self, gates: Gates) -> None:
        for i, (name, h, p, d, boundary, sweeps, e0, exact) in enumerate(self.cases):
            trace, state = mps.als_ground_state(h, p, d, boundary, sweeps,
                                                seed=self.seed + i)
            gates.above(f"{name} variational", [t.energy for t in trace], e0)
            final = trace[-1].energy
            if exact:
                gates.close(f"{name} exact", final, e0, SOLVER_TOL)
            gates.close(f"{name} rayleigh", final, mps.mps_energy(h, state), SOLVER_TOL)


class DenseOracle:
    """Dense ground states at p = 10 and Rayleigh quotients up to p = 18."""

    layers = ("oracle", "tensor", "hamiltonian")

    def __init__(self, seed: int, workdir: str):
        xy_params = (1.0, 0.5, 0.7)
        self.models = [
            ("ising-open-10", hamiltonian.build_ising(10, 1.0, "open"),
             ref.ising_open_e0(10, 1.0)),
            ("ising-periodic-10", hamiltonian.build_ising(10, 1.0, "periodic"),
             ref.ising_periodic_e0(10, 1.0)),
            ("xy-open-10", hamiltonian.build_heisenberg_xy(10, *xy_params, "open"),
             ref.STORED_E0[("xy", 10, xy_params, "open")]),
            ("ising-2d-2x5", hamiltonian.build_ising_2d(2, 5, 1.0, "open"),
             ref.STORED_E0[("ising-2d", 10, (2, 5, 1.0), "open")]),
        ]
        self.h18 = hamiltonian.build_ising(18, 1.0, "open")
        self.e0_18 = ref.ising_open_e0(18, 1.0)
        rng = np.random.default_rng(seed)
        self.products = []
        for _ in range(4):
            psi = rng.standard_normal((18, 2)) + 1j * rng.standard_normal((18, 2))
            self.products.append((DenseState(18, ref.product_vector(psi)),
                                  ref.ising_product_energy(psi, 1.0, "open")))

    def run(self, gates: Gates) -> None:
        for name, h, e0 in self.models:
            energy, ground = oracle.ground_state_dense(h)
            gates.close(f"{name} oracle", energy, e0, EXACT_TOL)
            gates.close(f"{name} rayleigh", oracle.rayleigh(h, ground), e0, EXACT_TOL)
        for j, (x, want) in enumerate(self.products):
            got = oracle.rayleigh(self.h18, x)
            gates.close(f"product-{j} rayleigh", got, want, EXACT_TOL * max(1.0, abs(want)))
            gates.above(f"product-{j} variational", [got], self.e0_18)


class BlockedGrid:
    """The p = 10 reproduction grid (32 CP cells) and one mixed greedy run."""

    layers = ("cli", "parafac", "mixed", "oracle", "hamiltonian", "tensor")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.e0_10 = ref.ising_open_e0(10, 1.0)
        self.h12 = hamiltonian.build_ising(12, 1.0, "open")
        self.e0_12 = ref.ising_open_e0(12, 1.0)
        self.schedule = [hamiltonian.Blocking.from_string(b) for b in ("6,6", "4,4,4")]

    def run(self, gates: Gates) -> None:
        # a fresh out dir per pass keeps the oracle cache cold, as on a first run
        out = tempfile.mkdtemp(prefix="reproduce-", dir=self.workdir)
        try:
            # the grid keeps the command's default seed: its greedy restarts
            # draw random columns, and on other seeds a pass did up to 40%
            # more work, which would swamp the run-to-run spread
            manifest = cli.reproduce_figure("p10", "both", out, sweeps=50,
                                            seed=0, workers=1)
        finally:
            shutil.rmtree(out)
        cells = manifest["cells"]
        gates.check("manifest cells", len(cells) == 32, f"{len(cells)} cells")
        for c in cells:
            tag = f"cell {c['mode']} b{c['blocking']} D{c['rank']}"
            gates.close(f"{tag} oracle", c["oracle_energy"], self.e0_10, EXACT_TOL)
            gates.above(f"{tag} variational", [c["final_energy"]], self.e0_10)
        # greedy beating simultaneous is a finding of the grid, not a failure
        flagged, compared = len(manifest["flagged"]), len(manifest["comparisons"])
        gates.notes["flagged_cells"] = f"{flagged} of {compared}"

        trace, state = mixed.ground_state_mixed_greedy(self.h12, self.schedule, 2, 10,
                                                       self.seed)
        energies = [t.energy for t in trace]
        gates.above("mixed variational", energies, self.e0_12)
        final = [e for e in energies if math.isfinite(e)][-1]
        gates.close("mixed rayleigh", final,
                    oracle.rayleigh(self.h12, mixed.sum_to_dense(state)), SOLVER_TOL)


class Kernels:
    """The contract-check report, and contractions above the dense cap."""

    layers = ("checks", "mps", "parafac", "mixed", "peps")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.chains = []
        for name, p, d, boundary in (("open-40", 40, 32, "open"),
                                     ("periodic-16", 16, 8, "periodic")):
            x = _random_chain(rng, p, d, boundary)
            y = _random_chain(rng, p, d, boundary)
            terms = ref.ising_terms(p, 1.0, boundary)
            xx = ref.chain_inner(x.sites, x.sites).real
            yy = ref.chain_inner(y.sites, y.sites).real
            self.chains.append({
                "name": name, "x": x, "y": y,
                "h": hamiltonian.build_ising(p, 1.0, boundary),
                "inner": ref.chain_inner(x.sites, y.sites),
                "inner_scale": math.sqrt(xx * yy),
                "expectation": ref.chain_expectation(terms, x.sites).real,
                "expectation_scale": xx * sum(abs(c) for c, _ in terms),
            })
        self.grid_truncated = (_random_grid(rng, 4, 4, 4), _random_grid(rng, 4, 4, 4))
        x3, y3 = _random_grid(rng, 4, 4, 3), _random_grid(rng, 4, 4, 3)
        self.grid_exact = (x3, y3)
        self.grid_ref = ref.grid_inner(x3.sites, y3.sites)
        self.grid_scale = math.sqrt(ref.grid_inner(x3.sites, x3.sites).real
                                    * ref.grid_inner(y3.sites, y3.sites).real)

    def run(self, gates: Gates) -> None:
        # the report keeps its default seed: its instances draw random bond
        # widths, so on other seeds a pass does about 5% more or less work
        for rep in checks.run_all(instances=200, seed=0):
            if "max_abs_err" in rep:
                gates.check(f"{rep['check']} error", rep["max_abs_err"] <= EXACT_TOL,
                            f"max_abs_err {rep['max_abs_err']!r}")
            if "within_4x_bound" in rep:
                gates.check(f"{rep['check']} cost", rep["within_4x_bound"],
                            f"{rep['cost_measured']} > 4 x {rep['cost_bound']}")
        for c in self.chains:
            gates.close(f"{c['name']} inner", mps.inner(c["x"], c["y"]), c["inner"],
                        EXACT_TOL * c["inner_scale"])
            gates.close(f"{c['name']} expectation", mps.expectation(c["h"], c["x"]),
                        c["expectation"], EXACT_TOL * c["expectation_scale"])
        # d_cut = 4 truncates the D = 4 bonds, so no exact reference applies
        value = peps.inner_peps(*self.grid_truncated, d_cut=4)
        gates.check("grid D4 d_cut4 finite", bool(np.isfinite(value)), repr(value))
        # on four rows the middle cut carries (D^2)^2 = 81, so d_cut = 81 is exact
        value = peps.inner_peps(*self.grid_exact, d_cut=81)
        gates.close("grid D3 d_cut81 exact", value, self.grid_ref,
                    EXACT_TOL * self.grid_scale)


WORKLOADS = {
    "chain-als": ChainAls,
    "dense-oracle": DenseOracle,
    "blocked-grid": BlockedGrid,
    "kernels": Kernels,
}
