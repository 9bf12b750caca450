"""Checks of the benchmark itself: references, gates and span attribution.

    OPENBLAS_NUM_THREADS=2 python3 -m pytest -q tnbench/selftest.py

The file name keeps it out of the package's own test collection; it runs
every workload pass once, traced (about a minute on 2 cores).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
import tnsolve  # noqa: E402
from tnsolve import cli, hamiltonian, mps, oracle, parafac, peps, tensor  # noqa: E402


@pytest.mark.parametrize("p,lam", [(4, 0.5), (7, 1.0), (10, 1.0), (6, 1.7)])
def test_open_ising_closed_form_matches_oracle(p, lam):
    e0, _ = oracle.ground_state_dense(hamiltonian.build_ising(p, lam, "open"))
    assert abs(ref.ising_open_e0(p, lam) - e0) < 1e-10


@pytest.mark.parametrize("p,lam", [(4, 0.5), (8, 1.0), (10, 1.0), (6, 1.7)])
def test_periodic_ising_closed_form_matches_oracle(p, lam):
    e0, _ = oracle.ground_state_dense(hamiltonian.build_ising(p, lam, "periodic"))
    assert abs(ref.ising_periodic_e0(p, lam) - e0) < 1e-10


def test_stored_energies_match_oracle():
    builders = {
        "xy": lambda p, params, bc: hamiltonian.build_heisenberg_xy(p, *params, bc),
        "ising-2d": lambda p, params, bc: hamiltonian.build_ising_2d(*params, bc),
    }
    for (model, p, params, boundary), stored in ref.STORED_E0.items():
        h = builders[model](p, params, boundary)
        assert h.p == p
        e0, _ = oracle.ground_state_dense(h)
        assert abs(stored - e0) < 1e-10, (model, stored, e0)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_product_energy_matches_rayleigh(boundary):
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    x = tensor.DenseState(6, ref.product_vector(psi))
    got = oracle.rayleigh(hamiltonian.build_ising(6, 0.8, boundary), x)
    assert abs(ref.ising_product_energy(psi, 0.8, boundary) - got) < 1e-12


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_references_match_dense(boundary):
    rng = np.random.default_rng(4)
    x = wl._random_chain(rng, 6, 3, boundary)
    y = wl._random_chain(rng, 6, 3, boundary)
    xd, yd = mps.to_dense(x).vector, mps.to_dense(y).vector
    assert abs(ref.chain_inner(x.sites, y.sites) - np.vdot(yd, xd)) < 1e-10 * abs(np.vdot(yd, xd))
    dense_h = hamiltonian.materialize_dense(hamiltonian.build_ising(6, 0.9, boundary))
    want = np.vdot(xd, dense_h @ xd)
    got = ref.chain_expectation(ref.ising_terms(6, 0.9, boundary), x.sites)
    assert abs(got - want) < 1e-10 * abs(want)


def test_grid_reference_matches_dense():
    rng = np.random.default_rng(5)
    x, y = wl._random_grid(rng, 3, 4, 2), wl._random_grid(rng, 3, 4, 2)
    want = np.vdot(peps.to_dense(y).vector, peps.to_dense(x).vector)
    assert abs(ref.grid_inner(x.sites, y.sites) - want) < 1e-10 * abs(want)


def test_shifted_reference_fails_its_gates():
    work = wl.DenseOracle(seed=0, workdir="")
    gates = wl.Gates()
    work.run(gates)
    assert gates.failures == []
    name, h, e0 = work.models[0]
    work.models[0] = (name, h, e0 + 1e-6)
    gates = wl.Gates()
    work.run(gates)
    assert [f.split(":")[0] for f in gates.failures] == [f"{name} oracle",
                                                         f"{name} rayleigh"]


def test_variational_gate_rejects_nan_only_traces():
    gates = wl.Gates()
    gates.above("restarts only", [math.nan], -1.0)
    gates.above("fine", [math.nan, -0.5], -1.0)
    assert gates.attempted == 2 and len(gates.failures) == 1


@pytest.fixture
def installed():
    tracer = tr.SpanTracer().install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_rebinds_imported_names(installed):
    originals = (tnsolve.tensor.hermitian_eig.__wrapped__,
                 tnsolve.hamiltonian.materialize_dense.__wrapped__)
    assert mps.hermitian_eig is tensor.hermitian_eig
    assert parafac.hermitian_eig is tensor.hermitian_eig
    assert oracle.materialize_dense is hamiltonian.materialize_dense
    assert tnsolve.ground_state_dense is oracle.ground_state_dense
    assert tensor.hermitian_eig is not originals[0]
    installed.uninstall()
    assert mps.hermitian_eig is originals[0]
    assert oracle.materialize_dense is originals[1]


def test_nested_tally_is_not_subtracted_from_parent(installed, tmp_path):
    cfg = cli.ExperimentConfig(out=str(tmp_path))
    cfg.model.p = 6
    cfg.method.name = "mps-als"
    cfg.method.rank = 4
    cfg.method.sweeps = 2
    with installed.pass_span():
        assert cli.run(cfg) == 0
    s = installed.spans()
    assert np.min(s["self_ops"]) >= 0
    metrics = installed.layer_metrics()
    # the chain solver's counted ops are its block applications
    assert metrics["hamiltonian.ops"] > 0 and metrics["cli.ops"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tr.PER_LAYER]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_pass_attribution(name, installed, tmp_path):
    work = wl.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    gates = wl.Gates()
    with installed.pass_span():
        work.run(gates)
    assert gates.failures == []
    m = installed.layer_metrics()
    for layer in work.layers:
        assert m[f"{layer}.calls"] > 0, layer
    if name == "chain-als":
        assert m["oracle.calls"] == 0
        # the dense eigensolves of the local problems dominate the chain ALS
        self_times = {lay: m[f"{lay}.self_s"] for lay in tr.LAYERS}
        assert max(self_times, key=self_times.get) == "tensor"
    if name != "kernels":
        assert m["peps.calls"] == 0
    s = installed.spans()
    wall = s["t1"][0] - s["t0"][0]
    assert s["parent"][0] == -1
    assert math.isclose(float(np.sum(s["self_t"])), wall, rel_tol=1e-9)
