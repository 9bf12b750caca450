"""Configuration handling, run orchestration, determinism, reproduction."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from tnsolve import cli
from tnsolve.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    _atomic_write,
    _csv_rows,
    build_model,
    cached_oracle_energy,
    config_from_file,
    main,
    reproduce_figure,
)
from tnsolve.hamiltonian import (
    KroneckerTerm,
    PAULI_Z,
    SiteOperator,
    SpinHamiltonian,
    build_ising,
)
from tnsolve.oracle import ground_state_dense
from tnsolve.records import TraceEntry


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config parsing

def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    cfg.model.name = "ising"
    cfg.model.p = 6
    cfg.model.lam = 0.75
    cfg.method.name = "parafac-als"
    cfg.method.blocking = "3,3"
    cfg.method.rank = 2
    cfg.seed = 11
    cfg.out = str(tmp_path / "out")
    path = str(tmp_path / "cfg.ini")
    cfg.to_file(path)
    back = config_from_file(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_unknown_key_diagnostic(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nflavor = up\n")
    with pytest.raises(ConfigError, match=r"\[model\].*flavor"):
        config_from_file(str(path))


def test_config_bad_value_diagnostic(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\np = many\n")
    with pytest.raises(ConfigError, match=r"\[model\] p"):
        config_from_file(str(path))


def test_config_rejects_workers_key(tmp_path):
    # method runs are single-process; only `reproduce --workers` fans out
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nworkers = 2\n")
    with pytest.raises(ConfigError, match=r"\[run\].*workers"):
        config_from_file(str(path))


def test_config_coerces_by_field_type(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\np = 6\nlam = 0.5\n[run]\nvalidate = yes\n"
                    "[tolerances]\nconvergence = 1e-6\ndense_site_cap = 12\n")
    cfg = config_from_file(str(path))
    assert (cfg.model.p, cfg.model.lam, cfg.validate) == (6, 0.5, True)
    assert cfg.tols().convergence == 1e-6
    assert cfg.tols().dense_site_cap == 12
    assert type(cfg.tolerances["dense_site_cap"]) is int


def test_config_fractional_int_tolerance_exit_code(tmp_path, capsys):
    # an integer tolerance given as 12.5 is refused, not truncated to 12
    path = tmp_path / "cfg.ini"
    path.write_text("[tolerances]\ndense_site_cap = 12.5\n")
    with pytest.raises(ConfigError, match=r"\[tolerances\] dense_site_cap"):
        config_from_file(str(path))
    rc = main(["exact", "--config", str(path), "--model", "ising", "-p", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "dense_site_cap" in capsys.readouterr().err


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        config_from_file("/nonexistent/cfg.ini")


def test_build_model_variants():
    cfg = ExperimentConfig()
    cfg.model.name = "ising"
    cfg.model.p = 4
    assert build_model(cfg.model).num_terms == 7
    cfg.model.name = "ising-2d"
    cfg.model.rows, cfg.model.cols = 2, 2
    assert build_model(cfg.model).num_terms == 4 + 4
    cfg.model.name = "unknown"
    with pytest.raises(ConfigError):
        build_model(cfg.model)


def test_tolerance_overrides():
    cfg = ExperimentConfig()
    cfg.tolerances["convergence"] = 1e-6
    assert cfg.tols().convergence == 1e-6
    cfg.tolerances["not_a_field"] = 1.0
    with pytest.raises(ConfigError):
        cfg.tols()


def test_tolerance_set_in_code_fractional_int_exit_code(tmp_path, capsys):
    # coerced like a config file value: 12.5 is refused, not truncated to 12
    cfg = ExperimentConfig(out=str(tmp_path))
    cfg.model.p = 4
    cfg.tolerances["dense_site_cap"] = 12.5
    with pytest.raises(ConfigError, match=r"\[tolerances\] dense_site_cap"):
        cfg.tols()
    assert cli.run(cfg) == 2
    assert "dense_site_cap" in capsys.readouterr().err


def test_tolerance_set_in_code_non_numeric_exit_code(tmp_path, capsys):
    cfg = ExperimentConfig(out=str(tmp_path))
    cfg.model.p = 4
    cfg.tolerances["convergence"] = "abc"
    with pytest.raises(ConfigError, match=r"\[tolerances\] convergence"):
        cfg.tols()
    assert cli.run(cfg) == 2
    assert "convergence" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runs

def test_exact_run_matches_library(tmp_path):
    out = str(tmp_path / "exact")
    rc = main(["exact", "--model", "ising", "-p", "4", "--lam", "1.0",
               "--boundary", "open", "--out", out])
    assert rc == 0
    summary = json.loads(read(os.path.join(out, "summary.json")))
    e0, _ = ground_state_dense(build_ising(4, 1.0, "open"))
    assert summary["final_energy"] == pytest.approx(e0, abs=1e-12)
    assert summary["oracle_energy"] == pytest.approx(e0, abs=1e-12)


def test_exact_run_solves_once_and_reruns_identically(tmp_path, monkeypatch):
    solves = []
    solve = cli.ground_state_dense

    def counting(h, tols):
        solves.append(h.p)
        return solve(h, tols)

    monkeypatch.setattr(cli, "ground_state_dense", counting)
    args = ["exact", "--model", "heisenberg-xy", "-p", "6", "--jx", "1.0",
            "--jy", "0.5", "--lam", "0.7"]
    out = str(tmp_path / "a")
    assert main(args + ["--out", out]) == 0
    assert solves == [6]
    first = [read(os.path.join(out, f)) for f in ("trace.csv", "summary.json")]
    # the rerun reads the oracle cache and writes the same bytes
    assert main(args + ["--out", out]) == 0
    assert solves == [6]
    assert [read(os.path.join(out, f)) for f in ("trace.csv", "summary.json")] == first
    # a fresh out dir solves again and still writes the same bytes, apart
    # from the out path recorded in the config
    fresh = str(tmp_path / "b")
    assert main(args + ["--out", fresh]) == 0
    assert solves == [6, 6]
    assert read(os.path.join(fresh, "trace.csv")) == first[0]
    summary = json.loads(read(os.path.join(fresh, "summary.json")))
    assert summary["final_energy"] == summary["oracle_energy"]


def test_run_byte_identical_outputs(tmp_path):
    args = ["parafac-als", "--model", "ising", "-p", "6", "--lam", "1.0",
            "--blocking", "3,3", "--rank", "2", "--mode", "simultaneous",
            "--init", "spectral", "--sweeps", "8", "--seed", "7"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    first_csv = read(os.path.join(out1, "trace.csv"))
    first_json = read(os.path.join(out1, "summary.json"))
    # rerun of the identical config: bytes must match exactly
    assert main(args + ["--out", out1]) == 0
    assert read(os.path.join(out1, "trace.csv")) == first_csv
    assert read(os.path.join(out1, "summary.json")) == first_json
    # a different output directory changes only the config echo
    assert main(args + ["--out", out2]) == 0
    assert read(os.path.join(out2, "trace.csv")) == first_csv


def test_mps_run_with_validation(tmp_path):
    out = str(tmp_path / "mps")
    rc = main(["mps-als", "--model", "ising", "-p", "6", "--lam", "1.0",
               "--rank", "8", "--sweeps", "6", "--out", out, "--validate"])
    assert rc == 0
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["abs_error"] <= 1e-8
    assert summary["validate_diff"] <= 1e-9
    lines = read(os.path.join(out, "trace.csv")).decode().strip().splitlines()
    assert lines[0] == "method,stage,sweep,site,energy,abs_error,elapsed_s,flops"
    assert len(lines) > 2


def test_mixed_run(tmp_path):
    out = str(tmp_path / "mixed")
    rc = main(["mixed-als", "--model", "ising", "-p", "6", "--lam", "1.0",
               "--schedule", "3,3|2,2,2", "--rank", "1", "--sweeps", "6",
               "--out", out])
    assert rc == 0
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["final_energy"] is not None
    assert summary["abs_error"] >= 0.0


def test_peps_contract_run(tmp_path):
    out = str(tmp_path / "peps")
    rc = main(["peps-contract", "--rows", "3", "--cols", "3", "--rank", "2",
               "--d-cut", "4", "--seed", "3", "--out", out])
    assert rc == 0
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["abs_deviation"] <= 1e-10 * max(
        1.0, abs(summary["dense_re"]))
    assert summary["flops"] > 0


def test_parafac_cli_reaches_reproduction_tolerance(tmp_path):
    out = str(tmp_path / "p10")
    rc = main(["parafac-als", "--model", "ising", "-p", "10", "--lam", "1.0",
               "--blocking", "5,5", "--rank", "4", "--mode", "simultaneous",
               "--init", "spectral", "--sweeps", "50", "--out", out])
    assert rc == 0
    lines = read(os.path.join(out, "trace.csv")).decode().strip().splitlines()
    last = lines[-1].split(",")
    e0, _ = ground_state_dense(build_ising(10, 1.0, "open"))
    assert float(last[5]) <= 1e-3 * abs(e0)


def test_config_error_exit_code(tmp_path):
    rc = main(["parafac-als", "--model", "ising", "-p", "6",
               "--mode", "greedy", "--blocking", "3,x",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cap_exceeded_exit_code(tmp_path):
    rc = main(["exact", "--model", "ising", "-p", "16",
               "--out", str(tmp_path / "x")])
    assert rc == 3


def test_oracle_cache_reused(tmp_path):
    out = str(tmp_path)
    h = build_ising(6, 1.0, "open")
    e1 = cached_oracle_energy(h, out)
    cache_path = os.path.join(out, "oracle_cache.json")
    assert os.path.exists(cache_path)
    stamp = read(cache_path)
    e2 = cached_oracle_energy(h, out)
    assert e1 == e2
    assert read(cache_path) == stamp


# ---------------------------------------------------------------------------
# figure reproduction

def test_reproduce_manifest(tmp_path):
    out = str(tmp_path / "rep")
    manifest = reproduce_figure("p10", "both", out, sweeps=6,
                                ranks=[1, 2], blockings=["5,5"], seed=0)
    assert len(manifest["cells"]) == 4  # 1 blocking x 2 ranks x 2 modes
    e0, _ = ground_state_dense(build_ising(10, 1.0, "open"))
    for cell in manifest["cells"]:
        assert cell["final_energy"] >= e0 - 1e-10
        assert os.path.exists(os.path.join(out, cell["file"]))
    assert len(manifest["comparisons"]) == 2
    for comp in manifest["comparisons"]:
        assert set(comp) >= {"greedy_error", "simultaneous_error",
                             "simultaneous_not_worse"}
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_reproduce_rejects_bad_figure(tmp_path):
    with pytest.raises(ConfigError):
        reproduce_figure("p99", "both", str(tmp_path))


def test_convergence_record_invariants():
    trace = [TraceEntry(0, 1, 2, -3.5, 17),
             TraceEntry(1, 0, 0, float("nan"), 20, "restart")]
    rows = _csv_rows("mps-als", trace, -3.75, None).splitlines()
    # the energy-less restart marker is not a row
    assert rows == [CSV_HEADER, "mps-als,0,1,2,-3.5,0.25,0.0,17"]
    rows = _csv_rows("exact", [TraceEntry(0, 0, 0, -1.0, 0)], None, None)
    assert rows.splitlines()[1].split(",")[5] == ""


def _parafac_args(tmp_path, *extra):
    return ["parafac-als", "--model", "ising", "-p", "6", "--blocking", "3,3",
            "--rank", "1", "--sweeps", "3", "--out", str(tmp_path / "x"), *extra]


def test_init_misspelled_exit_code(tmp_path):
    assert main(_parafac_args(tmp_path, "--init", "spectrl")) == 2
    assert not os.path.exists(tmp_path / "x" / "summary.json")


def test_init_bad_seed_exit_code(tmp_path):
    assert main(_parafac_args(tmp_path, "--init", "random:x")) == 2
    # a well-formed seeded start runs like --seed
    assert main(_parafac_args(tmp_path, "--init", "random:5")) == 0
    seeded = json.loads(read(tmp_path / "x" / "summary.json"))["final_energy"]
    assert main(_parafac_args(tmp_path, "--seed", "5")) == 0
    plain = json.loads(read(tmp_path / "x" / "summary.json"))["final_energy"]
    assert seeded == plain


def test_reproduce_bad_ranks_exit_code(tmp_path):
    rc = main(["reproduce", "--figure", "p10", "--ranks", "1,x",
               "--out", str(tmp_path / "rep")])
    assert rc == 2


def test_atomic_write_concurrent_writers(tmp_path):
    path = str(tmp_path / "shared.json")
    texts = [f"writer {w}\n" * 50 for w in range(4)]
    errors = []

    def write_many(text):
        try:
            for _ in range(100):
                _atomic_write(path, text)
        except Exception as err:
            errors.append(err)

    threads = [threading.Thread(target=write_many, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert read(path).decode() in texts
    assert os.listdir(tmp_path) == ["shared.json"]


def test_oracle_cache_keys_custom_operators(tmp_path):
    # same coefficients and operator pattern, different custom matrices
    z = SiteOperator.custom(PAULI_Z)
    one = SiteOperator.custom(np.eye(2))
    h_low = SpinHamiltonian(2, [KroneckerTerm(1.0, (z, one))])
    h_high = SpinHamiltonian(2, [KroneckerTerm(1.0, (one, one))])
    assert h_low.model_key() != h_high.model_key()
    assert cached_oracle_energy(h_low, str(tmp_path)) == pytest.approx(-1.0)
    assert cached_oracle_energy(h_high, str(tmp_path)) == pytest.approx(1.0)


def test_oracle_cache_concurrent_misses_keep_every_entry(tmp_path, monkeypatch):
    # every thread misses the cache before any of them stores its energy
    models = [build_ising(6, lam, "open") for lam in (0.5, 1.0, 1.5, 2.0)]
    together = threading.Barrier(len(models), timeout=60)
    solve = cli.ground_state_dense

    def solve_together(h, tols):
        together.wait()
        return solve(h, tols)

    monkeypatch.setattr(cli, "ground_state_dense", solve_together)
    energies, errors = {}, []

    def lookup(h):
        try:
            energies[h.model_key()] = cached_oracle_energy(h, str(tmp_path))
        except Exception as err:
            errors.append(err)

    threads = [threading.Thread(target=lookup, args=(h,)) for h in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    cache = json.loads(read(tmp_path / "oracle_cache.json"))
    assert len(cache) == len(models)
    for h in models:
        assert cache[cli._model_hash(h)] == energies[h.model_key()]
