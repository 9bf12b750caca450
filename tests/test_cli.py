"""Configuration handling, run orchestration, determinism, reproduction."""

import argparse
import json
import os
import sys
import threading

import numpy as np
import pytest

from tnsolve import cli
from tnsolve.cli import (
    CSV_HEADER,
    FIGURE_GRIDS,
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
from tnsolve.config import Tolerances
from tnsolve.hamiltonian import (
    Blocking,
    KroneckerTerm,
    PAULI_Z,
    SiteOperator,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    materialize_dense,
)
from tnsolve.oracle import ground_state_dense
from tnsolve.parafac import greedy_als
from tnsolve.records import TraceEntry


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _refuse_constant(name):
    raise ValueError(f"summary.json holds {name}, which strict JSON has no word for")


def read_summary(path):
    """summary.json parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(read(path), parse_constant=_refuse_constant)


@pytest.fixture(autouse=True)
def every_summary_is_strict_json(tmp_path):
    yield
    for path in tmp_path.rglob("summary.json"):
        read_summary(path)


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
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nname = ising\np = 6\nlam = 0.75\n"
                    "[method]\nname = parafac-als\nblocking = 3,3\nrank = 2\n"
                    f"[run]\nseed = 11\nout = {cfg.out}\n")
    back = config_from_file(str(path))
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


@pytest.mark.parametrize("key,value", [
    ("pd_floor_scale", "nan"),
    ("convergence", "-1"),
    ("hermitian", "inf"),
    ("zero_singular", "-1e-14"),
    ("dense_site_cap", "-1"),
])
def test_config_tolerance_out_of_range_exits_2_before_the_oracle(tmp_path, capsys,
                                                                  key, value):
    # a negative convergence bound would let no solve converge, and a NaN
    # floor would refuse every denominator
    path, out = tmp_path / "cfg.ini", tmp_path / "x"
    path.write_text(f"[tolerances]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[tolerances\] {key}: "):
        config_from_file(str(path)).tols()
    assert main(["exact", "--config", str(path), "-p", "6", "--out", str(out)]) == 2
    assert f"[tolerances] {key}" in capsys.readouterr().err
    assert not (out / "oracle_cache.json").exists()


# ---------------------------------------------------------------------------
# runs

def test_exact_run_matches_library(tmp_path):
    out = str(tmp_path / "exact")
    rc = main(["exact", "--model", "ising", "-p", "4", "--lam", "1.0",
               "--boundary", "open", "--out", out])
    assert rc == 0
    summary = read_summary(os.path.join(out, "summary.json"))
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
    summary = read_summary(os.path.join(fresh, "summary.json"))
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
    summary = read_summary(os.path.join(out, "summary.json"))
    assert summary["abs_error"] <= 1e-8
    assert summary["validate_diff"] <= 1e-9
    lines = read(os.path.join(out, "trace.csv")).decode().strip().splitlines()
    assert lines[0] == "method,stage,sweep,site,energy,abs_error,elapsed_s,flops"
    assert len(lines) > 2


def test_periodic_mps_run_reaches_the_oracle(tmp_path):
    # a periodic model runs on the open chain, its wrap bond one more MPO
    # channel
    out = str(tmp_path / "mps")
    rc = main(["mps-als", "--model", "ising", "-p", "12", "-D", "32",
               "--boundary", "periodic", "--out", out])
    assert rc == 0
    assert read_summary(os.path.join(out, "summary.json"))["abs_error"] <= 1e-8


@pytest.mark.parametrize("args", [
    ["mps-als", "-p", "6", "--rank", "4", "--sweeps", "4"],
    ["parafac-als", "-p", "6", "--blocking", "3,3", "--rank", "2",
     "--mode", "greedy", "--sweeps", "5"],
    ["exact", "-p", "6"],
], ids=["mps-als", "parafac-greedy", "exact"])
def test_timing_gives_each_row_its_own_elapsed_time(tmp_path, args):
    def elapsed(out):
        lines = read(os.path.join(out, "trace.csv")).decode().splitlines()[1:]
        return [float(line.split(",")[6]) for line in lines]

    untimed, timed = str(tmp_path / "untimed"), str(tmp_path / "timed")
    assert main(args + ["--out", untimed]) == 0
    assert set(elapsed(untimed)) == {0.0}
    assert main(args + ["--out", timed, "--timing"]) == 0
    times = elapsed(timed)
    summary = read_summary(os.path.join(timed, "summary.json"))
    assert 0.0 < times[0] and all(a <= b for a, b in zip(times, times[1:]))
    assert times[-1] <= summary["wall_time_s"]


def test_mixed_run(tmp_path):
    out = str(tmp_path / "mixed")
    rc = main(["mixed-als", "--model", "ising", "-p", "6", "--lam", "1.0",
               "--schedule", "3,3|2,2,2", "--rank", "1", "--sweeps", "6",
               "--out", out])
    assert rc == 0
    summary = read_summary(os.path.join(out, "summary.json"))
    assert summary["final_energy"] is not None
    assert summary["abs_error"] >= 0.0


def test_peps_contract_run(tmp_path):
    out = str(tmp_path / "peps")
    rc = main(["peps-contract", "--rows", "3", "--cols", "3", "--rank", "2",
               "--d-cut", "4", "--seed", "3", "--out", out])
    assert rc == 0
    summary = read_summary(os.path.join(out, "summary.json"))
    assert summary["abs_deviation"] <= 1e-10 * max(
        1.0, abs(summary["dense_re"]))
    assert summary["flops"] > 0


def test_peps_contract_dense_check_follows_the_configured_cap(tmp_path):
    args = ["peps-contract", "--rows", "2", "--cols", "7", "--rank", "1",
            "--d-cut", "1"]
    out = tmp_path / "default"
    assert main(args + ["--out", str(out)]) == 0
    summary = read_summary(out / "summary.json")
    assert summary["abs_deviation"] <= 1e-10 * max(1.0, abs(summary["dense_re"]))
    path = tmp_path / "cfg.ini"
    path.write_text("[tolerances]\ndense_site_cap = 12\n")
    out = tmp_path / "capped"
    assert main(args + ["--config", str(path), "--out", str(out)]) == 0
    summary = read_summary(out / "summary.json")
    assert "dense_re" not in summary and "abs_deviation" not in summary


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


def test_parafac_cli_random_start_two_blocks_rank_four(tmp_path):
    # the default random start drifts towards nearly dependent addends on two
    # blocks; whitening at their Gram matrix must not fail the Hermiticity check
    out = tmp_path / "p10"
    rc = main(["parafac-als", "-p", "10", "--blocking", "5,5", "-D", "4",
               "--mode", "simultaneous", "--out", str(out)])
    assert rc == 0
    summary = read_summary(out / "summary.json")
    assert summary["final_energy"] == pytest.approx(-12.381487107494, abs=1e-9)


def test_config_error_exit_code(tmp_path):
    rc = main(["parafac-als", "--model", "ising", "-p", "6",
               "--mode", "greedy", "--blocking", "3,x",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cap_exceeded_exit_code(tmp_path):
    rc = main(["exact", "--model", "ising", "-p", "16",
               "--out", str(tmp_path / "x")])
    assert rc == 3


def test_validate_above_cap_skips_after_solve(tmp_path):
    out = tmp_path / "x"
    rc = main(["mps-als", "-p", "16", "-D", "4", "--sweeps", "2", "--validate",
               "--out", str(out)])
    assert rc == 0
    summary = read_summary(out / "summary.json")
    assert summary["validate_skipped"] == "p=16 exceeds the dense cap 14"
    assert summary["oracle_energy"] is None
    assert summary["final_energy"] is not None
    assert "validate_diff" not in summary


def test_greedy_run_ending_on_a_marker_reports_its_last_energy(tmp_path):
    # one two-site block at lam = 0: the rank-one stage is exact, so stage 2
    # restarts until it freezes a weight-zero addend and the trace ends on a
    # NaN marker
    out = tmp_path / "x"
    rc = main(["parafac-als", "-p", "2", "--lam", "0", "--blocking", "2", "-D", "2",
               "--mode", "greedy", "--sweeps", "20", "--validate", "--out", str(out)])
    assert rc == 0
    summary = read_summary(out / "summary.json")
    assert summary["final_energy"] == pytest.approx(-1.0, abs=1e-12)
    assert summary["abs_error"] <= 1e-12
    assert summary["validate_diff"] <= 1e-12 and summary["recheck_diff"] <= 1e-12


def test_validate_fails_on_a_gap_that_is_not_finite(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "rayleigh", lambda *args: float("nan"))
    out = tmp_path / "x"
    rc = main(["parafac-als", "-p", "6", "--blocking", "3,3", "--sweeps", "2",
               "--validate", "--out", str(out)])
    assert rc == 4
    assert not (out / "summary.json").exists()


def test_recheck_gap_fails_only_under_validate(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_recheck_energy", lambda *args: 0.0)
    args = ["mps-als", "-p", "6", "-D", "2", "--sweeps", "2"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    summary = read_summary(tmp_path / "plain" / "summary.json")
    assert summary["recheck_energy"] == 0.0
    assert summary["recheck_diff"] == abs(summary["final_energy"])
    assert main(args + ["--validate", "--out", str(tmp_path / "checked")]) == 4
    assert not (tmp_path / "checked" / "summary.json").exists()


def test_mixed_run_above_the_cap_is_rechecked(tmp_path):
    out = tmp_path / "x"
    rc = main(["mixed-als", "-p", "16", "--schedule", "8,8|4,4,4,4", "-D", "1",
               "--sweeps", "3", "--validate", "--out", str(out)])
    assert rc == 0
    summary = read_summary(out / "summary.json")
    assert summary["validate_skipped"] == "p=16 exceeds the dense cap 14"
    assert summary["recheck_diff"] < 1e-10


def test_validate_runs_at_the_configured_cap(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[tolerances]\ndense_site_cap = 15\n")
    out = tmp_path / "x"
    rc = main(["mps-als", "--config", str(path), "-p", "15", "-D", "4",
               "--sweeps", "2", "--validate", "--out", str(out)])
    assert rc == 0
    summary = read_summary(out / "summary.json")
    assert "validate_skipped" not in summary
    assert summary["validate_diff"] <= 1e-8


def test_validate_above_cap_never_densifies(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.parafac, "to_dense", lambda x: calls.append(x))
    out = tmp_path / "x"
    rc = main(["parafac-als", "-p", "16", "--blocking", "8,8", "--rank", "1",
               "--sweeps", "2", "--validate", "--out", str(out)])
    assert rc == 0
    assert calls == []
    summary = read_summary(out / "summary.json")
    assert summary["validate_skipped"] == "p=16 exceeds the dense cap 14"


def _method_parsers():
    """{method: its argparse subparser}"""
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: sub.choices[name] for name in cli.METHODS}


def test_every_flag_names_a_config_field():
    for method, parser in _method_parsers().items():
        for action in parser._actions:
            if action.dest in ("help", "config"):
                continue
            section, _, key = action.dest.partition(".")
            assert key in cli._SECTION_TYPES.get(section, {}), \
                f"{method} {action.option_strings} -> {action.dest}"


def test_every_flag_reaches_the_config():
    defaults = ExperimentConfig().to_dict()
    for method, parser in _method_parsers().items():
        argv, want = [method], {}
        for action in parser._actions:
            if "." not in action.dest:
                continue
            section, key = action.dest.split(".")
            if action.nargs == 0:  # store_true
                argv.append(action.option_strings[0])
                value = True
            elif action.choices:
                value = next(c for c in action.choices
                             if c != defaults[section][key])
                argv += [action.option_strings[0], value]
            else:
                kind = cli._SECTION_TYPES[section][key]
                value = {int: 7, float: 0.375, str: "x7"}[kind]
                argv += [action.option_strings[0], str(value)]
            assert value != defaults[section][key], action.dest
            want[action.dest] = value
        cfg = ExperimentConfig()
        cli._apply_overrides(cfg, cli._parser().parse_args(argv))
        got = cfg.to_dict()
        for dest, value in want.items():
            section, key = dest.split(".")
            assert got[section][key] == value, f"{method} {dest}"


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


@pytest.mark.parametrize("text", ["[]", "3.5", "null"])
def test_oracle_cache_that_is_not_an_object_is_rewritten(tmp_path, text):
    # valid JSON that is not an object reads as an empty cache, like a file
    # that does not decode
    (tmp_path / "oracle_cache.json").write_text(text)
    assert main(["exact", "-p", "6", "--out", str(tmp_path)]) == 0
    cache = json.loads(read(tmp_path / "oracle_cache.json"))
    assert isinstance(cache, dict) and len(cache) == 1


@pytest.mark.parametrize("raw", ['"nan"', "NaN", "Infinity", "-Infinity", "null", "[-7.0]",
                                 '"abc"', '"-7.0"', "true", "1" + "0" * 400],
                         ids=["nan-string", "nan", "inf", "-inf", "null", "list",
                              "string", "number-string", "bool", "int-beyond-float"])
def test_oracle_cache_entry_that_is_not_a_finite_number_is_recomputed(tmp_path, raw):
    # a damaged entry is a miss: the oracle runs again and its energy
    # replaces the entry, which the next lookup then reads
    out, h = str(tmp_path), build_ising(6, 1.0, "open")
    e0 = cached_oracle_energy(h, out)
    path = tmp_path / "oracle_cache.json"
    (key,) = json.loads(read(path))
    path.write_text(f'{{"{key}": {raw}, "other": 1.5}}')
    assert cached_oracle_energy(h, out) == e0
    assert json.loads(read(path)) == {key: e0, "other": 1.5}
    assert cached_oracle_energy(h, out) == e0


def test_oracle_cache_reads_an_integer_entry(tmp_path):
    out, h = str(tmp_path), build_ising(6, 1.0, "open")
    cached_oracle_energy(h, out)
    path = tmp_path / "oracle_cache.json"
    (key,) = json.loads(read(path))
    path.write_text(f'{{"{key}": -7}}')
    assert cached_oracle_energy(h, out) == -7.0


def test_oracle_cache_keys_convergence_tolerance(tmp_path):
    # the Krylov stop follows tols.convergence, so an energy cached by a
    # loose run must not be served to a default-tolerance lookup
    out = str(tmp_path)
    h = build_ising(8, 1.0, "open")
    exact = np.linalg.eigvalsh(materialize_dense(h))[0]
    loose = Tolerances(convergence=1e-2)
    e_loose = cached_oracle_energy(h, out, loose)
    assert abs(e_loose - exact) > 1e-6
    assert abs(cached_oracle_energy(h, out) - exact) <= 1e-10
    assert cached_oracle_energy(h, out, loose) == e_loose
    assert len(json.loads(read(os.path.join(out, "oracle_cache.json")))) == 2


# ---------------------------------------------------------------------------
# figure reproduction

def test_reproduce_manifest(tmp_path):
    out = str(tmp_path / "rep")
    manifest = reproduce_figure("p10", "both", out, sweeps=6,
                                ranks=[1, 2], seed=0)
    assert len(manifest["cells"]) == 16  # 4 blockings x 2 ranks x 2 modes
    e0, _ = ground_state_dense(build_ising(10, 1.0, "open"))
    for cell in manifest["cells"]:
        assert cell["final_energy"] >= e0 - 1e-10
        assert os.path.exists(os.path.join(out, cell["file"]))
    assert len(manifest["comparisons"]) == 8
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
    # --init names the start only; its seed is --seed
    assert main(_parafac_args(tmp_path, "--init", "random:x")) == 2
    assert main(_parafac_args(tmp_path, "--init", "random:5")) == 2
    assert not os.path.exists(tmp_path / "x" / "summary.json")


def test_reproduce_bad_ranks_exit_code(tmp_path):
    rc = main(["reproduce", "--figure", "p10", "--ranks", "1,x",
               "--out", str(tmp_path / "rep")])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["--ranks", "0"], ["--ranks", "2,0,3"], ["--ranks=-1"], ["--sweeps", "0"],
], ids=["rank-0", "rank-0-inside", "rank-negative", "sweeps-0"])
def test_reproduce_rank_or_sweeps_below_one_exit_code(tmp_path, args):
    out = tmp_path / "rep"
    rc = main(["reproduce", "--figure", "p10", "--out", str(out), *args])
    assert rc == 2
    # refused before the out dir, the oracle cache or the manifest is written
    assert not out.exists()


def test_reproduce_repeated_rank_is_refused(tmp_path):
    # a repeated rank would run its cells twice and write the same CSVs twice
    out = tmp_path / "rep"
    with pytest.raises(ConfigError, match="ranks must not repeat"):
        reproduce_figure("p10", "both", str(out), sweeps=2, ranks=[2, 2])
    assert main(["reproduce", "--figure", "p10", "--ranks", "1,2,1",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["mps-als", "-p", "6", "-D", "0"],
    ["parafac-als", "-p", "6", "--blocking", "3,3", "--rank", "0"],
    ["parafac-als", "-p", "6", "--blocking", "3,3", "--sweeps", "0"],
    ["mixed-als", "-p", "6", "--schedule", "3,3", "--sweeps", "0"],
    ["peps-contract", "--rows", "2", "--cols", "2", "--d-cut", "0"],
    ["peps-contract", "--rows", "0", "--cols", "2"],
    ["peps-contract", "--rows", "2", "--cols", "0"],
    ["parafac-als", "-p", "8", "--blocking", "3,3"],
    ["mps-als", "-p", "8", "--blocking", "3,3"],
    ["mixed-als", "-p", "8", "--schedule", "4,4|3,3"],
    ["parafac-als", "-p", "6", "--blocking", "3,3", "--init", "bogus"],
    ["exact", "-p", "1"],
    ["mps-als", "-p", "1"],
    ["exact", "--model", "ising-2d", "--rows", "1", "--cols", "1"],
    ["exact", "-p", "4", "--lam", "nan"],
    ["exact", "-p", "4", "--lam", "inf"],
    ["exact", "--model", "heisenberg-xy", "-p", "4", "--jy=-inf"],
], ids=["mps-D-0", "parafac-rank-0", "parafac-sweeps-0", "mixed-sweeps-0",
        "peps-d-cut-0", "peps-rows-0", "peps-cols-0", "parafac-short-blocking",
        "mps-short-blocking", "mixed-short-schedule", "parafac-init-bogus",
        "exact-p-1", "mps-p-1", "ising-2d-one-site", "lam-nan", "lam-inf",
        "xy-jy-inf"])
def test_parameter_errors_exit_2_before_any_work(tmp_path, args):
    out = tmp_path / "x"
    assert main([*args, "--out", str(out)]) == 2
    # refused before the oracle ran and before any result was written
    assert not (out / "summary.json").exists()
    assert not (out / "oracle_cache.json").exists()


@pytest.mark.parametrize("rows,cols", [("-2", "-3"), ("-1", "-2"), ("0", "4")])
def test_ising_2d_with_a_side_below_one_exits_2(tmp_path, rows, cols):
    # (-2) x (-3) would be a 6-site model with no ZZ bond
    out = tmp_path / "x"
    assert main(["exact", "--model", "ising-2d", "--rows", rows, "--cols", cols,
                 "--out", str(out)]) == 2
    assert not (out / "oracle_cache.json").exists()


def test_config_mode_error_exits_2_before_any_work(tmp_path):
    # only a config file can set method.mode to a value --mode refuses
    cfg, out = tmp_path / "cfg.ini", tmp_path / "x"
    cfg.write_text("[method]\nblocking = 3,3\nmode = bogus\n[model]\np = 6\n")
    assert main(["parafac-als", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "oracle_cache.json").exists()


@pytest.mark.parametrize("args", [
    ["mps-als", "-p", "4", "-D", "2"],
    ["parafac-als", "-p", "6", "--blocking", "3,3"],
    ["reproduce", "--figure", "p10", "--ranks", "1", "--sweeps", "1"],
], ids=["mps-als", "parafac-als", "reproduce"])
def test_negative_seed_exits_2_before_the_oracle(tmp_path, args):
    out = tmp_path / "x"
    assert main([*args, "--seed=-1", "--out", str(out)]) == 2
    assert not (out / "oracle_cache.json").exists()


@pytest.mark.parametrize("command", [
    ["reproduce", "--figure", "p10", "--ranks", "1", "--sweeps", "1"],
    ["exact", "-p", "4"],
], ids=["reproduce", "exact"])
def test_unwritable_out_exits_4_without_a_traceback(tmp_path, capsys, command):
    # an out dir under a regular file fails the same way for a run and for
    # reproduce: a run failure, reported on one line
    blocker = tmp_path / "F"
    blocker.write_text("")
    assert main([*command, "--out", str(blocker / "x")]) == 4
    err = capsys.readouterr().err
    assert "run failed (NotADirectoryError)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_reproduce_workers_below_one_exit_code(tmp_path, workers):
    out = tmp_path / "rep"
    rc = main(["reproduce", "--figure", "p10", "--out", str(out),
               f"--workers={workers}"])
    assert rc == 2
    assert not out.exists()


def test_reproduce_greedy_cells_are_cut_from_one_run(tmp_path):
    # one greedy run per blocking at rank 3: each rank's CSV must equal a
    # run of its own, and the process pool must write the same bytes
    blockings, ranks = FIGURE_GRIDS["p10"]["blockings"], [1, 2, 3]
    outs = {}
    for workers in (1, 2):
        outs[workers] = str(tmp_path / f"w{workers}")
        reproduce_figure("p10", "both", outs[workers], sweeps=6, ranks=ranks,
                         seed=0, workers=workers)
    h = build_ising(10, 1.0, "open")
    e0, _ = ground_state_dense(h)
    for b in blockings:
        for r in ranks:
            trace, _ = greedy_als(h, Blocking.from_string(b), r, 6, 0,
                                  init="spectral")
            name = f"p10_greedy_b{b.replace(',', '-')}_D{r}.csv"
            want = _csv_rows("parafac-als-greedy", trace, e0, None)
            assert read(os.path.join(outs[1], name)).decode() == want, name
    names = sorted(os.listdir(outs[1]))
    assert sorted(os.listdir(outs[2])) == names
    assert len([n for n in names if n.endswith(".csv")]) == 24
    for name in names:
        assert read(os.path.join(outs[2], name)) == read(os.path.join(outs[1], name)), name


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


def test_model_hash_pinned():
    # oracle cache keys carry the model and the oracle's own stopping
    # tolerance only; the chain sweeps' local bounds do not enter them
    h = build_ising(8, 1.0, "open")
    assert cli._model_hash(h) == \
        "259c3f9dcfc9e50b5bd7c281684e2c7ad46846ba4aeeaabe5e49b9a1f58aed81"
    assert cli._model_hash(h, Tolerances(convergence=1e-12)) == \
        "4232d2e24bc9c90f2716f9e738126000dc65972a7b556286f1f5e2eb12a88cf6"
    assert cli._model_hash(build_heisenberg_xy(8, 1.0, 0.5, 0.7, "periodic")) == \
        "05ef54b18b5eee1b2250bf35200982a601fe9fe06ca7c569fdeb98a754a7ebcc"
