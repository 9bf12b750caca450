"""Experiment configuration, orchestration and result emission.

A run is described by an INI-style config file (sections [model], [method],
[run], optional [tolerances]) and/or command-line flags; flags win.  Every
run writes `trace.csv` (one row per solver update) and `summary.json` into
the output directory, atomically and deterministically: with a fixed config
and seed the bytes are identical across runs.  Timing fields are zero
unless --timing is given, since wall time is not reproducible.

Exit codes: 0 success, 2 configuration error, 3 dense cap exceeded,
4 solver or validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import fcntl
import hashlib
import json
import os
import sys
import tempfile
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import checks, flops, mixed, mps, parafac, peps
from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import (
    Blocking,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
)
from .oracle import ground_state_dense, rayleigh
from .records import TraceEntry
from .tensor import DimensionCapError

METHODS = ("exact", "mps-als", "parafac-als", "mixed-als", "peps-contract",
           "contract-check")

CSV_HEADER = "method,stage,sweep,site,energy,abs_error,elapsed_s,flops"

# os.umask can only be read by setting it; do that once, before any thread
# writes, so result files keep the permissions a plain open() would give
_UMASK = os.umask(0)
os.umask(_UMASK)


class ConfigError(ValueError):
    pass


@dataclass
class ModelSpec:
    name: str = "ising"
    p: int | None = None
    rows: int | None = None
    cols: int | None = None
    lam: float = 1.0
    jx: float = 1.0
    jy: float = 1.0
    boundary: str = "open"

    def site_count(self) -> int:
        if self.name == "ising-2d":
            if self.rows is None or self.cols is None:
                raise ConfigError("model.rows and model.cols required for ising-2d")
            return self.rows * self.cols
        if self.p is None:
            raise ConfigError("model.p required")
        return self.p


@dataclass
class MethodSpec:
    name: str = "exact"
    rank: int = 1
    blocking: str = ""
    schedule: str = ""
    sweeps: int = 50
    init: str = "random"
    d_cut: int = 1
    mode: str = "simultaneous"


@dataclass
class ExperimentConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    method: MethodSpec = field(default_factory=MethodSpec)
    seed: int = 0
    out: str = "runs/out"
    validate: bool = False
    timing: bool = False
    tolerances: dict = field(default_factory=dict)

    def tols(self) -> Tolerances:
        if not self.tolerances:
            return DEFAULT_TOLS
        types = _SECTION_TYPES["tolerances"]
        base = dataclasses.asdict(DEFAULT_TOLS)
        for key, value in self.tolerances.items():
            if key not in types:
                raise ConfigError(f"unknown tolerance field {key!r}")
            # through the text, as from a file, so 12.5 is refused for an int
            base[key] = _coerce("tolerances", key, str(value), types[key])
        return Tolerances(**base)

    def to_dict(self) -> dict:
        return {
            "model": dataclasses.asdict(self.model),
            "method": dataclasses.asdict(self.method),
            "run": {
                "seed": self.seed,
                "out": self.out,
                "validate": self.validate,
                "timing": self.timing,
            },
            "tolerances": dict(self.tolerances),
        }

    def to_file(self, path: str) -> None:
        cp = configparser.ConfigParser()
        d = self.to_dict()
        for section in ("model", "method", "run"):
            cp[section] = {}
            for key, value in d[section].items():
                if value is None:
                    continue
                cp[section][key] = str(value)
        if d["tolerances"]:
            cp["tolerances"] = {k: str(v) for k, v in d["tolerances"].items()}
        with open(path, "w") as fh:
            cp.write(fh)


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        if target_type is str:
            return raw.strip()
        if target_type is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return target_type(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from None


def _field_types(cls) -> dict:
    """Field name -> type of a dataclass, reading `X | None` as X."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        types[name] = args[0] if args else hint
    return types


#: The type each config-file key is coerced to, by section; [run] holds the
#: scalar fields of ExperimentConfig.
_SECTION_TYPES = {
    "model": _field_types(ModelSpec),
    "method": _field_types(MethodSpec),
    "run": {name: t for name, t in _field_types(ExperimentConfig).items()
            if t in (bool, int, float, str)},
    "tolerances": _field_types(Tolerances),
}


def config_from_file(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    targets = {"model": cfg.model, "method": cfg.method, "run": cfg}
    for section in cp.sections():
        types = _SECTION_TYPES.get(section)
        if types is None:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp[section].items():
            key = key.replace("-", "_")
            if key not in types:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            value = _coerce(section, key, raw, types[key])
            if section == "tolerances":
                cfg.tolerances[key] = value
            else:
                setattr(targets[section], key, value)
    return cfg


def _parse_blocking(text: str) -> Blocking:
    try:
        return Blocking.from_string(text)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def build_model(spec: ModelSpec) -> SpinHamiltonian:
    if spec.name == "ising":
        return build_ising(spec.site_count(), spec.lam, spec.boundary)
    if spec.name == "heisenberg-xy":
        return build_heisenberg_xy(spec.site_count(), spec.jx, spec.jy,
                                   spec.lam, spec.boundary)
    if spec.name == "ising-2d":
        spec.site_count()
        return build_ising_2d(spec.rows, spec.cols, spec.lam, spec.boundary)
    raise ConfigError(f"unknown model {spec.name!r}")


# ---------------------------------------------------------------------------
# oracle caching

def _model_hash(h: SpinHamiltonian) -> str:
    return hashlib.sha256(h.model_key().encode()).hexdigest()


def _read_cache(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def cached_oracle_energy(h: SpinHamiltonian, out_dir: str,
                         tols: Tolerances = DEFAULT_TOLS) -> float | None:
    """Ground-state energy from the dense oracle, memoized on disk keyed by
    the model hash.  Returns None above the dense cap.  Hits read without
    locking; a miss merges its entry into the file under an exclusive lock
    on a sidecar file, so concurrent writers keep each other's entries."""
    if h.p > tols.dense_site_cap:
        return None
    path = os.path.join(out_dir, "oracle_cache.json")
    key = _model_hash(h)
    cache = _read_cache(path)
    if key in cache:
        return float(cache[key])
    e0, _ = ground_state_dense(h, tols)
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        cache = _read_cache(path)
        cache[key] = e0
        _atomic_write(path, json.dumps(cache, sort_keys=True, indent=1))
    return e0


def _atomic_write(path: str, text: str) -> None:
    """Replace `path` by a file holding `text`.  Each call writes its own
    temporary file in the target directory, so concurrent writers never
    share one and readers see either the old or a complete new file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# running

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _csv_rows(method: str, trace, e0: float | None, elapsed: float | None):
    """One CSV row per trace entry: finite energies only, since restart
    markers carry no energy and stay in the library trace."""
    rows = [CSV_HEADER]
    for t in trace:
        if not np.isfinite(t.energy):
            continue
        err = None if e0 is None else abs(t.energy - e0)
        rows.append(",".join([method, str(t.stage), str(t.sweep), str(t.mode),
                              _fmt(t.energy), _fmt(err), _fmt(elapsed or 0.0),
                              str(t.flops)]))
    return "\n".join(rows) + "\n"


def _densify(method: str, state):
    if method == "mps-als":
        return mps.to_dense(state)
    if method == "parafac-als":
        return parafac.to_dense(state)
    if method == "mixed-als":
        return mixed.sum_to_dense(state)
    return None


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one configured experiment; returns the process exit code."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        tols = cfg.tols()
        started = time.perf_counter()
        method = cfg.method.name
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")

        extras: dict = {}
        trace = []
        final_energy = None
        e0 = None
        state = None

        if method == "contract-check":
            reports = checks.run_all(instances=50, seed=cfg.seed)
            extras["checks"] = reports
            for rep in reports:
                line = f"{rep['check']}: "
                if "max_abs_err" in rep:
                    line += f"max_err={rep['max_abs_err']:.3e}"
                    if rep.get("cost_bound") is not None:
                        line += (f", cost={rep['cost_measured']:.0f}"
                                 f" vs bound={rep['cost_bound']:.0f}"
                                 f" (within 4x: {rep['within_4x_bound']})")
                else:
                    line += f"slope={rep['slope']:.2f} counts={rep['counts']}"
                print(line)
        elif method == "peps-contract":
            rows = cfg.model.rows or 1
            cols = cfg.model.cols or cfg.model.p or 1
            x = peps.random_peps(rows, cols, cfg.method.rank, seed=cfg.seed)
            y = peps.random_peps(rows, cols, cfg.method.rank, seed=cfg.seed + 1000)
            with flops.tally() as fc:
                value = peps.inner_peps(x, y, cfg.method.d_cut, tols)
            extras["value_re"] = value.real
            extras["value_im"] = value.imag
            extras["flops"] = fc.total
            if rows * cols <= peps.PEPS_DENSE_CAP:
                ref = np.vdot(peps.to_dense(y).vector, peps.to_dense(x).vector)
                extras["dense_re"] = ref.real
                extras["dense_im"] = ref.imag
                extras["abs_deviation"] = abs(value - ref)
            print(f"value = {value!r}  flops = {fc.total}")
        else:
            h = build_model(cfg.model)
            e0 = cached_oracle_energy(h, cfg.out, tols)
            with flops.tally():
                if method == "exact":
                    if e0 is None:
                        raise DimensionCapError(
                            f"p={h.p} exceeds the dense oracle cap")
                    final_energy = e0
                    trace = [TraceEntry(0, 0, 0, final_energy, 0)]
                elif method == "mps-als":
                    blocking = (_parse_blocking(cfg.method.blocking)
                                if cfg.method.blocking else None)
                    trace, state = mps.als_ground_state(
                        h, h.p, cfg.method.rank, cfg.model.boundary,
                        cfg.method.sweeps, cfg.seed, blocking, tols)
                    final_energy = trace[-1].energy
                elif method == "parafac-als":
                    blocking = _parse_blocking(cfg.method.blocking)
                    init, init_seed = _parse_init(cfg)
                    if cfg.method.mode == "greedy":
                        trace, state = parafac.greedy_als(
                            h, blocking, cfg.method.rank, cfg.method.sweeps,
                            init_seed, tols, init=init)
                    elif cfg.method.mode == "simultaneous":
                        trace, state = parafac.simultaneous_als(
                            h, blocking, cfg.method.rank, cfg.method.sweeps,
                            init_seed, init, tols)
                    else:
                        raise ConfigError(
                            f"method.mode must be greedy|simultaneous,"
                            f" got {cfg.method.mode!r}")
                    final_energy = trace[-1].energy
                elif method == "mixed-als":
                    if not cfg.method.schedule:
                        raise ConfigError("mixed-als requires method.schedule")
                    schedule = [_parse_blocking(tok)
                                for tok in cfg.method.schedule.split("|")]
                    trace, state = mixed.ground_state_mixed_greedy(
                        h, schedule, cfg.method.rank, cfg.method.sweeps,
                        cfg.seed, tols)
                    final_energy = trace[-1].energy

        elapsed = time.perf_counter() - started if cfg.timing else 0.0

        if cfg.validate and state is not None and final_energy is not None:
            dense = _densify(method, state)
            if dense is not None and dense.p <= tols.dense_site_cap:
                check = rayleigh(build_model(cfg.model), dense, tols)
                extras["validate_rayleigh"] = check
                extras["validate_diff"] = abs(check - final_energy)
                if extras["validate_diff"] > 1e-8:
                    raise RuntimeError(
                        f"validation failed: trace energy {final_energy!r}"
                        f" vs rayleigh {check!r}")

        summary = {
            "schema": "tnsolve-summary-v1",
            "method": method,
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "final_energy": final_energy,
            "oracle_energy": e0,
            "abs_error": (abs(final_energy - e0)
                          if final_energy is not None and e0 is not None else None),
            "wall_time_s": elapsed,
        }
        summary.update(extras)
        _atomic_write(os.path.join(cfg.out, "summary.json"),
                      json.dumps(summary, sort_keys=True, indent=1,
                                 default=_jsonable) + "\n")
        _atomic_write(os.path.join(cfg.out, "trace.csv"),
                      _csv_rows(method, trace, e0,
                                elapsed if cfg.timing else None))
        if final_energy is not None:
            gap = "" if e0 is None else f"  |E - E0| = {abs(final_energy - e0):.3e}"
            print(f"{method}: E = {final_energy!r}{gap}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DimensionCapError as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # solver and validation failures
        print(f"run failed ({type(err).__name__}): {err}", file=sys.stderr)
        return 4


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _parse_init(cfg: ExperimentConfig) -> tuple:
    """(kind, seed) from method.init: 'random', 'spectral' or 'random:<int>'
    (a random start with its own seed)."""
    init = cfg.method.init
    if init in ("random", "spectral"):
        return init, cfg.seed
    if init.startswith("random:"):
        try:
            return "random", int(init[len("random:"):])
        except ValueError:
            pass
    raise ConfigError(
        f"method.init must be random|spectral|random:<int>, got {init!r}")


# ---------------------------------------------------------------------------
# figure reproduction grids

FIGURE_GRIDS = {
    "p10": {
        "p": 10,
        "blockings": ["5,5", "2,3,5", "2,2,3,3", "1,1,1,1,1,1,1,1,1,1"],
        "ranks": [1, 2, 3, 4],
    },
    "p12": {
        "p": 12,
        "blockings": ["6,6", "4,4,4", "3,3,3,3", "2,2,2,2,2,2"],
        "ranks": [1, 2, 3, 4],
    },
}


def _run_cell(args):
    figure, blocking, rank, mode, sweeps, out_dir, seed = args
    grid = FIGURE_GRIDS[figure]
    h = build_ising(grid["p"], 1.0, "open")
    tag = f"{figure}_{mode}_b{blocking.replace(',', '-')}_D{rank}"
    if mode == "greedy":
        trace, state = parafac.greedy_als(h, Blocking.from_string(blocking),
                                          rank, sweeps, seed, init="spectral")
    else:
        trace, state = parafac.simultaneous_als(
            h, Blocking.from_string(blocking), rank, sweeps, seed, "spectral")
    e0 = cached_oracle_energy(h, out_dir)
    _atomic_write(os.path.join(out_dir, tag + ".csv"),
                  _csv_rows(f"parafac-als-{mode}", trace, e0, None))
    final = trace[-1].energy
    return {
        "figure": figure, "mode": mode, "blocking": blocking, "rank": rank,
        "file": tag + ".csv", "final_energy": final,
        "oracle_energy": e0, "abs_error": abs(final - e0),
    }


def reproduce_figure(figure: str, mode: str, out_dir: str, sweeps: int = 50,
                     ranks=None, blockings=None, seed: int = 0,
                     workers: int = 1) -> dict:
    """Run the blocking x rank grid of one numerical experiment and emit one
    CSV per curve plus a manifest.  The reported numbers are this package's
    own runs; the manifest records the simultaneous-vs-greedy comparison and
    flags (without failing) any cell where greedy wins."""
    if figure not in FIGURE_GRIDS:
        raise ConfigError(f"unknown figure {figure!r} (use p10|p12)")
    if mode not in ("greedy", "simultaneous", "both"):
        raise ConfigError("mode must be greedy|simultaneous|both")
    os.makedirs(out_dir, exist_ok=True)
    grid = FIGURE_GRIDS[figure]
    use_ranks = list(ranks) if ranks else grid["ranks"]
    use_blockings = list(blockings) if blockings else grid["blockings"]
    modes = ["greedy", "simultaneous"] if mode == "both" else [mode]
    # oracle first so parallel cells hit a warm cache
    cached_oracle_energy(build_ising(grid["p"], 1.0, "open"), out_dir)
    jobs = [(figure, b, r, m, sweeps, out_dir, seed)
            for b in use_blockings for r in use_ranks for m in modes]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    else:
        cells = [_run_cell(job) for job in jobs]

    comparisons = []
    if mode == "both":
        for b in use_blockings:
            for r in use_ranks:
                ge = next(c for c in cells
                          if c["mode"] == "greedy" and c["blocking"] == b
                          and c["rank"] == r)
                se = next(c for c in cells
                          if c["mode"] == "simultaneous" and c["blocking"] == b
                          and c["rank"] == r)
                comparisons.append({
                    "blocking": b, "rank": r,
                    "greedy_error": ge["abs_error"],
                    "simultaneous_error": se["abs_error"],
                    "simultaneous_not_worse":
                        se["abs_error"] <= ge["abs_error"] + 1e-12,
                })
    manifest = {
        "schema": "tnsolve-reproduction-v1",
        "figure": figure,
        "note": "energies are this package's own runs on the stated grids",
        "sweeps": sweeps,
        "seed": seed,
        "cells": cells,
        "comparisons": comparisons,
        "flagged": [c for c in comparisons if not c["simultaneous_not_worse"]],
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=1,
                             default=_jsonable) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub):
    sub.add_argument("--config", help="INI config file; flags override it")
    sub.add_argument("--model", dest="model_name")
    sub.add_argument("-p", type=int, dest="p")
    sub.add_argument("--rows", type=int)
    sub.add_argument("--cols", type=int)
    sub.add_argument("--lam", type=float)
    sub.add_argument("--jx", type=float)
    sub.add_argument("--jy", type=float)
    sub.add_argument("--boundary", choices=["open", "periodic"])
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")
    sub.add_argument("--validate", action="store_true", default=None)
    sub.add_argument("--timing", action="store_true", default=None)


def _apply_overrides(cfg: ExperimentConfig, ns: argparse.Namespace) -> None:
    pairs = [("model_name", ("model", "name")), ("p", ("model", "p")),
             ("rows", ("model", "rows")), ("cols", ("model", "cols")),
             ("lam", ("model", "lam")), ("jx", ("model", "jx")),
             ("jy", ("model", "jy")), ("boundary", ("model", "boundary")),
             ("rank", ("method", "rank")), ("blocking", ("method", "blocking")),
             ("schedule", ("method", "schedule")), ("sweeps", ("method", "sweeps")),
             ("init", ("method", "init")), ("d_cut", ("method", "d_cut")),
             ("mode", ("method", "mode")),
             ("seed", ("", "seed")), ("out", ("", "out")),
             ("validate", ("", "validate")), ("timing", ("", "timing"))]
    for attr, (section, key) in pairs:
        if not hasattr(ns, attr):
            continue
        value = getattr(ns, attr)
        if value is None:
            continue
        target = cfg if section == "" else getattr(cfg, section)
        setattr(target, key, value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tnsolve",
        description="Ground states of spin Hamiltonians in structured tensor "
                    "formats, with dense oracles and instrumented contractions.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in METHODS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name in ("mps-als", "parafac-als", "mixed-als", "peps-contract"):
            sub.add_argument("--rank", "-D", type=int, dest="rank")
            sub.add_argument("--sweeps", type=int)
        if name in ("mps-als", "parafac-als"):
            sub.add_argument("--blocking")
        if name == "parafac-als":
            sub.add_argument("--mode", choices=["greedy", "simultaneous"])
            sub.add_argument("--init")
        if name == "mixed-als":
            sub.add_argument("--schedule")
        if name == "peps-contract":
            sub.add_argument("--d-cut", type=int, dest="d_cut")

    rep = subs.add_parser("reproduce")
    rep.add_argument("--figure", required=True, choices=["p10", "p12"])
    rep.add_argument("--mode", default="both",
                     choices=["greedy", "simultaneous", "both"])
    rep.add_argument("--out", required=True)
    rep.add_argument("--sweeps", type=int, default=50)
    rep.add_argument("--ranks", help="comma-separated rank list")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--workers", type=int, default=1)

    ns = parser.parse_args(argv)
    try:
        if ns.command == "reproduce":
            try:
                ranks = ([int(tok) for tok in ns.ranks.split(",")]
                         if ns.ranks else None)
            except ValueError:
                raise ConfigError(
                    f"--ranks must be comma-separated integers, got {ns.ranks!r}"
                ) from None
            reproduce_figure(ns.figure, ns.mode, ns.out, ns.sweeps, ranks,
                             seed=ns.seed, workers=ns.workers)
            return 0
        cfg = config_from_file(ns.config) if ns.config else ExperimentConfig()
        cfg.method.name = ns.command
        _apply_overrides(cfg, ns)
        return run(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
