"""Experiment configuration, orchestration and result emission.

A run is described by an INI-style config file (sections [model], [method],
[run], optional [tolerances]) and/or command-line flags; flags win.  Every
run writes `trace.csv` (one row per solver update) and `summary.json` into
the output directory, atomically and deterministically: with a fixed config
and seed the bytes are identical across runs.  Timing fields are zero
unless --timing is given, since wall time is not reproducible; with it, a
trace row's elapsed_s is the time from the run's start to its update.

The final energy is the last finite trace energy.  Every solver run also
recomputes it without going dense, at any p (`recheck_energy`,
`recheck_diff`): a chain by its environments, a CP or mixed sum by the mixed
networks of its product terms.  --validate also compares it with the
Rayleigh quotient of the state made dense, under tolerances.dense_site_cap
(above that cap it records `validate_skipped` instead), and fails on either
gap above VALIDATE_BOUND or not finite.  --init takes random|spectral.

Exit codes, of a run and of `reproduce` alike (`_exit_code`): 0 success,
2 configuration error, 3 dense cap exceeded by a method that needs the
oracle (exact; never after a successful solve), 4 solver or validation
failure, or results that cannot be written.
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
    _partition,
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
        try:
            return Tolerances(**base)
        except ValueError as err:
            raise ConfigError(f"[tolerances] {err}") from None

    def to_dict(self) -> dict:
        return {
            "model": dataclasses.asdict(self.model),
            "method": dataclasses.asdict(self.method),
            "run": {name: getattr(self, name) for name in _SECTION_TYPES["run"]},
            "tolerances": dict(self.tolerances),
        }


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


def _parse_blocking(text: str, p: int) -> tuple:
    """The site groups of the blocking of comma-separated widths `text`,
    refused unless the widths sum to p."""
    try:
        return _partition(Blocking.from_string(text), p)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _solver_blocks(m: MethodSpec, p: int):
    """The site groups of the blocking of an mps-als (None if unset) or
    parafac-als run, or the list of them over a mixed-als schedule; refuses
    a rank or sweep count below 1, and a parafac-als init or mode it does
    not know, as well."""
    if m.rank < 1 or m.sweeps < 1:
        raise ConfigError(f"need rank and sweeps >= 1, got {m.rank} and {m.sweeps}")
    if m.name == "parafac-als":
        if m.init not in ("random", "spectral"):
            raise ConfigError(f"method.init must be random|spectral, got {m.init!r}")
        if m.mode not in ("greedy", "simultaneous"):
            raise ConfigError(f"method.mode must be greedy|simultaneous, got {m.mode!r}")
    if m.name == "mixed-als":
        if not m.schedule:
            raise ConfigError("mixed-als requires method.schedule")
        return [_parse_blocking(tok, p) for tok in m.schedule.split("|")]
    return _parse_blocking(m.blocking, p) if m.blocking or m.name == "parafac-als" else None


def build_model(spec: ModelSpec) -> SpinHamiltonian:
    """The configured model.  An unknown name, a missing or too small size,
    a bad boundary and a coupling that is not finite are ConfigErrors."""
    if spec.name not in ("ising", "heisenberg-xy", "ising-2d"):
        raise ConfigError(f"unknown model {spec.name!r}")
    p = spec.site_count()
    for key in ("lam", "jx", "jy"):
        if not np.isfinite(getattr(spec, key)):
            raise ConfigError(f"model.{key} must be finite, got {getattr(spec, key)!r}")
    try:
        if spec.name == "ising":
            return build_ising(p, spec.lam, spec.boundary)
        if spec.name == "heisenberg-xy":
            return build_heisenberg_xy(p, spec.jx, spec.jy, spec.lam, spec.boundary)
        return build_ising_2d(spec.rows, spec.cols, spec.lam, spec.boundary)
    except ValueError as err:
        raise ConfigError(f"model {spec.name!r}: {err}") from None


# ---------------------------------------------------------------------------
# oracle caching

def _model_hash(h: SpinHamiltonian, tols: Tolerances = DEFAULT_TOLS) -> str:
    """Cache key of an oracle energy: the model, and the convergence
    tolerance at which the Krylov solve stops."""
    key = f"{h.model_key()}|convergence={tols.convergence!r}"
    return hashlib.sha256(key.encode()).hexdigest()


def _read_cache(path: str) -> dict:
    """The cache file's entries; a missing or unreadable file, or JSON that
    is not an object, reads as an empty cache."""
    try:
        with open(path) as fh:
            cache = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    return cache if isinstance(cache, dict) else {}


def cached_oracle_energy(h: SpinHamiltonian, out_dir: str,
                         tols: Tolerances = DEFAULT_TOLS) -> float | None:
    """Ground-state energy from the dense oracle, memoized on disk keyed by
    the model and the oracle's stopping tolerance.  Returns None above the
    dense cap.  Hits read without locking; a miss merges its entry into the
    file under an exclusive lock on a sidecar file, so concurrent writers
    keep each other's entries.  An entry that is not a finite real number
    (NaN, a string, null, a bool, ...) is a miss that the new entry replaces."""
    if h.p > tols.dense_site_cap:
        return None
    path = os.path.join(out_dir, "oracle_cache.json")
    key = _model_hash(h, tols)
    entry = _read_cache(path).get(key)
    if type(entry) in (int, float) and abs(entry) <= sys.float_info.max:
        return float(entry)
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


def _csv_rows(method: str, trace, e0: float | None, started: float | None):
    """One CSV row per trace entry: finite energies only, since restart
    markers carry no energy and stay in the library trace.  elapsed_s is
    the entry's clock less `started`, or 0.0 when `started` is None."""
    rows = [CSV_HEADER]
    for t in trace:
        if not np.isfinite(t.energy):
            continue
        err = None if e0 is None else abs(t.energy - e0)
        rows.append(",".join([method, str(t.stage), str(t.sweep), str(t.mode),
                              _fmt(t.energy), _fmt(err),
                              _fmt(0.0 if started is None else t.clock - started),
                              str(t.flops)]))
    return "\n".join(rows) + "\n"


#: Each solver's state as a dense vector at p <= cap (names bound at call time)
_DENSE_FORMS = {
    "mps-als": lambda x, cap: mps.to_dense(x, cap),
    "parafac-als": lambda x, cap: parafac.to_dense(x),
    "mixed-als": lambda x, cap: mixed.sum_to_dense(x),
}

#: The largest gap --validate accepts between the final energy and the
#: state's energy recomputed, densely or by the recheck
VALIDATE_BOUND = 1e-8


def _final_energy(trace) -> float | None:
    """The last finite trace energy: restart and degenerate-stage markers
    carry NaN, and a greedy run may end on one."""
    return next((t.energy for t in reversed(trace) if np.isfinite(t.energy)), None)


def _recheck_energy(h: SpinHamiltonian, method: str, x, tols: Tolerances) -> float:
    """The Rayleigh quotient of a solver's state from its own format's
    contractions, at any p: a chain's environments, or the mixed networks
    of its product terms (a BlockedCp's columns taken as MixedTerms)."""
    if method == "mps-als":
        return mps.mps_energy(h, x, tols)
    if method == "parafac-als":
        x = mixed.MixedTermSum(h.p, [mixed.MixedTerm(x.groups, [f[:, l] for f in x.factors],
                                                     w) for l, w in enumerate(x.weights)])
    return mixed.expectation_mixed(h, x, tols) / mixed.inner_sum(x, x).real


def _check_seed(seed: int) -> None:
    """Refuse a negative seed, which the random generators reject only
    once a solver starts."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _cp_als(h: SpinHamiltonian, blocking: tuple, rank: int, sweeps: int,
            seed: int, init: str, mode: str,
            tols: Tolerances = DEFAULT_TOLS) -> tuple:
    """(trace, state) of greedy or simultaneous blocked-CP ALS."""
    if mode == "greedy":
        return parafac.greedy_als(h, blocking, rank, sweeps, seed, tols, init=init)
    return parafac.simultaneous_als(h, blocking, rank, sweeps, seed, init, tols)


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one configured experiment; returns the process exit code."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        tols = cfg.tols()
        cap = tols.dense_site_cap  # the largest p ever made dense
        started = time.perf_counter()
        method = cfg.method.name
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
        _check_seed(cfg.seed)

        extras: dict = {}
        trace, state, e0 = [], None, None

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
            rows = 1 if cfg.model.rows is None else cfg.model.rows
            cols = next(n for n in (cfg.model.cols, cfg.model.p, 1) if n is not None)
            if min(rows, cols, cfg.method.rank, cfg.method.d_cut) < 1:
                raise ConfigError("need rows, cols, rank and d_cut >= 1, got "
                                  f"{rows}, {cols}, {cfg.method.rank}, {cfg.method.d_cut}")
            x = peps.random_peps(rows, cols, cfg.method.rank, seed=cfg.seed)
            y = peps.random_peps(rows, cols, cfg.method.rank, seed=cfg.seed + 1000)
            with flops.tally() as fc:
                value = peps.inner_peps(x, y, cfg.method.d_cut, tols)
            extras["value_re"] = value.real
            extras["value_im"] = value.imag
            extras["flops"] = fc.total
            if rows * cols <= cap:
                ref = np.vdot(peps.to_dense(y, cap).vector,
                              peps.to_dense(x, cap).vector)
                extras["dense_re"] = ref.real
                extras["dense_im"] = ref.imag
                extras["abs_deviation"] = abs(value - ref)
            print(f"value = {value!r}  flops = {fc.total}")
        else:
            h = build_model(cfg.model)
            m = cfg.method
            # every parameter error surfaces before the oracle runs
            blocks = None if method == "exact" else _solver_blocks(m, h.p)
            e0 = cached_oracle_energy(h, cfg.out, tols)
            with flops.tally():
                if method == "exact":
                    if e0 is None:
                        raise DimensionCapError(
                            f"p={h.p} exceeds the dense oracle cap")
                    trace = [TraceEntry(0, 0, 0, e0, 0, clock=time.perf_counter())]
                elif method == "mps-als":
                    trace, state = mps.als_ground_state(
                        h, h.p, m.rank, cfg.model.boundary, m.sweeps, cfg.seed,
                        blocks, tols)
                elif method == "parafac-als":
                    trace, state = _cp_als(h, blocks, m.rank, m.sweeps, cfg.seed,
                                           m.init, m.mode, tols)
                elif method == "mixed-als":
                    trace, state = mixed.ground_state_mixed_greedy(
                        h, blocks, m.rank, m.sweeps, cfg.seed, tols)
        final_energy = _final_energy(trace)
        elapsed = time.perf_counter() - started if cfg.timing else 0.0

        if method in _DENSE_FORMS:
            extras["recheck_energy"] = _recheck_energy(h, method, state, tols)
            extras["recheck_diff"] = abs(extras["recheck_energy"] - final_energy)
            # the one cap decision: nothing is made dense above it
            if cfg.validate and h.p > cap:
                extras["validate_skipped"] = f"p={h.p} exceeds the dense cap {cap}"
            elif cfg.validate:
                dense = _DENSE_FORMS[method](state, cap)
                extras["validate_rayleigh"] = rayleigh(h, dense, tols)
                extras["validate_diff"] = abs(extras["validate_rayleigh"] - final_energy)
            for key in ("recheck_diff", "validate_diff"):
                # a NaN gap fails too
                if cfg.validate and not extras.get(key, 0.0) <= VALIDATE_BOUND:
                    raise RuntimeError(f"validation failed: {key} = {extras[key]!r}"
                                       f" for trace energy {final_energy!r}")

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
                      _csv_rows(method, trace, e0, started if cfg.timing else None))
        if final_energy is not None:
            gap = "" if e0 is None else f"  |E - E0| = {abs(final_energy - e0):.3e}"
            print(f"{method}: E = {final_energy!r}{gap}")
        return 0
    except Exception as err:
        return _exit_code(err)


def _exit_code(err: Exception) -> int:
    """The documented exit code of a failed run or reproduction, with the
    error on stderr: 2 configuration error, 3 dense cap exceeded, 4 any
    other failure (solver, validation, or writing the results)."""
    if isinstance(err, ConfigError):
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if isinstance(err, DimensionCapError):
        print(f"cap exceeded: {err}", file=sys.stderr)
        return 3
    print(f"run failed ({type(err).__name__}): {err}", file=sys.stderr)
    return 4


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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


def _run_job(args):
    """One solver run on one blocking, cut per rank: cell r keeps the stages
    <= r, which are a greedy rank-r run; simultaneous entries are stage 0."""
    figure, h, e0, mode, blocking, ranks, sweeps, out_dir, seed = args
    trace, _ = _cp_als(h, Blocking.from_string(blocking), max(ranks), sweeps,
                       seed, "spectral", mode)
    cells = []
    for rank in ranks:
        cut = [t for t in trace if t.stage <= rank]
        tag = f"{figure}_{mode}_b{blocking.replace(',', '-')}_D{rank}"
        _atomic_write(os.path.join(out_dir, tag + ".csv"),
                      _csv_rows(f"parafac-als-{mode}", cut, e0, None))
        final = _final_energy(cut)
        cells.append({
            "figure": figure, "mode": mode, "blocking": blocking, "rank": rank,
            "file": tag + ".csv", "final_energy": final,
            "oracle_energy": e0, "abs_error": abs(final - e0),
        })
    return cells


def reproduce_figure(figure: str, mode: str, out_dir: str, sweeps: int = 50,
                     ranks=None, seed: int = 0, workers: int = 1) -> dict:
    """Run the blocking x rank grid of one numerical experiment and emit one
    CSV per curve plus a manifest.  The blockings are the figure's four in
    FIGURE_GRIDS; `ranks` replaces its ranks 1-4 when given (a repeated rank
    is refused).  The reported numbers are this package's own runs; the
    manifest records the simultaneous-vs-greedy comparison and flags
    (without failing) any cell where greedy wins."""
    if figure not in FIGURE_GRIDS:
        raise ConfigError(f"unknown figure {figure!r} (use p10|p12)")
    if mode not in ("greedy", "simultaneous", "both"):
        raise ConfigError("mode must be greedy|simultaneous|both")
    grid = FIGURE_GRIDS[figure]
    use_ranks = list(ranks) if ranks else grid["ranks"]
    blockings = grid["blockings"]
    if min(use_ranks) < 1 or sweeps < 1 or workers < 1:
        raise ConfigError("need ranks, sweeps and workers >= 1, got "
                          f"{use_ranks}, {sweeps}, {workers}")
    _check_seed(seed)
    if len(set(use_ranks)) < len(use_ranks):
        raise ConfigError(f"ranks must not repeat, got {use_ranks}")
    os.makedirs(out_dir, exist_ok=True)
    modes = ["greedy", "simultaneous"] if mode == "both" else [mode]
    h = build_ising(grid["p"], 1.0, "open")
    e0 = cached_oracle_energy(h, out_dir)
    cuts = {"greedy": [use_ranks], "simultaneous": [[r] for r in use_ranks]}
    jobs = [(figure, h, e0, m, b, rs, sweeps, out_dir, seed)
            for b in blockings for m in modes for rs in cuts[m]]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_job, jobs))
    else:
        done = [_run_job(job) for job in jobs]
    made = {(c["mode"], c["blocking"], c["rank"]): c for cells in done for c in cells}
    cells = [made[m, b, r] for b in blockings for r in use_ranks for m in modes]

    errors = {key: c["abs_error"] for key, c in made.items()}
    comparisons = []
    if mode == "both":
        for b in blockings:
            for r in use_ranks:
                ge, se = errors["greedy", b, r], errors["simultaneous", b, r]
                comparisons.append({
                    "blocking": b, "rank": r,
                    "greedy_error": ge, "simultaneous_error": se,
                    "simultaneous_not_worse": se <= ge + 1e-12,
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

def _parser() -> argparse.ArgumentParser:
    """The command line.  Every method flag's dest names the config field it
    sets, as "section.field"; _apply_overrides reads the mapping from there."""
    parser = argparse.ArgumentParser(
        prog="tnsolve",
        description="Ground states of spin Hamiltonians in structured tensor "
                    "formats, with dense oracles and instrumented contractions.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in METHODS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="INI config file; flags override it")
        sub.add_argument("--model", dest="model.name")
        sub.add_argument("-p", type=int, dest="model.p")
        sub.add_argument("--rows", type=int, dest="model.rows")
        sub.add_argument("--cols", type=int, dest="model.cols")
        sub.add_argument("--lam", type=float, dest="model.lam")
        sub.add_argument("--jx", type=float, dest="model.jx")
        sub.add_argument("--jy", type=float, dest="model.jy")
        sub.add_argument("--boundary", choices=["open", "periodic"],
                         dest="model.boundary")
        sub.add_argument("--seed", type=int, dest="run.seed")
        sub.add_argument("--out", dest="run.out")
        sub.add_argument("--validate", action="store_true", default=None,
                         dest="run.validate")
        sub.add_argument("--timing", action="store_true", default=None,
                         dest="run.timing")
        if name in ("mps-als", "parafac-als", "mixed-als", "peps-contract"):
            sub.add_argument("--rank", "-D", type=int, dest="method.rank")
            sub.add_argument("--sweeps", type=int, dest="method.sweeps")
        if name in ("mps-als", "parafac-als"):
            sub.add_argument("--blocking", dest="method.blocking")
        if name == "parafac-als":
            sub.add_argument("--mode", choices=["greedy", "simultaneous"],
                             dest="method.mode")
            sub.add_argument("--init", dest="method.init")
        if name == "mixed-als":
            sub.add_argument("--schedule", dest="method.schedule")
        if name == "peps-contract":
            sub.add_argument("--d-cut", type=int, dest="method.d_cut")

    rep = subs.add_parser("reproduce")
    rep.add_argument("--figure", required=True, choices=["p10", "p12"])
    rep.add_argument("--mode", default="both",
                     choices=["greedy", "simultaneous", "both"])
    rep.add_argument("--out", required=True)
    rep.add_argument("--sweeps", type=int, default=50)
    rep.add_argument("--ranks", help="comma-separated rank list")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--workers", type=int, default=1)
    return parser


def _apply_overrides(cfg: ExperimentConfig, ns: argparse.Namespace) -> None:
    """Copy every flag given on the command line into the config field that
    its dest names."""
    targets = {"model": cfg.model, "method": cfg.method, "run": cfg}
    for dest, value in vars(ns).items():
        section, _, key = dest.rpartition(".")
        if section and value is not None:
            setattr(targets[section], key, value)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
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
    except Exception as err:
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())
