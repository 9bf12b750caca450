"""tnsolve benchmark: time to verified energies, set-up time and peak memory.

    python3 tnbench/run.py --workload chain-als --seed 0 --seconds 12 --trace 0

Run from anywhere inside a checkout; it imports tnsolve from the checkout's
``src``.  Each run starts fresh worker processes (see worker.py): several
that only set up, for the set-up time, and one that runs whole workload
passes for ``--seconds`` (at least two).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics; with ``--trace 1`` an untraced pass is
followed by traced ones and the per-layer metrics are reported instead.
Every result, with the run's context, is also written to ``.tnbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain-als", "dense-oracle", "blocked-grid", "kernels")
SETUP_PROBES = 4
BLAS_THREADS = 2
RUN_LIMIT_S = 170.0


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "tnsolve").rglob("*.py")))


class WorkerError(RuntimeError):
    pass


def _spawn(args: list, env: dict, deadline: float) -> tuple:
    """Run worker.py; returns (seconds until its READY line, its parsed
    RESULT line or None).  The worker is killed if it outlives the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith(worker.READY) and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith(worker.RESULT):
                result = json.loads(line[len(worker.RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "tnsolve" / "__init__.py").is_file():
        print(f"tnbench: no tnsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".tnbench_runs"
    out.mkdir(exist_ok=True)
    threads = min(BLAS_THREADS, _nproc())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    deadline = started + RUN_LIMIT_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(common + ["--setup-only"], env, deadline)[0])
        ready, res = _spawn(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], env, deadline)
        if res is None:
            raise WorkerError("worker printed no result")
    except WorkerError as err:
        print(f"tnbench: {err}", file=sys.stderr)
        return 1
    setups.append(ready)

    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "git_sha": _git_sha(ROOT), "nproc": _nproc(), "blas_threads": threads,
               "src_lines": _src_lines(ROOT), **res["context"]}
    if args.trace:
        metrics = {name: {"value": res["layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        samples = {name: len(res["traced_walls"]) for name in metrics}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"wall_s": len(res["walls"]), "setup_s": len(setups), "peak_rss_mb": 1}

    print(f"tnbench {json.dumps(context, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']:6s} n={samples[name]}")
    print(f"  {'fail_ratio':28s} {res['failed'] / res['attempted']:>16.6g} ratio  "
          f"n={res['attempted']} gates, {res['failed']} failed")
    for note, value in res["notes"].items():
        print(f"  note {note}: {value}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")

    record = {"context": context, "metrics": metrics, "samples": samples,
              "walls": res["walls"], "traced_walls": res["traced_walls"],
              "setups": setups, "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "notes": res["notes"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
