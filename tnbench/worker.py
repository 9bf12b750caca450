"""One benchmark process: set up a workload, run timed passes, check gates.

``run.py`` starts this script in a fresh interpreter, so set-up time and
peak memory belong to one workload.  Protocol on stdout: a ``READY`` line
once set-up is done (interpreter, ``import tnsolve``, models, references,
inputs and the first BLAS call), then one ``RESULT`` line of JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READY = "TNBENCH-READY"
RESULT = "TNBENCH-RESULT "
MIN_PASSES = 2
MAX_FAILURES_SHOWN = 20


def _blas_context(np) -> dict:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for scratch and span files")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tnsolve
    from tracer import SpanTracer
    from workloads import WORKLOADS, Gates

    expected = (ROOT / "src" / "tnsolve").resolve()
    if Path(tnsolve.__file__).resolve().parent != expected:
        raise SystemExit(f"imported tnsolve from {tnsolve.__file__}, not {expected}")
    workload = WORKLOADS[args.workload](args.seed, args.out)
    np.linalg.eigh(np.eye(64) + np.ones((64, 64)))  # first BLAS/LAPACK call
    print(READY, flush=True)
    if args.setup_only:
        return 0

    gates = Gates()
    walls, traced_walls, layer_runs = [], [], []
    started = time.perf_counter()

    def budget_left() -> bool:
        return time.perf_counter() - started < args.seconds

    def timed_pass() -> None:
        t0 = time.perf_counter()
        workload.run(gates)
        walls.append(time.perf_counter() - t0)

    if not args.trace:
        while len(walls) < MIN_PASSES or budget_left():
            timed_pass()
    else:
        # the first pass of a process runs slower, so it is left out of the
        # overhead ratio; untraced and traced passes then alternate
        workload.run(gates)
        tracer = SpanTracer()
        while not traced_walls or budget_left():
            timed_pass()
            tracer.install()
            try:
                with tracer.pass_span():
                    workload.run(gates)
            finally:
                tracer.uninstall()
            spans = tracer.spans()
            traced_walls.append(float(spans["t1"][0] - spans["t0"][0]))
            layer_runs.append(tracer.layer_metrics())
        tracer.save(os.path.join(args.out, f"spans-{args.workload}.npz"))

    layer = {}
    if layer_runs:
        layer = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        layer["trace_overhead_ratio"] = (statistics.median(traced_walls)
                                         / statistics.median(walls))
    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "layer": layer,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "failures": gates.failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": gates.notes,
        "context": _blas_context(np),
    }
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
