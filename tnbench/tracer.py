"""Span tracer for the traced benchmark runs.

Every tnsolve module is one layer.  ``SpanTracer.install`` replaces each
public function of a layer module (and a few public methods other layers
call) by a span recorder, and rebinds every module attribute that held the
original, so names other modules imported (``mps.hermitian_eig``,
``oracle.materialize_dense``, ...) are traced too.  A span records its name,
start, end, parent and the flop counter's total at entry and exit.  Spans
live in flat arrays until the pass ends.

Self time of a span is its duration minus that of its direct children, so
the self times of one pass sum to the pass's own (root span) duration.
Self ops are computed the same way, except that a child's ops are only
subtracted when the child counted on its parent's counter: ``cli.run`` opens
its own ``flops.tally()``, which replaces the outer counter instead of
nesting in it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("hamiltonian", "tensor", "oracle", "mps", "parafac", "mixed", "peps",
          "checks", "cli")

#: Public methods that other layers call on a layer's classes.  Module-level
#: public functions are found by inspection.
METHODS = {
    "hamiltonian": {"BlockedHamiltonian": ("is_identity_block", "block_matrix",
                                           "apply_block")},
}

ROOT = "bench.pass"
PACKAGE = "tnsolve"

#: Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    ("hamiltonian.calls", "count", "lower"),
    ("hamiltonian.self_s", "s", "lower"),
    ("hamiltonian.ops", "count", "lower"),
    ("hamiltonian.apply_bytes", "bytes", "lower"),
    ("tensor.calls", "count", "lower"),
    ("tensor.self_s", "s", "lower"),
    ("tensor.eig_work", "count", "lower"),
    ("tensor.eig_dim_max", "count", "lower"),
    ("tensor.svd_work", "count", "lower"),
    ("tensor.fallback_ratio", "ratio", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.dim_max", "count", "lower"),
    ("mps.calls", "count", "lower"),
    ("mps.self_s", "s", "lower"),
    ("mps.ops", "count", "lower"),
    ("mps.updates", "count", "lower"),
    ("mps.sweeps", "count", "lower"),
    ("parafac.calls", "count", "lower"),
    ("parafac.self_s", "s", "lower"),
    ("parafac.ops", "count", "lower"),
    ("parafac.updates", "count", "lower"),
    ("parafac.restart_ratio", "ratio", "lower"),
    ("mixed.calls", "count", "lower"),
    ("mixed.self_s", "s", "lower"),
    ("mixed.ops", "count", "lower"),
    ("mixed.restart_ratio", "ratio", "lower"),
    ("peps.calls", "count", "lower"),
    ("peps.self_s", "s", "lower"),
    ("peps.ops", "count", "lower"),
    ("peps.max_step_ops", "count", "lower"),
    ("checks.calls", "count", "lower"),
    ("checks.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.oracle_cache_hit_ratio", "ratio", "higher"),
    ("bench.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _raise_max(extra, key, value):
    extra[key] = max(extra.get(key, 0), value)


# Hooks add per-call quantities that span timing cannot see.  Each gets the
# pass's `extra` counters, the call's arguments and its result.

def _hermitian_eig(extra, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "m"))[0]
    extra["tensor.eig_work"] += n**3
    _raise_max(extra, "tensor.eig_dim_max", n)


def _generalized_eig_min(extra, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    extra["tensor.eig_work"] += n**3  # eigvalsh of the denominator
    _raise_max(extra, "tensor.eig_dim_max", n)
    extra["tensor.generalized_calls"] += 1


def _generalized_eig_min_projected(extra, args, kwargs, result):
    extra["tensor.projected_calls"] += 1


def _svd(extra, args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 0, "m"))[:2]
    extra["tensor.svd_work"] += m * n * min(m, n)


def _oracle_dim(extra, args, kwargs, result):
    _raise_max(extra, "oracle.dim_max", 2 ** _arg(args, kwargs, 0, "h").p)


def _apply(extra, args, kwargs, result):
    # per term: read and write the state once per non-identity factor, then
    # read two states and write one to accumulate
    h, x = _arg(args, kwargs, 0, "h"), _arg(args, kwargs, 1, "x")
    passes = sum(2 * len(t.support()) + 3 for t in h.terms)
    extra["hamiltonian.apply_bytes"] += passes * x.vector.nbytes


def _apply_block(extra, args, kwargs, result):
    # read and write the block vectors once per non-identity factor
    blocked, k, i = args[0], _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "i")
    factors = blocked.hamiltonian.terms[k].factors
    nonid = sum(not factors[j].is_identity for j in blocked.blocking.block_sites(i))
    extra["hamiltonian.apply_bytes"] += 2 * nonid * np.asarray(result).nbytes


def _solver_trace(layer):
    def hook(extra, args, kwargs, result):
        trace = result[0]
        extra[f"{layer}.entries"] += len(trace)
        extra[f"{layer}.updates"] += sum(1 for t in trace if np.isfinite(t.energy))
        extra[f"{layer}.markers"] += sum(1 for t in trace if t.note)
        if layer == "mps" and trace:
            extra["mps.sweeps"] += trace[-1].sweep + 1
    return hook


def _reproduce_figure(extra, args, kwargs, result):
    out_dir = _arg(args, kwargs, 2, "out_dir")
    with os.scandir(out_dir) as entries:
        extra["cli.bytes_written"] += sum(e.stat().st_size for e in entries
                                          if e.is_file())


HOOKS = {
    "tensor.hermitian_eig": _hermitian_eig,
    "tensor.generalized_eig_min": _generalized_eig_min,
    "tensor.generalized_eig_min_projected": _generalized_eig_min_projected,
    "tensor.svd": _svd,
    "oracle.ground_state_dense": _oracle_dim,
    "oracle.rayleigh": _oracle_dim,
    "hamiltonian.apply": _apply,
    "hamiltonian.BlockedHamiltonian.apply_block": _apply_block,
    "mps.als_ground_state": _solver_trace("mps"),
    "parafac.greedy_als": _solver_trace("parafac"),
    "parafac.simultaneous_als": _solver_trace("parafac"),
    "mixed.ground_state_mixed_greedy": _solver_trace("mixed"),
    "cli.reproduce_figure": _reproduce_figure,
}


def _ratio(num, den):
    return num / den if den else 0.0


class SpanTracer:
    """Records spans at every layer boundary of the tnsolve package."""

    def __init__(self):
        self._names: list = []
        self._layer_of: list = []
        self._ids: dict = {}
        self._restore: list = []
        self._root = self._name_id(ROOT, "bench")
        self._ints = array("q")
        self._floats = array("d")
        self._stack = [-1]
        self._counters: list = []
        self._counter_stack = [-1]
        self.extra = defaultdict(int)

    # -- span storage -----------------------------------------------------
    # Span i occupies _ints[7i:7i+7] = (name, parent, counter, ops at entry,
    # steps at entry, ops at exit, steps at exit) and _floats[2i:2i+2] =
    # (start, end).  Flat arrays keep a million spans in tens of MB.

    def reset(self) -> None:
        """Drop the recorded spans.  Everything is cleared in place because
        the installed wrappers hold bound references to it."""
        del self._ints[:]
        del self._floats[:]
        del self._stack[1:]
        del self._counters[:]
        del self._counter_stack[1:]
        self.extra.clear()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self._layer_of.append(layer)
        return self._ids[name]

    def _recorder(self, name_id: int):
        """(open, close) for spans named name_id, with every lookup bound."""
        ints, floats, stack = self._ints, self._floats, self._stack
        counters, counter_stack = self._counters, self._counter_stack
        ints_extend, floats_extend = ints.extend, floats.extend
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def open_span() -> int:
            idx = len(floats) >> 1
            c = counter_stack[-1]
            if c >= 0:
                counter = counters[c]
                ints_extend((name_id, stack[-1], c, counter.total, len(counter.steps), 0, 0))
            else:
                ints_extend((name_id, stack[-1], c, 0, 0, 0, 0))
            push(idx)
            floats_extend((clock(), 0.0))
            return idx

        def close_span(idx: int) -> None:
            floats[2 * idx + 1] = clock()
            c = ints[7 * idx + 2]
            if c >= 0:
                counter = counters[c]
                ints[7 * idx + 5] = counter.total
                ints[7 * idx + 6] = len(counter.steps)
            pop()

        return open_span, close_span

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        open_span, close_span = self._recorder(self._name_id(name, layer))
        hook = HOOKS.get(name)
        extra = self.extra

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(extra, args, kwargs, result)
            finally:
                close_span(idx)
            return result

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "SpanTracer":
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", layer, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                                    layer, vars(cls)[meth]))
        flops = importlib.import_module(f"{PACKAGE}.flops")
        wrapped[flops.tally] = self._tally(flops.tally)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _tally(self, original):
        tracer = self

        @contextlib.contextmanager
        @functools.wraps(original)
        def tally():
            with original() as counter:
                tracer._counters.append(counter)
                tracer._counter_stack.append(len(tracer._counters) - 1)
                try:
                    yield counter
                finally:
                    tracer._counter_stack.pop()

        return tally

    @contextlib.contextmanager
    def pass_span(self):
        """Root span of one traced pass, inside one flop tally.  Clears the
        spans of the previous pass."""
        self.reset()
        flops = sys.modules[f"{PACKAGE}.flops"]
        open_span, close_span = self._recorder(self._root)
        with flops.tally():
            idx = open_span()
            try:
                yield
            finally:
                close_span(idx)

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict:
        """The current pass's spans as numpy arrays, with self time and self
        ops per span."""
        ints = np.frombuffer(self._ints, dtype=np.int64).reshape(-1, 7).copy()
        times = np.frombuffer(self._floats, dtype=np.float64).reshape(-1, 2).copy()
        name, parent, ctr = ints[:, 0], ints[:, 1], ints[:, 2]
        t0, t1 = times[:, 0], times[:, 1]
        ops = (ints[:, 5] - ints[:, 3]).astype(np.float64)
        n = name.size
        dur = t1 - t0
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=n)
        same = child.copy()
        same[child] = ctr[child] == ctr[parent[child]]
        self_ops = ops - np.bincount(parent[same], weights=ops[same], minlength=n)
        return {"name": name, "parent": parent, "t0": t0, "t1": t1, "ctr": ctr,
                "steps0": ints[:, 4], "steps1": ints[:, 6],
                "self_t": self_t, "self_ops": self_ops,
                "names": np.array(self._names), "layers": np.array(self._layer_of)}

    def save(self, path: str) -> None:
        np.savez(path, **self.spans())

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the current pass (all but the overhead ratio)."""
        s = self.spans()
        layer = np.array(self._layer_of)[s["name"]]
        out = {}
        for lay in LAYERS + ("bench",):
            mask = layer == lay
            out[f"{lay}.calls"] = int(np.sum(mask))
            out[f"{lay}.self_s"] = float(np.sum(s["self_t"][mask]))
            out[f"{lay}.ops"] = int(np.sum(s["self_ops"][mask]))
        e = self.extra
        out["hamiltonian.apply_bytes"] = int(e["hamiltonian.apply_bytes"])
        out["tensor.eig_work"] = int(e["tensor.eig_work"])
        out["tensor.eig_dim_max"] = int(e["tensor.eig_dim_max"])
        out["tensor.svd_work"] = int(e["tensor.svd_work"])
        out["tensor.fallback_ratio"] = _ratio(e["tensor.projected_calls"],
                                              e["tensor.generalized_calls"])
        out["oracle.dim_max"] = int(e["oracle.dim_max"])
        for lay in ("mps", "parafac", "mixed"):
            out[f"{lay}.updates"] = int(e[f"{lay}.updates"])
            out[f"{lay}.restart_ratio"] = _ratio(e[f"{lay}.markers"],
                                                 e[f"{lay}.entries"])
        out["mps.sweeps"] = int(e["mps.sweeps"])
        out["cli.bytes_written"] = int(e["cli.bytes_written"])
        out["cli.oracle_cache_hit_ratio"] = self._cache_hit_ratio(s)
        out["peps.max_step_ops"] = self._max_step(s, layer, "peps")
        return out

    def _cache_hit_ratio(self, s) -> float:
        lookup = self._ids.get("cli.cached_oracle_energy", -1)
        solve = self._ids.get("oracle.ground_state_dense", -1)
        calls = np.flatnonzero(s["name"] == lookup)
        solved = np.isin(calls, s["parent"][s["name"] == solve])
        return _ratio(int(np.sum(~solved)), calls.size)

    def _max_step(self, s, layer, lay) -> int:
        """Largest single flop charge inside the outermost spans of a layer."""
        parent_layer = np.where(s["parent"] >= 0, layer[s["parent"]], "")
        top = np.flatnonzero((layer == lay) & (parent_layer != lay) & (s["ctr"] >= 0))
        best = 0
        for i in top:
            steps = self._counters[s["ctr"][i]].steps[s["steps0"][i]:s["steps1"][i]]
            best = max(best, max(steps, default=0))
        return int(best)
