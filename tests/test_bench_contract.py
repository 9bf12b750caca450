"""Names the benchmark's span tracer (tnbench/tracer.py) needs from the
package.  The tracer wraps every entry of its METHODS table and the
selftest asserts a few imported names; deleting one of them breaks every
traced benchmark run, so it is caught here.  The tracer also reads the
spans of a few `cli` functions by name; renaming one of those would
silently zero the metric built from it.  The workloads' calls into the
package must also still bind to their callees' signatures."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

TNBENCH = pathlib.Path(__file__).resolve().parents[1] / "tnbench"
TRACER = TNBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("tnbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_methods_are_defined_on_their_classes():
    tracer = _tracer()
    for layer, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert meth in vars(cls), f"{layer}.{cls_name}.{meth}"


def test_names_the_tracer_selftest_rebinds_exist():
    from tnsolve import hamiltonian, mps, oracle, parafac, tensor

    assert mps.hermitian_eig is tensor.hermitian_eig
    assert parafac.hermitian_eig is tensor.hermitian_eig
    assert oracle.materialize_dense is hamiltonian.materialize_dense


def test_cli_names_the_tracer_reads_are_public_functions():
    from tnsolve import cli

    tracer = _tracer()
    names = [k for k in tracer.HOOKS if k.startswith("cli.")]
    # SpanTracer._cache_hit_ratio counts the spans of this lookup
    names.append("cli.cached_oracle_energy")
    for name in names:
        attr = name[len("cli."):]
        fn = getattr(cli, attr, None)
        # the tracer wraps exactly the public functions a module defines
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == cli.__name__, name


def _dotted(node: ast.AST) -> list | None:
    """['mod', 'a', 'b'] for the expression mod.a.b, None for anything else."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else head + [node.attr]
    return None


def test_workload_names_exist_in_the_package():
    # the benchmark workloads call into tnsolve by attribute; a refactor that
    # removes or renames one of those names breaks every benchmark run
    tree = ast.parse((TNBENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tnsolve":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"tnsolve.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tnsolve."):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
    assert {"mps", "peps", "cli"} <= set(modules)
    used = set()
    for node in ast.walk(tree):
        path = _dotted(node)
        if path and len(path) > 1 and path[0] in modules:
            used.add(".".join(path))
            obj = modules[path[0]]
            for part in path[1:]:
                assert hasattr(obj, part), ".".join(path)
                obj = getattr(obj, part)
    assert {"mps.mps_energy", "peps.inner_peps", "peps.PepsState"} <= used


def test_workload_calls_bind_to_their_callees():
    # a name that survives with a dropped or renamed parameter (the chain
    # solver's positional p and boundary, reproduce_figure's workers=) would
    # pass the name check above and still break every benchmark run
    tree = ast.parse((TNBENCH / "workloads.py").read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tnsolve"):
            for alias in node.names:
                if node.module == "tnsolve":
                    obj = importlib.import_module(f"tnsolve.{alias.name}")
                else:
                    obj = getattr(importlib.import_module(node.module), alias.name)
                names[alias.asname or alias.name] = obj
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted(node.func)
        if not path or path[0] not in names:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        callee = names[path[0]]
        for part in path[1:]:
            callee = getattr(callee, part)
        args = [None] * len(node.args)
        kwargs = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(callee).bind(*args, **kwargs)
        except TypeError as err:
            raise AssertionError(f"line {node.lineno}: {'.'.join(path)}: {err}") from None
        bound.append(".".join(path))
    assert {"mps.als_ground_state", "cli.reproduce_figure",
            "mixed.ground_state_mixed_greedy", "checks.run_all"} <= set(bound)


def test_workload_chain_built_from_a_blocking_equals_one_built_from_groups():
    # the workloads' _random_chain passes Blocking.single_sites(p) as a
    # chain's site groups; the state it builds must equal the one built from
    # the groups tuple, bit for bit
    from tnsolve import hamiltonian, mps

    p, rng = 6, np.random.default_rng(5)
    blocking = hamiltonian.Blocking.single_sites(p)
    bonds = [1, 2, 3, 3, 3, 2, 1]
    sites = [rng.standard_normal((bonds[j], 2, bonds[j + 1]))
             + 1j * rng.standard_normal((bonds[j], 2, bonds[j + 1])) for j in range(p)]
    h = hamiltonian.build_ising(p, 1.0, "open")
    x = mps.MpsState("open", blocking, sites)
    y = mps.MpsState("open", blocking.groups, sites)
    assert x.groups == blocking.groups and isinstance(x.groups, tuple)
    assert np.array_equal(mps.to_dense(x).vector, mps.to_dense(y).vector)
    z = mps.random_mps(p, 2, "open", seed=6)
    assert mps.inner(x, x) == mps.inner(y, y)
    assert mps.inner(x, z) == mps.inner(y, z)
    assert mps.expectation(h, x) == mps.expectation(h, y)
