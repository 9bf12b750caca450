"""The package holds no code that only its own tests use.  Every function
and method defined under src/tnsolve must be referenced by package code
outside its own definition (a call, an attribute read or a name passed
on), unless KEEP names it with the reason something outside the package
needs it.  Dunder methods run implicitly and are not checked."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tnsolve"

# qualified name -> why it stays without a caller in src
KEEP = {
    "hamiltonian.materialize_dense":
        "public dense matrix of H, exported in tnsolve.__all__",
    "hamiltonian.SiteOperator.custom":
        "the public input for user-defined site operators",
    "hamiltonian.BlockedHamiltonian.is_identity_block":
        "wrapped by the benchmark tracer's METHODS table",
    "hamiltonian.BlockedHamiltonian.apply_block":
        "wrapped by the benchmark tracer's METHODS table",
    "mps.from_unit_vector": "named by acceptance criterion 8",
    "mps.normalize_left_sweep": "named by acceptance criterion 6",
    "mps.gauge_residual_right": "named by acceptance criterion 6",
    "parafac.as_diagonal_mps": "named by acceptance criterion 8",
    "parafac.apply_hamiltonian":
        "the CP residual certificate is planned on it (ROADMAP item 5)",
    "peps.from_mps_row": "named by acceptance criterion 8",
    "tensor.generalized_eig_min":
        "the dense reference the CP local-solve tests compare against",
}


def _definitions(tree, module):
    """(qualified name, node) of every function and method in `tree`."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((f"{prefix}{child.name}", child))
                visit(child, f"{prefix}{child.name}.")

    visit(tree, f"{module}.")
    return found


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    missing = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(use) not in inside for name, use in uses):
                missing.add(qualname)
    return missing


def test_every_function_has_a_caller_in_src_or_a_kept_reason():
    unreferenced = _unreferenced()
    assert unreferenced - set(KEEP) == set(), "only tests use these"
    # a kept name that gained a src caller, or is gone, is a stale entry
    assert set(KEEP) - unreferenced == set(), "stale KEEP entries"
