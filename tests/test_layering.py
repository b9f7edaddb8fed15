"""The package's import graph: acyclic, with masa.py below cpmaps and gksl.

gksl.py reuses masa.is_invariant; that needs masa.py to import neither
cpmaps nor gksl, which would otherwise make the graph cyclic. Both masa
finders share one descent on the unitary group, so no module imports
scipy.optimize. Maps and generators share one pair-form kernel in linalg.py,
so no other module builds a superoperator from Kronecker products, and
least squares has its one entry point there, so no other module calls
numpy's solver. Maps, generators and raw superoperators share one evolution
base in linalg.py, which defines application, the superoperator and the
projection images once; no module tells the kinds apart by their attributes,
and only linalg.py reads an evolution's `kind`, in the one check `_of_kind`.
A residual is judged against `Tolerance._bound`, so outside linalg.py only
the equality oracle, whose threshold has no floor at 1, calls a
tolerance's `threshold` or `rank_cut`.
No module imports a name it never uses. Every function the benchmark's
tracer wraps exists on the module it names. scipy is imported by one
function, the exponential, so importing the package loads no scipy module.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cpmasa

PACKAGE = Path(cpmasa.__file__).resolve().parent


def _internal_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cpmasa."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("cpmasa.")
            )
    return names


def _graph() -> dict:
    return {
        path.stem: _internal_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def test_import_graph_is_acyclic():
    graph = _graph()
    done, active = set(), []

    def visit(module):
        if module in active:
            cycle = active[active.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module in done:
            return
        active.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        active.pop()
        done.add(module)

    for module in graph:
        visit(module)


def test_masa_imports_neither_cpmaps_nor_gksl():
    assert not _internal_imports(PACKAGE / "masa.py") & {"cpmaps", "gksl"}


def _imports_scipy_optimize(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.optimize") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.startswith("scipy.optimize"):
                return True
            if module == "scipy" and any(alias.name == "optimize" for alias in node.names):
                return True
    return False


def test_no_module_imports_scipy_optimize():
    paths = sorted(PACKAGE.glob("*.py"))
    assert not [path.name for path in paths if _imports_scipy_optimize(path)]


def _scipy_imports(node: ast.AST, function: str | None = None) -> list:
    """The innermost enclosing function (None at module level) of each scipy import under `node`."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        found += [function for name in names if name == "scipy" or name.startswith("scipy.")]
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += _scipy_imports(child, inner)
    return found


def test_only_the_exponential_imports_scipy():
    found = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in _scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [("linalg.py", "_expm")]


_COLD_START = """
import contextlib, io, json, sys
import numpy as np
import cpmasa
import cpmasa.cli
loaded = {"import": "scipy" in sys.modules}
rng = np.random.default_rng(5)
t = cpmasa.random_unital_kraus(rng, 3, 2)
cpmasa.solve_kraus_coefficients(t, cpmasa.Masa.diagonal(3))
cpmasa.search_masa(t, restarts=2, seed=1)
with contextlib.redirect_stdout(io.StringIO()):
    code = cpmasa.cli.main(["corpus", "ex2_2"])
loaded["decide"] = "scipy" in sys.modules
gen = cpmasa.GkslGenerator(t, np.zeros((3, 3)))
cpmasa.semigroup_at(gen, 0.5)
loaded["exponentiate"] = "scipy" in sys.modules
print(json.dumps({"code": code, **loaded}))
"""


def test_scipy_loads_at_the_first_exponential():
    # a fresh interpreter: this process has scipy loaded by the other test modules
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "import": False, "decide": False, "exponentiate": True}


def _calls(path: Path, name: str) -> bool:
    """Whether the module reads attribute `name` of anything, or imports it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names):
            return True
    return False


def test_only_linalg_calls_kron():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if _calls(path, "kron")] == ["linalg.py"]


def test_only_linalg_calls_lstsq():
    # every least-squares solve goes through linalg's one entry point
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if _calls(path, "lstsq")] == ["linalg.py"]


def test_only_linalg_reads_the_kind():
    # every question that takes one kind of evolution refuses the others through linalg._of_kind
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if _calls(path, "kind")] == ["linalg.py"]


def _threshold_callers() -> list:
    """(module, innermost function) of every call of `.threshold(` or `.rank_cut(` outside linalg.py."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("threshold", "rank_cut")
            ):
                enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.stem, max(enclosing, key=lambda f: f.lineno).name))
    return sorted(found)


def test_only_the_equality_oracle_reads_a_threshold_outside_linalg():
    # every other check compares against Tolerance._bound; reading verdict.threshold is no call
    assert _threshold_callers() == [("cpmaps", "_superoperator_distance")]


_PROTOCOL = {"apply", "superoperator", "projection_images"}


def _protocol_methods() -> list:
    """(module, class, method) for every method of a package class named in the protocol."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in _PROTOCOL
                ]
    return sorted(found)


def test_only_the_evolution_base_defines_the_protocol():
    # the raw wrapper keeps its matrix path for the images; _PairForm is the kernel the base calls
    assert _protocol_methods() == sorted(
        [
            ("linalg", "_Evolution", "apply"),
            ("linalg", "_Evolution", "projection_images"),
            ("linalg", "_Evolution", "superoperator"),
            ("linalg", "_PairForm", "apply"),
            ("linalg", "_PairForm", "superoperator"),
            ("masa", "_Superoperator", "projection_images"),
        ]
    )


def _asks_for_protocol(path: Path) -> bool:
    """Whether the module calls hasattr on a member of the evolution protocol."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            name = node.args[1] if len(node.args) > 1 else None
            if not isinstance(name, ast.Constant) or name.value in _PROTOCOL | {"_pairs"}:
                return True
    return False


def test_no_module_tells_evolutions_apart_by_hasattr():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if _asks_for_protocol(path)] == []


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def _traced_layers() -> dict:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_traced_layers_resolve_on_the_package():
    # Tracer.install looks each name up without a default, so a missing one crashes a traced run
    missing = [
        f"cpmasa.{layer}.{name}"
        for layer, names in _traced_layers().items()
        for name in names
        if not hasattr(importlib.import_module(f"cpmasa.{layer}"), name)
    ]
    assert missing == []
