"""The package's import graph: acyclic, with masa.py below cpmaps and gksl.

gksl.py reuses masa.is_invariant; that needs masa.py to import neither
cpmaps nor gksl, which would otherwise make the graph cyclic. Both masa
finders share one descent on the unitary group, so no module imports
scipy.optimize. Maps and generators share one pair-form kernel in linalg.py,
so no other module builds a superoperator from Kronecker products. No
module imports a name it never uses. Every function the benchmark's tracer
wraps exists on the module it names.
"""

import ast
import importlib
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


def _calls_kron(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "kron":
            return True
        if isinstance(node, ast.ImportFrom) and any(alias.name == "kron" for alias in node.names):
            return True
    return False


def test_only_linalg_calls_kron():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if _calls_kron(path)] == ["linalg.py"]


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
