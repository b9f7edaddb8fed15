"""The package's internal import graph: acyclic, with masa.py below cpmaps and gksl.

gksl.py reuses masa.is_invariant; that needs masa.py to import neither
cpmaps nor gksl, which would otherwise make the graph cyclic.
"""

import ast
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
