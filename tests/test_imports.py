"""The package's import structure: every import at module top, no cycle.

The weight kernel lives in ``gammafn``, which imports nothing from the
package, so the modules form one chain
gammafn <- harmonic <- membership <- family/verify <- cli.
"""

import ast
from pathlib import Path

import pytest

import harmfrac

SRC = Path(harmfrac.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(path):
    """The sibling modules that ``path`` imports, at module top or not."""
    return {
        node.module.split(".")[0]
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.name}:{node.lineno} imports inside {fn.name}()"
                )


def test_gammafn_imports_nothing_from_the_package():
    relative = [
        node.lineno
        for node in ast.walk(_tree(SRC / "gammafn.py"))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert relative == []


def test_import_graph_is_acyclic():
    graph = {path.stem: _package_imports(path) for path in MODULES}
    done = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + (module,))}"
        if module not in done:
            for dep in graph[module]:
                visit(dep, path + (module,))
            done.add(module)

    for module in graph:
        visit(module, ())
