"""Static hygiene of the source and test trees.

Neither pyflakes nor ruff is a dependency, so the unused-import check is a
small AST scan here.  `__init__.py` files are skipped: their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads.

    A dotted `import a.b` binds `a`; a name listed in `__all__` counts as
    used; `from __future__` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_detector():
    src = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\n"
    src += "def f():\n    return a.b.c + w\n"
    assert unused_imports(src) == ["os (line 1)", "z (line 3)"]
    assert unused_imports("from m import q\n__all__ = ['q']\n") == []


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
