"""No linter is a dependency, so the unused-import check on src/ is this test:
each module is parsed with ast, and every name it imports must be read, or be
listed in the module's __all__."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaspec"

# (module, name) imports kept unread: perfbench/tracing.py wraps
# oracle.is_isomorphic by name, so oracle imports it for the tracer alone
KEPT = {("oracle", "is_isomorphic")}


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom a import b, c as d\n"
    assert unread_imports(source) == ["b", "d", "numpy", "os"]
    assert unread_imports(source + "__all__ = ['b']\nprint(os, numpy, d)\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    unread = unread_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unread if (path.stem, name) not in KEPT] == []
