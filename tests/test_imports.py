"""No module in the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/gipip/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source``, those under a
    top-level if or try included, that no expression in it reads."""
    tree = ast.parse(source)
    stmts, bound = list(tree.body), []
    while stmts:
        node = stmts.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stmts.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_detected():
    src = "import os\nimport a.b\nfrom m import x as y, z\nif X:\n    import q\nos, a, z, X\n"
    assert sorted(unused_imports(src)) == ["q", "y"]


def test_no_unused_module_level_imports():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}
