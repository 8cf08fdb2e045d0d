"""No module in the package or the tests imports a name it never uses, and
no module-level name of the package goes unnamed outside its definition."""

import ast
import re
from collections import Counter
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


def unnamed_definitions(source: str, texts: list[str]) -> list[str]:
    """The module-level functions, classes and constants of ``source`` whose
    name, as a whole word, occurs only once in ``texts`` (``source`` among
    them): at their own definition.  A text search, since the benchmark's
    probe names functions in strings."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    words = Counter(re.findall(r"\w+", "\n".join(texts)))
    return [name for name in names if words[name] <= 1]


def test_unused_imports_are_detected():
    src = "import os\nimport a.b\nfrom m import x as y, z\nif X:\n    import q\nos, a, z, X\n"
    assert sorted(unused_imports(src)) == ["q", "y"]


def test_no_unused_module_level_imports():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}


def test_unnamed_definitions_are_detected():
    src = "A = 1\nB_C: int = 2\ndef f(): return A\nclass K: pass\ndef g(): pass\n"
    assert unnamed_definitions(src, [src, "K(f) and 'mod.g'", "B_CD"]) == ["B_C"]


def test_every_package_definition_is_named_elsewhere():
    texts = [p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    found = {p.name: unnamed_definitions(p.read_text(), texts)
             for p in sorted(ROOT.glob("src/gipip/*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
