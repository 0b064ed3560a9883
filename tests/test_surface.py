"""The library's public surface is what the CLI, the benchmark jobs and the
acceptance suite run.

Every public top-level function and class in `src/spectral_embed/` must be
referenced, as a name or an attribute, by other library code (outside its
own definition and outside `__init__.py`), by `perfbench/jobs.py` or by
`tests/test_acceptance.py`.  A name that only unit tests reach belongs in
the test that uses it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_embed"
CALLERS = (ROOT / "perfbench" / "jobs.py", ROOT / "tests" / "test_acceptance.py")


def _references(tree):
    """How often each name and attribute name is used in `tree`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller():
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    refs = {path: _references(tree) for path, tree in modules.items()}
    outside = Counter()
    for path in CALLERS:
        outside += _references(ast.parse(path.read_text()))

    unused = []
    for path, tree in modules.items():
        elsewhere = outside + sum((names for other, names in refs.items()
                                   if other != path), Counter())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not elsewhere[node.name]
                    and refs[path][node.name]
                    <= _references(node)[node.name]):
                unused.append(f"{path.name}:{node.name}")
    assert not unused, "public names no caller reaches: " + ", ".join(unused)
