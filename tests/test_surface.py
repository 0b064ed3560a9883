"""The library's public surface is what the CLI, the benchmark jobs and the
acceptance suite run.

Every public top-level function and class in `src/spectral_embed/` must be
referenced, as a name or an attribute, by other library code (outside its
own definition and outside `__init__.py`), by `perfbench/jobs.py` or by
`tests/test_acceptance.py`.  A name that only unit tests reach belongs in
the test that uses it.  So does an option: a parameter default that no
such caller sets.
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


def _calls(tree):
    """(called name, enclosing top-level name, call) for every call of a
    name or attribute in `tree`; the enclosing name is None at module
    level."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                func = node.func
                yield (func.id if isinstance(func, ast.Name) else func.attr,
                       owner, node)


def _passed(call, positional, keyword_only):
    """The parameter names `call` sets: by position, by keyword or through
    *args/**kwargs."""
    if any(kw.arg is None for kw in call.keywords):
        return set(positional) | set(keyword_only)
    given = {kw.arg for kw in call.keywords}
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return given | set(positional)
    return given | set(positional[:len(call.args)])


def test_every_option_has_a_caller():
    """A parameter with a default stays only if a call sets it.

    For every public top-level function in `src/spectral_embed/`, each
    parameter with a default must be passed, by position, by keyword or
    through ``**kwargs``, by at least one call of that name in other library
    code (outside the function's own body), in `perfbench/jobs.py`,
    `perfbench/child.py` or in `tests/test_acceptance.py`.  Unit tests do
    not count: an option that only they set belongs in the tests.
    """
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    calls = {path: list(_calls(tree)) for path, tree in modules.items()}
    outside = [(name, call)
               for path in CALLERS + (ROOT / "perfbench" / "child.py",)
               for name, _, call in _calls(ast.parse(path.read_text()))]

    unset = []
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            keyword_only = [a.arg for a in args.kwonlyargs]
            optional = positional[len(positional) - len(args.defaults):]
            optional += [a for a, d in zip(keyword_only, args.kw_defaults)
                         if d is not None]
            sites = [call for name, call in outside if name == node.name]
            sites += [call for other, found in calls.items()
                      for name, owner, call in found
                      if name == node.name
                      and (other != path or owner != node.name)]
            passed = set().union(*(_passed(c, positional, keyword_only)
                                   for c in sites))
            unset += [f"{path.name}:{node.name}({p})" for p in optional
                      if p not in passed]
    assert not unset, "options no caller sets: " + ", ".join(unset)
