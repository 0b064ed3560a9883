"""The library's public surface is what the CLI, the benchmark jobs and the
acceptance suite run.

Every public top-level function and class in `src/spectral_embed/`, and
every public method of a public class, must be referenced, as a name or an
attribute, by other library code (outside its own definition and outside
`__init__.py`), by `perfbench/jobs.py`, by `tests/test_acceptance.py` or by
the tracer's `TARGETS` in `perfbench/tracer.py`.  A name that only unit
tests reach belongs in the test that uses it.  So does an option: a
parameter default that no such caller sets.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_embed"
# the tracer wraps its targets by dotted path ("HeatEvaluator.kernel"); it
# counts as a caller until the library writes its own trace
TRACER = ROOT / "perfbench" / "tracer.py"
CALLERS = (ROOT / "perfbench" / "jobs.py",
           ROOT / "tests" / "test_acceptance.py", TRACER)


def _references(tree):
    """How often each name and attribute name is used in `tree`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _traced(tree):
    """The names in the dotted-path strings of `tree`, such as the
    tracer's "HeatEvaluator.kernel"."""
    return Counter(part for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and all(p.isidentifier() for p in node.value.split("."))
                   for part in node.value.split("."))


def _public(tree):
    """(qualified name, definition, class or None) for each public
    top-level function and class, and each method of a public class: the
    public ones, and `__init__`, whose options the calls of the class set."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node, None
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if (isinstance(item, ast.FunctionDef)
                    and (not item.name.startswith("_")
                         or item.name == "__init__")):
                yield f"{node.name}.{item.name}", item, node


def test_every_public_name_has_a_caller():
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    refs = {path: _references(tree) for path, tree in modules.items()}
    outside = Counter()
    for path in CALLERS:
        outside += _references(ast.parse(path.read_text()))
    outside += _traced(ast.parse(TRACER.read_text()))

    unused = []
    for path, tree in modules.items():
        elsewhere = outside + sum((names for other, names in refs.items()
                                   if other != path), Counter())
        for where, node, _ in _public(tree):
            if (not node.name.startswith("_")
                    and not elsewhere[node.name]
                    and refs[path][node.name]
                    <= _references(node)[node.name]):
                unused.append(f"{path.name}:{where}")
    assert not unused, "public names no caller reaches: " + ", ".join(unused)


def _calls(tree):
    """(called name, enclosing definition, call) for every call of a name
    or attribute in `tree`.  The enclosing definition is the top-level
    function, or the method of a top-level class, around the call; None
    elsewhere."""
    for top in tree.body:
        scopes = [top]
        if isinstance(top, ast.ClassDef):
            scopes = top.decorator_list + top.bases + top.body
        for scope in scopes:
            owner = scope if isinstance(scope, ast.FunctionDef) else None
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, (ast.Name, ast.Attribute))):
                    func = node.func
                    yield (func.id if isinstance(func, ast.Name)
                           else func.attr, owner, node)


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

    For every public top-level function in `src/spectral_embed/`, and every
    public method or `__init__` of a public class, each parameter with a
    default must be passed, by position, by keyword or through
    ``**kwargs``, by at least one call of that name (of the class, for
    `__init__`) in other library code (outside the function's own body),
    in `perfbench/jobs.py`, `perfbench/child.py`, `perfbench/tracer.py` or
    in `tests/test_acceptance.py`.  Unit tests do not count: an option that
    only they set belongs in the tests.
    """
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    calls = [call for tree in modules.values() for call in _calls(tree)]
    calls += [(name, None, call)
              for path in CALLERS + (ROOT / "perfbench" / "child.py",)
              for name, _, call in _calls(ast.parse(path.read_text()))]

    unset = []
    for path, tree in modules.items():
        for where, node, owner in _public(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            optional = positional[len(positional) - len(args.defaults):]
            if owner and not any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list):
                positional = positional[1:]  # self or cls
            keyword_only = [a.arg for a in args.kwonlyargs]
            optional += [a for a, d in zip(keyword_only, args.kw_defaults)
                         if d is not None]
            called = owner.name if node.name == "__init__" else node.name
            sites = [call for name, scope, call in calls
                     if name == called and scope is not node]
            passed = set().union(*(_passed(c, positional, keyword_only)
                                   for c in sites))
            unset += [f"{path.name}:{where}({p})" for p in optional
                      if p not in passed]
    assert not unset, "options no caller sets: " + ", ".join(unset)
