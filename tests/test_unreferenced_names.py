"""Guard against code with no caller, and against knobs nobody sets.

Every non-dunder function, method and class defined in src/advlm must be
named somewhere in src/advlm or perfbench outside its own definition. Names
are matched, not resolved: an identifier, an attribute, an imported name or
a string that is a dotted name (perfbench looks functions up by string) all
count, so a method shares its name with any other use of that name.

Every defaulted parameter of a function in src/advlm must be passed by some
call in src/advlm, perfbench or tools, by keyword or by position, to a
function of the same name (a class name stands for its __init__).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "advlm"
SEARCHED = (PACKAGE, ROOT / "perfbench")
CALLERS = (PACKAGE, ROOT / "perfbench", ROOT / "tools")
# The tests drive the CLI through main(argv).
KNOB_EXEMPT = {("main", "argv")}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(tree):
    """(definitions, references) of one module. A reference made inside a
    definition's own body does not count for that definition."""
    defs, refs = [], set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node.name)
            enclosing = enclosing | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                names = parts
        refs.update(n for n in names if n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defs, refs


def unreferenced_names():
    defined, referenced = set(), set()
    for root in SEARCHED:
        for path in sorted(root.rglob("*.py")):
            defs, refs = _names(ast.parse(path.read_text(encoding="utf-8")))
            referenced |= refs
            if root == PACKAGE:
                defined.update(n for n in defs if not _is_dunder(n))
    return sorted(defined - referenced)


def test_every_definition_has_a_caller():
    assert unreferenced_names() == []


def test_guard_flags_a_name_used_only_by_itself():
    tree = ast.parse("def lonely():\n    return lonely()\n\n"
                     "def used():\n    pass\n\nused()\n")
    defs, refs = _names(tree)
    assert sorted(set(defs) - refs) == ["lonely"]


def _defaulted_params(tree):
    """(function name, parameter name, position or None) of every defaulted
    parameter; the position skips self/cls and is None for keyword-only."""
    out = []

    def visit(node, cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = a.posonlyargs + a.args
            skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
            name = cls if node.name == "__init__" and cls else node.name
            for k, arg in enumerate(pos[len(pos) - len(a.defaults):],
                                    len(pos) - len(a.defaults)):
                out.append((name, arg.arg, k - skip))
            out.extend((name, arg.arg, None)
                       for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, None)
    return out


def _passed(trees):
    """The (function name, keyword) pairs the calls in trees pass, and per
    function name the most positional arguments one call passes."""
    keywords, widest = set(), {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        keywords.update((name, kw.arg) for kw in node.keywords if kw.arg)
        widest[name] = max(widest.get(name, 0), len(node.args))
    return keywords, widest


def unset_knobs(module_trees, caller_trees):
    keywords, widest = _passed(caller_trees)
    return sorted({(fn, param) for tree in module_trees
                   for fn, param, pos in _defaulted_params(tree)
                   if (fn, param) not in keywords | KNOB_EXEMPT
                   and (pos is None or widest.get(fn, 0) <= pos)})


def _parse(*roots):
    return [ast.parse(p.read_text(encoding="utf-8"))
            for root in roots for p in sorted(root.rglob("*.py"))]


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset_knobs(_parse(PACKAGE), _parse(*CALLERS)) == []


def test_knob_guard_flags_a_default_no_call_passes():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                     "class K:\n    def __init__(self, x=0):\n        pass\n\n"
                     "f(0, 1, e=5)\nK(7)\n")
    assert unset_knobs([tree], [tree]) == [("f", "c"), ("f", "d")]
