"""Guard against code with no caller, and against knobs nobody sets.

Every non-dunder function, method, class and module-level ``NAME = ...``
defined in src/advlm must be named somewhere in src/advlm or perfbench
outside its own definition; one defined in tools must be named somewhere in
src/advlm, perfbench or tools outside its own definition (tools' references
do not count for src/advlm). Names are matched, not resolved: an identifier
read, an attribute, an imported name or a string that is a dotted name
(perfbench looks functions up by string) all count, so a method shares its
name with any other use of that name. A store to a name is no reference.

Every defaulted parameter of a function in src/advlm must be passed by some
call in src/advlm, perfbench or tools, by keyword or by position, to a
function of the same name (a class name stands for its __init__). It must
also be left out by some such call, or its default is never used. A
dataclass field with a default (``x: T = v``, ``field(default=v)`` or
``field(default_factory=f)``) and init left on is a defaulted parameter of the
class, at its position among the init fields; ``field(default_factory=C)``
counts as a call ``C()``.
"""

import ast

from support import ROOT

PACKAGE = ROOT / "src" / "advlm"
TOOLS = ROOT / "tools"
CALLERS = (PACKAGE, ROOT / "perfbench", TOOLS)
# The tests drive the CLI through main(argv).
KNOB_EXEMPT = {("main", "argv")}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(tree):
    """(definitions, references) of one module. A reference made inside a
    definition's own body does not count for that definition."""
    defs, refs = [], set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defs.extend(t.id for t in node.targets if isinstance(t, ast.Name))

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node.name)
            enclosing = enclosing | {node.name}
        names = []
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def _tree_names(root):
    """(non-dunder definitions, references) of every module under root."""
    defined, referenced = set(), set()
    for path in sorted(root.rglob("*.py")):
        defs, refs = _names(ast.parse(path.read_text(encoding="utf-8")))
        defined.update(n for n in defs if not _is_dunder(n))
        referenced |= refs
    return defined, referenced


def unreferenced_names():
    package, package_refs = _tree_names(PACKAGE)
    tools, tools_refs = _tree_names(TOOLS)
    referenced = package_refs | _tree_names(ROOT / "perfbench")[1]
    return sorted((package - referenced) | (tools - referenced - tools_refs))


def test_every_definition_has_a_caller():
    assert unreferenced_names() == []


def test_guard_flags_a_name_used_only_by_itself():
    tree = ast.parse("def lonely():\n    return lonely()\n\n"
                     "def used():\n    pass\n\nused()\n")
    defs, refs = _names(tree)
    assert sorted(set(defs) - refs) == ["lonely"]


def test_guard_flags_a_constant_no_code_reads():
    tree = ast.parse("LONELY = 1\nREAD = 2\n\ndef f():\n    global LONELY\n"
                     "    LONELY = READ\n\nf()\n")
    defs, refs = _names(tree)
    assert sorted(set(defs) - refs) == ["LONELY"]


def _callee(node):
    """The name a call's func (or a decorator) is matched by."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _field_spec(value):
    """(init, has a default) of a dataclass field assigned value (None when
    the field has no right-hand side)."""
    if isinstance(value, ast.Call) and _callee(value.func) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        return (not (isinstance(init, ast.Constant) and init.value is False),
                "default" in kw or "default_factory" in kw)
    return True, value is not None


def _defaulted_params(tree):
    """(function name, parameter name, position or None) of every defaulted
    parameter and dataclass field; the position skips self/cls and is None
    for keyword-only."""
    out = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef) and any(
                _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list):
            specs = [(s.target.id, *_field_spec(s.value)) for s in node.body
                     if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            init_fields = [(name, default) for name, init, default in specs if init]
            out.extend((node.name, name, k)
                       for k, (name, default) in enumerate(init_fields) if default)
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


def _calls(trees):
    """Per function name, (positional count, keywords) of each call in trees.
    A call that unpacks *args or **kwargs is left out: what it passes is not
    known. field(default_factory=C) is a call C() with no arguments."""
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call) or any(
                isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        name = _callee(node.func)
        calls.setdefault(name, []).append(
            (len(node.args), {kw.arg for kw in node.keywords}))
        if name == "field":
            for kw in node.keywords:
                if kw.arg == "default_factory":
                    calls.setdefault(_callee(kw.value), []).append((0, set()))
    return calls


def _knobs(module_trees, caller_trees, keep):
    """The defaulted (function, parameter) pairs for which keep(passed by
    some call, left out by some call) holds."""
    calls = _calls(caller_trees)
    out = set()
    for tree in module_trees:
        for fn, param, pos in _defaulted_params(tree):
            passes = [param in keywords or (pos is not None and npos > pos)
                      for npos, keywords in calls.get(fn, [])]
            if (fn, param) not in KNOB_EXEMPT and keep(any(passes),
                                                       not all(passes)):
                out.add((fn, param))
    return sorted(out)


def unset_knobs(module_trees, caller_trees):
    return _knobs(module_trees, caller_trees, lambda passed, omitted: not passed)


def always_set_knobs(module_trees, caller_trees):
    return _knobs(module_trees, caller_trees, lambda passed, omitted: not omitted)


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


def test_every_defaulted_parameter_is_left_out_by_a_caller():
    assert always_set_knobs(_parse(PACKAGE), _parse(*CALLERS)) == []


def test_knob_guard_flags_a_default_every_call_passes():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                     "class K:\n    def __init__(self, x=0):\n        pass\n\n"
                     "f(0, 1, e=5)\nf(0, 2, d=6, e=7)\nK(7)\nf(*[0])\n")
    assert always_set_knobs([tree], [tree]) == [("K", "x"), ("f", "b"), ("f", "e")]


def test_knob_guard_reads_dataclass_fields():
    # log (init=False) is no parameter, so c is C's third; K() from the
    # default_factory leaves y out, which K(y=2) alone would not
    tree = ast.parse("@dataclass(frozen=True)\nclass C:\n"
                     "    a: int\n    b: int = 1\n"
                     "    log: list = field(default_factory=list, init=False)\n"
                     "    c: int = field(default=2)\n"
                     "    k: K = field(default_factory=K)\n\n"
                     "@dataclasses.dataclass\nclass K:\n"
                     "    x: int = 0\n    y: int = 1\n\n"
                     "C(0, 5, 6)\nC(0)\nK(y=2)\n")
    assert unset_knobs([tree], [tree]) == [("C", "k"), ("K", "x")]
    assert always_set_knobs([tree], [tree]) == []
