"""Guard against code with no caller.

Every non-dunder function, method and class defined in src/advlm must be
named somewhere in src/advlm or perfbench outside its own definition. Names
are matched, not resolved: an identifier, an attribute, an imported name or
a string that is a dotted name (perfbench looks functions up by string) all
count, so a method shares its name with any other use of that name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "advlm"
SEARCHED = (PACKAGE, ROOT / "perfbench")


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
