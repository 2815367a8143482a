"""Every public top-level function and class of ``latcode`` is read by the
program itself: some ``src/latcode`` module names it (as a ``Name`` or an
``Attribute``) outside its own definition.  A name that only tests call
reaches no output; it goes, or moves into the tests as an oracle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latcode"

#: the console script of ``pyproject.toml``
ENTRY_POINTS = {("cli", "main")}
#: reserved for the measured-gap table of ROADMAP item 9
ITEM_9 = (("analysis", "gap_from_lattice"), ("analysis", "awgn_capacity"),
          ("analysis", "rayleigh_capacity_lower"))


def _referenced(node, skip):
    """The names that ``node`` reads, as ``Name`` ids and ``Attribute``
    attrs, leaving out the subtree ``skip``."""
    stack, names = [node], set()
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return names


def test_every_public_definition_is_reached():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(SRC.glob("*.py"))}
    defs = [(module, node) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]
    assert defs
    unreached = []
    for module, node in defs:
        if (module, node.name) in ENTRY_POINTS | set(ITEM_9):
            continue
        if not any(node.name in _referenced(tree, node)
                   for tree in trees.values()):
            unreached.append(f"{module}.{node.name}")
    assert unreached == []
