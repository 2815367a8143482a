"""Every public top-level function and class of ``latcode`` is read by the
program itself: some ``src/latcode`` module names it (as a ``Name`` or an
``Attribute``) outside its own definition.  A name that only tests call
reaches no output; it goes, or moves into the tests as an oracle.

So is every optional parameter: some ``src/latcode`` call passes it, by
position or by keyword.  A default that every call leaves in place is a
knob only tests turn; the parameter goes and its value is written in."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latcode"

#: the console script of ``pyproject.toml``
ENTRY_POINTS = {("cli", "main")}
#: reserved for the measured-gap table of ROADMAP item 9
ITEM_9 = (("analysis", "gap_from_lattice"), ("analysis", "awgn_capacity"),
          ("analysis", "rayleigh_capacity_lower"))


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


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
    trees = _trees()
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


def _functions(tree):
    """(the name a call uses, whether a call binds its first parameter, the
    def) for every function of ``tree``, nested ones and methods too; a
    class's ``__init__`` is called by the class's name."""
    methods = {item: (cls.name if item.name == "__init__" else item.name,
                      True)
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for item in cls.body if isinstance(item, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield (*methods.get(node, (node.name, False)), node)


def _passes(call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, at ``position`` among
    its positional arguments, or through a ``*`` or ``**`` argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_optional_parameter_is_passed():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for name, bound, node in _functions(tree):
            if (module, node.name) in ENTRY_POINTS:
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            optional = positional[len(positional) - len(a.defaults):]
            optional += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            for p in optional:
                position = (positional.index(p) - bound
                            if p in positional else None)
                if not any(_passes(c, p.arg, position)
                           for c in calls.get(name, ())):
                    unpassed.append(f"{module}.{node.name}({p.arg})")
    assert unpassed == []
