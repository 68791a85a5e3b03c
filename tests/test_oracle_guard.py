"""Each reference implementation the tests compare the program against lives
once, in ``oracles.py``: no other test module defines a frozen copy outside
a test, nor a name that ``oracles.py`` defines."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _top_level(tree):
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _defs(node, in_test=False):
    """``(name, in a test)`` of every function and class under ``node``, a
    ``test_*`` function or ``Test*`` class counting as in a test itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            prefix = "Test" if isinstance(child, ast.ClassDef) else "test_"
            inside = in_test or child.name.startswith(prefix)
            yield child.name, inside
            yield from _defs(child, inside)
        else:
            yield from _defs(child, in_test)


def test_oracles_live_once_in_oracles_py():
    oracle_names = _top_level(ast.parse((TESTS / "oracles.py").read_text()))
    faults = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = list(_defs(tree))
        faults += [f"{path.name}: frozen copy {name}" for name, in_test in defs
                   if "frozen" in name.lower() and not in_test]
        faults += [f"{path.name}: redefines oracles.{name}"
                   for name in sorted((_top_level(tree) | {name for name, _ in defs})
                                      & oracle_names)]
    assert faults == []
