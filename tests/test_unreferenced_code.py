"""Every module-level function and class in ``src/searn`` has a use there.

A definition that only tests reach is code kept for a test: it goes, or it
is listed in KEPT with the reason it stays.  A use is a name lookup
(``ast.Name``) anywhere in the package outside the definition itself; an
import alone is not one.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "searn"

# name -> why it stays although nothing in the package uses it
KEPT = {
    "run_sequence": "imported by tests/test_golden.py",
    "random_parse_baseline": "imported by tests/test_golden.py",
}


def unreferenced() -> set:
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    uses = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
    out = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {id(n) for n in ast.walk(node)}
                if all(id(use) in own for use in uses[node.name]):
                    out.add(node.name)
    return out


def test_every_definition_is_used_in_the_package():
    assert sorted(unreferenced() - KEPT.keys()) == []


def test_every_kept_name_is_still_unused():
    # an entry whose name gained a use in the package, or is gone, is stale
    assert sorted(KEPT.keys() - unreferenced()) == []
