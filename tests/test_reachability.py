"""Every public top-level function and class in `splatmem` is reached.

The package is parsed with `ast`. A public name passes when some module
other than `__init__.py` names it, as a variable, an attribute or an
import, outside the name's own definition. The re-exports of
`__init__.py` do not count: they would keep any name alive.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splatmem"

# Kept although nothing in src/ reaches them: the tests use them as the
# scalar oracle for the batched code.
ORACLES = {
    # the entropy of one logit vector; checks entropy_batch against
    # direct summation
    "conf.entropy",
    # the normalized pdf of one primitive; checks the 1/pdf_norm that
    # splatting divides each kernel by
    "core.density",
}


def unreached_names() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    uses: list[tuple[str, ast.AST]] = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((alias.name, node) for alias in node.names)
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(use) not in own for name, use in uses):
                out.append(f"{mod}.{node.name}")
    return out


def test_every_public_name_is_reached():
    assert sorted(set(unreached_names()) - ORACLES) == []


def test_oracles_are_still_defined_and_unreached():
    # an oracle that src/ starts to use, or that is deleted, leaves the list
    assert set(unreached_names()) & ORACLES == ORACLES
