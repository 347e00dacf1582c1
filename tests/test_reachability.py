"""Every public top-level function and class in `splatmem` is reached,
and every defaulted parameter is passed by some call.

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


# Defaulted parameters that no call in src/ passes, kept on purpose.
UNPASSED_KEPT = {
    # the console-script entry point takes sys.argv; tests pass argv
    "cli.main(argv)",
    # tests pass np.inf to compare the truncated render with the dense oracle
    "splat.render(truncation_radius_sigmas)",
    # tests tighten the tolerance on grids they normalise themselves
    "grid.check_normalized(tol)",
    # the sweep's shape, for the larger procedural scenes of ROADMAP item 6;
    # no caller builds such a scene yet
    "synth.generate_trajectory(radius_frac)",
    "synth.generate_trajectory(height_frac)",
    # the scalar confidence oracle takes the same config as the batched code
    "conf.confidence(cfg)",
}


def _defaulted(fn: ast.FunctionDef, in_class: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if in_class and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unpassed_parameters() -> list[str]:
    """Defaulted parameters of functions and methods in `splatmem` that no
    call in the package passes, by keyword or by position. A call is
    matched by the called name alone; one with *args or **kwargs passes
    every parameter."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for mod, tree in trees.items():
        defs = [(n, False) for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [(n, True) for n in cls.body if isinstance(n, ast.FunctionDef)]
        for fn, in_class in defs:
            for name, index in _defaulted(fn, in_class):
                def passes(call):
                    if any(isinstance(a, ast.Starred) for a in call.args) or any(
                            k.arg is None or k.arg == name for k in call.keywords):
                        return True
                    return index is not None and len(call.args) > index
                if not any(passes(c) for c in calls.get(fn.name, [])):
                    out.append(f"{mod}.{fn.name}({name})")
    return out


def test_every_defaulted_parameter_is_passed():
    assert sorted(set(unpassed_parameters()) - UNPASSED_KEPT) == []


def test_kept_parameters_are_still_unpassed():
    # a kept parameter that src/ starts to pass, or that is deleted, leaves the list
    assert set(unpassed_parameters()) & UNPASSED_KEPT == UNPASSED_KEPT
