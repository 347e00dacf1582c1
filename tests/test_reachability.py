"""Every public name of `splatmem` is reached, every defaulted
parameter is passed by some call and omitted by another, and every run
config value is set by a flag or a caller.

The package is parsed with `ast`. The callers are the modules of the
package other than `__init__.py`, and the benchmark's modules in
`perfbench/`. A public top-level function or class passes when a caller
names it, as a variable, an attribute or an import, outside the name's
own definition. A public class constant or annotated (dataclass) field
of a public class passes when a caller names it as an attribute outside
its own definition; a public method or property, only when a caller
names it outside its own class, since one that only its class calls is
a helper of that class. The re-exports of `__init__.py` do not count:
they would keep any name alive. Neither do the tests: code that only they reach belongs
in `tests/oracle.py`.

Members are matched by attribute name only, not by the class they
belong to: a `voxel_size` field of any class passes as long as some
caller reads `mem.fusion.voxel_size`, whether or not anything reads that
class's `voxel_size`. A pass here is therefore necessary, not
sufficient, for a member to be live.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import splatmem.cli as cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splatmem"


@functools.cache
def package_modules() -> dict[str, ast.Module]:
    # parsed once, so that a caller node and a definition's own nodes are
    # the same objects and a name's own definition can be told apart
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def caller_nodes() -> list[ast.AST]:
    trees = list(package_modules().values())
    trees += [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return [node for tree in trees for node in ast.walk(tree)]


def unreached_names() -> list[str]:
    uses: list[tuple[str, ast.AST]] = []
    for node in caller_nodes():
        if isinstance(node, ast.Name):
            uses.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node))
        elif isinstance(node, ast.ImportFrom):
            uses.extend((alias.name, node) for alias in node.names)
    out = []
    for mod, tree in package_modules().items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(use) not in own for name, use in uses):
                out.append(f"{mod}.{node.name}")
    return out


def unreached_members() -> list[str]:
    """Public methods and properties of public classes that no caller names
    as an attribute outside the class, and public class constants and
    annotated fields that none names outside their own definition."""
    attrs = [(node.attr, node) for node in caller_nodes() if isinstance(node, ast.Attribute)]
    out = []
    for mod, tree in package_modules().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            in_class = {id(n) for n in ast.walk(cls)}
            for node in cls.body:
                own = {id(n) for n in ast.walk(node)}
                if isinstance(node, ast.FunctionDef):
                    names, own = [node.name], in_class
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:  # docstrings
                    continue
                for name in names:
                    if name.startswith("_"):
                        continue
                    if not any(a == name and id(use) not in own for a, use in attrs):
                        out.append(f"{mod}.{cls.name}.{name}")
    return out


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_every_public_member_is_reached():
    assert unreached_members() == []


# Defaulted parameters that no call in src/ passes, kept on purpose.
UNPASSED_KEPT = {
    # the console-script entry point takes sys.argv; tests pass argv
    "cli.main(argv)",
    # tests tighten the tolerance on grids they normalise themselves
    "grid.check_normalized(tol)",
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


def parameter_calls(callers: list[ast.AST]) -> dict[str, list[bool]]:
    """For each defaulted parameter of the functions and methods in
    `splatmem`, named "module.function(parameter)", whether each call
    among `callers` passes it, by keyword or by position. A call is
    matched by the called name alone; one with *args or **kwargs passes
    every parameter."""
    calls: dict[str, list[ast.Call]] = {}
    for node in callers:
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)
    out = {}
    for mod, tree in package_modules().items():
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
                out[f"{mod}.{fn.name}({name})"] = [passes(c) for c in calls.get(fn.name, [])]
    return out


def unpassed_parameters() -> list[str]:
    """Defaulted parameters that no call in the package passes."""
    package = [node for tree in package_modules().values() for node in ast.walk(tree)]
    return [p for p, passed in parameter_calls(package).items() if not any(passed)]


def always_passed_parameters() -> list[str]:
    """Defaulted parameters that some call in the package or in
    `perfbench/` passes and none omits: their defaults are dead."""
    return [p for p, passed in parameter_calls(caller_nodes()).items()
            if passed and all(passed)]


def test_every_defaulted_parameter_is_passed():
    assert sorted(set(unpassed_parameters()) - UNPASSED_KEPT) == []


def test_kept_parameters_are_still_unpassed():
    # a kept parameter that src/ starts to pass, or that is deleted, leaves the list
    assert set(unpassed_parameters()) & UNPASSED_KEPT == UNPASSED_KEPT


def test_every_defaulted_parameter_is_omitted_by_some_call():
    assert always_passed_parameters() == []


def config_fields() -> list[tuple[str, str, str]]:
    """(dotted key, dataclass name, field name) of each field of
    `cli.RunConfig` and of its sections: every settable config value."""
    out = []
    for f in dataclasses.fields(cli.RunConfig):
        section = f.default_factory
        if dataclasses.is_dataclass(section):
            out += [(f"{f.name}.{g.name}", section.__name__, g.name)
                    for g in dataclasses.fields(section)]
        else:
            out.append((f.name, "RunConfig", f.name))
    return out


def unset_config_values() -> list[str]:
    """Dotted keys of the config values that no run flag sets and that no
    module of the package or of `perfbench/` passes by keyword to the
    field's dataclass."""
    flagged = {key for _, key, _ in cli._RUN_FLAGS}
    passed = set()
    for node in caller_nodes():
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            passed.update((name, k.arg) for k in node.keywords)
    return [key for key, cls, name in config_fields()
            if key not in flagged and (cls, name) not in passed]


def test_every_config_value_is_set():
    assert unset_config_values() == []


# Every settable config value: the run flags' keys plus the lift grid,
# which the benchmark sets in code. A knob added or removed edits this list.
SETTABLE_KEYS = [
    "fusion.voxel_size", "mode", "n_frames", "noise.depth_sigma", "noise.flip_prob",
    "noise.logit_noise", "output_dir", "scene", "stub.grid_h", "stub.grid_w",
    "stub_seed", "trajectory_seed",
]


def test_settable_config_keys_are_pinned():
    assert sorted(key for key, _, _ in config_fields()) == SETTABLE_KEYS
