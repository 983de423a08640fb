"""Every definition and every setting in ``src/searn`` has a use there.

A module-level function or class, or a method of a module-level class,
that only tests reach is code kept for a test: it goes, or it is listed in
KEPT (a method as ``Class.method``) with the reason it stays.  A use of a
module-level name is a name lookup (``ast.Name``) anywhere in the package
outside the definition itself; an import alone is not one.  A method is
used when its name appears as an attribute (``x.method``) or a name
anywhere in the package outside the method itself.  Dunder methods are
not checked.

A setting is a parameter with a default, or a field with a default of a
dataclass or NamedTuple (fields declared ``init=False`` hold state and
are not settings).  Each must be set by some call in the package, or be
listed in KEPT as ``Owner.name``.  Calls are matched by name: a call of
``f`` or ``x.f`` may set a parameter of any function or method named
``f``, and a call of a class sets its ``__init__`` parameters or its
fields.  It sets a value by keyword, by position, through ``*`` or
``**``, or (for a field) as a keyword of ``dataclasses.replace``.

Every default is relied on: a setting that every package call of its
name sets has a default no run reads, so the parameter or field is
required instead, unless KEPT names a reader outside ``src/`` that is
not a test.  A run's value is decided in ``cli._RUNS`` or by the code
that calls the function.

Every parameter is read: for each function or method name, a parameter
(other than ``self`` and ``cls``) of some definition of that name must be
read by at least one definition of that name that is not abstract.  An
override may ignore what another override reads, so a hook still takes
only what some task reads.  Dunder methods are not checked; KEPT lists
no parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "searn"

# name -> why it stays although nothing in the package uses it, sets it
# or relies on its default
KEPT = {
    "random_parse_baseline": "imported by tests/test_golden.py",
    **{f"LROptimizerConfig.{name}": "tests cap epochs; perfbench/tracing.py "
       "reads max_epochs"
       for name in ("max_epochs", "grad_tol", "initial_step", "armijo",
                    "backtrack", "min_step")},
    "main.argv": "tests and perfbench/harness.py pass the argument list",
    "as_dict.interner": "tests read feature vectors by name through it",
    "FeatureVector.as_dict": "tests read feature vectors by name through it",
}


def _trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))]


def _used_outside(definition, uses) -> bool:
    own = {id(n) for n in ast.walk(definition)}
    return any(id(use) not in own for use in uses)


def unreferenced() -> set:
    trees = _trees()
    names, attrs = defaultdict(list), defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                attrs[node.attr].append(node)
    out = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _used_outside(node, names[node.name]):
                out.add(node.name)
            if isinstance(node, ast.FunctionDef):
                continue
            for fn in node.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))
                        and not _used_outside(
                            fn, names[fn.name] + attrs[fn.name])):
                    out.add(f"{node.name}.{fn.name}")
    return out


# ---------------------------------------------------------------------------
# Settings


def _callee(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated fields are settings."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in cls.bases)


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call) and _callee(value) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _params(fn: ast.FunctionDef, bound: bool):
    """(name, position or None) of each defaulted parameter; positions
    count from the first argument a caller passes."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if bound else 0
    first = len(positional) - len(fn.args.defaults)
    for pos, arg in enumerate(positional):
        if pos >= first:
            yield arg.arg, pos - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def settings() -> dict:
    """``Owner.name`` -> (callee name, position or None, name, is_field)."""
    out = {}
    for tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for name, pos in _params(node, bound=False):
                    out[f"{node.name}.{name}"] = (node.name, pos, name, False)
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_record(node):
                fields = [s for s in node.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)
                          and not _init_false(s.value)]
                for pos, s in enumerate(fields):
                    if s.value is not None:
                        name = s.target.id
                        out[f"{node.name}.{name}"] = (node.name, pos, name,
                                                      True)
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                for name, pos in _params(fn, bound=not static):
                    out[f"{callee}.{name}"] = (callee, pos, name, False)
    return out


def _calls() -> list:
    return [node for tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call)]


def _sets(call: ast.Call, pos, name: str) -> bool:
    starred = [i for i, a in enumerate(call.args)
               if isinstance(a, ast.Starred)]
    reach = starred[0] if starred else len(call.args)
    return (any(k.arg in (name, None) for k in call.keywords)
            or (pos is not None and (pos < reach or bool(starred))))


def unset_settings() -> set:
    calls = _calls()
    replaced = {k.arg for c in calls if _callee(c) == "replace"
                for k in c.keywords}
    return {qualname
            for qualname, (callee, pos, name, is_field) in settings().items()
            if not (is_field and name in replaced)
            and not any(_sets(c, pos, name) for c in calls
                        if _callee(c) == callee)}


def unrelied_defaults() -> set:
    """Settings that every package call of their name sets."""
    calls = _calls()
    out = set()
    for qualname, (callee, pos, name, _) in settings().items():
        matching = [c for c in calls if _callee(c) == callee]
        if matching and all(_sets(c, pos, name) for c in matching):
            out.add(qualname)
    return out


# ---------------------------------------------------------------------------
# Parameters


def _abstract(fn: ast.FunctionDef) -> bool:
    return any((isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
               or (isinstance(d, ast.Name) and d.id == "abstractmethod")
               for d in fn.decorator_list)


def unread_parameters() -> set:
    """``name.parameter`` for each parameter that no non-abstract
    definition of the function or method ``name`` reads."""
    definitions = defaultdict(list)
    for tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and not _abstract(node)
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                definitions[node.name].append(node)
    out = set()
    for name, fns in definitions.items():
        params, reads = set(), set()
        for fn in fns:
            args = fn.args
            params.update(a.arg for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a is not None]))
            reads.update(n.id for n in ast.walk(fn)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load))
        out.update(f"{name}.{p}" for p in params - reads - {"self", "cls"})
    return out


def test_every_definition_is_used_in_the_package():
    assert sorted(unreferenced() - KEPT.keys()) == []


def test_every_setting_is_set_in_the_package():
    assert sorted(unset_settings() - KEPT.keys()) == []


def test_every_default_is_relied_on_in_the_package():
    assert sorted(unrelied_defaults() - KEPT.keys()) == []


def test_every_parameter_is_read_in_the_package():
    assert sorted(unread_parameters()) == []


def test_every_kept_name_is_still_unused():
    # an entry whose name gained a use in the package, or is gone, is stale
    kept_settings = KEPT.keys() & settings().keys()
    assert sorted(KEPT.keys() - kept_settings - unreferenced()) == []
    assert sorted(kept_settings - unset_settings()
                  - unrelied_defaults()) == []
