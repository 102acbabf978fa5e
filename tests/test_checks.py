"""Source-wide rules checked on the syntax tree of every package module.

Every tolerance lives in the table at the top of ``errors.py``, so no other
module holds a small float literal; and every error the library raises is a
``MubTomoError``, so the CLI reports each one on a single stderr line.
Every count flag of the CLI is parsed with its lower bound, and every
float flag as a finite number, so a negative size or an infinite extent is
a usage error rather than a failure inside numpy. Every frozen dataclass
stores its arrays through ``freeze_fields`` before it checks them, so no
check sees a NaN.
"""

import ast
from pathlib import Path

import mubtomo
from mubtomo import errors

MODULES = sorted(Path(mubtomo.__file__).parent.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES]


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def test_tolerances_are_defined_only_in_errors():
    hits = [
        f"{name}:{node.lineno} {node.value!r}"
        for name, tree in _trees() if name != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-3
    ]
    assert MODULES and not hits, hits


def test_every_raise_is_a_library_error():
    hits = []
    for name, tree in _trees():
        exempt = {id(node) for guard in ast.walk(tree) if _is_main_guard(guard)
                  for node in ast.walk(guard)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or id(node) in exempt:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(errors, getattr(exc, "id", getattr(exc, "attr", "")), None)
            if not (isinstance(cls, type) and issubclass(cls, errors.MubTomoError)):
                hits.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not hits, hits


def test_cli_count_flags_are_bounded():
    """Only ``--dim`` is a bare int: its domain errors (NotPrime,
    EvenDimension) are the library's to raise."""
    tree = dict(_trees())["cli.py"]
    hits = [
        f"cli.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
        and any(kw.arg == "type" and ast.unparse(kw.value) == "int" for kw in node.keywords)
        and ast.literal_eval(node.args[0]) != "--dim"
    ]
    assert not hits, hits


def test_cli_has_no_bare_float_flags():
    """A bare float lets inf and nan through; extents use ``_finite``."""
    tree = dict(_trees())["cli.py"]
    hits = [
        f"cli.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "type"
        and ast.unparse(node.value) == "float"
    ]
    assert not hits, hits


def test_post_init_freezes_fields_first():
    inits = [
        (name, node) for name, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        and "freeze_fields(" in ast.unparse(node)
    ]
    hits = [f"{name}:{node.lineno}" for name, node in inits
            if not ast.unparse(node.body[0]).startswith("freeze_fields(")]
    assert inits and not hits, hits
