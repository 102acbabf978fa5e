"""Source-wide rules checked on the syntax tree of every package module.

Every tolerance lives in the table at the top of ``errors.py``, so no other
module holds a small float literal; and every error the library raises is a
``MubTomoError``, so the CLI reports each one on a single stderr line.
Every count flag of the CLI is parsed with its lower bound, so a negative
size is a usage error rather than a failure inside numpy.
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
