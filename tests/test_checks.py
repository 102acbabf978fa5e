"""Source-wide rules checked on the syntax tree of every package module.

Every tolerance lives in the table at the top of ``errors.py``, so no other
module holds a small float literal; and every error the library raises is a
``MubTomoError``, so the CLI reports each one on a single stderr line.
Every count flag of the CLI is parsed with its lower bound, and every
float flag as a finite number, so a negative size or an infinite extent is
a usage error rather than a failure inside numpy. Every frozen dataclass
stores its arrays through ``freeze_fields`` before it checks them, so no
check sees a NaN. Only ``qudit_mub`` names ``CanonicalMubSet``, and no
module asks ``isinstance`` of a MUB set class: each set carries its own Born
map, inversion and overlap moduli, so no code picks a route by type.
No module calls ``eigvalsh``: positivity is a yes/no question, answered by
a Cholesky factorization; ``project_to_physical`` needs the eigenvectors
and keeps ``eigh``. Only ``io_formats._parse`` calls ``json.load`` or
``json.loads``, so each input file is parsed once, on one path. No module
calls anything at import, outside decorators and the ``__main__`` guard:
tables, kernels and grids are built per call, so importing the package
costs only its definitions. No module but ``_frozen`` divides by an
expression ``... - 1``: the step of a uniform axis of n samples,
span / (n - 1), is computed only by ``axis_step``, and every other module
stores or asks for that value; none reads it back off an array as
``v[1] - v[0]`` either. No module but ``_frozen`` and ``cli`` checks a
half-extent with the chain ``0 < ... < np.inf``: the library's symmetric
axes go through ``half_axis_step``, and ``cli._half_extent`` checks a
command-line flag, whose fault is a usage error (exit 2). Only ``_frozen``
builds the axis of a frozen type: no ``__post_init__`` calls ``axis_step``,
and no module but ``_frozen`` defines a property that returns
``np.linspace``; each type stores its float ends, step and read-only
samples through ``freeze_axis``.
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
    """A bare float lets inf, nan and 0 through; half-extents use ``_half_extent``."""
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


def test_only_qudit_mub_names_the_canonical_set():
    hits = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in _trees() if name != "qudit_mub.py"
        for node in ast.walk(tree)
        if "CanonicalMubSet" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None))
    ]
    assert not hits, hits


def test_no_module_picks_a_mub_route_by_type():
    sets = {"MubBasisSet", "CanonicalMubSet"}
    hits = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and sets & {getattr(sub, "id", getattr(sub, "attr", None))
                    for arg in node.args[1:] for sub in ast.walk(arg)}
    ]
    assert MODULES and not hits, hits


def test_positivity_is_checked_by_factorization():
    hits = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in _trees() for node in ast.walk(tree)
        if "eigvalsh" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
    ]
    assert MODULES and not hits, hits


def test_json_is_parsed_only_in_parse():
    trees = dict(_trees())
    parse = next(node for node in ast.walk(trees["io_formats.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_parse")
    hits = [
        (name, node.lineno)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and getattr(node.value, "id", None) == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    ]
    assert [(name, parse.lineno <= line <= parse.end_lineno) for name, line in hits] == [
        ("io_formats.py", True)], hits


def test_no_call_runs_at_import():
    """Function bodies run when called; module statements, class bodies and
    default values run at import and may call nothing but decorators."""
    hits = []
    for name, tree in _trees():
        deferred = set()
        for node in ast.walk(tree):
            if _is_main_guard(node):
                parts = [node]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts = node.body + node.decorator_list
            elif isinstance(node, ast.ClassDef):
                parts = node.decorator_list
            elif isinstance(node, ast.Lambda):
                parts = [node.body]
            else:
                continue
            deferred |= {id(sub) for part in parts for sub in ast.walk(part)}
        hits += [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and id(node) not in deferred]
    assert MODULES and not hits, hits


def test_only_frozen_computes_an_axis_step():
    hits = []
    for name, tree in _trees():
        if name == "_frozen.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                op, divisor = node.op, node.right
            elif isinstance(node, ast.AugAssign):
                op, divisor = node.op, node.value
            else:
                continue
            if (isinstance(op, ast.Div) and isinstance(divisor, ast.BinOp)
                    and isinstance(divisor.op, ast.Sub) and ast.unparse(divisor.right) == "1"):
                hits.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert MODULES and not hits, hits


def test_no_step_is_read_off_an_array():
    hits = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in _trees() if name != "_frozen.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and all(isinstance(side, ast.Subscript) for side in (node.left, node.right))
        and ast.unparse(node.left.value) == ast.unparse(node.right.value)
        and (ast.unparse(node.left.slice), ast.unparse(node.right.slice)) == ("1", "0")
    ]
    assert MODULES and not hits, hits


def test_only_frozen_and_cli_check_a_half_extent():
    hits = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in _trees() if name not in ("_frozen.py", "cli.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "0"
        and [type(op) for op in node.ops] == [ast.Lt, ast.Lt]
        and ast.unparse(node.comparators[-1]) == "np.inf"
    ]
    assert MODULES and not hits, hits


def test_only_frozen_builds_a_type_axis():
    hits = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            calls = [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)]
            returns = [sub.value for sub in ast.walk(node) if isinstance(sub, ast.Return)]
            if node.name == "__post_init__" and any(
                    ast.unparse(call.func).endswith("axis_step") for call in calls):
                hits.append(f"{name}:{node.lineno} __post_init__ calls axis_step")
            if name != "_frozen.py" and "property" in map(ast.unparse, node.decorator_list) and any(
                    isinstance(value, ast.Call) and ast.unparse(value.func) == "np.linspace"
                    for value in returns):
                hits.append(f"{name}:{node.lineno} property {node.name} returns np.linspace")
    assert MODULES and not hits, hits
