"""Invariant checks must be real raises, so that `python -O` keeps them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import coxmodel

SRC = Path(coxmodel.__file__).resolve().parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # neither `assert` nor `raise AssertionError`: invariants raise
    # RuntimeError like the rest of the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node))
    ]
    assert found == []


_REJECTIONS = """
import sys
from coxmodel.oracle import Group

assert False, "unreachable under -O"
mult = lambda x, y: tuple(x[i - 1] if i > 0 else -x[-i - 1] for i in y)
cases = {
    "three-cycle": [(2, 3, 1)],
    "not Coxeter": [(-1, 2), (1, -2), (-1, -2)],
}
for name, gens in cases.items():
    ident = tuple(range(1, len(gens[0]) + 1))
    try:
        Group(name, gens, mult, ident)
    except (ValueError, RuntimeError) as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
    else:
        print(f"{name}: accepted")
print(f"optimize={sys.flags.optimize}")
"""


def test_group_rejects_non_coxeter_generators_under_dash_o():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECTIONS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("three-cycle: ValueError: ")
    assert "not an involution" in lines[0]
    assert lines[1] == "not Coxeter: RuntimeError: length function is not Coxeter-like"
    assert lines[2] == "optimize=1"


_FLIPPED_TABLE = """
import sys
from coxmodel import oracle as oc

assert False, "unreachable under -O"
columns = oc.irr_column
calls = []


def flipped(ctype, labels, w):
    values = list(columns(ctype, labels, w))
    calls.append(w)
    if len(calls) == 2:
        values[0] = -values[0]
    return tuple(values)


oc.irr_column = flipped
for ctype, n in (("A", 4), ("B", 3), ("D", 4)):
    calls.clear()
    try:
        oc._irr_table(oc.build_group(ctype, n), ctype, n)
    except RuntimeError:
        print(f"{ctype}{n}: RuntimeError")
    else:
        print(f"{ctype}{n}: accepted")
print(f"optimize={sys.flags.optimize}")
"""


def test_character_table_audit_rejects_a_flipped_value_under_dash_o():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FLIPPED_TABLE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "A4: RuntimeError",
        "B3: RuntimeError",
        "D4: RuntimeError",
        "optimize=1",
    ]


def test_traced_boundaries_resolve():
    # perfbench/tracing.py wraps each (module, attr) of its BOUNDARIES by
    # name from outside the package, the way Recorder.install resolves it
    # below; a rename or deletion must fail here, not in a traced run
    import importlib
    import importlib.util
    import inspect

    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.BOUNDARIES) > 30
    missing = []
    for mod, attr, _ in tracing.BOUNDARIES:
        assert mod in tracing.MODULES, mod
        owner = importlib.import_module(f"coxmodel.{mod}")
        if "." in attr:
            # methods are replaced on the class, so they must be its own
            cls_name, meth = attr.split(".")
            found = vars(getattr(owner, cls_name, object)).get(meth)
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{mod}.{attr}")
    assert missing == []
    # the enumeration measure reads these arguments by name
    enumerate_indices = importlib.import_module("coxmodel.model_index").enumerate_indices
    assert list(inspect.signature(enumerate_indices).parameters) == ["ctype", "n", "mf_only"]
