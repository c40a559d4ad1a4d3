"""The functions the traced benchmark wraps still exist under their names.

`perfbench/tracing.py` wraps each `(module, attr)` of its `BOUNDARIES`
by name.  A rename in `coxmodel` would make every traced benchmark run
fail; this reads the table with `ast`, without importing the harness, and
resolves each name the way `Recorder.install` does.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_every_traced_boundary_resolves():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    modules = ast.literal_eval(_assigned(tree, "MODULES"))
    boundaries = [
        (entry.elts[0].value, entry.elts[1].value)
        for entry in _assigned(tree, "BOUNDARIES").elts
    ]
    assert boundaries
    for mod, attr in boundaries:
        assert mod in modules, mod
        owner = importlib.import_module(f"coxmodel.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (mod, attr)
        else:
            assert callable(getattr(owner, attr, None)), (mod, attr)
