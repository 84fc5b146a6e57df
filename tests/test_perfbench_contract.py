"""Every function the benchmark traces must exist where perfbench/spans.py looks for it.

spans.py is parsed, not imported, so the benchmark directory is only read.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED tuple")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    for name, modname, attr in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert cls is not None and member in vars(cls), f"{name}: {modname}.{attr} is not in the class dict"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {modname}.{attr} is not a callable"
