"""Every entry point the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` resolves its TARGETS with ``getattr`` and no
default, so a renamed or deleted function only breaks ``--trace 1`` runs.
The list is read from the file's source; the tracer is not installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACER}")


TARGETS = tracer_targets()


@pytest.mark.parametrize("modname,attr,name,kind", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(modname, attr, name, kind):
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        member = getattr(mod, cls_name).__dict__[meth]
        if kind == "classmethod":
            assert isinstance(member, classmethod)
            member = member.__func__
    else:
        member = getattr(mod, attr)
    assert callable(member)
