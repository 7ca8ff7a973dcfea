"""The benchmark's span list names real functions of the package, so a
rename fails here and not only in a benchmark run."""
import ast
import importlib
import pathlib

import pytest

SPANS = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
         / "spans.py")


def traced_names():
    """The (module, attribute path) pairs of `TRACED` in perfbench/spans.py,
    read from its source (nothing is imported or written there)."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED list")


@pytest.mark.parametrize("module,path", traced_names(),
                         ids=lambda x: x)
def test_traced_name_resolves(module, path):
    obj = importlib.import_module(f"toriclg.{module}")
    for part in path.split("."):
        assert hasattr(obj, part), f"toriclg.{module} has no {path}"
        obj = getattr(obj, part)
    assert callable(obj)
