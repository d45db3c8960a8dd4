"""perfbench/tracing.py patches lab functions by (module, attribute) string,
so a renamed or deleted name would only show as a tracer error at run time.
Here every name in its SPANNED and COUNTED lists must resolve; the file is
read as text, not imported."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LISTS = ("SPANNED", "COUNTED")


def traced_lists() -> dict[str, list[tuple[str, str]]]:
    """The (module, attribute) pairs of each list, by list name."""
    found = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in LISTS:
                    found[target.id] = [(m, a) for m, a, _ in ast.literal_eval(node.value)]
    return found


def test_both_lists_are_read():
    lists = traced_lists()
    assert sorted(lists) == sorted(LISTS)
    assert all(lists.values())


@pytest.mark.parametrize(
    "module, attr", [pair for pairs in traced_lists().values() for pair in pairs]
)
def test_traced_name_resolves(module, attr):
    # A dotted attribute is a method of a class in the module.
    assert callable(reduce(getattr, attr.split("."), importlib.import_module(module)))
