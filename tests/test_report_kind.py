"""experiments.run_experiment is the one writer of a report's kind: it names
each report after its registry entry.  A kind passed to an ExperimentReport,
or an assignment to a `.kind` anywhere else, would be a second name beside
the registry's, so every module of the package is parsed and searched for
one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besov_wave_lab"
WRITER = "run_experiment"


def kind_writes(source: str, allowed: str | None = None) -> list[int]:
    """Lines of each ExperimentReport call that passes a kind (by keyword
    or as its first argument) and of each assignment to a .kind attribute
    outside the function named allowed."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == allowed
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "ExperimentReport" and (
                node.args or any(k.arg == "kind" for k in node.keywords)
            ):
                found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if id(node) not in inside and any(
                isinstance(t, ast.Attribute) and t.attr == "kind"
                for target in targets
                for t in ast.walk(target)
            ):
                found.append(node.lineno)
    return sorted(set(found))


def test_the_search_finds_kind_writes():
    assert kind_writes('r = ExperimentReport(kind="x", scalars={})\n') == [1]
    assert kind_writes('r = reporting.ExperimentReport("x")\nr.kind = "y"\n') == [1, 2]
    assert kind_writes('r, s.kind = 1, "x"\n') == [1]
    assert kind_writes('r = ExperimentReport(scalars={})\nkind = "x"\nk = r.kind\n') == []
    nested = f'def {WRITER}(r):\n    r.kind = "x"\n'
    assert kind_writes(nested) == [2]
    assert kind_writes(nested, WRITER) == []


def test_run_experiment_names_the_report():
    source = (PACKAGE / "experiments.py").read_text(encoding="utf-8")
    assert kind_writes(source) != kind_writes(source, WRITER)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_report_named_outside_run_experiment(module):
    allowed = WRITER if module == "experiments.py" else None
    assert kind_writes((PACKAGE / module).read_text(encoding="utf-8"), allowed) == []
