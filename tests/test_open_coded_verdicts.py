"""reporting.Check is the one rule that turns a value into a verdict.  A
status written out by hand elsewhere in the package, a `"pass" if ...` or
a bare "fail", would be a second rule beside it, so every other module is
read as text and searched for one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besov_wave_lab"
RULE = PACKAGE / "reporting.py"


def open_coded(source: str) -> list[int]:
    """Lines of each conditional that yields "pass" and each "fail" literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.IfExp):
            branches = {getattr(b, "value", None) for b in (node.body, node.orelse)}
            if "pass" in branches:
                found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == "fail":
            found.append(node.lineno)
    return sorted(set(found))


def test_the_search_finds_open_coded_verdicts():
    assert open_coded('ok = "pass" if x < tol else "fail"\n') == [1]
    assert open_coded('status = "fail"\nok = x if y else "pass"\n') == [1, 2]
    assert open_coded('ok = check.status == "pass"\n') == []
    assert open_coded(RULE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p != RULE)
)
def test_no_verdict_outside_the_check_record(module):
    assert open_coded((PACKAGE / module).read_text(encoding="utf-8")) == []
