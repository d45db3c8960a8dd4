"""Every transform of the package goes through one helper pair,
grid._rfft and grid._irfft, so a backend, a tracer or a convention change
has one place to act.  Here no module under src/besov_wave_lab calls an
FFT transform (numpy.fft, scipy.fft) outside those two functions; the
frequency helpers fftfreq and rfftfreq are allowed.  The files are read as
text, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besov_wave_lab"
HELPERS = {("grid.py", "_rfft"), ("grid.py", "_irfft")}
FREQUENCY_HELPERS = {"fftfreq", "rfftfreq"}


def transform_calls(name: str, tree: ast.AST, inside: str = "") -> list[str]:
    """'module:line function' of every *.fft.<transform>(...) call in tree,
    outside the helper pair."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (name, node.name) not in HELPERS:
                found += transform_calls(name, node, node.name)
            continue
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "fft"
            and func.attr not in FREQUENCY_HELPERS
        ):
            found.append(f"{name}:{node.lineno} {inside or '<module>'}")
        found += transform_calls(name, node, inside)
    return found


def test_the_helper_pair_calls_numpy_fft():
    grid = ast.parse((PACKAGE / "grid.py").read_text(encoding="utf-8"))
    helpers = [node for node in grid.body if isinstance(node, ast.FunctionDef)
               and ("grid.py", node.name) in HELPERS]
    assert len(helpers) == 2
    assert all(transform_calls("", ast.Module(body=h.body, type_ignores=[])) for h in helpers)


def test_no_transform_outside_the_helper_pair():
    calls = [
        call
        for path in sorted(PACKAGE.glob("*.py"))
        for call in transform_calls(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not calls, f"FFT transforms called outside grid._rfft/_irfft: {calls}"
