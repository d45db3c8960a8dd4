"""A module-level constant that no code in the package reads is a knob that
turns nothing.  Every upper-case name assigned at the top level of a module
under src/besov_wave_lab must be read somewhere in the package: as a name
in its own module, or through an import or an attribute in another.  The
files are read as text, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besov_wave_lab"


def trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def constants(tree: ast.Module) -> list[str]:
    """Upper-case names a module assigns at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def reads(tree: ast.Module) -> set[str]:
    """Names a module loads, bare or as the attribute of another name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def test_the_package_has_constants():
    assert any(constants(tree) for tree in trees().values())


def test_every_constant_is_read():
    modules = trees()
    read = set().union(*(reads(tree) for tree in modules.values()))
    unread = [
        f"{name}: {constant}"
        for name, tree in modules.items()
        for constant in constants(tree)
        if constant not in read
    ]
    assert not unread, f"constants no code in the package reads: {unread}"
