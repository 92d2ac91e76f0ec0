"""Every public symbol has a caller outside the tests."""

import ast
from pathlib import Path

import diffconv

ROOT = Path(__file__).resolve().parent.parent


def _program_files() -> list[Path]:
    package = [p for p in (ROOT / "src" / "diffconv").glob("*.py") if p.name != "__init__.py"]
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return sorted(package + bench)


def _referenced_names(path: Path) -> set[str]:
    # Uses only: a name read, or an attribute looked up. Definitions and
    # imports alone do not count.
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used_outside_the_tests():
    files = _program_files()
    assert any(p.parent.name == "perfbench" for p in files)
    used = set().union(*(_referenced_names(p) for p in files))
    unused = sorted(set(diffconv.__all__) - used)
    assert not unused, f"exported but never used outside the tests: {unused}"
