"""Every public symbol has a caller outside the tests; every exported name
has one outside the module that defines it."""

import ast
import dataclasses
import inspect
from pathlib import Path

import diffconv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffconv"


def _program_files() -> list[Path]:
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return sorted(package + bench)


def _referenced_names(path: Path) -> set[str]:
    # Uses only: a name read, an attribute looked up, or a call keyword.
    # Definitions and imports alone do not count.
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def _names_per_file() -> dict[Path, set[str]]:
    files = _program_files()
    assert any(p.parent.name == "perfbench" for p in files)
    return {p: _referenced_names(p) for p in files}


def _used_names() -> set[str]:
    return set().union(*_names_per_file().values())


def _defining_files() -> dict[str, Path]:
    # Each name that ``__init__.py`` imports, and the module it imports it from.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: PACKAGE / f"{node.module}.py"
            for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_is_used_outside_the_tests():
    # A module's own uses of a name it exports do not count.
    home, names = _defining_files(), _names_per_file()
    unused = sorted(name for name in diffconv.__all__
                    if not any(name in names[p] for p in names if p != home[name]))
    assert not unused, f"exported but never used outside the tests and its module: {unused}"


def _public_members(cls: type) -> set[str]:
    # Methods, properties and class attributes defined on the class itself,
    # plus its dataclass fields (which need not be class attributes).
    members = {name for name in vars(cls) if not name.startswith("_")}
    if dataclasses.is_dataclass(cls):
        members |= {field.name for field in dataclasses.fields(cls)}
    return members


def test_every_public_member_of_an_exported_class_is_used_outside_the_tests():
    used = _used_names()
    classes = [obj for obj in map(diffconv.__dict__.get, diffconv.__all__) if inspect.isclass(obj)]
    assert classes
    unused = sorted(
        f"{cls.__name__}.{name}" for cls in classes for name in _public_members(cls) - used
    )
    assert not unused, f"public but never used outside the tests: {unused}"
