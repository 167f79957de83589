"""Every module of the package is reached through the package's own imports.

A module that no other module imports is code no caller of ``repro`` can
reach without naming its file: it is either dead or belongs in a test.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name ``path`` imports, as a module or as a module's attribute."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{node.module}" if node.module else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_another_module():
    files = sorted(PACKAGE.rglob("*.py"))
    imported_by: dict[str, set[str]] = {}
    for path in files:
        for name in _imported_names(path):
            imported_by.setdefault(name, set()).add(_module_name(path))
    orphans = [
        _module_name(path)
        for path in files
        if path.name != "__init__.py"
        and not imported_by.get(_module_name(path), set()) - {_module_name(path)}
    ]
    assert orphans == []
