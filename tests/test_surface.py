"""The package exports nothing that only the tests use.

Every name in a ``tdglfem`` module's ``__all__`` must be loaded somewhere in
the package (a name, an attribute or an import) or be documented in README.md.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import tdglfem

PACKAGE = Path(tdglfem.__file__).parent
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def loaded_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_reached_or_documented():
    loaded = loaded_names()
    unreached = []
    for info in pkgutil.iter_modules(tdglfem.__path__):
        module = importlib.import_module("tdglfem." + info.name)
        for name in getattr(module, "__all__", ()):
            if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", README):
                unreached.append(f"{info.name}.{name}")
    assert not unreached, f"exported but reached only from outside the package: {unreached}"
