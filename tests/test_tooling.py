"""The package keeps zero runtime dependencies and a resolvable API."""

import ast
import pathlib
import sys

import privcoal

PACKAGE_DIR = pathlib.Path(privcoal.__file__).parent


def test_imports_are_relative_or_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_every_exported_name_resolves():
    missing = [name for name in privcoal.__all__ if not hasattr(privcoal, name)]
    assert not missing
    assert len(set(privcoal.__all__)) == len(privcoal.__all__)
