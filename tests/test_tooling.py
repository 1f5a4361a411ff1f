"""The package keeps zero runtime dependencies and a resolvable API."""

import ast
import pathlib
import sys

import privcoal

PACKAGE_DIR = pathlib.Path(privcoal.__file__).parent
ORACLES = pathlib.Path(__file__).parent / "oracles.py"


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


def test_oracles_import_nothing_from_the_package():
    """The brute forces the library is checked against share no code with it."""
    nodes = list(ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))))
    modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    assert modules
    assert not [name for name in modules if name.split(".")[0] == "privcoal"]


def test_every_exported_name_resolves():
    missing = [name for name in privcoal.__all__ if not hasattr(privcoal, name)]
    assert not missing
    assert len(set(privcoal.__all__)) == len(privcoal.__all__)



def _names_used(tree):
    """Every name a syntax tree loads, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_top_level_definition_is_exported_or_used():
    """A function or class the package neither exports nor calls is dead:
    each must be in privcoal.__all__ or named somewhere in the package
    outside its own definition."""
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    uses = [(node, _names_used(node)) for _, node in statements]
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{module}:{node.name}"
        for module, node in statements
        if isinstance(node, definitions)
        and node.name not in privcoal.__all__
        and not any(node.name in names for other, names in uses if other is not node)
    ]
    assert not dead


def test_every_method_and_property_is_used():
    """A non-dunder method or property of a package class is dead unless
    it is named as an attribute somewhere in the package outside its own
    definition."""
    trees = [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    ]

    def attributes(tree):
        return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]

    everywhere = [name for _, tree in trees for name in attributes(tree)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, functions)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere.count(node.name) == attributes(node).count(node.name)
    ]
    assert not dead


def test_no_function_calls_itself():
    """Recursion depth would grow with the input (a walk over r-prefixes
    recursing r levels deep ends in RecursionError past Python's limit),
    so no package function calls itself by its bare name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    recursive = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, functions)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert not recursive


def test_only_errors_holds_the_capacity_policy():
    """Every work and memory bound is compared in errors.py: no other
    package module names ENUMERATION_GUARD or IDENTITY_BOUND, and
    CapacityError is named elsewhere only to import it or to catch it."""
    bounds = {"ENUMERATION_GUARD", "IDENTITY_BOUND"}
    errors = ast.parse((PACKAGE_DIR / "errors.py").read_text())
    assert bounds <= {n.id for n in ast.walk(errors) if isinstance(n, ast.Name)}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        caught = {
            id(name)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None
            for name in ast.walk(handler.type)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            uncaught = not isinstance(node, ast.alias) and id(node) not in caught
            if name in bounds or (name == "CapacityError" and uncaught):
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert not found


def test_audit_reaches_linalg_only_through_its_public_names():
    """Elimination stays in the one kernel: audit.py imports no
    `_`-prefixed name from linalg and reads none off the module, so an
    inline pivot or elimination step has to live in linalg.py as an
    entry of the kernel."""
    path = PACKAGE_DIR / "audit.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imports = [n for n in nodes if isinstance(n, ast.ImportFrom)]
    module_names = {
        alias.asname or alias.name
        for n in imports
        if n.module is None
        for alias in n.names
        if alias.name == "linalg"
    }
    assert module_names
    private = [
        f"{n.lineno}:{alias.name}"
        for n in imports
        if n.module == "linalg"
        for alias in n.names
        if alias.name.startswith("_")
    ]
    private += [
        f"{n.lineno}:{n.attr}"
        for n in nodes
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in module_names
        and n.attr.startswith("_")
    ]
    assert not private
