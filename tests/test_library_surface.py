"""The library keeps only what a flow, a check or the CLI reaches.

Every public function, class and method that ``lrsim.liecore``,
``lrsim.operators``, ``lrsim.integrators`` or ``lrsim.diagnostics`` defines
must be used somewhere in ``src/lrsim`` besides its own definition, or be
named in ``perfbench/tracer.py``, which wraps library functions from
outside.  A helper that only the tests call belongs
in ``tests/helpers.py`` or ``tests/oracles.py``.

The check reads the source with ``ast`` and imports nothing.  A module-level
name counts as used when its own module names it bare, or another module
names it as ``alias.name`` through an alias of the defining module, or
imports it with ``from ... import``.  A method counts as used when an
attribute of that name is read from anything but an imported module, since
the type behind an attribute is not known from the source alone.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lrsim"
TRACER = ROOT / "perfbench" / "tracer.py"


def _owned_nodes(tree):
    """(owner, node) over a module: the owner of a node is the top-level
    function or class it sits in, or ``Class.method`` inside a method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                owner = f"{stmt.name}.{item.name}" if isinstance(item, ast.FunctionDef) else stmt.name
                yield from ((owner, node) for node in ast.walk(item))
        else:
            yield from ((getattr(stmt, "name", None), node) for node in ast.walk(stmt))


def _public_definitions(tree):
    """Qualified names of the public top-level functions and classes and of
    the public methods of those classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{stmt.name}.{item.name}"


def _root(node):
    """The name an attribute chain such as ``np.linalg.solve`` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@cache
def _library():
    return tuple((path, ast.parse(path.read_text())) for path in LIBRARY.rglob("*.py"))


def _uses(module):
    """The owners of each use of a module-level name of ``lrsim.<module>`` in
    the library, and of each attribute read in it from something other than
    an imported module, by name; the owner is None outside the module itself."""
    uses, attributes = defaultdict(set), defaultdict(set)
    for path, tree in _library():
        own = path == LIBRARY / f"{module}.py"
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        aliases = {
            alias.asname or alias.name
            for node in imports if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == module
        }
        # import x, import x.y as z and from . import x bind modules
        modules = {
            alias.asname or alias.name.split(".")[0]
            for node in imports if isinstance(node, ast.Import) or node.module is None
            for alias in node.names
        }
        for owner, node in _owned_nodes(tree):
            owner = owner if own else None
            if isinstance(node, ast.Attribute):
                if _root(node) not in modules:
                    attributes[node.attr].add(owner)
                elif isinstance(node.value, ast.Name) and node.value.id in aliases:
                    uses[node.attr].add(None)
            elif isinstance(node, ast.Name) and own:
                uses[node.id].add(owner)
            elif isinstance(node, ast.ImportFrom) and node.module == module:
                for alias in node.names:
                    uses[alias.name].add(None)
    return uses, attributes


def _tracer_names():
    """Identifiers and string constants, and their dotted parts, in the tracer."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


@pytest.mark.parametrize("module", ["liecore", "operators", "integrators", "diagnostics"])
def test_every_public_definition_is_reached_from_the_library(module):
    tree = dict(_library())[LIBRARY / f"{module}.py"]
    uses, attributes = _uses(module)
    traced = _tracer_names()
    unreached = []
    for qualified in _public_definitions(tree):
        name = qualified.rpartition(".")[2]
        owners = (attributes if "." in qualified else uses)[name]
        reached = bool(owners - {qualified})
        if not (reached or name in traced):
            unreached.append(qualified)
    assert not unreached, (
        f"lrsim.{module} defines names that only code outside src/lrsim reaches: "
        f"{', '.join(unreached)}; a test-only helper belongs in tests/"
    )
