"""Every public top-level function and class of the package is reached: its
name is used somewhere in src/anchorlab, or `anchorlab.__all__` exports it.
Code that only tests call belongs in the tests."""

import ast
from pathlib import Path

import anchorlab

PACKAGE = Path(anchorlab.__file__).parent


def unreached_names() -> dict:
    """{name: module file} of each public top-level def or class that no
    name or attribute in the package uses and `__all__` does not list."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        node.name: module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return {
        name: module
        for name, module in defined.items()
        if name not in used and name not in anchorlab.__all__
    }


def test_every_public_definition_is_reached():
    assert unreached_names() == {}
