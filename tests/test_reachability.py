"""Every top-level function and class of the package is reached: its name is
used somewhere in src/anchorlab, or, for a public one, `anchorlab.__all__`
exports it, and README.md names each export. Every public method or property
of a class is read as an attribute somewhere in src/anchorlab, or named in
`PROTOCOL_METHODS`. Code that only tests call belongs in the tests, a private
`_name` too. Every top-level import of a module is used in that module, and
importing the CLI loads no scipy module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import anchorlab

PACKAGE = Path(anchorlab.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


# methods that scikit-learn, not the package, calls on an estimator
PROTOCOL_METHODS = {
    f"AnchorRegression.{name}" for name in ("get_params", "set_params", "fit", "predict", "score")
}


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def unreached_names() -> dict:
    """{name: module file} of each top-level def or class that no name or
    attribute in the package uses and `__all__` does not list."""
    trees = _trees()
    defined = {
        node.name: module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
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
    unreached = unreached_names().items()
    assert {name: module for name, module in unreached if not name.startswith("_")} == {}


def test_every_private_definition_is_reached():
    unreached = unreached_names().items()
    assert {name: module for name, module in unreached if name.startswith("_")} == {}


def unread_members() -> dict:
    """{class.member: module file} of each public method or property of a
    top-level class whose name no attribute in the package reads and that
    `PROTOCOL_METHODS` does not list."""
    trees = _trees()
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    return {
        f"{cls.name}.{node.name}": module
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
        and f"{cls.name}.{node.name}" not in PROTOCOL_METHODS
    }


def test_every_public_method_is_read():
    assert unread_members() == {}


def test_readme_names_every_export():
    # an export is public on purpose: README says which claim or use needs it
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    named = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}
    assert sorted(set(anchorlab.__all__) - named) == []


def unused_imports() -> list:
    """`module.name` of each name a top-level import binds that its module
    never reads; `__init__.py` re-exports and `__future__` are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unused


def test_every_top_level_import_is_used():
    assert unused_imports() == []


def test_cli_import_loads_no_scipy():
    code = "import sys, anchorlab.cli; print(*sorted(sys.modules))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert "anchorlab.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
