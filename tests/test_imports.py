"""Static checks of the package modules: every name a module imports is
used in it, every public function and class is used by the package, and
no module reads argparse's private names."""
from __future__ import annotations

import argparse
import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trapver"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Public names the package defines but never uses itself, each with the
# reader that keeps it in the package.
UNREFERENCED_ALLOWED = {
    "honest_target_distribution": "the exact oracle the benchmark's checks read",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as
    an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_is_used_by_the_package():
    """A public top-level function or class that no package code reads,
    outside its own definition, is test-only code: it belongs in
    `tests/`, unless `UNREFERENCED_ALLOWED` names the reader that keeps
    it."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in UNREFERENCED_ALLOWED
        and read[node.name] == _references(node)[node.name]
    ]
    assert unread == []


def _argparse_private_names() -> set[str]:
    """The private names (one leading underscore) of the argparse module,
    of a parser with a subcommand and of each of its actions."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--flag", action="store_const", const=True)
    parser.add_subparsers().add_parser("sub").add_argument("--value", type=int)
    return {
        name
        for obj in (argparse, parser, *parser._actions)
        for name in dir(obj)
        if name.startswith("_") and not name.startswith("__")
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_argparse_private_names(path):
    """Options are read off the module's own table, never out of argparse's
    internals: no attribute read of a private name that argparse, a parser
    or an action has, and no private name imported from argparse."""
    private = _argparse_private_names()
    nodes = list(ast.walk(ast.parse(path.read_text())))
    reads = [
        f"{node.lineno}: .{node.attr}"
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    reads += [
        f"{node.lineno}: from argparse import {alias.name}"
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module == "argparse"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert reads == []


def test_the_qubit_cap_is_read_only_by_the_cli():
    """The qubit cap is a budget of the command line, not a precondition
    of the engine: no function outside `cli` takes a ``cap`` parameter,
    and no other module reads ``DEFAULT_QUBIT_CAP``."""
    found = []
    for path in MODULES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                found += [f"{path.name}:{node.lineno}: cap" for a in params if a and a.arg == "cap"]
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if name == "DEFAULT_QUBIT_CAP":
                    found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert found == []
