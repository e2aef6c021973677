"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdpattern"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_module_reads(source: str) -> list:
    """Reads of a `_`-prefixed attribute of another mdpattern module."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or node.module.partition(".")[0] == "mdpattern":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "mdpattern"):
                    modules.add(alias.asname or alias.name)
    found.extend((n.lineno, "%s.%s" % (n.value.id, n.attr)) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr.startswith("_")
                 and isinstance(n.value, ast.Name) and n.value.id in modules)
    return sorted(found)


def test_private_module_read_detector():
    source = ("from . import rtl, sexpr as s\nfrom mdpattern.pattern import _walk, analyze\n"
              "from mdpattern import cli\nrtl._build_arg(s.parse)\n"
              "s._CLOSER\ncli._Parser\nanalyze._x\nself._y\n")
    assert private_module_reads(source) == [
        (2, "_walk"), (4, "rtl._build_arg"), (5, "s._CLOSER"), (6, "cli._Parser")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_module_reads(path):
    assert private_module_reads(path.read_text(encoding="utf-8")) == []


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nx: d = sys.argv\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
