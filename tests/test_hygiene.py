"""Source hygiene checks that need only the standard library."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mdpattern.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "mdpattern"
SYNTH = str(Path(__file__).resolve().parent / "data" / "synth" / "manifest.txt")


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


ROOT = SRC.parent.parent


# pyproject.toml allows Python 3.10, so no file of the package, its tests or
# its benchmark may use a later syntax, such as `except*`
@pytest.mark.parametrize("path", sorted(p for d in ("src", "tests", "mdbench")
                                        for p in (ROOT / d).rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_each_python_file_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# -- the test run itself ---------------------------------------------------------
# pyproject.toml turns every warning into an error; a failing property must
# still be reported as one failure, not end the whole run


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(SRC.parent.parent / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert re.match(r"1 failed, 1 passed in ", proc.stdout.splitlines()[-1])


# -- shared atoms ----------------------------------------------------------------
# sexpr.parse_text makes one node for the equal atoms of one source, which is
# safe only while no code changes an atom's content after it is made.

ATOM_FIELDS = {"text", "value"}


def atom_field_writes(source: str) -> list:
    """Assignments, augmented assignments and `setattr` calls that write the
    `.text` or `.value` of anything but `self`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in ATOM_FIELDS):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in ATOM_FIELDS):
            target = node.args[0]
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "self"):
            found.append((node.lineno, ast.unparse(target)))
    return sorted(found)


def test_atom_field_write_detector():
    source = ("self.text = t\nself.value += 1\nsym.text = 'x'\nn.value += 1\n"
              "a.b.text, c = 1, 2\nsetattr(node, 'value', 3)\nsetattr(self, 'text', 4)\n"
              "x = sym.text\nsym.items = []\nsetattr(n, 'items', [])\n")
    assert atom_field_writes(source) == [(3, "sym"), (4, "n"), (5, "a.b"), (6, "node")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_atom_is_changed_after_it_is_made(path):
    assert atom_field_writes(path.read_text(encoding="utf-8")) == []


# -- one nesting bound ---------------------------------------------------------
# sexpr.MAX_DEPTH bounds how deep input nests where it is parsed, so every
# recursive walk of a parsed tree fits the stack and none catches the error.


def names_read(source: str) -> set:
    return {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}


def test_names_read_detector():
    source = "try:\n    f()\nexcept (OSError, RecursionError):\n    pass\n"
    assert "RecursionError" in names_read(source)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_recursion_error_guards(path):
    assert "RecursionError" not in names_read(path.read_text(encoding="utf-8"))


# -- one error type --------------------------------------------------------------
# cli._run reports a mdpattern.Error as `mdpattern: <message>` and exits with its
# status, so an error a layer defines outside that base would be a traceback.


def defined_exceptions(module) -> list:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__]


def test_every_error_is_an_mdpattern_error():
    import mdpattern

    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__main__":  # that one runs the CLI
            module = importlib.import_module(
                "mdpattern" if path.stem == "__init__" else "mdpattern." + path.stem)
            found.update((cls.__name__, cls) for cls in defined_exceptions(module))
    assert {"Error", "SExprError", "MdReaderError", "RtlError", "ArchiveError",
            "SimilarityError", "ManifestError"} <= set(found)
    for name, cls in found.items():
        assert issubclass(cls, mdpattern.Error) and cls.status in (1, 2), name


# -- startup cost ------------------------------------------------------------
# Every command is a process of its own, so what the CLI imports is paid on
# every run.

#: Modules whose import chain costs more than the little they are used for.
SLOW_IMPORTS = {"dataclasses", "typing", "urllib"}


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_detector():
    source = ("import os, urllib.parse\nfrom . import rtl\n"
              "def f():\n    from typing import List\n")
    assert imported_modules(source) == {"os", "urllib", "typing"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_slow_imports(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & SLOW_IMPORTS == set()


_PROBE = """import sys
from mdpattern import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules
                    if m.startswith("mdpattern.") or m in ("json", "dataclasses")))
"""
LAYERS = {"mdpattern." + p.stem for p in SRC.glob("*.py")} - {
    "mdpattern.__init__", "mdpattern.__main__", "mdpattern.cli"}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    out = tmp_path_factory.mktemp("archives")
    assert main(["extract", "alpha", "--manifest", SYNTH, "--out-dir", str(out)]) == 0
    return out


#: What `recombine` and `merge`, which read and write archives only, leave out.
ARCHIVE_ONLY = {"mdpattern.similarity", "mdpattern.manifest", "mdpattern.md_reader",
                "mdpattern.rtl", "mdpattern.sexpr", "json"}
COMMANDS = [
    (["--help"], LAYERS),
    (["stats", "--manifest", SYNTH], {"mdpattern.similarity", "mdpattern.archive", "json"}),
    (["extract", "alpha", "--manifest", SYNTH, "--out-dir", "{dir}"],
     {"mdpattern.similarity", "json"}),
    (["compare", "alpha", "beta", "--manifest", SYNTH], {"mdpattern.archive", "json"}),
    (["matrix", "--manifest", SYNTH], {"mdpattern.archive", "json"}),
    (["recombine", "--patterns", "{dir}/alpha.patterns", "--params", "{dir}/alpha.params",
      "--out", "{dir}/alpha.md"], ARCHIVE_ONLY),
    (["merge", "{dir}/alpha.patterns", "--out", "{dir}/merged.patterns"], ARCHIVE_ONLY),
    (["verify", "--manifest", SYNTH], {"mdpattern.similarity", "json"}),
]


@pytest.mark.parametrize("argv,not_loaded", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_layers(archives, argv, not_loaded):
    argv = [a.format(dir=archives) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert set(loaded) & (not_loaded | {"dataclasses"}) == set()


# -- the seams the traced bench wraps ------------------------------------------
# mdbench/trace_shim.py times layers by patching `rtl.build_template_tree` and
# `pattern.extract_pattern` and counts the nodes of each built tree, so
# `analyze` must call both through their modules, once per template.


def test_analyze_builds_and_extracts_each_template_once(monkeypatch):
    from collections import Counter

    from mdpattern import md_reader, pattern, rtl

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(rtl, "build_template_tree")
    count(pattern, "extract_pattern")
    forms = md_reader.load_md_file(str(Path(SYNTH).parent / "alpha.md"))
    a = pattern.analyze(forms, rtl.RtxCodeTable.default(), "alpha")
    considered = sum(f.kind is md_reader.FormKind.CONSIDERED for f in forms)
    assert a.expr_count == considered == 50
    assert calls == {"build_template_tree": considered, "extract_pattern": considered}


# -- memory ---------------------------------------------------------------------
# A command builds one of these per token, node, form or template, so each
# keeps its fields in slots, not in a per-instance dict.


def test_bulk_instances_have_no_dict():
    from mdpattern import md_reader, pattern, rtl, sexpr

    loc, expr = sexpr.parse_text('(a 1 "s" {b} [c])', "t.md")[0]
    forms = md_reader.load_md_file(str(Path(SYNTH).parent / "alpha.md"))
    form = next(f for f in forms if f.kind is md_reader.FormKind.CONSIDERED)
    tree = rtl.build_template_tree(md_reader.extract_template_vector(form))
    a = pattern.analyze(forms, rtl.RtxCodeTable.default(), "alpha")
    entry = next(a.store.entries())
    instances = [expr, *expr.items, loc, tree, tree.children[0], form,
                 entry, entry.pattern, a.bindings[0]]
    names = {type(obj).__name__ for obj in instances}
    assert names == {"SList", "Symbol", "Integer", "StringLit", "BraceBlock", "SVector",
                     "Loc", "RtlExpr", "TopLevelForm", "StoreEntry", "RtlPattern",
                     "ParamBinding"}
    assert [type(obj).__name__ for obj in instances if hasattr(obj, "__dict__")] == []
