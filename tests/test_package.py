import ast
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bcf
from bcf import cli, errors
from bcf.cli import main

ARGV = ["expand", "rat:7/4", "--depth", "10"]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FAMILY_CODES = {
    errors.ParseError: 2,
    errors.PrecisionError: 3,
    errors.AlgebraError: 4,
    errors.UnsupportedError: 5,
}


def test_every_exported_name_resolves():
    missing = [name for name in bcf.__all__ if not hasattr(bcf, name)]
    assert missing == []


def test_every_module_uses_what_it_imports():
    # Package __init__ files import to re-export; every other module should
    # use each name it imports, so a deleted helper leaves no stale import.
    unused = []
    for path in sorted(Path(bcf.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_name_is_used():
    # A private module-level function, class or assignment, or a private
    # method, that nothing in bcf loads is dead code left behind by a refactor.
    defined, loaded = {}, set()
    for path in sorted(Path(bcf.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        methods = [node for c in tree.body if isinstance(c, ast.ClassDef)
                   for node in c.body if isinstance(node, ast.FunctionDef)]
        for node in [*tree.body, *methods]:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in loaded) == []


def leaf_errors():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    return [c for c in classes if not any(o is not c and issubclass(o, c) for o in classes)]


def test_every_leaf_error_is_raised():
    leaves = {c.__name__ for c in leaf_errors()}
    raised = set()
    for path in Path(bcf.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(leaves - raised) == []


@pytest.mark.parametrize("module", ["bcf", "bcf.cli"])
def test_module_entry_points_match_main(module, capsys):
    assert main(ARGV) == 0
    expected = capsys.readouterr().out
    src = str(Path(bcf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *ARGV],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


@pytest.mark.parametrize("leaf", leaf_errors(), ids=lambda c: c.__name__)
def test_cli_exits_with_the_family_code_of_every_leaf_error(leaf, monkeypatch, capsys):
    def fail(args):
        raise leaf("injected")

    monkeypatch.setattr(cli, "cmd_kbonacci", fail)
    (code,) = {c for base, c in FAMILY_CODES.items() if issubclass(leaf, base)}
    assert main(["kbonacci", "--k", "3", "--n", "5"]) == code
    assert capsys.readouterr().err == "error: injected\n"


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_quick_tour_runs():
    (tour,) = readme_blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_commands_exit_zero(monkeypatch, capsys):
    lines = "\n".join(readme_blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [line.split("#")[0] for line in lines if line.startswith("bcf ")]
    assert len(commands) == 11
    for command in commands:
        stdin = ""
        for stage in command.split("|"):  # a pipe feeds stdout to the next stage
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert main(shlex.split(stage)[1:]) == 0, stage
            stdin = capsys.readouterr().out
