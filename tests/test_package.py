import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcf
from bcf import errors
from bcf.cli import main

ARGV = ["expand", "rat:7/4", "--depth", "10"]


def test_every_exported_name_resolves():
    missing = [name for name in bcf.__all__ if not hasattr(bcf, name)]
    assert missing == []


def test_every_leaf_error_is_raised():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    leaves = {c.__name__ for c in classes
              if not any(o is not c and issubclass(o, c) for o in classes)}
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
