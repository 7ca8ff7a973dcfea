import ast
import os
import pathlib
import subprocess
import sys

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "toriclg"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads
    (a name listed in __all__ counts as read)."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_import_scan_flags_and_clears():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom .a import b as c, d\n"
           "__all__ = ['d']\nx = os.path.join('a')\n")
    assert unused_imports(src) == [(2, "math"), (4, "c")]


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_exact_modules_load_without_numpy():
    # the package names load on first access, so the exact layers run in
    # an interpreter that never imports numpy
    code = ("import sys\n"
            "import toriclg.secondary, toriclg.fans, toriclg.lattice\n"
            "assert 'numpy' not in sys.modules\n"
            "from toriclg import critical_points\n"
            "import toriclg\n"
            "assert all(hasattr(toriclg, n) for n in toriclg.__all__)\n"
            "assert callable(critical_points) and 'numpy' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_exact_k_theory_loads_without_mpmath():
    # mpmath is imported on the first evaluation of a Gamma class, so an
    # Orlov basis and its semiorthogonality check never load it
    code = ("import itertools, sys\n"
            "from toriclg import ktheory, secondary\n"
            "from toriclg.fans import StackyFan\n"
            "plus = ktheory.bl_line_p4()\n"
            "minus = StackyFan(plus.vector_set,"
            " itertools.combinations(range(5), 4))\n"
            "bd = ktheory.BlowupData(secondary.wall_between(plus, minus), 3)\n"
            "classes, blocks = bd.orlov_basis(1)\n"
            "assert ktheory.verify_sod(classes, blocks)[0]\n"
            "assert 'mpmath' not in sys.modules\n"
            "ktheory.GammaData(bd.ring_plus)\n"
            "assert 'mpmath' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command, scenario", [
    ("fans", "a1.json"), ("fans", "bl-line-p4.json"),
    ("orlov", "bl-line-p4.json")])
def test_exact_subcommands_run_without_numpy(command, scenario, tmp_path):
    # the CLI imports numpy only inside the subcommands that draw from a
    # generator, so the exact ones never load it
    code = ("import sys\n"
            "from toriclg import cli\n"
            f"rc = cli.main([{command!r}, '--scenario', {scenario!r},"
            f" '--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=PKG.parent.parent / "scenarios",
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
