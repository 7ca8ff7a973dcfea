import ast
import os
import pathlib
import re
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


def test_numerics_load_without_the_fan_layers():
    # a chart's layout reads its fan through the fan's own methods, so the
    # numerics and the potential families load no fan, lattice or LP code
    code = ("import sys\n"
            "import toriclg.lg, toriclg.families\n"
            "loaded = {'toriclg.fans', 'toriclg.lattice', 'toriclg.lp'}"
            " & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_exact_k_theory_loads_without_mpmath():
    # the Gamma class takes its constants from no library, so neither an
    # Orlov basis with its semiorthogonality check nor Gamma data load
    # mpmath
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
            "assert 'mpmath' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command, scenario", [
    ("fans", "a1.json"), ("fans", "bl-line-p4.json"),
    ("wallcross", "a1.json"), ("wallcross", "bl-line-p4.json"),
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


def test_euler_subcommand_runs_without_mpmath(tmp_path):
    # `euler` compares Gamma pairings with HRR on every Gram, and loads no
    # mpmath by the time it exits
    code = ("import sys\n"
            "from toriclg import cli\n"
            "rc = cli.main(['euler', '--scenario', 'euler-gram.json',"
            f" '--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'mpmath' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=PKG.parent.parent / "scenarios",
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "euler.json").exists()


def imported_modules(source):
    """Top-level names of the absolute imports of a module; relative
    imports are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_module_scan():
    src = ("from __future__ import annotations\n"
           "import os.path, numpy as np\nfrom . import a\n"
           "from .b import c\ndef f():\n    import mpmath\n")
    assert imported_modules(src) == {"__future__", "os", "numpy", "mpmath"}


def test_third_party_imports_are_the_declared_dependencies():
    # every import in the package is the standard library, the package
    # itself or a dependency declared in pyproject.toml, and every declared
    # dependency is imported
    names = set()
    for path in PKG.glob("*.py"):
        names |= imported_modules(path.read_text())
    third = names - set(sys.stdlib_module_names) - {"toriclg"}
    assert third == {"numpy"}
    toml = (PKG.parent.parent / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", toml, re.M | re.S)
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in re.findall(r'"([^"]+)"', block.group(1))}
    assert third == declared
