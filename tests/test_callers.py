"""No function without a caller: every function, method and class defined in
the package is named somewhere in src/, tests/ or perfbench/ besides its
own definition."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "toriclg"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source):
    """(line, name) of each function, method and class that source defines,
    dunder names left out (the language calls them)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((n.lineno, n.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, defs)
                  and not (n.name.startswith("__") and n.name.endswith("__")))


def references(source):
    """Names that source reads: names, attributes, imported names and the
    parts of dotted-name strings (attribute paths looked up at run time)."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def orphans(defining, sources):
    """(path, line, name) of each definition in the `defining` sources
    ({path: text}) that no text in `sources` names."""
    named = set().union(*map(references, sources))
    return [(path, line, name) for path, text in sorted(defining.items())
            for line, name in definitions(text) if name not in named]


def test_orphan_scan_flags_and_clears():
    lib = ("def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\n"
           "class K:\n    def __init__(self):\n        pass\n\n"
           "    def traced(self):\n        pass\n")
    user = ("from lib import used\nused()\nk = K()\n"
            "TRACED = [('lib', 'K.traced')]\n")
    assert orphans({"lib.py": lib}, [lib, user]) == [("lib.py", 5, "orphan")]
    assert orphans({"lib.py": lib}, [lib, user + "orphan = 0\n"]) == []


def test_every_definition_has_a_reference():
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    defining = {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}
    assert orphans(defining, [p.read_text() for p in files]) == []
