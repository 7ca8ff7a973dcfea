"""No option without a caller that sets it: every defaulted parameter of a
function or method defined in the package is set, by keyword or by
position, by some call in src/, tests/ or perfbench/.  A default that no
call overrides is a constant in disguise."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "toriclg"


def _decorators(fn):
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


def options(source):
    """(line, function, parameter, position) of each defaulted parameter
    that source defines.  position is the index a positional argument of a
    call fills (self and cls not counted), None for keyword-only ones.  A
    constructor's function is its class name."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                skip = int(cls is not None
                           and "staticmethod" not in _decorators(child))
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                out.extend((p.lineno, name, p.arg, i - skip)
                           for i, p in enumerate(positional) if i >= first)
                out.extend((p.lineno, name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(source))
    return out


def settings(sources):
    """{callee name: (keywords set, largest positional count)} over the calls
    in sources.  A call is matched by its function or attribute name, and
    cls(...) inside a classmethod by the class's name as well."""
    out = {}

    def record(name, call):
        kws, npos = out.get(name, (set(), 0))
        out[name] = (kws | {k.arg for k in call.keywords},
                     max(npos, len(call.args)))

    def visit(node, cls=None, outer=None):
        # cls: (parameter name, class name) inside a classmethod;
        # outer: the class whose body node is
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, None, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = cls
                if outer and child.args.args \
                        and "classmethod" in _decorators(child):
                    inner = (child.args.args[0].arg, outer)
                visit(child, inner)
            else:
                if isinstance(child, ast.Call):
                    f = child.func
                    if isinstance(f, ast.Attribute):
                        record(f.attr, child)
                    elif isinstance(f, ast.Name):
                        record(f.id, child)
                        if cls and f.id == cls[0]:
                            record(cls[1], child)
                visit(child, cls, outer)

    for text in sources:
        visit(ast.parse(text))
    return out


def unset(defining, sources):
    """(path, line, function, parameter) of each defaulted parameter in the
    `defining` sources ({path: text}) that no call in `sources` sets."""
    calls = settings(sources)
    out = []
    for path, text in sorted(defining.items()):
        for line, fn, param, pos in options(text):
            kws, npos = calls.get(fn, (set(), 0))
            if not (param in kws or (pos is not None and npos > pos)):
                out.append((path, line, fn, param))
    return out


def test_option_scan_flags_and_clears():
    lib = ("def f(x, used=1, unset=2, *, kw=3):\n    pass\n\n\n"
           "class K:\n    def __init__(self, a, b=0):\n        pass\n\n"
           "    @classmethod\n    def make(cls, c=1):\n"
           "        return cls(1, 2)\n\n"
           "    def m(self, d=None):\n        pass\n")
    user = "f(0, 1, kw=4)\nK.make()\nK(0).m()\n"
    assert unset({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 1, "f", "unset"), ("lib.py", 10, "make", "c"),
        ("lib.py", 13, "m", "d")]
    more = "f(0, unset=5)\nK.make(c=2)\nobj.m(None)\n"
    assert unset({"lib.py": lib}, [lib, user, more]) == []
    # without cls(...) inside the classmethod, K's b is unset
    assert ("lib.py", 6, "K", "b") in unset(
        {"lib.py": lib}, [lib.replace("cls(1, 2)", "None"), user, more])


def test_every_option_has_a_caller_that_sets_it():
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    defining = {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}
    assert unset(defining, [p.read_text() for p in files]) == []
