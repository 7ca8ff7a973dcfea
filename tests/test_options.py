"""No option without a caller that sets it: every defaulted parameter of a
function or method defined in the package is set, by keyword or by
position, by some call in src/, tests/ or perfbench/.  A default that no
call overrides is a constant in disguise.  And no call in src/ passes a
parameter the literal it defaults to: such a call sets nothing."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "toriclg"


def _decorators(fn):
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


def options(source):
    """(line, function, parameter, position, default) of each defaulted
    parameter that source defines.  position is the index a positional
    argument of a call fills (self and cls not counted), None for
    keyword-only ones; default is the default's expression.  A
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
                out.extend((p.lineno, name, p.arg, i - skip, d)
                           for i, (p, d) in enumerate(zip(
                               positional[first:], a.defaults), first))
                out.extend((p.lineno, name, p.arg, None, d)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(source))
    return out


def calls(source):
    """(callee name, call) of each call in source.  A call is matched by its
    function or attribute name, and cls(...) inside a classmethod by the
    class's name as well."""
    out = []

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
                        out.append((f.attr, child))
                    elif isinstance(f, ast.Name):
                        out.append((f.id, child))
                        if cls and f.id == cls[0]:
                            out.append((cls[1], child))
                visit(child, cls, outer)

    visit(ast.parse(source))
    return out


def settings(sources):
    """{callee name: (keywords set, largest positional count)} over the calls
    in sources."""
    out = {}
    for text in sources:
        for name, call in calls(text):
            kws, npos = out.get(name, (set(), 0))
            out[name] = (kws | {k.arg for k in call.keywords},
                         max(npos, len(call.args)))
    return out


def unset(defining, sources):
    """(path, line, function, parameter) of each defaulted parameter in the
    `defining` sources ({path: text}) that no call in `sources` sets."""
    calls = settings(sources)
    out = []
    for path, text in sorted(defining.items()):
        for line, fn, param, pos, _ in options(text):
            kws, npos = calls.get(fn, (set(), 0))
            if not (param in kws or (pos is not None and npos > pos)):
                out.append((path, line, fn, param))
    return out


def _literal(node):
    """(type, value) of a literal expression, or None for any other."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), value


def restated(defining, sources):
    """(path, line, function, parameter) of each argument that a call in the
    `sources` ({path: text}) passes, by keyword or by position, equal to
    the literal a function of that name in the `defining` sources defaults
    it to."""
    defaults = {}           # {function: [(parameter, position, literal)]}
    for text in defining.values():
        for _, fn, param, pos, default in options(text):
            literal = _literal(default)
            if literal is not None:
                defaults.setdefault(fn, []).append((param, pos, literal))
    out = []
    for path, text in sorted(sources.items()):
        for fn, call in calls(text):
            for param, pos, literal in defaults.get(fn, []):
                args = [k.value for k in call.keywords if k.arg == param]
                if pos is not None and pos < len(call.args):
                    args.append(call.args[pos])
                out.extend((path, a.lineno, fn, param) for a in args
                           if _literal(a) == literal)
    return sorted(out)


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


def test_default_scan_flags_and_clears():
    lib = ("def f(x, used=1, flag=True, *, kw=(0, 1)):\n    pass\n\n\n"
           "class K:\n    def __init__(self, a, b=0):\n        pass\n\n"
           "    @classmethod\n    def make(cls):\n"
           "        return cls(1, 0)\n")
    user = ("f(0, 1)\nf(0, flag=True)\nf(0, 2, kw=(0, 1))\n"
            "f(0, 1.0, flag=1, kw=(1, 0))\nK(0, b=x)\n")
    assert restated({"lib.py": lib}, {"lib.py": lib, "user.py": user}) == [
        ("lib.py", 11, "K", "b"), ("user.py", 1, "f", "used"),
        ("user.py", 2, "f", "flag"), ("user.py", 3, "f", "kw")]


def _package():
    return {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}


def test_every_option_has_a_caller_that_sets_it():
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset(_package(), [p.read_text() for p in files]) == []


def test_no_call_in_the_package_passes_a_default():
    assert restated(_package(), _package()) == []
