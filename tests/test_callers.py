"""No function without a caller, and no field without a reader.

Every function, method and class defined in the package is named somewhere
in src/, tests/ or perfbench/ besides its own definition; and a name that
only tests reach is a paper entry point on ALLOWLIST, which says what it
serves.  An import alone names nothing, and the package's export table
(`__init__.py`'s `_HOMES` and `__all__` strings) is no program caller.
Every `self.<attr> = ...` in the package has a reader."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "toriclg"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# The definitions that no file in src/ or perfbench/ names: entry points of
# the paper's statements, reached by the acceptance suite or a unit test.
# Each names the acceptance criterion or the paper statement it serves.
ALLOWLIST = {
    "cpl_cone":
        "the duality of the PL cones with the extended Mori cones: "
        "cpl^v = NE^ and CPL_+^v = OE^",
    "cyclic_resolution_potential":
        "criterion 6: the curve-chart law against the direct solver on "
        "the cyclic d = 3..5 resolution charts",
    "extraction_parameter":
        "the curve-chart law gamma^J = -1/(K t) verbatim on extraction "
        "walls, by the normalized curve parameter",
    "open_monoid_generators":
        "criterion 8: the generators of O(Sigma_1)_+ of the A1 golden data",
    "daleth_membership":
        "criterion 8: daleth = 2Z>=0 on cpl(Sigma_1) and Z<=0 on "
        "cpl(Sigma_2)",
    "daleth_tilde_membership_up_to_height":
        "the integral structure daleth~: eta_c integral on the lattice "
        "points of Pi, certified up to a height",
    "generates":
        "the extended fan sequence 0 -> L -> Z^S -> N -> 0 is exact at N "
        "when S generates N",
    "box_elements":
        "Box(Sigma) with ages, the twisted sectors of orbifold cohomology",
    "mori_monoid_generators":
        "the extended Mori monoid Lambda(Sigma)_+, its Hilbert basis",
    "principal_symbol":
        "the three-case principal symbol of the GKZ operators",
    "product_exponent":
        "the two-chart wall curve: the exponent of t in w_v1 w_v2",
    "glue_exponent":
        "the two-chart wall curve: its gluing rule w_v^- = q^a w_v^+",
    "MatrixBackend":
        "criterion 9: mutation involution and determinant preservation on "
        "random integer Grams",
    "stokes_matrix":
        "the Riemann-Hilbert statement: Stokes data as the Gram matrix in "
        "the admissible order",
    "higher_residue_pairing":
        "criterion 9: the order-0 higher residue pairing equals the "
        "Grothendieck residue on the P1 and P2 mirrors",
}


def definitions(source):
    """(line, name) of each function, method and class that source defines,
    dunder names left out (the language calls them)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((n.lineno, n.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, defs)
                  and not (n.name.startswith("__") and n.name.endswith("__")))


def references(source):
    """Names that source reads: names, attributes and the parts of
    dotted-name strings (attribute paths looked up at run time).  An
    imported name counts only where it is read, so a stale import is no
    reference."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def orphans(defining, sources, allowed=()):
    """(path, line, name) of each definition in the `defining` sources
    ({path: text}) that no text in `sources` names and `allowed` does not
    hold."""
    named = set().union(*map(references, sources), allowed)
    return [(path, line, name) for path, text in sorted(defining.items())
            for line, name in definitions(text) if name not in named]


def fields(source):
    """(line, attribute) of each `self.<attr>` that source assigns."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Assign):
            targets = n.targets
        elif isinstance(n, ast.AnnAssign):
            targets = [n.target]
        else:
            continue
        out.update((t.lineno, t.attr) for target in targets
                   for t in ast.walk(target)
                   if isinstance(t, ast.Attribute)
                   and isinstance(t.ctx, ast.Store)
                   and isinstance(t.value, ast.Name) and t.value.id == "self")
    return sorted(out)


def reads(source):
    """The attribute names that source loads."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread(defining, sources):
    """(path, line, attribute) of each field that the `defining` sources
    ({path: text}) assign and no text in `sources` loads."""
    loaded = set().union(*map(reads, sources))
    return [(path, line, attr) for path, text in sorted(defining.items())
            for line, attr in fields(text) if attr not in loaded]


def _texts(*dirs):
    return [p.read_text() for d in dirs
            for p in sorted((ROOT / d).rglob("*.py"))]


def _program():
    """The texts of src/ and perfbench/, the package's export table left
    out."""
    return [p.read_text() for d in ("src", "perfbench")
            for p in sorted((ROOT / d).rglob("*.py"))
            if p != PKG / "__init__.py"]


def _package():
    return {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}


def test_orphan_scan_flags_and_clears():
    lib = ("def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\n"
           "class K:\n    def __init__(self):\n        pass\n\n"
           "    def traced(self):\n        pass\n")
    user = ("from lib import used\nused()\nk = K()\n"
            "TRACED = [('lib', 'K.traced')]\n")
    assert orphans({"lib.py": lib}, [lib, user]) == [("lib.py", 5, "orphan")]
    assert orphans({"lib.py": lib}, [lib, user + "orphan = 0\n"]) == []
    assert orphans({"lib.py": lib}, [lib, user], {"orphan"}) == []
    importer = "from lib import orphan\nimport orphan\n"
    assert orphans({"lib.py": lib}, [lib, user, importer]) == [
        ("lib.py", 5, "orphan")]


def test_field_scan_flags_and_clears():
    lib = ("class K:\n    def __init__(self, a):\n        self.a = a\n"
           "        self.b, self.c = a, a\n        self.d: int = a\n"
           "        self.a.e = a\n\n    def m(self):\n"
           "        return self.a\n")
    assert unread({"lib.py": lib}, [lib]) == [
        ("lib.py", 4, "b"), ("lib.py", 4, "c"), ("lib.py", 5, "d")]
    user = "k = K(0)\nk.b = 1\nprint(k.c, k.d)\n"
    assert unread({"lib.py": lib}, [lib, user]) == [("lib.py", 4, "b")]


def test_every_definition_has_a_reference():
    assert orphans(_package(), _texts("src", "tests", "perfbench")) == []


def test_only_allowlisted_definitions_lack_a_program_caller():
    assert orphans(_package(), _program(), ALLOWLIST) == []


def test_allowlist_holds_only_names_without_a_program_caller():
    # a name that gains a caller in src/ or perfbench/, or leaves the
    # package, leaves the allowlist too
    pkg = _package()
    defined = {name for text in pkg.values() for _, name in definitions(text)}
    named = set().union(*map(references, _program()))
    assert sorted(set(ALLOWLIST) - defined) == []
    assert sorted(set(ALLOWLIST) & named) == []


def test_every_field_has_a_reader():
    assert unread(_package(), _texts("src", "tests", "perfbench")) == []
