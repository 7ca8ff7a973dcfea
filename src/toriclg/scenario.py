"""Scenario files: one JSON document per run.  `FIELDS` is the one table of
what a document may hold, checked once at load; `Scenario`'s readers build
the fans, wall, potential family and path the subcommands compute on.
Coefficients are expressions in the path variable, like
t(lam) = lam^(2/3) + lam^(2/5)."""
from __future__ import annotations

import ast
import cmath
import json
import math
import operator
from typing import Callable, NamedTuple

from . import errors
from .lattice import AbelianLattice, VectorSet

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow}
_NODES = (ast.BinOp, ast.UnaryOp, ast.USub, ast.Load, *_OPS)


def compile_expr(text, varname):
    """value -> complex for an expression in the variable `varname`:
    numbers, the variable, i, + - * /, ^ (binding tightest, right to left)
    and unary minus, every value complex."""
    text = str(text)
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, MemoryError):
        raise errors.ScenarioError(f"cannot parse {text!r}") from None
    for node in ast.walk(tree):
        if not (node.id in (varname, "i") if isinstance(node, ast.Name) else
                type(node.value) in (int, float) if isinstance(
                    node, ast.Constant) else isinstance(node, _NODES)):
            raise errors.ScenarioError(f"{text!r} is not +, -, *, / and ^ "
                                       f"of numbers, {varname} and i")

    def value(node, s):
        if isinstance(node, ast.BinOp):
            return _OPS[type(node.op)](value(node.left, s),
                                       value(node.right, s))
        if isinstance(node, ast.UnaryOp):
            return -value(node.operand, s)
        if isinstance(node, ast.Name):
            return complex(s) if node.id == varname else 1j
        return complex(node.value)
    return lambda s: value(tree, s)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    """Whether x is a finite real number: Python's json reads NaN and
    Infinity as floats.  Every int is finite (isfinite overflows on some)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def _is_pair(v):
    """Whether v is an [re, im] pair of real numbers."""
    return isinstance(v, list) and len(v) == 2 and all(map(_is_real, v))


def _is_int_vector(v, length):
    return isinstance(v, list) and len(v) == length and all(map(_is_int, v))


def _is_expr(x, scn):
    try:
        compile_expr(x, scn.get("path.variable"))
    except errors.ScenarioError:
        return False
    return isinstance(x, str) or _is_real(x)


def _is_s_entry(b, scn):
    """Whether b is `lattice.rank` integers, or [free, torsion] on a lattice
    with torsion; unchecked without a lattice, which `vector_set` reports."""
    rank, torsion = scn.get("lattice.rank"), scn.get("lattice.torsion")
    free, tor = b, None
    if torsion and isinstance(b, list) and len(b) == 2 \
            and isinstance(b[0], list):
        free, tor = b
    return rank is None or _is_int_vector(free, rank) and (
        tor is None or _is_int_vector(tor, len(torsion)))


def _is_cone_list(cones, scn):
    m = len(scn.get("S") or ())
    return isinstance(cones, list) and all(isinstance(c, list) and all(
        _is_int(i) and (not m or 0 <= i < m) for i in c) for c in cones)


def _kind(pred, want):
    """A row's (ok, want) for a check that reads the value alone."""
    return (lambda x, scn: pred(x)), want


def _int_from(lo, hi=math.inf):
    return _kind(lambda x: _is_int(x) and lo <= x <= hi,
                 f"an integer >= {lo}" if hi == math.inf
                 else f"an integer from {lo} to {hi}")


def _one_of(*names):
    return _kind(lambda x: isinstance(x, str) and x in names,
                 repr(names[0]) if len(names) == 1
                 else "one of " + ", ".join(map(repr, names)))


OBJECT = _kind(lambda x: isinstance(x, dict), "an object")
LIST = _kind(lambda x: isinstance(x, list), "a list")
REAL = _kind(_is_real, "a real number")
BOOL = _kind(lambda x: isinstance(x, bool), "true or false")
EXPR = (_is_expr, "a number or an expression in the path variable")
FAN = (lambda x, scn: isinstance(x, str) and x in scn.get("fans"),
       "the name of a fan in fans")
GEOMETRIC = (lambda x, scn: x > 0 or scn.get("path.grid") != "geometric",
             "> 0 on a geometric grid")
VARIETIES = ("p1", "p2", "p4", "p1xp1", "bl_line_p4", "bl_point_p2")
VARIETY = _one_of(*VARIETIES)
REQUIRED = object()         # the default of a field that must be given
# budgets on the loops a scenario sizes directly: a track solves at every
# path point and `euler` pairs gram_size^2 bundles per variety
MAX_PATH_STEPS = 10 ** 4
MAX_GRAM_SIZE = 200
# `euler` compares the float Gamma pairing with the exact one on line
# bundles whose divisor coefficients lie in [-range, range], and the float
# side loses digits as they grow: over the six varieties at seeds 0-9 the
# largest deviation is 9.0e-8 at range 50, against the default tolerance
# 1e-6, and range 100 already exceeds it
MAX_BUNDLE_RANGE = 50


def _grid(scn):
    return scn.get("path.values") is None


def _preset(scn):
    return scn.get("potential.preset") is not None


def _chart(scn):
    return scn.get("potential.preset") is None


class Field(NamedTuple):
    """One row of `FIELDS`.  `path` is dotted from the document's top; a
    last part `[]` means every item of a list, `*` every value of an object.
    An absent or null field takes `default` unchecked, as does every field
    under an absent object (a REQUIRED one is then absent too).  A given
    value must pass ok(value, scenario), where `scenario.get` reads the rows
    above, else the error reads "<field> must be <want>, got <value>".  A
    row with `when` applies only where when(scenario) holds."""
    path: str
    default: object
    ok: Callable
    want: str
    when: Callable = None


FIELDS = (
    Field("name", REQUIRED, *_kind(lambda x: isinstance(x, str), "a string")),
    Field("lattice", None, *OBJECT),
    Field("lattice.rank", REQUIRED, *_int_from(1)),
    Field("lattice.torsion", [], *_kind(lambda t: isinstance(t, list) and all(
        map(_is_int, t)), "a list of integers")),
    Field("S", None, *_kind(lambda x: isinstance(x, list) and len(x) > 0,
                            "a nonempty list")),
    Field("S[]", None, _is_s_entry, "lattice.rank integers, or [free, "
          "torsion] with one integer per lattice.torsion factor"),
    Field("fans", {}, *OBJECT),
    Field("fans.*", None, _is_cone_list,
          "a list of cones, each a list of S indices"),
    Field("wall", None, *OBJECT),
    Field("wall.plus", REQUIRED, *FAN),
    Field("wall.minus", REQUIRED, *FAN),
    Field("path", None, *OBJECT),
    Field("path.variable", "lam", *_kind(lambda x: isinstance(x, str)
                                         and x.isidentifier(), "a name")),
    Field("path.values", None, *_kind(
        lambda v: isinstance(v, list) and v and all(
            _is_real(x) or _is_pair(x) for x in v),
        "a nonempty list of numbers or [re, im] pairs")),
    Field("path.prefactor", None, *_kind(_is_pair, "an [re, im] pair"), _grid),
    Field("path.from", REQUIRED, *REAL, _grid),
    Field("path.to", REQUIRED, *REAL, _grid),
    Field("path.steps", REQUIRED, *_int_from(1, MAX_PATH_STEPS), _grid),
    Field("path.grid", "geometric", *_one_of("geometric", "linear"), _grid),
    Field("path.from", REQUIRED, *GEOMETRIC, _grid),
    Field("path.to", REQUIRED, *GEOMETRIC, _grid),
    Field("potential", None, *OBJECT),
    Field("potential.preset", None, *_one_of("bl_line_p4")),
    Field("potential.t_of_lambda", None, *EXPR, _preset),
    Field("potential.chart", REQUIRED, FAN[0],
          FAN[1] + " (a potential needs a chart or a preset)", _chart),
    Field("potential.q", [], *LIST, _chart),
    Field("potential.q[]", None, *EXPR, _chart),
    Field("potential.t", {}, *_kind(lambda t: isinstance(t, dict) and all(
        k.isascii() and k.isdigit() for k in t),
        "an object keyed by S indices"), _chart),
    Field("potential.t.*", None, *EXPR, _chart),
    Field("potential.chi", None, lambda c, scn: isinstance(c, list)
          and scn.get("lattice.rank") in (None, len(c))
          and all(map(_is_real, c)),
          "lattice.rank numbers", _chart),
    Field("potential.splitting", None, *_kind(
        lambda x: isinstance(x, list) and all(map(_is_int, x)),
        "a list of ray indices"), _chart),
    Field("at", None, *REAL),
    Field("conifold", False, *BOOL),
    Field("nondegeneracy_scan", False, *BOOL),
    Field("curve_parameter", 1.0, *REAL),
    Field("collection", None, *OBJECT),
    Field("collection.preset", None, *_one_of("bl_line_p4")),
    Field("phase", 0.0, *REAL),
    Field("euler", {}, *OBJECT),
    Field("euler.varieties", ["p2", "p4", "p1xp1", "bl_line_p4"], *LIST),
    Field("euler.varieties[]", None, *VARIETY),
    Field("euler.gram_size", 20, *_int_from(1, MAX_GRAM_SIZE)),
    Field("euler.range", 3, *_int_from(0, MAX_BUNDLE_RANGE)),
    Field("tolerances", {}, *OBJECT),
    Field("tolerances.gamma_vs_hrr", 1e-6, *_kind(
        lambda x: _is_real(x) and x > 0, "a positive number")),
    Field("orlov", {}, *OBJECT),
    Field("orlov.h", None, *_kind(_is_int, "an integer")),
    Field("orlov.center_twist_ray", None, *_int_from(0)),
    Field("gkz", {}, *OBJECT),
    Field("gkz.chart", None, *FAN),
    Field("gkz.variety", "p2", *VARIETY),
)


def _item_name(path, key):
    """The field name of one item of the list or object at `path`."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if key.isidentifier() else f"{path}[{key!r}]"


class Scenario:
    """A scenario document checked against `FIELDS` at load.  The readers
    build what the subcommands compute on, and raise the errors that need
    it built: no lattice/S, a chart's q-count, ghost indices or splitting,
    a center ray of both fans, a path too short to track."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise errors.ScenarioError("scenario must be a JSON object")
        self.doc = doc
        self._fields = {}
        for field in FIELDS:
            self._check(field)
        self.name = self.get("name")
        self._vector_set = None
        if self.get("lattice") is not None and self.get("S") is not None:
            try:
                self._vector_set = VectorSet(AbelianLattice(
                    self.get("lattice.rank"), self.get("lattice.torsion")),
                    self.get("S"))
            except ValueError as exc:
                raise errors.ScenarioError(f"lattice/S: {exc}") from None

    def _check(self, field):
        if field.when is not None and not field.when(self):
            self._fields.setdefault(field.path, None)
            return
        path, _, key = field.path.rpartition(".")
        if key == "*" or key.endswith("[]"):
            path = field.path[:-2]
            items = self._fields[path]
            for k, value in (items.items() if isinstance(items, dict)
                             else enumerate(items or ())):
                self._require(field, _item_name(path, k), value)
            return
        parent = self._fields[path] if path else self.doc
        value = None if parent is None else parent.get(key)
        if value is not None:
            self._require(field, field.path, value)
        elif field.default is not REQUIRED:
            value = field.default
        elif parent is not None:
            raise errors.ScenarioError(
                f"{field.path} is missing; it must be {field.want}")
        self._fields[field.path] = value

    def _require(self, field, name, value):
        if not field.ok(value, self):
            raise errors.ScenarioError(
                f"{name} must be {field.want}, got {value!r}")

    def get(self, path):
        """The checked value of the `FIELDS` row `path` (None if absent)."""
        return self._fields[path]

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise errors.ScenarioError(
                f"cannot read {path}: {exc.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:     # bytes not UTF-8, nesting too deep
            raise errors.ScenarioError(f"{path}: invalid JSON: {exc}") from None
        return cls(doc)

    def vector_set(self):
        if self._vector_set is None:
            raise errors.ScenarioError("scenario has no lattice/S data")
        return self._vector_set

    def fan(self, field):
        """The fan of `fans` that the field `field` names."""
        from .fans import StackyFan
        return StackyFan(self.vector_set(), self.get("fans")[self.get(field)])

    @staticmethod
    def variety(name):
        """The fan of the preset variety `name`, one of VARIETIES."""
        from . import ktheory
        if name in ("p1", "p2", "p4"):
            return ktheory.projective_space(int(name[1]))
        return getattr(ktheory, name)()

    def collection(self):
        """The variety of the preset collection that `mutate` evolves."""
        if self.get("collection.preset") is None:
            raise errors.ScenarioError(
                "mutate currently ships the bl_line_p4 preset")
        return self.variety(self.get("collection.preset"))

    def wall(self):
        """The wall between the fans `wall` names, else the secondary fan's
        first wall."""
        from .secondary import enumerate_adapted_fans, wall_between
        if self.get("wall") is not None:
            return wall_between(self.fan("wall.plus"), self.fan("wall.minus"))
        fans, walls = enumerate_adapted_fans(self.vector_set())
        if not walls:
            raise errors.NotAdjacent("no walls in the secondary fan")
        a, b, _ = walls[0]
        return wall_between(fans[a], fans[b])

    def blowup(self):
        """The Orlov data of `wall`, twisted by `orlov.center_twist_ray`,
        which must be a ray of both fans."""
        from .ktheory import BlowupData
        wall = self.wall()
        ray = self.get("orlov.center_twist_ray")
        shared = sorted(set(wall.plus_fan.rays) & set(wall.minus_fan.rays))
        if ray is not None and ray not in shared:
            raise errors.ScenarioError(
                f"orlov.center_twist_ray must be the S index of a ray of "
                f"both fans {shared}, got {ray!r}")
        return BlowupData(wall, ray)

    def _coefficient(self, field, text):
        """The expression `text` of the field `field` as a potential
        coefficient: a failed evaluation or a zero or non-finite value
        names the field and the parameter value."""
        var = self.get("path.variable")
        fn = compile_expr(text, var)

        def value(s):
            try:
                x = fn(s)
            except ArithmeticError as exc:
                problem = exc
            else:
                if x != 0 and cmath.isfinite(x):
                    return x
                problem = "a potential coefficient must be finite and nonzero"
            raise errors.ScenarioError(f"{field} at {var} = {s:.6g}: {problem}")
        return value

    def family(self):
        """The potential family: path parameter -> LGPotential.  A
        coefficient that overflows, or underflows to 0, names the parameter
        value."""
        family, var = self._family(), self.get("path.variable")

        def checked(s):
            try:
                return family(s)
            except (ArithmeticError, ValueError) as exc:
                raise errors.ScenarioError(
                    f"potential at {var} = {s:.6g}: {exc}") from None
        return checked

    def _family(self):
        if self.get("potential") is None:
            raise errors.ScenarioError("scenario has no potential")
        if self.get("potential.preset") is not None:
            from .families import bl_line_p4_family_lambda
            text = self.get("potential.t_of_lambda")
            return bl_line_p4_family_lambda(
                text and self._coefficient("potential.t_of_lambda", text))
        from .lg import chart_family
        from .rational import rank
        fan = self.fan("potential.chart")
        split = self.get("potential.splitting")
        if split is not None and not (
                set(split) <= set(fan.rays)
                and len(set(split)) == len(split) == fan.n
                and rank([fan.S[i].free for i in split]) == fan.n):
            raise errors.ScenarioError(
                f"potential.splitting must be {fan.n} distinct ray indices "
                f"of the chart on rays {fan.rays} with independent vectors, "
                f"got {split!r}")
        potential = chart_family(fan, self.get("potential.chi"), split)
        qs = [self._coefficient(f"potential.q[{i}]", e)
              for i, e in enumerate(self.get("potential.q"))]
        t = self.get("potential.t")
        if len(qs) != potential.q_count:
            raise errors.ScenarioError(
                f"potential.q: the chart on rays {fan.rays} needs "
                f"{potential.q_count} q-values (canonical Lambda^Sigma "
                f"basis), got {len(qs)}")
        if sorted(map(int, t)) != potential.ghosts:
            raise errors.ScenarioError(
                f"potential.t: the chart on rays {fan.rays} needs t-values "
                f"for ghost indices {potential.ghosts}, got {sorted(t)}")
        ts = {int(k): self._coefficient(_item_name("potential.t", k), e)
              for k, e in t.items()}
        return lambda s: potential([f(s) for f in qs],
                                   {k: f(s) for k, f in ts.items()})

    def potential(self):
        """(at, the potential there), `at` defaulting to the path's first
        parameter; `nondegeneracy_scan` needs 0 interior to the Newton
        polytope."""
        family, at = self.family(), self.get("at")
        at = self.path_values()[0] if at is None else at
        F = family(complex(at))
        if self.get("nondegeneracy_scan") and F.expected_count() is None:
            raise errors.ScenarioError(
                "nondegeneracy_scan needs a potential whose Newton polytope "
                "has 0 in its interior")
        return at, F

    def path_values(self, at_least=1):
        """The path's parameters, at least `at_least` of them."""
        if self.get("path") is None:
            raise errors.ScenarioError("scenario has no path")
        field, values = "path.values", self.get("path.values")
        if values is not None:
            out = [complex(*v) if isinstance(v, list) else complex(v)
                   for v in values]
        else:
            import numpy as np
            a, b = self.get("path.from"), self.get("path.to")
            field, steps = "path.steps", self.get("path.steps")
            if self.get("path.grid") == "geometric":
                values = np.exp(np.linspace(math.log(a), math.log(b), steps))
            else:
                values = np.linspace(a, b, steps)
            pref = self.get("path.prefactor")
            prefc = complex(pref[0], pref[1]) if pref else 1.0
            out = [prefc * complex(v) for v in values]
        if len(out) < at_least:
            raise errors.ScenarioError(
                f"{field} must give at least {at_least} path parameters, "
                f"got {len(out)}")
        return out
