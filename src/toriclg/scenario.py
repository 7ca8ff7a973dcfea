"""Scenario files: one JSON document per run, with a tiny expression grammar
for path reparametrizations like t(lam) = lam^(2/3) + lam^(2/5)."""
from __future__ import annotations

import json
import math

from . import errors
from .lattice import AbelianLattice, VectorSet


class ExprParser:
    """Recursive descent for {+, -, *, /, ^ with rational exponents} over a
    single variable; ^ binds tightest, unary minus allowed."""

    def __init__(self, text, varname):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.varname = varname

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def eat(self, ch):
        if self.peek() != ch:
            raise errors.ScenarioError(
                f"expected '{ch}' at {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self):
        node = self.expr()
        if self.pos != len(self.text):
            raise errors.ScenarioError(
                f"trailing input at {self.pos} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = ("+" if op == "+" else "-", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = ("*" if op == "*" else "/", node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            expo = self.factor()
            return ("^", base, expo)
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            node = self.expr()
            self.eat(")")
            return node
        if ch is not None and (ch.isdigit() or ch == "."):
            start = self.pos
            while self.peek() is not None and (self.peek().isdigit()
                                               or self.peek() == "."):
                self.pos += 1
            digits = self.text[start:self.pos]
            try:
                return ("num", float(digits))
            except ValueError:
                raise errors.ScenarioError(
                    f"bad number {digits!r} at {start} in {self.text!r}"
                ) from None
        if ch is not None and ch.isalpha():
            start = self.pos
            while self.peek() is not None and (self.peek().isalnum()
                                               or self.peek() == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == self.varname:
                return ("var",)
            if name == "i":
                return ("num", 1j)
            raise errors.ScenarioError(f"unknown name {name!r}")
        raise errors.ScenarioError(f"parse error at {self.pos} in {self.text!r}")


def eval_expr(node, value):
    op = node[0]
    if op == "num":
        return complex(node[1])
    if op == "var":
        return complex(value)
    if op == "neg":
        return -eval_expr(node[1], value)
    a = eval_expr(node[1], value)
    if op == "^":
        return a ** eval_expr(node[2], value)
    b = eval_expr(node[2], value)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise errors.ScenarioError(f"bad node {node!r}")


def compile_expr(text, varname):
    node = ExprParser(str(text), varname).parse()

    def fn(value):
        return eval_expr(node, value)
    return fn


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


class Scenario:
    """Validated scenario document."""

    REQUIRED = ("name",)
    GRIDS = ("geometric", "linear")

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise errors.ScenarioError("scenario must be a JSON object")
        for key in self.REQUIRED:
            if key not in doc:
                raise errors.ScenarioError(f"scenario missing '{key}'")
        self.doc = doc
        self.name = doc["name"]
        self.vector_set = None
        if "lattice" in doc and "S" in doc:
            self._check_lattice(doc["lattice"], doc["S"])
            try:
                lat = AbelianLattice(doc["lattice"]["rank"],
                                     doc["lattice"].get("torsion", ()))
                self.vector_set = VectorSet(lat, [self._elt(lat, b)
                                                  for b in doc["S"]])
            except ValueError as exc:
                raise errors.ScenarioError(f"lattice/S: {exc}") from None
        self.fans = doc.get("fans", {})
        if not isinstance(self.fans, dict):
            raise errors.ScenarioError(
                f"fans must be an object, got {self.fans!r}")
        for fname, cones in self.fans.items():
            if not isinstance(cones, list):
                raise errors.ScenarioError(
                    f"fans.{fname} must be a list of cones")
            for cone in cones:
                if not isinstance(cone, list) or not all(map(_is_int, cone)):
                    raise errors.ScenarioError(
                        f"fans.{fname}: each cone must be a list of S "
                        f"indices, got {cone!r}")
        wall = doc.get("wall")
        if wall is not None:
            if not isinstance(wall, dict):
                raise errors.ScenarioError(
                    f"wall must be an object, got {wall!r}")
            if ("plus" in wall) != ("minus" in wall):
                raise errors.ScenarioError(
                    "wall needs both a plus and a minus fan")
            for side in ("plus", "minus"):
                if side in wall and (not isinstance(wall[side], str)
                                     or wall[side] not in self.fans):
                    raise errors.ScenarioError(
                        f"wall references unknown fan {wall[side]!r}")
        self.tolerances = doc.get("tolerances", {})
        if doc.get("path") is not None:
            self._check_path(doc["path"])

    @classmethod
    def _check_path(cls, p):
        """A path lists its `values`, or gives a grid of `steps` >= 1 points
        from `from` to `to`; a geometric grid needs both ends positive."""
        if not isinstance(p, dict):
            raise errors.ScenarioError("path must be an object")
        if "values" in p:
            values = p["values"]
            if not isinstance(values, list) or not values or not all(
                    _is_real(v) or _is_pair(v) for v in values):
                raise errors.ScenarioError(
                    "path.values must be a nonempty list of numbers or "
                    f"[re, im] pairs, got {values!r}")
            return
        if p.get("prefactor") is not None and not _is_pair(p["prefactor"]):
            raise errors.ScenarioError(
                "path.prefactor must be an [re, im] pair, "
                f"got {p['prefactor']!r}")
        for key in ("from", "to", "steps"):
            if key not in p:
                raise errors.ScenarioError(f"path.{key} is missing")
        steps = p["steps"]
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise errors.ScenarioError(
                f"path.steps must be an integer >= 1, got {steps!r}")
        grid = p.get("grid", "geometric")
        if grid not in cls.GRIDS:
            raise errors.ScenarioError(
                f"path.grid must be one of {', '.join(cls.GRIDS)}, "
                f"got {grid!r}")
        for key in ("from", "to"):
            x = p[key]
            if not _is_real(x):
                raise errors.ScenarioError(
                    f"path.{key} must be a real number, got {x!r}")
            if grid == "geometric" and x <= 0:
                raise errors.ScenarioError(
                    f"path.{key} must be > 0 on a geometric grid, got {x!r}")

    @staticmethod
    def _check_lattice(lat, S):
        """`lattice.rank` is a positive integer, `lattice.torsion` a list of
        integers, and S a nonempty list of integer vectors of that rank,
        each given as [free, torsion] when the lattice has torsion and the
        torsion part is not 0."""
        if not isinstance(lat, dict):
            raise errors.ScenarioError("lattice must be an object")
        rank = lat.get("rank")
        if not _is_int(rank) or rank < 1:
            raise errors.ScenarioError(
                f"lattice.rank must be a positive integer, got {rank!r}")
        torsion = lat.get("torsion", [])
        if not isinstance(torsion, list) or not all(map(_is_int, torsion)):
            raise errors.ScenarioError(
                f"lattice.torsion must be a list of integers, got {torsion!r}")
        if not isinstance(S, list) or not S:
            raise errors.ScenarioError("S must be a nonempty list")
        for i, b in enumerate(S):
            free, tor = b, None
            if torsion and isinstance(b, list) and len(b) == 2 \
                    and isinstance(b[0], list):
                free, tor = b
            if not _is_int_vector(free, rank) or not (
                    tor is None or _is_int_vector(tor, len(torsion))):
                form = (f", or [free, torsion] with {len(torsion)} torsion "
                        f"integers" if torsion else "")
                raise errors.ScenarioError(
                    f"S[{i}] must be a list of {rank} integers{form}, "
                    f"got {b!r}")

    @staticmethod
    def _elt(lat, b):
        if lat.torsion and len(b) == 2 and isinstance(b[0], list):
            return lat.element(b[0], b[1])
        return lat.element(b)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise errors.ScenarioError(
                f"cannot read {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise errors.ScenarioError(f"{path}: invalid JSON: {exc}") from None
        return cls(doc)

    def named_fan(self, name, field):
        """The fan `name` of the `fans` object, read from the scenario field
        `field`."""
        from .fans import StackyFan
        if not isinstance(name, str):
            raise errors.ScenarioError(
                f"{field} must be a fan name (a string), got {name!r}")
        if name not in self.fans:
            raise errors.ScenarioError(f"{field}: unknown fan {name!r}")
        return StackyFan(self.vector_set, [set(c) for c in self.fans[name]])

    def path_values(self):
        p = self.doc.get("path")
        if p is None:
            raise errors.ScenarioError("scenario has no path")
        if "values" in p:
            return [complex(v) if not isinstance(v, list)
                    else complex(v[0], v[1]) for v in p["values"]]
        import numpy as np
        a, b, steps = p["from"], p["to"], p["steps"]
        kind = p.get("grid", "geometric")
        if kind == "geometric":
            vals = np.exp(np.linspace(math.log(a), math.log(b), steps))
        else:
            vals = np.linspace(a, b, steps)
        pref = p.get("prefactor")
        prefc = complex(pref[0], pref[1]) if pref else 1.0
        return [prefc * complex(v) for v in vals]

    def path_variable(self):
        return self.doc.get("path", {}).get("variable", "lam")
