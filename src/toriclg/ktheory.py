"""Intersection theory and K-theory oracles for smooth complete simplicial
toric varieties: Chow ring with exact rational structure constants,
Todd/Gamma classes, Euler pairings by Hirzebruch-Riemann-Roch and by the
Gamma-class pairing formula, Orlov-type K-group bases and semiorthogonality
verification.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import errors
from .fans import StackyFan
from .lattice import AbelianLattice, VectorSet
from .rational import cleared, idot, rank, rref

# the entry of every fresh coefficient vector (`CohomologyRing.zero`):
# Fractions are immutable and each writer rebinds its entry
_ZERO = Fraction(0)


@functools.lru_cache(maxsize=None)
def _constant(k: int) -> complex:
    """The Euler-Mascheroni constant (k = 1) or zeta(k) (k >= 2) as the
    nearest double.  zeta(k) is P. Borwein's alternating series with
    n = 70 terms (An efficient algorithm for the Riemann zeta function,
    CMS Conf. Proc. 27, 2000, algorithm 2), summed exactly in Fraction and
    rounded once; its error is below 3 / ((3 + sqrt 8)^n |1 - 2^(1-k)|)
    < 2^-170."""
    if k == 1:      # gamma to 50 digits
        return complex(float(
            "0.57721566490153286060651209008240243104215933593992"))
    n = 70
    # d_j = n sum_{i <= j} (n + i - 1)! 4^i / ((n - i)! (2i)!), integers
    d = list(itertools.accumulate(
        n * math.factorial(n + i - 1) * 4 ** i
        // (math.factorial(n - i) * math.factorial(2 * i))
        for i in range(n + 1)))
    s = sum((Fraction((-1) ** j * (d[j] - d[n]), (j + 1) ** k)
             for j in range(n)), _ZERO)
    return complex(float(-s / (d[n] * (1 - Fraction(1, 2 ** (k - 1))))))


@functools.lru_cache(maxsize=None)
def _todd_series(n: int) -> tuple:
    """t_0..t_n, the Taylor coefficients of x / (1 - e^{-x}) (t_k = B_k /
    k! with B_1 = 1/2), exact.  As the series times (1 - e^{-x}) / x =
    sum_j (-1)^j x^j / (j + 1)! is 1, t_0 = 1 and t_k = -sum_{j=1..k}
    (-1)^j t_{k-j} / (j + 1)!."""
    t = [Fraction(1)]
    for k in range(1, n + 1):
        t.append(-sum((Fraction((-1) ** j, math.factorial(j + 1)) * t[k - j]
                       for j in range(1, k + 1)), _ZERO))
    return tuple(t)


def _top_integral(cones, duals, memo, mo):
    """The integral of the top-degree monomial mo, memoized in memo.

    A monomial whose support is not a face integrates to 0 and the
    distinct-ray monomial of a maximal cone to 1.  Otherwise, with a
    maximal cone sigma containing the support and a repeated ray i, the
    linear relation of the dual vector u_i of sigma replaces D_i by
    -sum_{b not in sigma} <u_i, v_b> D_b, which strictly grows the support
    (Fulton 1993, section 5.2).  The recursion runs through this module
    function, not a closure that holds itself, so a ring build leaves no
    reference cycle for the collector."""
    out = memo.get(mo)
    if out is not None:
        return out
    supp = frozenset(i for i, e in enumerate(mo) if e)
    cone = next((c for c in cones if supp <= c), None)
    i = next((i for i, e in enumerate(mo) if e > 1), None)
    if cone is None:
        out = 0
    elif i is None:
        out = 1
    else:
        out = 0
        for b, w in duals[cone][i]:
            if w:
                mo2 = list(mo)
                mo2[i] -= 1
                mo2[b] += 1
                out -= w * _top_integral(cones, duals, memo, tuple(mo2))
    memo[mo] = out
    return out


class CohomologyRing:
    """Rational Chow/cohomology ring of a smooth complete simplicial toric
    variety, with graded monomial bases and an exact degree map.

    The ring also holds the index tables of its product (`product_ids`):
    for a pair of degrees (d1, d2), the int id of the product monomial of
    basis[d1][i1] and basis[d2][i2], and, per id, the degree of that
    monomial and its nonzero `reduce_map` coordinates, each an `int` where
    it is integral.  A table is built on the first product that touches its
    degree pair and lives with the ring."""

    def __init__(self, fan: StackyFan):
        if not fan.is_smooth():
            raise errors.NotSmooth("ring requires a smooth torsion-free fan")
        if not fan.is_complete():
            raise errors.NotComplete("ring requires a complete fan")
        self.fan = fan
        self.n = fan.n
        self.m = len(fan.rays)
        self.ray_indices = list(fan.rays)      # indices into S
        self._build()
        self._ids = {}          # product monomial -> id
        self.reductions = []    # id -> (degree, [(i, x) for x != 0])
        self._tables = {}       # (d1, d2) -> ids[i1][i2]
        total = sum(len(b) for b in self.basis.values())
        if total != fan.fan_polytope_volume():
            raise errors.RankMismatch(
                f"ring dimension {total} != normalized fan volume")

    # -- construction -------------------------------------------------------
    def _monomials(self, d):
        out = []
        for combo in itertools.combinations_with_replacement(range(self.m), d):
            mono = [0] * self.m
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
        return sorted(out)

    def _top_integrals(self):
        """Memoized integral of a top-degree monomial over the variety
        (`_top_integral` on this fan's cones and dual pairings)."""
        fan = self.fan
        rays = self.ray_indices
        cones = [frozenset(rays.index(i) for i in c) for c in fan.max_cones]
        # cone -> {i in cone: [(b, <u_i, v_b>) for b not in cone]}, the
        # pairings being the coordinates of v_b over the cone's rays: on a
        # smooth fan vol = 1, so <u_i, v_b> is minus entry i of b's circuit
        # row
        duals = {}
        for c, circuits in zip(cones, fan.circuits()):
            others = [b for b in range(self.m) if b not in c]
            duals[c] = {i: [(b, -circuits[rays[b]][rays[i]]) for b in others]
                        for i in c}
        return functools.partial(_top_integral, cones, duals, {})

    def _build(self):
        """Graded bases and coordinates from intersection numbers.

        By Poincaré duality a degree-d class is fixed by its integrals
        against the degree-(n - d) monomials, and those in the divisors off
        one maximal cone already suffice: the divisors are a basis of H^2
        (the linear relations of the cone's dual basis express the rest)
        and H^2 generates the ring.  So one RREF of the pairing matrix, a
        row per such monomial and a column per degree-d monomial from the
        last one back, has the basis as its pivot columns (a monomial joins
        iff it is independent of the later ones), and a monomial's
        coordinates over the basis are its column of the reduced rows."""
        integral = self._top_integrals()
        cone = {self.ray_indices.index(i) for i in self.fan.max_cones[0]}
        self.basis = {}
        self.reduce_map = {}
        for d in range(self.n + 1):
            monos = self._monomials(d)
            last = len(monos) - 1
            duals = [c for c in self._monomials(self.n - d)
                     if not any(c[i] for i in cone)]
            red, piv = rref([[integral(tuple(a + b for a, b in zip(mo, c)))
                              for mo in reversed(monos)] for c in duals],
                            len(monos))
            self.basis[d] = [monos[last - j] for j in reversed(piv)]
            self.reduce_map[d] = {mo: [row[last - j] for row in reversed(red)]
                                  for j, mo in enumerate(monos)}
        if len(self.basis[self.n]) != 1:
            raise errors.RankMismatch("top cohomology is not one-dimensional")
        self.top_scale = 1 / Fraction(integral(self.basis[self.n][0]))

    def product_ids(self, d1, d2):
        """ids[i1][i2], the id of the monomial basis[d1][i1] *
        basis[d2][i2], for d1 + d2 <= n; `reductions[id]` is its degree
        and its reduction as the nonzero (i, x) of `reduce_map`, in index
        order, an integral x stored as its `int` numerator.  Built on first
        use.

        An `int` factor gives the product the bits of its `Fraction`: a
        Fraction times it is the same Fraction, and a complex takes both as
        x + 0j, the int rounded as the Fraction's quotient is, exactly."""
        table = self._tables.get((d1, d2))
        if table is None:
            ids, red = self._ids, self.reduce_map[d1 + d2]
            table = []
            for mo1 in self.basis[d1]:
                row = []
                for mo2 in self.basis[d2]:
                    mo = tuple(a + b for a, b in zip(mo1, mo2))
                    k = ids.get(mo)
                    if k is None:
                        k = ids[mo] = len(self.reductions)
                        self.reductions.append(
                            (d1 + d2, [(i, x.numerator if x.denominator == 1
                                        else x)
                                       for i, x in enumerate(red[mo]) if x]))
                    row.append(k)
                table.append(row)
            self._tables[d1, d2] = table
        return table

    # -- elements ------------------------------------------------------------
    def zero(self):
        return Cls(self, {d: [_ZERO] * len(self.basis[d])
                          for d in range(self.n + 1)})

    def one(self):
        z = self.zero()
        z.coeffs[0][0] = Fraction(1)
        return z

    def from_poly(self, poly):
        """The class of a polynomial {monomial: Fraction}; zero
        coordinates of a reduction add nothing and are skipped."""
        out = self.zero()
        for mo, c in poly.items():
            d = sum(mo)
            if d > self.n:
                continue
            v = out.coeffs[d]
            for i, x in enumerate(self.reduce_map[d][mo]):
                if x:
                    v[i] += c * x
        return out

    def divisor(self, ray_local_index: int):
        mo = [0] * self.m
        mo[ray_local_index] = 1
        return self.from_poly({tuple(mo): Fraction(1)})

    def divisor_by_s_index(self, s_index: int):
        return self.divisor(self.ray_indices.index(s_index))

    def power_sum(self, k):
        """P_k = sum_b D_b^k over the ray divisors, read from `reduce_map`
        (D_b^k is a monomial); P_1 is c1."""
        return self.from_poly({tuple(k * (j == b) for j in range(self.m)):
                               Fraction(1) for b in range(self.m)})

    def c1(self):
        return self.power_sum(1)

    def divisor_exp(self, D):
        """exp(D) of an exact degree-1 class D = sum_i x_i e_i, with no
        ring product.  The e_i of basis[1] are single-ray monomials, so
        exp(D) is the sum over the exponent vectors e of degree <= n of
        prod_i x_i^{e_i} / e_i! times the monomial prod_i e_i^{e_i}, read
        from `reduce_map` (`from_poly`).  The vectors are grown one degree
        at a time in non-decreasing order of the index added, each
        coefficient from its parent's: c x_i / e_i.  Equal to `Cls.exp` of
        D, entry for entry and as Fractions."""
        for d, v in D.coeffs.items():
            if d != 1 and any(x != 0 for x in v):
                raise ValueError(
                    f"divisor_exp needs a degree-1 class, got a nonzero "
                    f"degree-{d} part {v}")
        terms = [(self.basis[1][i], x)
                 for i, x in enumerate(D.coeffs[1]) if x]
        one = Fraction(1)
        # (monomial, last index added, its exponent, coefficient)
        level = [((0,) * self.m, 0, 0, one)]
        poly = {level[0][0]: one}
        for _ in range(self.n):
            grown = []
            for mo, last, e, c in level:
                for i in range(last, len(terms)):
                    ray, x = terms[i]
                    ei = e + 1 if i == last else 1
                    mo2 = tuple(a + b for a, b in zip(mo, ray))
                    c2 = c * x / ei
                    poly[mo2] = c2
                    grown.append((mo2, i, ei, c2))
            level = grown
        return self.from_poly(poly)

    def total_dim(self):
        return sum(len(b) for b in self.basis.values())

    def flatten(self, cls):
        """Coefficient vector of a class over the basis, degree by degree."""
        out = []
        for d in range(self.n + 1):
            out.extend(cls.coeffs[d])
        return tuple(out)

    def todd_class(self):
        """Td = prod_b D_b / (1 - e^{-D_b}) = exp(sum_k a_k P_k) over the
        power sums of the divisors (`power_sum`): log(x / (1 - e^{-x}))
        = x/2 - sum_{k>=2} t_k x^k / k for t_k of `_todd_series`, as its
        derivative is 1/x - 1/(e^x - 1)."""
        t = _todd_series(self.n)
        log = self.zero()
        for k in range(1, self.n + 1):
            log = log + self.power_sum(k).scaled(
                t[1] if k == 1 else -t[k] / k)
        return log.exp()

    @functools.cached_property
    def euler_form(self):
        """The Euler form X[a][b] = int e_a^dual e_b Td(X) on the flattened
        basis, as (D, E) with E an int matrix and X = E / D over one common
        denominator, so chi(V, W) = flatten(ch V)^T E flatten(ch W) / D.
        Built on first use from a single Todd class and the index tables
        (`product_ids`): w[d][i] = int e_i Td(X) for e_i in degree d, read
        from the top-degree table of (d, n - d), and then X[a][b] =
        (-1)^{d_a} sum_i x_i w[d][i] over the reduction sum_i x_i e_i of
        e_a e_b, zero past degree n."""
        n, N = self.n, self.total_dim()
        td = self.todd_class()
        w = [[sum((x * td.coeffs[n - d][j] for j, k in enumerate(ids)
                   for _, x in self.reductions[k][1]), _ZERO) / self.top_scale
              for ids in self.product_ids(d, n - d)] for d in range(n + 1)]
        vals = []
        for da in range(n + 1):
            tables = [self.product_ids(da, db) for db in range(n + 1 - da)]
            for ia in range(len(self.basis[da])):
                row = [(-1) ** da * sum((x * w[d][i] for i, x in red), _ZERO)
                       for ids in tables
                       for d, red in (self.reductions[k] for k in ids[ia])]
                vals += row + [_ZERO] * (N - len(row))
        D, flat = cleared(vals)
        return D, [flat[a * N:(a + 1) * N] for a in range(N)]

    def euler_image(self, v):
        """E v for a vector v cleared to (d, ints) (`rational.cleared`), as
        (d, ints): the Euler form applied to v once, the right factor of
        `chi`."""
        dv, iv = v
        return dv, [idot(row, iv) for row in self.euler_form[1]]

    def chi(self, u, image):
        """u^T X v for u cleared to (d, ints) and the image (`euler_image`)
        of v, as (numerator, denominator) in int."""
        (du, iu), (dv, w) = u, image
        return idot(iu, w), self.euler_form[0] * du * dv


class Cls:
    """Element of a CohomologyRing: per-degree coefficient vectors over the
    monomial basis.  The scalars are of two types, Fraction and complex;
    one product (`*`) serves both.  The truncated
    exponential (`exp`) is taken of the Todd log series and of the complex
    -pi i c1; the exp of an exact divisor, ch(O(D)), is read from its
    monomials (`CohomologyRing.divisor_exp`).

    The product reads the ring's index tables (`product_ids`), which key
    each product monomial by an int id, and does the arithmetic of the
    product over monomial tuples in the same order: terms summed per
    monomial in first-seen order, then reduced in that order, zeros
    skipped.  Floating-point sums depend on that order, and `euler.json`
    prints the Gamma pairing's deviation to full precision."""

    def __init__(self, ring: CohomologyRing, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def copy(self):
        return Cls(self.ring, {d: list(v) for d, v in self.coeffs.items()})

    def __add__(self, other):
        """Entrywise sum.  Adding an exact Fraction zero to or from a
        Fraction entry is skipped, as it returns the other entry; a complex
        entry still takes every addition, since -0.0 + 0 is +0.0."""
        out = self.copy()
        for d, v in other.coeffs.items():
            w = out.coeffs[d]
            for i, x in enumerate(v):
                y = w[i]
                if type(x) is Fraction and not x and type(y) is Fraction:
                    continue
                if type(y) is Fraction and not y and type(x) is Fraction:
                    w[i] = x
                else:
                    w[i] = y + x
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        """c times each entry; a Fraction c leaves a Fraction zero entry
        as it is.  A complex c multiplies every entry, zeros too, as its
        product with Fraction(0) is a complex."""
        if type(c) is Fraction:
            return Cls(self.ring, {d: [x if type(x) is Fraction and not x
                                       else c * x for x in v]
                                   for d, v in self.coeffs.items()})
        return Cls(self.ring, {d: [c * x for x in v]
                               for d, v in self.coeffs.items()})

    def __mul__(self, other):
        return self.product(other, 0)

    def product(self, other, lowest):
        """The part of self * other in degrees lowest..n; lowest = n reads
        the top degree alone.  Each kept degree is summed in the order of
        the full product, so it equals that product's bit for bit."""
        ring = self.ring
        poly = {}
        for d1, v1 in self.coeffs.items():
            tables = None
            for i1, c1 in enumerate(v1):
                if not c1:
                    continue
                if tables is None:
                    tables = [(ring.product_ids(d1, d2), v2)
                              for d2, v2 in other.coeffs.items()
                              if lowest <= d1 + d2 <= ring.n]
                for ids, v2 in tables:
                    for k, c2 in zip(ids[i1], v2):
                        if not c2:
                            continue
                        poly[k] = poly.get(k, 0) + c1 * c2
        out = ring.zero()
        for k, c in poly.items():
            d, red = ring.reductions[k]
            v = out.coeffs[d]
            for i, x in red:
                v[i] = v[i] + c * x
        return out

    def exp(self):
        """exp of a class with vanishing degree-0 part.  Terms are divided
        by k, not multiplied by 1/k: for complex coefficients 1/k is itself
        rounded, so the two give different last digits."""
        c0 = self.coeffs[0][0]
        if c0 != 0:
            raise ValueError(
                f"exp needs a class with no degree-0 part, got degree-0 "
                f"coefficient {c0!r}")
        ring = self.ring
        out = ring.one()
        term = ring.one()
        for k in range(1, ring.n + 1):
            term = term * self
            term = Cls(ring, {d: [x / k for x in v]
                              for d, v in term.coeffs.items()})
            out = out + term
        return out

    def dual(self):
        """Negate odd-degree components (Chern character of the dual)."""
        return Cls(self.ring, {d: [(-x if d % 2 else x) for x in v]
                               for d, v in self.coeffs.items()})

    def integrate(self):
        """The top-degree coefficient over top_scale; a complex one is
        divided by complex(top_scale), as the Fraction defers to it."""
        return self.coeffs[self.ring.n][0] / self.ring.top_scale

    def numeric(self):
        return Cls(self.ring, {d: [complex(x) for x in v]
                               for d, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, Cls) and
                all(self.coeffs[d] == other.coeffs[d] for d in self.coeffs))

    def is_zero(self):
        return all(x == 0 for v in self.coeffs.values() for x in v)


# ---------------------------------------------------------------------------
# K classes


class KClass:
    """K-theory class represented by its Chern character plus a label."""

    def __init__(self, ring: CohomologyRing, ch: Cls, label: str):
        self.ring = ring
        self.ch = ch
        self.label = label

    @classmethod
    def structure_sheaf(cls, ring):
        return cls(ring, ring.one(), "O")

    @classmethod
    def line_bundle(cls, ring, divisor_class: Cls, label=None):
        return cls(ring, ring.divisor_exp(divisor_class), label or "O(D)")

    @functools.cached_property
    def int_ch(self):
        """The flattened ch over its common denominator, as (d, ints)
        (`rational.cleared`): the HRR pairing's integer form of the class."""
        return cleared(self.ring.flatten(self.ch))

    @functools.cached_property
    def euler_image(self):
        """The Euler form applied to int_ch (`CohomologyRing.euler_image`),
        once per class: the class's factor on the right of a pairing."""
        return self.ring.euler_image(self.int_ch)

    def shift(self):
        """Homological shift [-1]: negation in the K-group."""
        lbl = self.label[:-4] if self.label.endswith("[-1]") else self.label + "[-1]"
        return KClass(self.ring, self.ch.scaled(-1), lbl)

    def __repr__(self):
        return f"K<{self.label}>"


def build_cohomology_ring(fan: StackyFan) -> CohomologyRing:
    return CohomologyRing(fan)


def euler_pairing_hrr(V1: KClass, V2: KClass) -> int:
    """chi(V1, V2) = int ch(V1^dual) ch(V2) Td(X), exact and integral;
    evaluated in int through the ring's Euler form (D, E), V1's int_ch and
    V2's euler_image, each built once per class."""
    num, den = V1.ring.chi(V1.int_ch, V2.euler_image)
    q, r = divmod(num, den)
    if r:
        raise errors.NonIntegral(
            f"HRR pairing not an integer: {Fraction(num, den)}")
    return q


def _add_term(poly, e, c):
    """Add c to the term e of a dict polynomial, dropping it at zero."""
    c = poly.get(e, _ZERO) + c
    if c:
        poly[e] = c
    else:
        poly.pop(e, None)


@functools.lru_cache(maxsize=None)
def _gamma_series(n: int) -> tuple:
    """g_0..g_n, the Taylor coefficients of Gamma(1 + x) = exp(sum_k l_k
    x^k) up to x^n, with l_1 = -gamma and l_k = zeta(k) (-1)^k / k, kept
    symbolic: g_d is a dict {e: Fraction} over the exponents e of the
    monomials gamma^{e_1} zeta(2)^{e_2} ... zeta(nz + 1)^{e_{nz+1}}, nz =
    max(n - 1, 1), zero terms dropped (g_0 = {(0, ..., 0): 1}).

    The exponential is summed as `Cls.exp` sums it, term_k = term_{k-1} *
    log / k with the product's terms in its order, so each g_d holds its
    terms in the order that a ring exp of the log series gives, which
    `gamma_class` sums in."""
    out = [{(0,) * (max(n - 1, 1) + 1): Fraction(1)}] + [{} for _ in range(n)]
    term = list(out)
    for k in range(1, n + 1):
        prod = [{} for _ in range(n + 1)]
        for i, a in enumerate(term):
            for j in range(1, n + 1 - i):
                # times l_j, the one term (-1)^j / j of entry j - 1 of e
                for e, c in a.items():
                    _add_term(prod[i + j], e[:j - 1] + (e[j - 1] + 1,) + e[j:],
                              c * Fraction(-1) ** j / j)
        term = [{e: c / k for e, c in p.items()} for p in prod]
        for g, t in zip(out, term):
            for e, c in t.items():
                _add_term(g, e, c)
    return tuple(out)


def gamma_class(ring: CohomologyRing) -> Cls:
    """Gamma-hat class prod_b Gamma(1 + D_b) = exp(sum_k l_k P_k), with
    l_1 = -gamma, l_k = (-1)^k zeta(k) / k and P_k the power sums of the
    divisors (`CohomologyRing.power_sum`), as complex numbers.  With g_d
    the degree-d Taylor coefficient of Gamma(1 + x) (`_gamma_series`),
    entry i of degree d sums from 0j, in g_d's key order, one term per e
    with a nonzero entry i of P^e = prod_k P_k^{e_k}: complex(g_d[e] P^e_i)
    times val_k ** e_k for each k in turn, val_k the constants of
    `_constant`.  The exact P^e take one product each and no symbolic
    coefficient enters the ring; the degree-0 entry is complex(1)."""
    n = ring.n
    series = _gamma_series(n)
    vals = [_constant(k) for k in range(1, max(n - 1, 1) + 2)]
    sums = [ring.power_sum(k) for k in range(1, n + 1)]
    monos = {(0,) * len(vals): ring.one()}
    coeffs = {0: [complex(1)]}
    for d in range(1, n + 1):
        rows = []
        for e, c in series[d].items():
            # P^e = P^{e - unit_k} P_k, k the largest part, read in degree d
            k = max(j for j, x in enumerate(e, 1) if x)
            rest = e[:k - 1] + (e[k - 1] - 1,) + e[k:]
            monos[e] = monos[rest].product(sums[k - 1], d)
            rows.append((c, monos[e].coeffs[d],
                         [v ** x for v, x in zip(vals, e)]))
        coeffs[d] = []
        for i in range(len(ring.basis[d])):
            out = 0j
            for c, v, powers in rows:
                if v[i]:
                    t = complex(c * v[i])
                    for p in powers:
                        t *= p
                    out += t
            coeffs[d].append(out)
    return Cls(ring, coeffs)


class GammaData:
    """The Gamma pairing's data on one ring: the Gamma class
    (`gamma_class`), exp(-pi i c1), and each class's pairing factors,
    computed once per class."""

    def __init__(self, ring: CohomologyRing):
        self.ring = ring
        self.gamma = gamma_class(ring)
        # exp(-pi i c1) depends on neither argument of the pairing
        self._exp_c1 = ring.c1().numeric().scaled(-1j * math.pi).exp()
        # id(V) -> (V, b(V), alpha(V)); holding V keeps its id from being
        # reused
        self._factors = {}

    def factors(self, V: KClass):
        """(b, alpha) for V, computed once per class: alpha = Gamma *
        (2 pi i)^{deg0/2} ch(V), the right factor of the pairing, and
        b = e^{pi i mu} exp(-pi i c1) alpha with mu = (deg0 - n)/2, the
        left one."""
        hit = self._factors.get(id(V))
        if hit is not None:
            return hit[1:]
        ring = self.ring
        n = ring.n
        twopii = 2j * math.pi
        chnum = V.ch.numeric()
        scaled = Cls(ring, {d: [x * twopii ** d for x in v]
                            for d, v in chnum.coeffs.items()})
        a = self.gamma * scaled
        b = self._exp_c1 * a
        b = Cls(ring, {d: [x * _cis(math.pi * (d - n / 2))
                           for x in v] for d, v in b.coeffs.items()})
        self._factors[id(V)] = (V, b, a)
        return b, a

    def pairing(self, V1: KClass, V2: KClass) -> complex:
        """[alpha_1, alpha_2) with alpha_i = Gamma * (2 pi i)^{deg0/2} ch(V_i):
        the integral of b_1 alpha_2, read from the top degree of the
        product alone (`Cls.product`), with b_1 and alpha_2 cached per
        class (`factors`)."""
        b1 = self.factors(V1)[0]
        a2 = self.factors(V2)[1]
        val = b1.product(a2, self.ring.n).integrate()
        return val / (2 * math.pi) ** self.ring.n


def _cis(theta):
    return complex(math.cos(theta), math.sin(theta))


# ---------------------------------------------------------------------------
# blowups, Orlov bases and semiorthogonality


class BlowupData:
    """K-theory bridge for a divisorial-contraction or root wall
    phi: X_+ -> X_-.

    Carries the Chow rings of both sides, the exceptional class, the
    pull-back on line bundles (xi -> xi + k_b * E per ray), and a line
    bundle on X_- restricting to an ample generator on the centre Z.
    """

    def __init__(self, wall, center_twist_ray=None):
        if wall.kind not in ("contract_divisor", "root"):
            raise errors.RankMismatch(
                "Orlov data requires a type II-i or III wall")
        self.wall = wall
        self.ring_plus = CohomologyRing(wall.plus_fan)
        self.ring_minus = CohomologyRing(wall.minus_fan)
        self.hat_index = wall.M_minus[0]
        self.k = wall.k
        self.J = wall.J
        self.E = self.ring_plus.divisor_by_s_index(self.hat_index)
        self.center_rays = list(wall.M_plus)
        self.center_twist_ray = (center_twist_ray if center_twist_ray is not None
                                 else self.center_rays[0])
        # rank of K(Z): number of maximal cones of Sigma_- containing sigma_{M_+}
        mp = set(wall.M_plus)
        self.rank_center = sum(1 for c in wall.minus_fan.max_cones if mp <= c)
        self.rank_minus = self.ring_minus.total_dim()
        self.rank_plus = self.ring_plus.total_dim()

    def pullback_divisor(self, s_index: int) -> Cls:
        """phi^* of the minus-side ray divisor class, as a plus-side class."""
        out = self.ring_plus.divisor_by_s_index(s_index)
        kb = self.k[s_index]
        if kb > 0:
            out = out + self.E.scaled(Fraction(kb))
        return out

    def pullback_line_bundle(self, exponents, label=None) -> KClass:
        """phi^* O(sum_b a_b D_b^-) for a dict s_index -> multiplicity."""
        c1 = self.ring_plus.zero()
        for b, a in exponents.items():
            c1 = c1 + self.pullback_divisor(b).scaled(Fraction(a))
        return KClass.line_bundle(self.ring_plus, c1,
                                  label or f"phi^*O({exponents})")

    def minus_line_bundle_basis(self):
        """A line-bundle basis of K(X_-): twists O(j D_b0) of a primitive ray
        divisor (Beilinson-style on projective-space-like targets)."""
        ring = self.ring_minus
        b0 = self.center_twist_ray
        amp = ring.divisor_by_s_index(b0)
        out = []
        for j in range(self.rank_minus):
            out.append((j, KClass.line_bundle(ring, amp.scaled(Fraction(j)),
                                              f"O({j}A)")))
        if not _spans(ring, [kc.ch for _, kc in out]):
            raise errors.RankMismatch("line-bundle twists do not span K(X_-)")
        return out

    def orlov_basis(self, h: int):
        """The (SOD_K)-adapted generators; blocks ordered k=-h..-1,
        phi^* K(X_-), k=0..J-h-1.  Returns (classes, block_sizes)."""
        if not (0 <= h <= self.J):
            raise errors.RankMismatch(f"h = {h} outside 0..J = {self.J}")
        ring = self.ring_plus
        OE_dual = KClass.line_bundle(ring, self.E.scaled(Fraction(-1)), "O(-E)")
        oe_factor = KClass(ring, ring.one() - OE_dual.ch, "O_E")  # 1 - O(-E)
        twist = self.pullback_divisor(self.center_twist_ray)
        classes = []
        blocks = []

        def center_block(kk):
            blk = []
            for j in range(self.rank_center):
                c1 = self.E.scaled(Fraction(-kk)) + twist.scaled(Fraction(j))
                lb = KClass.line_bundle(ring, c1, f"O({-kk}E+{j}A)")
                blk.append(KClass(ring, lb.ch * oe_factor.ch,
                                  f"O_E({-kk}E+{j}A)"))
            return blk

        for kk in range(-h, 0):
            blk = center_block(kk)
            classes.extend(blk)
            blocks.append(len(blk))
        mid = []
        for j, _ in self.minus_line_bundle_basis():
            mid.append(self.pullback_line_bundle({self.center_twist_ray: j},
                                                 f"phi^*O({j}A)"))
        classes.extend(mid)
        blocks.append(len(mid))
        for kk in range(0, self.J - h):
            blk = center_block(kk)
            classes.extend(blk)
            blocks.append(len(blk))
        if len(classes) != self.rank_plus:
            raise errors.RankMismatch(
                f"Orlov basis has {len(classes)} classes, expected {self.rank_plus}")
        if not _spans(ring, [kc.ch for kc in classes]):
            raise errors.RankMismatch("Orlov classes do not span K(X_+)")
        return classes, blocks

    def verify_k_relations(self):
        """Both exact K-group relations in the Chow-ring representation."""
        ring = self.ring_plus
        rel1 = ring.one()
        for b in self.center_rays:
            Db = ring.divisor_by_s_index(b)
            rel1 = rel1 * (ring.one()
                           - ring.divisor_exp(Db.scaled(Fraction(-1))))
        if not rel1.is_zero():
            raise errors.RelationFails("prod_{b in M+} (1 - L_b) != 0")
        rel2 = ring.one()
        for b in self.center_rays:
            kb = self.k[b]
            lhs = ring.divisor_exp(self.E.scaled(Fraction(-kb)))
            rhs = ring.divisor_exp(
                self.pullback_divisor(b).scaled(Fraction(-1)))
            rel2 = rel2 * (lhs - rhs)
        if not rel2.is_zero():
            raise errors.RelationFails(
                "prod_{b in M+} (L^{k_b} - phi^*L_b^-) != 0")
        return True


def _spans(ring, chs):
    """Whether the Chern characters span H^*(X;Q)."""
    return rank([ring.flatten(ch) for ch in chs]) == ring.total_dim()


def gram_matrix(classes):
    return [[euler_pairing_hrr(a, b) for b in classes] for a in classes]


def unitriangular(G):
    """Whether the square matrix G is upper unitriangular: 1 on the
    diagonal and 0 below it, the Gram of an exceptional sequence in order.
    Such a Gram has determinant 1 over Z without a further check."""
    return all(G[i][j] == int(i == j)
               for i in range(len(G)) for j in range(i + 1))


def verify_sod(classes, blocks):
    """Semiorthogonality of the decomposition of `classes` into consecutive
    blocks of the sizes `blocks`: the sizes add up to the number of
    classes, and the Gram is upper unitriangular.  The blocks add nothing
    to the Gram test, since each block follows every earlier one in the
    order.

    Returns (ok, gram); ok is False (never raises) on structure failure.
    """
    G = gram_matrix(classes)
    return sum(blocks) == len(classes) and unitriangular(G), G


def euler_pairing_gamma(gdata: GammaData, V1: KClass, V2: KClass,
                        check=True) -> complex:
    val = gdata.pairing(V1, V2)
    if check:
        ref = euler_pairing_hrr(V1, V2)
        if abs(val - ref) > 1e-6:
            raise errors.MismatchWithHRR(
                f"gamma pairing {val} vs HRR {ref} for {V1}, {V2}")
    return val


# ---------------------------------------------------------------------------
# presets


def projective_space(n: int):
    N = AbelianLattice(n)
    vecs = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    vecs.append(tuple(-1 for _ in range(n)))
    vs = VectorSet(N, vecs)
    cones = list(itertools.combinations(range(n + 1), n))
    return StackyFan(vs, cones)


def p1xp1():
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    cones = [{0, 2}, {0, 3}, {1, 2}, {1, 3}]
    return StackyFan(vs, cones)


def bl_line_p4():
    """Blowup of P^4 along a torus-invariant line; S includes the
    exceptional ray e1+e2+e3."""
    N = AbelianLattice(4)
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (-1, -1, -1, -1), (1, 1, 1, 0)]
    vs = VectorSet(N, vecs)
    cones = []
    for c in itertools.combinations(range(5), 4):
        cs = set(c)
        if {0, 1, 2} <= cs:
            for drop in (0, 1, 2):
                cones.append((cs - {drop}) | {5})
        else:
            cones.append(cs)
    return StackyFan(vs, cones)


def bl_point_p2():
    """Blowup of P^2 at a torus-fixed point."""
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    cones = [{0, 3}, {3, 1}, {1, 2}, {2, 0}]
    return StackyFan(vs, cones)


def bl_line_p4_collection(ring: CohomologyRing):
    """The nine-term exceptional collection on the blowup of P^4 along a
    line, ordered by decreasing imaginary part of the matching critical
    values on the small-lambda end of the wall path.

    p1 = class of the e1 divisor (pull-back of the plane-parameter
    hyperplane), p2 = class of the e4 divisor (pull-back of O_P4(1)),
    E = p2 - p1 the exceptional class."""
    p1 = ring.divisor_by_s_index(0)
    p2 = ring.divisor_by_s_index(3)
    E = ring.divisor_by_s_index(5)
    one = ring.one()
    exp = ring.divisor_exp

    def lb(c1, label):
        return KClass.line_bundle(ring, c1, label)

    def oe(tw, label):
        base = one - exp(E.scaled(Fraction(-1)))
        return KClass(ring, base * exp(tw), label)
    Ecls = oe(E - p2, "O_E(E-H2)")
    OEE = oe(E, "O_E(E)")
    OmH2 = lb(p2.scaled(Fraction(-1)), "O(-H2)")
    # G = O(-2H2) (x) phi^* T_P4 [-1]: ch = -(5 e^{p2} - 1) e^{-2 p2}
    Gch = (exp(p2.scaled(Fraction(-2)))
           * (one.scaled(Fraction(1)) - exp(p2).scaled(Fraction(5))))
    Gcls = KClass(ring, Gch, "O(-2H2)*phi^*T[-1]")
    O = KClass.structure_sheaf(ring)
    # H = O(2H2) (x) phi^* Omega^1: ch = (5 e^{-p2} - 1) e^{2 p2}
    Hch = (exp(p2.scaled(Fraction(2)))
           * (exp(p2.scaled(Fraction(-1))).scaled(Fraction(5)) - one))
    Hcls = KClass(ring, Hch, "O(2H2)*phi^*Omega1")
    OH2 = lb(p2, "O(H2)")
    OEm = oe(ring.zero(), "O_E").shift()
    Fcls = oe(p2, "O_E(H2)").shift()
    return [Ecls, OEE, OmH2, Gcls, O, Hcls, OH2, OEm, Fcls]


def bl_line_p4_initial_collection(ring: CohomologyRing):
    """The nine K-classes marked by the critical values on the large-lambda
    end of the wall path, in decreasing imaginary part of the markings.

    Obtained from the small-lambda collection by undoing the ray-crossing
    mutations along the path; seven of the nine are line bundles."""
    coll = bl_line_p4_collection(ring)
    Ecls, OEE, OmH2, Gcls, O, Hcls, OH2, OEm, Fcls = coll
    p1 = ring.divisor_by_s_index(0)
    p2 = ring.divisor_by_s_index(3)
    E = ring.divisor_by_s_index(5)

    def lb(c1, label):
        return KClass.line_bundle(ring, c1, label)

    def comb(parts, label):
        ch = ring.zero()
        for c, kc in parts:
            ch = ch + kc.ch.scaled(Fraction(c))
        return KClass(ring, ch, label)
    OmH1 = lb(p1.scaled(Fraction(-1)), "O(-H1)")
    OH1 = lb(p1, "O(H1)")
    V_G = comb([(1, Gcls), (2, OmH1), (-1, OEE)], "G+2O(-H1)-O_E(E)")
    V_H = comb([(1, Hcls), (-2, OH1), (1, OEm)], "H-2O(H1)+O_E[-1]")
    OE_lb = lb(E, "O(E)")
    OmE_lb = lb(E.scaled(Fraction(-1)), "O(-E)")
    return [OmH2, V_G, OmH1, OmE_lb, O, OE_lb, OH1, V_H, OH2]
