"""The ring product `Cls.product` as it was before the per-ring index
tables: each pair of basis monomials rebuilds its product tuple, which is
looked up in `reduce_map`.  The scalars are tested against 0 by `==`.

`product(a, b, lowest)` is the loop unchanged.  `add` and `scaled` are
`Cls.__add__` and `Cls.scaled` as they were before they skipped exact
zeros: every entry takes the addition and the scale.  `mul`, `exp`,
`todd_class` and `gamma_class` are `Cls.__mul__`, `Cls.exp`,
`CohomologyRing.todd_class` and `ktheory.gamma_class` with every product,
sum and scale going through these, for oracles that must not compute
through the program.  `gamma_class` is the route the program took before
one Taylor series of Gamma(1 + x) per dimension: per ray, the series of
log Gamma(1 + D_b) in the ring and its ring `exp`, with symbolic
coefficients (`GammaPoly`) that `numeric` evaluates at mpmath's constants.

`series_product` and `euler_form` are the program's routes before the
divisor power sums and the top-degree tables: the product over the rays of
one series in D_b each, in this module's arithmetic, and the Euler form
from one top-degree product per entry, in the ring's own."""
import functools
from fractions import Fraction

import mpmath

from toriclg.ktheory import Cls, _gamma_series, _todd_series
from toriclg.rational import cleared


@functools.lru_cache(maxsize=None)
def constant(k):
    """The Euler-Mascheroni constant (k = 1) or zeta(k) at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.euler if k == 1 else mpmath.zeta(k))


class GammaPoly:
    """Polynomial in the Euler-Mascheroni constant and zeta values with
    rational coefficients; keys are exponent tuples (gamma, zeta2, zeta3,
    ...).  Rational scalars act as constant polynomials on either side of +
    and *.  The Gamma class's coefficients before the program evaluated
    them as it built the class."""

    def __init__(self, terms=None, nzeta=0):
        self.nzeta = nzeta
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c, nzeta):
        c = Fraction(c)
        return cls({(0,) * (nzeta + 1): c} if c else {}, nzeta)

    @classmethod
    def symbol(cls, name, nzeta):
        key = [0] * (nzeta + 1)
        if name == "gamma":
            key[0] = 1
        else:
            k = int(name[4:])      # "zeta3" -> 3
            key[k - 1] = 1
        return cls({tuple(key): Fraction(1)}, nzeta)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return GammaPoly.const(other, self.nzeta)
        return other

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in self._lift(other).terms.items():
            out[k] = out.get(k, Fraction(0)) + v
            if out[k] == 0:
                del out[k]
        return GammaPoly(out, self.nzeta)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, Fraction(0)) + v1 * v2
                if out[k] == 0:
                    del out[k]
        return GammaPoly(out, self.nzeta)

    __rmul__ = __mul__

    def __truediv__(self, k: int):
        return self * Fraction(1, k)

    def evaluate(self) -> complex:
        vals = [constant(k) for k in range(1, self.nzeta + 2)]
        out = 0j
        for key, c in self.terms.items():
            t = complex(c)
            for e, v in zip(key, vals):
                t *= v ** e
            out += t
        return out

    def __eq__(self, other):
        other = self._lift(other)
        return isinstance(other, GammaPoly) and self.terms == other.terms


def numeric(cls):
    """The class with each GammaPoly entry evaluated and each rational one
    as a complex."""
    return Cls(cls.ring, {d: [x.evaluate() if isinstance(x, GammaPoly)
                              else complex(x) for x in v]
                          for d, v in cls.coeffs.items()})


def gamma_series(n):
    """`ktheory._gamma_series(n)` with g_1..g_n as GammaPolys and g_0 as
    Fraction(1), as the program kept it before it evaluated the class."""
    series = _gamma_series(n)
    nz = max(n - 1, 1)
    return [Fraction(1)] + [GammaPoly(g, nz) for g in series[1:]]


def product(self, other, lowest):
    ring = self.ring
    poly = {}
    for d1, v1 in self.coeffs.items():
        for i1, c1 in enumerate(v1):
            if c1 == 0:
                continue
            mo1 = ring.basis[d1][i1]
            for d2, v2 in other.coeffs.items():
                if not lowest <= d1 + d2 <= ring.n:
                    continue
                for i2, c2 in enumerate(v2):
                    if c2 == 0:
                        continue
                    mo2 = ring.basis[d2][i2]
                    mo = tuple(a + b for a, b in zip(mo1, mo2))
                    poly[mo] = poly.get(mo, 0) + c1 * c2
    out = ring.zero()
    for mo, c in poly.items():
        d = sum(mo)
        red = ring.reduce_map[d][mo]
        for i, x in enumerate(red):
            if x:
                out.coeffs[d][i] = out.coeffs[d][i] + c * x
    return out


def add(a, b):
    out = a.copy()
    for d, v in b.coeffs.items():
        for i, x in enumerate(v):
            out.coeffs[d][i] = out.coeffs[d][i] + x
    return out


def scaled(a, c):
    return Cls(a.ring, {d: [c * x for x in v] for d, v in a.coeffs.items()})


def mul(a, b):
    return product(a, b, 0)


def exp(cls):
    assert cls.coeffs[0][0] == 0
    ring = cls.ring
    out = ring.one()
    term = ring.one()
    for k in range(1, ring.n + 1):
        term = mul(term, cls)
        term = Cls(ring, {d: [x / k for x in v]
                          for d, v in term.coeffs.items()})
        out = add(out, term)
    return out


def todd_class(ring):
    t = _todd_series(ring.n)
    out = ring.one()
    for i in range(ring.m):
        D = ring.divisor(i)
        s = ring.zero()
        pw = ring.one()
        for k in range(ring.n + 1):
            if k:
                pw = mul(pw, D)
            s = add(s, scaled(pw, t[k]))
        out = mul(out, s)
    return out


def gamma_class(ring):
    n = ring.n
    nz = max(n - 1, 1)
    out = ring.one()
    for i in range(ring.m):
        D = ring.divisor(i)
        logg = ring.zero()
        pw = ring.one()
        for k in range(1, n + 1):
            pw = mul(pw, D)
            if k == 1:
                coef = GammaPoly.symbol("gamma", nz) * Fraction(-1)
            else:
                coef = GammaPoly.symbol(f"zeta{k}", nz) * \
                    (Fraction(-1) ** k * Fraction(1, k))
            logg = add(logg, scaled(pw, coef))
        out = mul(out, exp(logg))
    return out


def series_product(ring, coeffs):
    """prod_b sum_{k=0..n} coeffs[k] D_b^k over the rays b: n products by
    D_b per ray and one product per ray into the running class.  The
    program's Todd class (coeffs `_todd_series(n)`) and Gamma class
    (`gamma_series(n)`) before they were read from the divisor power
    sums."""
    out = ring.one()
    for i in range(ring.m):
        D = ring.divisor(i)
        s = ring.zero()
        pw = ring.one()
        for k in range(ring.n + 1):
            if k:
                pw = mul(pw, D)
            s = add(s, scaled(pw, coeffs[k]))
        out = mul(out, s)
    return out


def euler_form(ring):
    """`CohomologyRing.euler_form` before it read the top-degree tables:
    the Todd class of `series_product`, one product e_b Td per unit b and
    one top-degree product (e_a^dual)(e_b Td) per entry."""
    units = []
    for d in range(ring.n + 1):
        for i in range(len(ring.basis[d])):
            z = ring.zero()
            z.coeffs[d][i] = Fraction(1)
            units.append(z)
    td = series_product(ring, _todd_series(ring.n))
    tds = [b * td for b in units]
    D, flat = cleared([a.dual().product(t, ring.n).integrate()
                       for a in units for t in tds])
    N = len(units)
    return D, [flat[a * N:(a + 1) * N] for a in range(N)]
