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
log Gamma(1 + D_b) in the ring and its ring `exp`.

`series_product` and `euler_form` are the program's routes before the
divisor power sums and the top-degree tables, in the ring's own
arithmetic: the product over the rays of one series in D_b each, and the
Euler form from one top-degree product per entry."""
from fractions import Fraction

from toriclg.ktheory import _TODD_COEFF, Cls, GammaPoly
from toriclg.rational import cleared


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
    out = ring.one()
    for i in range(ring.m):
        D = ring.divisor(i)
        s = ring.zero()
        pw = ring.one()
        for k in range(ring.n + 1):
            if k:
                pw = mul(pw, D)
            s = add(s, scaled(pw, _TODD_COEFF[k]))
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
    """prod_b sum_{k=0..n} coeffs[k] D_b^k over the rays b, in the ring's
    own arithmetic: n products by D_b per ray and one product per ray into
    the running class.  The program's Todd class (coeffs `_TODD_COEFF`)
    and Gamma class (`_gamma_series(n)`) before they were read from the
    divisor power sums."""
    out = ring.one()
    for i in range(ring.m):
        D = ring.divisor(i)
        s = ring.zero()
        pw = ring.one()
        for k in range(ring.n + 1):
            if k:
                pw = pw * D
            s = s + pw.scaled(coeffs[k])
        out = out * s
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
    td = series_product(ring, _TODD_COEFF)
    tds = [b * td for b in units]
    D, flat = cleared([a.dual().product(t, ring.n).integrate()
                       for a in units for t in tds])
    N = len(units)
    return D, [flat[a * N:(a + 1) * N] for a in range(N)]
