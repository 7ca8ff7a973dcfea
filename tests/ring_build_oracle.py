"""The incremental `Fraction` echelon that built `CohomologyRing`'s graded
bases before the build read `rational.rref`, kept as a reference oracle.

By Poincaré duality a degree-d class is fixed by its integrals against the
degree-(n - d) monomials.  Scanning the monomials from the last one back,
a monomial joins the basis iff its pairing row (against *every* degree-(n -
d) monomial) is not in the span of the later rows; the others get their
unique coordinates over the later basis monomials.  The package's build
must return equal values of the same types.
"""
from fractions import Fraction


def build(ring):
    """(basis, reduce_map, top_scale) of `ring` by the greedy echelon."""
    integral = ring._top_integrals()
    basis = {}
    reduce_map = {}
    for d in range(ring.n + 1):
        monos = ring._monomials(d)
        cols = ring._monomials(ring.n - d)
        found = []       # basis monomials in the order found
        echelon = []     # (pivot, reduced row, that row over found rows)
        coords = {}
        for mo in reversed(monos):
            row = [Fraction(integral(tuple(a + b for a, b in zip(mo, c))))
                   for c in cols]
            combo = {}
            for p, e, ecombo in echelon:
                f = row[p]
                if f:
                    row = [x - f * y for x, y in zip(row, e)]
                    for k, x in ecombo.items():
                        combo[k] = combo.get(k, 0) + f * x
            p = next((p for p, x in enumerate(row) if x), None)
            if p is None:
                coords[mo] = combo
                continue
            inv = 1 / row[p]
            ecombo = {k: -x * inv for k, x in combo.items()}
            ecombo[len(found)] = inv
            echelon.append((p, [x * inv for x in row], ecombo))
            coords[mo] = {len(found): Fraction(1)}
            found.append(mo)
        r = len(found)
        basis[d] = found[::-1]
        rmap = {}
        for mo in monos:
            v = [Fraction(0)] * r
            for k, x in coords[mo].items():
                v[r - 1 - k] = x
            rmap[mo] = v
        reduce_map[d] = rmap
    top_scale = 1 / Fraction(integral(basis[ring.n][0]))
    return basis, reduce_map, top_scale
