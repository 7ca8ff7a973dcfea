"""The `Fraction` double description, kept as a reference oracle for
`cones.dual_description`.

Every vector is a tuple of Fraction; a lineality pivot divides by its
value, and each ray's dot product with a constraint is taken once per
sign test.  The package's version works on primitive integer vectors and
must return the same rays in the same order and the same lineality, signs
included.
"""
import itertools
from fractions import Fraction

from toriclg.rational import dot, frac, is_zero, primitive, vec, vsub


def fraction_dual_description(ineqs, eqs, dim):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs,
    e.x = 0 for e in eqs}."""
    constraints = []
    for e in eqs:
        constraints.append(vec(e))
        constraints.append(vec(tuple(-x for x in e)))
    constraints.extend(vec(a) for a in ineqs)
    lineality = [tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim))
                 for i in range(dim)]
    rays = []        # list of (vector, zeroset frozenset)
    for idx, a in enumerate(constraints):
        lvals = [dot(a, l) for l in lineality]
        j0 = next((j for j in range(len(lineality)) if lvals[j] != 0), None)
        if j0 is not None:
            l0 = lineality[j0]
            s = lvals[j0]
            l0 = tuple(x / s for x in l0)
            lineality = [vsub(l, tuple(dot(a, l) * y for y in l0))
                         for j, l in enumerate(lineality) if j != j0]
            # every projected ray now vanishes on the new constraint
            rays = [(vsub(r, tuple(dot(a, r) * y for y in l0)), z | {idx})
                    for r, z in rays]
            rays.append((l0, frozenset(range(idx))))
            continue
        pos = [(r, z) for r, z in rays if dot(a, r) > 0]
        neg = [(r, z) for r, z in rays if dot(a, r) < 0]
        zer = [(r, z | {idx}) for r, z in rays if dot(a, r) == 0]
        new = [(r, z) for r, z in pos] + zer
        for (rp, zp), (rn, zn) in itertools.product(pos, neg):
            common = zp & zn
            # adjacency: no third ray's zero set contains the common zeros
            adjacent = True
            for r3, z3 in rays:
                if r3 is rp or r3 is rn:
                    continue
                if common <= z3:
                    adjacent = False
                    break
            if not adjacent:
                continue
            vp, vn = dot(a, rp), dot(a, rn)
            w = tuple(vp * x - vn * y for x, y in zip(rn, rp))
            if is_zero(w):
                continue
            new.append((tuple(frac(x) for x in primitive(w)), common | {idx}))
        # dedupe
        seen = {}
        for r, z in new:
            key = primitive(r)
            if key in seen:
                seen[key] = (seen[key][0], seen[key][1] | z)
            else:
                seen[key] = (r, z)
        rays = list(seen.values())
    ray_vecs = [vec(primitive(r)) for r, _ in rays]
    lin_vecs = [vec(primitive(l)) for l in lineality if not is_zero(l)]
    return ray_vecs, lin_vecs
