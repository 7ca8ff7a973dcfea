"""The zonotope Hilbert basis, kept as a reference oracle for
`cones.hilbert_basis`.

Every lattice point of the bounding box of the zonotope spanned by the
cone's rays (in lattice coordinates) is tested for zonotope membership by
its own exact LP; the candidates inside the cone are then reduced to the
elements that are minimal in the cone order.  Slow (one LP per box point),
so only for small cones.
"""
import itertools
import math
from fractions import Fraction

from toriclg.rational import frac, is_zero, matvec, transpose, vsub

from elimination_oracle import mat_inverse
from lp_oracle import lp_maximize


def zonotope_hilbert_basis(cone, lattice_basis):
    """Monoid generators of cone ∩ lattice for a pointed cone, sorted;
    lattice_basis rows span a full-rank lattice in the ambient space."""
    if cone.lineality:
        raise ValueError("hilbert_basis requires a pointed cone")
    amb = cone.ambient
    inv, _ = mat_inverse(lattice_basis)
    Binv_t = transpose(inv)
    rays = []
    for r in cone.rays:
        coeff = matvec(Binv_t, r)
        den = math.lcm(*(x.denominator for x in coeff))
        rays.append(tuple(x * den for x in coeff))
    if not rays:
        return []
    k = len(rays)
    dimL = len(rays[0])
    lo = [sum(min(Fraction(0), r[i]) for r in rays) for i in range(dimL)]
    hi = [sum(max(Fraction(0), r[i]) for r in rays) for i in range(dimL)]
    ranges = [range(int(lo[i]), int(hi[i]) + 1) for i in range(dimL)]
    cand = []
    for z in itertools.product(*ranges):
        if all(x == 0 for x in z):
            continue
        # z in the zonotope: some t in [0,1]^k has sum t_i rays_i = z
        A_eq = [[rays[j][i] for j in range(k)] for i in range(dimL)]
        A_ub = ([[1 if j == jj else 0 for jj in range(k)] for j in range(k)]
                + [[-1 if j == jj else 0 for jj in range(k)]
                   for j in range(k)])
        status, _, _ = lp_maximize([0] * k, A_ub=A_ub, b_ub=[1] * k + [0] * k,
                                   A_eq=A_eq, b_eq=list(z))
        if status == "optimal":
            cand.append(z)

    def to_amb(z):
        out = [Fraction(0)] * amb
        for c, row in zip(z, lattice_basis):
            for i in range(amb):
                out[i] += c * frac(row[i])
        return tuple(out)
    cand_amb = [(z, to_amb(z)) for z in cand]
    cand_amb = [(z, v) for z, v in cand_amb if cone.contains(v)]
    basis = []
    for z, v in cand_amb:
        if not any(z2 != z and not is_zero(vsub(v, v2))
                   and cone.contains(vsub(v, v2)) for z2, v2 in cand_amb):
            basis.append(v)
    basis.sort()
    return basis
