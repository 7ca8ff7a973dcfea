"""The full strict-convexity LP of a fan, kept as a reference oracle for the
height certificate of `StackyFan._heights_certify`.

Variables are the heights c_b of the rays, one slope m_sigma in Q^n per
maximal cone, and a shared slack eps: c_b = m_sigma(b) for b in sigma,
c_b - m_sigma(b) >= eps for b outside sigma, eps <= 1.  The fan carries a
strictly convex support function iff the largest eps is positive.
"""
from fractions import Fraction

from lp_oracle import lp_maximize


def convexity_certificate(fan):
    """(feasible, witness): witness lists the c_b (b in fan.rays) and then
    the slopes m_sigma, cone after cone."""
    n = fan.n
    rays = fan.rays
    nv = len(rays) + n * len(fan.max_cones)
    ray_pos = {b: k for k, b in enumerate(rays)}
    A_ub, A_eq = [], []
    for si, cone in enumerate(fan.max_cones):
        for b in rays:
            # m_sigma(b) - c_b, with eps in the last column
            row = [Fraction(0)] * (nv + 1)
            for i, x in enumerate(fan.ray_free(b)):
                row[len(rays) + si * n + i] = x
            row[ray_pos[b]] -= 1
            if b in cone:
                A_eq.append(row)
            else:
                row[nv] = Fraction(1)      # m_sigma(b) - c_b + eps <= 0
                A_ub.append(row)
    b_ub = [Fraction(0)] * len(A_ub)
    A_ub.append([Fraction(0)] * nv + [Fraction(1)])
    b_ub.append(Fraction(1))
    objective = [Fraction(0)] * nv + [Fraction(1)]
    status, value, x = lp_maximize(objective, A_ub, b_ub, A_eq,
                                   [Fraction(0)] * len(A_eq))
    if status != "optimal" or value <= 0:
        return False, None
    return True, x[:nv]
