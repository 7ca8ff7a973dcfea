"""LG potential families: the family of a stacky fan's chart, with the
layout its potentials share, and the worked families in the coordinates
used throughout the tests and scenarios."""
from __future__ import annotations

import itertools
from fractions import Fraction

from .lg import LGPotential
from .rational import idot, rank, scaled_inverse, solve


def pn_mirror(n: int, q: complex) -> LGPotential:
    """x_1 + ... + x_n + q/(x_1...x_n), the projective-space mirror."""
    exps = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    exps.append(tuple(-1 for _ in range(n)))
    coeffs = [1.0] * n + [complex(q)]
    return LGPotential(exps, coeffs)


def _bl_line_p4_coefficients(q1, q2):
    return [1.0, 1.0, 1.0, 1.0, complex(q1) * complex(q2), 1.0 / complex(q1)]


def bl_line_p4_potential(q1: complex, q2: complex) -> LGPotential:
    """x1+x2+x3+x4 + q1 q2/(x1 x2 x3 x4) + x1 x2 x3/q1, the blowup chart."""
    exps = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (-1, -1, -1, -1), (1, 1, 1, 0)]
    return LGPotential(exps, _bl_line_p4_coefficients(q1, q2))


def _bl_line_p4_t(lam):
    """t(lam) = lam^{2/3} + lam^{2/5} of the Example path."""
    return lam ** (2.0 / 3.0) + lam ** (2.0 / 5.0)


def bl_line_p4_family_lambda(t_of_lambda=None):
    """Family lam -> potential along the Example path, with
    t(lam) = `_bl_line_p4_t` unless overridden; q1 = 1/t, q2 = lam q1^{3/2};
    its potentials share one layout and count bound."""
    t_of_lambda = t_of_lambda or _bl_line_p4_t
    template = bl_line_p4_potential(1.0, 1.0)

    def family(lam):
        lam = complex(lam)
        t = complex(t_of_lambda(lam))
        q1 = 1.0 / t
        q2 = lam * q1 ** 1.5
        return template.with_coefficients(_bl_line_p4_coefficients(q1, q2))
    return family


def cyclic_orbifold_potential(d: int, t: complex) -> LGPotential:
    """x2 + x1^d/x2 + t x1 on the [C^2/mu_d] chart."""
    return LGPotential([(0, 1), (d, -1), (1, 0)], [1.0, 1.0, complex(t)])


def cyclic_resolution_potential(d: int, q: complex) -> LGPotential:
    """x2 + q x1^d/x2 + x1 on the resolution chart (q = t^{-d})."""
    return LGPotential([(0, 1), (d, -1), (1, 0)], [1.0, complex(q), 1.0])


def blowup_c2_potential(t: complex) -> LGPotential:
    """x1 + x2 + t x1 x2 on the C^2 chart of the blowup wall."""
    return LGPotential([(1, 0), (0, 1), (1, 1)], [1.0, 1.0, complex(t)])


def chart_family(fan, chi=None, splitting=None):
    """LG potentials of the chart attached to a stacky fan: a map
    (q_values, t_values) -> LGPotential, all sharing one layout.

    Coordinates follow the local-chart convention: x-coordinates come from
    the splitting over a ray subset whose images form a basis (default: the
    lexicographically first such subset), each ray term carries the monomial
    q^{lambda(b)}, lambda(b) = Psi(b) - sigma-bar(b), in the canonical integer
    basis of Lambda^Sigma, and each ghost term also t_b.  Computed once: the
    splitting inverse, the Lambda^Sigma basis and every term's q-exponents.

    q_values: `q_count` complex values for the canonical q-basis; t_values:
    dict S-index -> complex, one per index of `ghosts` (both attributes of
    the returned map, which checks neither).
    """
    S = fan.S
    n = fan.n
    m = len(S)
    ghosts = [b for b in range(m) if b not in fan.rays]
    if splitting is None:
        splitting = _first_ray_basis(fan)
    A, vol = scaled_inverse([[S[i].free[j] for i in splitting]
                             for j in range(n)])
    lam_basis = fan.lambda_sigma_basis()
    lam_cols = [tuple(r[j] for r in lam_basis) for j in range(m)]
    q_exps = []             # per term: (q index, float exponent) pairs
    for b in range(m):
        lam_b = list(fan.psi(S[b]))
        for i, row in zip(splitting, A):
            lam_b[i] -= Fraction(idot(row, S[b].free), vol)
        co = solve(lam_cols, tuple(lam_b)) if lam_basis else ()
        q_exps.append([(k, float(e)) for k, e in enumerate(co) if e != 0])
    template = LGPotential([b.free for b in S], [1] * m, chi=chi,
                           torsion_parts=[b.tor for b in S],
                           torsion_invariants=fan.lattice.torsion)

    def potential(q_values, t_values):
        coeffs = []
        for b in range(m):
            coeff = 1 + 0j
            for k, e in q_exps[b]:
                coeff *= complex(q_values[k]) ** e
            if b in t_values:
                coeff *= complex(t_values[b])
            coeffs.append(coeff)
        return template.with_coefficients(coeffs)
    potential.q_count, potential.ghosts = len(lam_basis), ghosts
    return potential


def _first_ray_basis(fan):
    for combo in itertools.combinations(sorted(fan.rays), fan.n):
        if rank([fan.S[i].free for i in combo]) == fan.n:
            return list(combo)
    raise ValueError("no ray basis found")
