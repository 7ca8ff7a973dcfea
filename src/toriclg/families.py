"""Worked potential families in the coordinates used throughout the tests
and scenarios."""
from __future__ import annotations

from .lg import LGPotential


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
