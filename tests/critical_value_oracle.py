"""Closed-form critical values of the blowup-of-P^4-along-a-line mirror
family along the wall path of `families.bl_line_p4_family_lambda`."""
import numpy as np

from toriclg.families import _bl_line_p4_t


def bl_line_p4_oracle_values(lam):
    """Critical values t^{-1/2}(5x + 3x^3) over the nine roots of
    x^5 (x^2+1)^2 = lam, with t = `_bl_line_p4_t(lam)`, sorted by decreasing
    imaginary part."""
    lam = complex(lam)
    t = complex(_bl_line_p4_t(lam))
    p = np.zeros(10, dtype=complex)
    p[0], p[2], p[4], p[9] = 1, 2, 1, -lam
    roots = np.roots(p)
    vals = [t ** -0.5 * (5 * x + 3 * x ** 3) for x in roots]
    vals.sort(key=lambda v: (-v.imag, v.real))
    return vals
