import math

import numpy as np
import pytest

from residue_oracle import (grothendieck_residue_oracle,
                            steepest_descent_quadrature_p1)
from toriclg import errors
from toriclg.families import pn_mirror
from toriclg.lg import LGPotential, conifold_point, critical_points
from toriclg.residues import asym_expansion, higher_residue_pairing


def test_leading_term_is_gaussian():
    F = pn_mirror(2, 0.8 + 0.3j)
    pts = critical_points(F, rng=np.random.default_rng(0))
    for p in pts:
        a = asym_expansion(F, p, None, 0)
        assert abs(a[0] - 1.0 / p.sqrt_det_h) < 1e-12


def test_one_variable_moment_calculus():
    # F = x + 1/x at x = 1: h = 2, F^{>=3} Taylor: cosh-like even series
    # 2cosh(s) = 2 + s^2 + s^4/12 + ...: F3 = s^4/12 + s^6/360 at this order
    # a_1 = (1/sqrt 2)(1/12)*[exp(-z/2 h^{-1} dss) s^4]-pairing / z ...
    # moments: [e^{-(z/2)(1/2)d^2} s^4]_0 = (z/2 * 1/2)^2 *? use direct check
    F = LGPotential([(1,), (-1,)], [1.0, 1.0])
    p = conifold_point(F)
    a = asym_expansion(F, p, None, 2)
    # against the Bessel asymptotics 2K_0(2/|z|):
    # sqrt(pi |z|) (1 - |z|/16 + 9 z^2 / 512) = sqrt(2 pi |z|)(a0 + a1 z + a2 z^2)
    assert abs(a[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(a[1] - (-1) * (-1 / 16) / math.sqrt(2)) < 1e-10
    assert abs(a[2] - (9 / 512) / math.sqrt(2)) < 1e-9


def test_asym_order1_vs_quadrature_p1():
    q = 1.0
    F = pn_mirror(1, q)
    p = conifold_point(F)
    a = asym_expansion(F, p, None, 1)
    zs = [-0.0125, -0.00625]
    ints = steepest_descent_quadrature_p1(q, zs)
    # I(z) = e^{F(p)/z} sqrt(-2 pi z) (a0 + a1 z + O(z^2))
    resid = []
    for z, val in zip(zs, ints):
        lead = math.exp(2 * math.sqrt(q) / z) * math.sqrt(-2 * math.pi * z)
        resid.append((val / lead - a[0].real) / z)
    # the residuals tend to a1 linearly in z; Richardson removes the a2 term
    extrap = 2 * resid[-1] - resid[-2]
    assert abs(resid[-1] - a[1].real) < 1e-4
    assert abs(extrap - a[1].real) < 1e-6


def test_degenerate_rejected():
    F = pn_mirror(1, 1.0)
    pts = critical_points(F, rng=np.random.default_rng(0))
    p = pts[0]
    p.nondegenerate = False
    with pytest.raises(errors.DegenerateCritical):
        asym_expansion(F, p, None, 0)


def test_residue_order0_p1():
    # two critical points +-1 with h = +-2: sum 1/h = 0
    F = pn_mirror(1, 1.0)
    P = higher_residue_pairing(F, None, None, order=0,
                               rng=np.random.default_rng(0))
    assert abs(P[0]) < 1e-12


def test_residue_order0_matches_oracle_p2():
    F = pn_mirror(2, 1.3 - 0.2j)
    pts = critical_points(F, rng=np.random.default_rng(1))
    phi1 = ([(1, 0)], [1.0])          # x1
    phi2 = ([(0, 1), (1, 1)], [0.5, 2.0])
    P = higher_residue_pairing(F, phi1, phi2, order=0, points=pts)
    oracle = grothendieck_residue_oracle(F, phi1, phi2, points=pts)
    assert abs(P[0] - oracle) < 1e-8


def test_symmetry_property():
    rng = np.random.default_rng(2)
    F = pn_mirror(2, 0.9 + 0.4j)
    pts = critical_points(F, rng=rng)
    phi1 = ([(1, 0), (-1, -1)], [1.0, 0.3j])
    phi2 = ([(0, 1)], [2.0 - 1.0j])
    P12 = higher_residue_pairing(F, phi1, phi2, order=2, points=pts)
    P21 = higher_residue_pairing(F, phi2, phi1, order=2, points=pts)
    # P(s2, s1) = P(s1, s2)|_{z -> -z}
    for j in range(3):
        assert abs(P21[j] - (-1) ** j * P12[j]) < 1e-9
