"""Tests of the benchmark's oracles against hand-derived answers and a
direct numerical solve.  Run: python3 -m pytest perfbench/test_oracles.py"""
from __future__ import annotations

import cmath
import itertools
import math
import random
from math import comb

import numpy as np
import pytest

import oracles


def test_int_det_matches_cofactor_expansion():
    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * cofactor([r[:j] + r[j + 1:]
                                                   for r in m[1:]])
                   for j in range(len(m)))
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(20):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert oracles.int_det(m) == cofactor(m)
    assert oracles.int_det([[0, 1], [1, 0]]) == -1
    assert oracles.int_det([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("S, count", [
    ([(1, 0), (0, 1), (-1, -1)], 1),                 # P^2
    ([(-1, 1), (1, 1), (0, 1)], 2),                  # A1: orbifold, resolution
    ([(1, 0), (0, 1), (1, 1)], 2),                   # C^2 and its blowup
    ([(1, 0), (-1, 0), (0, 1), (0, -1)], 1),         # P1 x P1 only
    ([(1, 0), (2, 0), (0, 1), (-1, -1)], 2),         # two vectors on a ray
    ([(1, 0), (0, 1), (-1, 0)], 1),                  # half-plane
    ([(1, 0), (0, 1), (-1, 0), (1, 1)], 3),          # half-plane, two optional
    ([(1, 0), (0, 1), (-1, -1), (1, 1)], 2),         # P^2 and its blowup
])
def test_rank2_fan_counts(S, count):
    assert len(oracles.rank2_fans(S)) == count


def test_rank2_fans_are_the_expected_ray_sets():
    fans = oracles.rank2_fans([(1, 0), (0, 1), (-1, -1), (1, 1)])
    assert fans == {frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})}


def test_rank2_fans_rejects_a_line():
    with pytest.raises(ValueError):
        oracles.rank2_fans([(1, 0), (-1, 0), (2, 0)])


def _newton_values(exps, coeffs, starts=400, seed=0):
    """Critical values of sum c_b x^{m_b} by plain Newton on x dF/dx = 0 in
    log coordinates from many random starts (test reference only)."""
    B = np.asarray(exps, dtype=float)
    c = np.asarray(coeffs, dtype=complex)
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(starts):
        n = B.shape[1]
        l = rng.uniform(-2, 2, n) + 1j * rng.uniform(-3, 3, n)
        for _ in range(60):
            e = c * np.exp(B @ l)
            g = e @ B
            if np.linalg.norm(g) < 1e-13 * np.max(np.abs(e)):
                break
            try:
                l = l - np.linalg.solve((B.T * e) @ B, g)
            except np.linalg.LinAlgError:
                break
        else:
            continue
        v = complex(np.sum(c * np.exp(B @ l)))
        if all(abs(v - w) > 1e-7 * max(1, abs(v)) for w in found):
            found.append(v)
    return found


@pytest.mark.parametrize("exps, coeffs", [
    ([(1, 0), (0, 1), (-1, -1)], [1, 1, 0.7 + 0.2j]),
    ([(0, 1), (3, -1), (1, 0)], [1, 1, 1.1]),
    ([(0, 1), (4, -1), (1, 0)], [1, 1, 0.9]),
    ([(0, 1), (5, -1), (1, 0)], [1, 1, 1.2]),
    ([(1, 0), (0, 1), (1, 1)], [1, 1, 0.85]),
])
def test_circuit_values_match_direct_solve(exps, coeffs):
    want = oracles.circuit_values(exps, coeffs)
    ok, err = oracles.match_values(_newton_values(exps, coeffs), want, 1e-9)
    assert ok, err


def test_circuit_values_closed_forms():
    # x + y + q/(xy): 3 q^{1/3} times the cube roots of unity
    q = 0.5 + 0.3j
    want = [3 * q ** (1 / 3) * cmath.exp(2j * math.pi * k / 3)
            for k in range(3)]
    assert oracles.match_values(
        oracles.circuit_values([(1, 0), (0, 1), (-1, -1)], [1, 1, q]),
        want, 1e-12)[0]
    # y + x^3/y + t x has one critical point, with value t^3/27
    t = 1.3
    assert oracles.match_values(
        oracles.circuit_values([(0, 1), (3, -1), (1, 0)], [1, 1, t]),
        [t ** 3 / 27], 1e-12)[0]
    # index 2 lattice: each value is taken at two points
    vals = oracles.circuit_values([(2, 0), (0, 1), (-2, -1)], [1, 1, 1])
    assert len(vals) == 6


def test_blp4_values_solve_the_polynomial():
    for lam in (0.001, 0.3, 12.5):
        vals = oracles.blp4_values(lam)
        assert len(vals) == 9
        coeffs = [1, 0, 2, 0, 1, 0, 0, 0, 0, -lam]
        for x in np.roots(coeffs):
            assert abs(np.polyval(coeffs, x)) < 1e-9


def test_discriminant_is_a_double_root():
    s = oracles.DISCRIMINANT_S
    assert abs(s - 400 * math.sqrt(5) / 3 ** 9) < 1e-15
    x = 1j * math.sqrt(5) / 3
    assert abs(x ** 5 * (x ** 2 + 1) ** 2 - 1j * s) < 1e-15
    # p'(x) = x^4 (x^2 + 1)(9 x^2 + 5) vanishes there
    assert abs(9 * x ** 2 + 5) < 1e-15


def test_chi_closed_forms():
    for n in (2, 4):
        name = f"p{n}"
        for d in range(0, 5):
            # chi(O(d)) counts the degree-d monomials in n+1 variables
            assert oracles.chi_line_bundles(name, (0,) * (n + 1),
                                            (d,) + (0,) * n) == comb(d + n, n)
            # Serre duality with K = O(-n-1)
            assert oracles.chi_line_bundles(
                name, (0,) * (n + 1), (-d - n - 1,) + (0,) * n) == \
                (-1) ** n * comb(d + n, n)
    assert oracles.chi_line_bundles("p1xp1", (0, 0, 0, 0), (2, 0, 0, 3)) == 12
    # Bl_pt P^2 with D0 = D1 = H - E, D2 = H, D3 = E
    blp = "bl_point_p2"
    zero = (0, 0, 0, 0)
    assert oracles.chi_line_bundles(blp, zero, zero) == 1
    assert oracles.chi_line_bundles(blp, zero, (0, 0, 1, 0)) == 3     # H
    assert oracles.chi_line_bundles(blp, zero, (0, 0, 0, 1)) == 1     # E
    assert oracles.chi_line_bundles(blp, zero, (1, 0, 0, 0)) == 2     # H - E
    assert oracles.chi_line_bundles(blp, zero, (0, 0, 2, 0)) == 6     # 2H
    assert oracles.chi_line_bundles(blp, zero, (0, 0, -3, 1)) == 1    # K
    assert oracles.chi_line_bundles("bl_line_p4", (0,) * 6, (1,) * 6) is None


def test_pic_class_kills_principal_divisors():
    # the divisor of a character u is sum_b <u, v_b> D_b, which is 0 in Pic
    S = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (-1, -1, -1, -1), (1, 1, 1, 0)]
    for u in itertools.product((-1, 0, 2), repeat=4):
        a = [sum(x * y for x, y in zip(u, v)) for v in S]
        assert oracles.pic_class("bl_line_p4", a) == (0, 0)


def test_block_upper_unitriangular():
    G = [[1, 5, 2], [0, 1, 7], [0, 0, 1]]
    assert oracles.block_upper_unitriangular(G, [1, 2])
    assert not oracles.block_upper_unitriangular(
        [[1, 0, 0], [3, 1, 0], [0, 0, 1]], [1, 2])
    assert not oracles.block_upper_unitriangular(
        [[1, 0, 0], [0, 1, 0], [0, 2, 1]], [1, 2])
    assert not oracles.block_upper_unitriangular(G, [2, 2])


def test_match_values_is_a_multiset_match():
    assert oracles.match_values([1, 2j, 2j], [2j, 1, 2j], 0)[0]
    assert not oracles.match_values([1, 1, 2j], [2j, 1, 2j], 1e-3)[0]
    assert not oracles.match_values([1], [1, 1], 1)[0]
