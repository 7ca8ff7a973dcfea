"""The stacked alpha-test of `lg` against the one-point test it replaced
(`tests/alpha_oracle.py`): every row's alpha and beta bit for bit, whatever
the other rows of its stack, and every certificate's verdict."""
import math

import numpy as np
import pytest

from toriclg import lg
from toriclg.families import bl_line_p4_family_lambda, pn_mirror
from toriclg.lg import LGPotential

import alpha_oracle as oracle
from test_newton_oracle import FAMILIES, TORSION

CHI = [LGPotential([(1, 0), (0, 1), (-1, -1)], [1.0, 1.0, 1.3],
                   chi=[0.3, -0.2j]),
       LGPotential([(1,), (2,)], [1, 1], chi=[1])]


def _bits(x):
    return np.float64(x).tobytes()


def _check_rows(F, L, comps):
    """Test the rows as one stack and each alone with the oracle; alpha and
    beta must match bit for bit.  Returns how many rows pass the test."""
    alpha, beta = lg._alpha_beta(F, L, comps)
    assert alpha.shape == beta.shape == (len(comps),)
    for l, c, a, b in zip(L, comps, alpha, beta):
        want_a, want_b = oracle.alpha_beta(F, l, c)
        assert _bits(a) == _bits(want_a) and _bits(b) == _bits(want_b)
    return int(np.sum(alpha < lg.ALPHA_MAX))


def _rows(F, seed):
    """The critical points of F on their components, each again nudged off
    its zero by 1e-9 and 1e-4, and random starts on every component."""
    rng = np.random.default_rng(seed)
    pts = lg.critical_points(F, rng=rng)
    L = [p.log_point for p in pts]
    comps = [p.component for p in pts]
    for eps in (1e-9, 1e-4):
        L += [p.log_point + eps * (1 - 2j) for p in pts]
        comps += comps[:len(pts)]
    for c in F.components():
        L += list(rng.uniform(-2.5, 2.5, (4, F.n))
                  + 1j * rng.uniform(-3, 3, (4, F.n)))
        comps += [c] * 4
    return np.array(L), comps, len(pts)


@pytest.mark.parametrize("F", FAMILIES + [TORSION] + CHI,
                         ids=lambda F: str(F.B_int))
def test_rows_match_one_point_tests(F):
    L, comps, npts = _rows(F, F.nterms * 10 + F.n)
    assert npts > 0
    passed = _check_rows(F, L, comps)
    assert npts <= passed < len(comps)
    assert len(set(comps)) == len(F.components())


def test_singular_and_non_finite_rows():
    # F = x - x^2/2 has Hessian x - 2 x^2 in log coordinates, exactly 0 at
    # x = 1/2; a point far out overflows the terms, and a nan stays nan
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    at = math.log(0.5)
    L = np.array([[0.1 + 0.05j], [at], [800.0], [complex(np.nan, 0)],
                  [-0.1j], [at]])
    _check_rows(F, L, [()] * len(L))
    alpha, beta = lg._alpha_beta(F, L, [()] * len(L))
    assert np.all(np.isinf(alpha[1:4])) and np.all(np.isinf(beta[1:4]))
    assert np.all(np.isfinite(alpha[[0, 4]])) and np.isinf(alpha[5])


def test_long_gamma_scan_rows():
    # a far monomial with a tiny coefficient puts gamma's largest term at
    # k >= 3 on some rows, where a power other than Python's (np.power)
    # changes the last bit of alpha, and makes the scan over k run past
    # k = 45 on some rows and stop early on others
    far = LGPotential([(1,), (-1,), (20,)], [1.0, 1.0, 1e-12])
    rng = np.random.default_rng(7)
    L = rng.uniform(-1, 1, (200, 1)) + 1j * rng.uniform(-3, 3, (200, 1))
    _check_rows(far, L, [()] * len(L))
    F = bl_line_p4_family_lambda()(0.01)
    L, comps, _ = _rows(F, 6)
    _check_rows(F, L, comps)


def _certificate_cases():
    """The point sets of tests/test_lg.py's certificate tests, with the
    verdict each must get."""
    out = []
    for F in (pn_mirror(2, 1.0), bl_line_p4_family_lambda()(2.0)):
        out.append((F, lg.critical_points(F, rng=np.random.default_rng(0)),
                    True))
    F = bl_line_p4_family_lambda()(2.0)
    pts = out[-1][1]
    rng = np.random.default_rng(4)
    start = rng.uniform(-2.5, 2.5, 4) + 1j * rng.uniform(-math.pi, math.pi, 4)
    stray = lg.CriticalDatum(start, F.value(start), F.hess(start))
    [(again, _)] = lg._newton_solve(F, [pts[0].log_point + 1e-3],
                                    F.coefficient_rows([()]))
    twice = lg.CriticalDatum(lg._canonical_log(again), F.value(again),
                             F.hess(again))
    out += [(F, pts[:-1] + [stray], False), (F, pts[:-1] + [pts[0]], False),
            (F, [pts[0], twice], False)]
    G = pn_mirror(2, 1.0)
    zero = lg.CriticalDatum(np.zeros(2, complex), 3.0, G.hess(np.zeros(2)))
    ulp = lg.CriticalDatum(np.array([2.0 ** -60, 0], complex), 3.0,
                           G.hess(np.zeros(2)))
    out.append((G, [zero, ulp], False))
    pts = lg.critical_points(TORSION, rng=np.random.default_rng(1))
    out += [(TORSION, pts, True), (TORSION, pts + [pts[-1]], False)]
    return out


def test_certificate_verdicts_match():
    for F, pts, want in _certificate_cases():
        assert lg._alpha_certified(F, pts) is want
        assert oracle.alpha_certified(F, pts) is want
