"""Truncated formal asymptotic expansions of oscillatory integrals at
nondegenerate critical points, and the higher residue pairing built from
them.  Polynomials in the local coordinates are dense dicts
{exponent tuple: complex}."""
from __future__ import annotations

import math

import numpy as np

from . import errors
from .lg import LGPotential, CriticalDatum, critical_points


def _poly_mult(p, q, max_deg):
    out = {}
    for e1, c1 in p.items():
        d1 = sum(e1)
        for e2, c2 in q.items():
            if d1 + sum(e2) > max_deg:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0j) + c1 * c2
    return out


def _taylor_exponential_sum(B_rows, amplitudes, n, max_deg):
    """Taylor polynomial of sum_k amplitudes[k] * exp(B_k . s) at s = 0."""
    out = {}
    for row, amp in zip(B_rows, amplitudes):
        if amp == 0:
            continue
        # expand exp(row . s) = sum_m (row . s)^m / m!
        lin = {}
        for i, bi in enumerate(row):
            if bi:
                e = tuple(1 if j == i else 0 for j in range(n))
                lin[e] = complex(bi)
        term = {(0,) * n: 1.0 + 0j}
        out[(0,) * n] = out.get((0,) * n, 0j) + amp
        for m in range(1, max_deg + 1):
            term = _poly_mult(term, lin, max_deg)
            fact = math.factorial(m)
            for e, c in term.items():
                out[e] = out.get(e, 0j) + amp * c / fact
    return out


def _laplacian_apply(poly, hinv, n):
    """Apply L = sum h^{ij} d_i d_j to the polynomial."""
    out = {}
    for e, c in poly.items():
        for i in range(n):
            if e[i] == 0:
                continue
            for j in range(n):
                ej = list(e)
                ej[i] -= 1
                if ej[j] == 0:
                    continue
                coef = e[i] * ej[j] if i != j else e[i] * (e[i] - 1)
                if coef == 0:
                    continue
                e2 = list(e)
                e2[i] -= 1
                e2[j] -= 1
                key = tuple(e2)
                out[key] = out.get(key, 0j) + c * hinv[i][j] * coef
    return out


def asym_expansion(F: LGPotential, p: CriticalDatum, phi=None, order=0):
    """Coefficients a_0..a_order of the formal asymptotic expansion

        Asym_p(phi omega) = (1/(|N_tor| sqrt(det h)))
            [exp(-(z/2) sum h^{ij} d_i d_j) exp(F^{>=3}/z) phi(p e^s)]_{s=0}

    with phi a Laurent-polynomial insertion given as
    (exponent rows, coefficients) or None for phi = 1.  The square-root
    branch is the one recorded on the critical datum."""
    if not p.nondegenerate:
        raise errors.DegenerateCritical("expansion requires |det h| > 0")
    n = F.n
    k = order
    max_deg = 2 * k + 2
    c = F.coefficients_on(p.component)
    amps = c * np.exp(F.B @ p.log_point)
    taylor_F = _taylor_exponential_sum([tuple(row) for row in F.B], amps,
                                       n, max_deg)
    # remove degrees <= 2: the constant is the critical value, the linear
    # part cancels against chi, the quadratic part is the Gaussian weight
    F3 = {e: v for e, v in taylor_F.items() if sum(e) >= 3}
    if phi is None:
        phi_taylor = {(0,) * n: 1.0 + 0j}
    else:
        pB, pc = phi
        pamps = np.asarray(pc, dtype=complex) * \
            np.exp(np.asarray(pB, dtype=float) @ p.log_point)
        phi_taylor = _taylor_exponential_sum([tuple(r) for r in pB], pamps,
                                             n, 2 * k)
    hinv = np.linalg.inv(p.log_hessian)
    pref = 1.0 / (F.torsion_order * p.sqrt_det_h)
    a = [0j] * (k + 1)
    # z^j coefficient: sum over m of the Gaussian pairing of phi * F3^m / m!;
    # only total degrees <= 2(k+m) contribute at order <= k
    Fm = {(0,) * n: 1.0 + 0j}
    for m in range(0, 2 * k + 1):
        if m > 0:
            Fm = _poly_mult(Fm, F3, 2 * (k + m))
        term = _poly_mult(phi_taylor, Fm, 2 * (k + m))
        fact = math.factorial(m)
        for e, coef in term.items():
            D = sum(e)
            if D % 2:
                continue
            pp = D // 2
            j = pp - m
            if j < 0 or j > k:
                continue
            # [exp(-(z/2) L) s^e]_0 = (-z/2)^pp / pp! * L^pp(s^e)|_0
            mono = {e: coef}
            for _ in range(pp):
                mono = _laplacian_apply(mono, hinv, n)
            val = mono.get((0,) * n, 0j)
            a[j] += (-0.5) ** pp / math.factorial(pp) * val / fact
    return [pref * x for x in a]


def higher_residue_pairing(F: LGPotential, phi1=None, phi2=None, order=0,
                           rng=None, points=None):
    """P(s1, s2) = sum_p [Asym_p(s1)]_{z -> -z} Asym_p(s2), truncated.

    Returns coefficients of z^0..z^order.  All critical points must be
    nondegenerate."""
    if points is None:
        points = critical_points(F, rng=rng)
    for p in points:
        if not p.nondegenerate:
            raise errors.DegenerateCritical(
                "higher residue pairing requires nondegenerate points")
    out = [0j] * (order + 1)
    for p in points:
        a1 = asym_expansion(F, p, phi1, order)
        a2 = asym_expansion(F, p, phi2, order)
        for j in range(order + 1):
            s = 0j
            for m in range(j + 1):
                s += (-1) ** m * a1[m] * a2[j - m]
            out[j] += s
    return out
