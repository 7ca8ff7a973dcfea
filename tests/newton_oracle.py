"""The one-start damped Newton and multistart search that `lg` ran before
its Newton solved a stack of starts in lockstep, kept as the oracle of
`tests/test_newton_oracle.py`.

Each start is solved alone with the one-point numpy forms: terms
c * exp(B @ l), gradient t @ B - chi, Hessian (B^T * t) @ B and
`np.linalg.norm`.  The stacked solver must give every row's result bit for
bit, and the batched search must draw, try and stop exactly as this one.
"""
from __future__ import annotations

import math

import numpy as np

from toriclg import errors
from toriclg.lg import (TOL_NEWTON, CriticalDatum, _alpha_certified,
                        _canonical_log)


def terms(F, l, component=()):
    return F.coefficients_on(component) * np.exp(F.B @ l)


def value(F, l, component=()):
    val = np.sum(terms(F, l, component))
    if np.any(F.chi):
        val -= np.sum(F.chi * l)
    return complex(val)


def hess(F, t):
    return (F.B.T * t) @ F.B


def term_scale(F, t):
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(t)
    s = float(np.max(mags)) if np.all(np.isfinite(mags)) else math.inf
    if np.any(F.chi):
        s = max(s, float(np.max(np.abs(F.chi))))
    return max(s, 1e-300)


def converged(g, gn, bound):
    """gn < bound, where a norm below 2^-511 (each square subnormal or 0)
    must pass again taken over the largest |entry| of g; 0 passes."""
    if not gn < bound:
        return False
    if gn >= 2.0 ** -511:
        return True
    v = np.abs(np.concatenate((g.real, g.imag)))
    s = v.max()
    return not s or s * np.linalg.norm(v / s) < bound


def newton_solve(F, l0, component=(), tol=TOL_NEWTON):
    """Damped Newton from l0; None unless it converges."""
    l = np.asarray(l0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        t = terms(F, l, component)
        for _ in range(100):
            g = t @ F.B - F.chi
            gn = np.linalg.norm(g)
            if not np.isfinite(gn):
                return None
            if converged(g, gn, tol * term_scale(F, t)):
                return l if t.any() else None   # all terms 0: no zero
            try:
                dl = np.linalg.solve(hess(F, t), -g)
            except np.linalg.LinAlgError:
                return None
            step = 1.0
            for _ in range(50):
                l2 = l + step * dl
                t2 = terms(F, l2, component)
                g2n = np.linalg.norm(t2 @ F.B - F.chi)
                if np.isfinite(g2n) and (
                        g2n < (1 - 0.25 * step) * gn
                        or g2n < tol * term_scale(F, t2)):
                    break
                step *= 0.5
            else:
                return None
            l, t = l2, t2
        g = t @ F.B - F.chi
        if converged(g, np.linalg.norm(g), tol * term_scale(F, t)):
            return l if t.any() else None
        return None


def critical_points(F, expected=None, rng=None, budget_factor=200,
                    dedupe_tol=1e-5):
    """`lg.critical_points` drawing and solving one start at a time."""
    if rng is None:
        rng = np.random.default_rng(0)
    bound, exact = F.count_bound()
    if expected is None and exact:
        expected = bound
    stop = bound if expected is None else expected
    if stop == 0:
        return []
    found = []
    budget = budget_factor * stop

    def record(l, component):
        l = _canonical_log(l)
        if np.max(np.abs(l.real)) > 18.0:
            return
        for p in found:
            if p.component == component and np.linalg.norm(
                    _canonical_log(p.log_point - l)) < dedupe_tol:
                return
        found.append(CriticalDatum(l, value(F, l, component),
                                   hess(F, terms(F, l, component)),
                                   component))

    components = F.components()
    per_comp_budget = max(budget // len(components), 40)
    floor = per_comp_budget // 10
    certified = None
    for component in components:
        tries = 0
        while tries < per_comp_budget:
            tries += 1
            l0 = (rng.uniform(-2.5, 2.5, F.n)
                  + 1j * rng.uniform(-math.pi, math.pi, F.n))
            l = newton_solve(F, l0, component)
            if l is not None:
                record(l, component)
            if len(found) == stop:
                if certified is None:
                    certified = (exact and stop == bound
                                 and _alpha_certified(F, found))
                if certified:
                    rng.random(2 * F.n * max(floor + 1 - tries, 0))
                    break
                if tries > floor:
                    break
        if len(found) == stop:
            break
    if len(found) > bound:
        raise errors.IncompleteCount(
            f"found {len(found)} critical points, more than the Bernstein "
            f"bound {bound}")
    if expected is not None and len(found) < expected:
        raise errors.IncompleteCount(
            f"found {len(found)} critical points, exact count is {expected}")
    found.sort(key=lambda p: (-p.value.imag, p.value.real))
    return found
