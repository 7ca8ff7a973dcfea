"""The one-point Smale alpha-test that `lg` ran before it tested all found
points as one stack, kept as the oracle of `tests/test_alpha_oracle.py`.

It evaluates one point with the one-point numpy forms: `np.linalg.inv`,
`np.linalg.norm`, 1-D dot products and Python's float power, and checks
the pairs of points one at a time.  The stacked `lg._alpha_beta` must give
every row's alpha and beta bit for bit, and `lg._alpha_certified` the same
verdict.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from toriclg.lg import ALPHA_MAX, _canonical_log


def alpha_beta(F, l, component=()):
    """Smale's (alpha, beta) at one point l on one fibre component; see
    `lg._alpha_beta` for the bounds.  (inf, inf) when the terms are not
    finite, the Hessian is singular or either number is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = F.terms(l, component)
        if not np.all(np.isfinite(t)):
            return math.inf, math.inf
        try:
            h_inv = np.linalg.inv(F.hess(l, component, t))
        except np.linalg.LinAlgError:
            return math.inf, math.inf
        a_inv = float(np.linalg.norm(h_inv))
        nb = np.linalg.norm(F.B, axis=1)
        at = np.abs(t)
        eps = np.finfo(float).eps
        err = 2 * eps * (np.sum(at * nb * (F.nterms + 3 + F.n * nb
                                           * np.linalg.norm(l)))
                         + np.linalg.norm(F.chi))
        beta = float(np.linalg.norm(h_inv @ F.grad(l, component, t))
                     + a_inv * err)
        w = a_inv * at
        e_r = math.e * float(np.max(nb))
        big_t = max(float(w @ nb), 1.0)
        gamma = 0.0
        p = nb * nb                  # |b|^(k+1) / k! at k = 1
        for k in range(2, 201):
            p = p * nb / k
            gamma = max(gamma, float(w @ p) ** (1.0 / (k - 1)))
            tail = big_t ** (1.0 / k) * e_r / (k + 1)
            if k >= e_r and tail <= gamma:
                break
        else:
            gamma = max(gamma, tail)
    if not (math.isfinite(beta) and math.isfinite(gamma)):
        return math.inf, math.inf
    return beta * gamma, beta


def alpha_certified(F, points):
    """`lg._alpha_certified` testing one point and one pair at a time."""
    ab = [alpha_beta(F, p.log_point, p.component) for p in points]
    if not all(a < ALPHA_MAX for a, _ in ab):
        return False
    for (p, (_, bp)), (q, (_, bq)) in itertools.combinations(
            zip(points, ab), 2):
        gap = np.linalg.norm(_canonical_log(p.log_point - q.log_point))
        if p.component == q.component and not gap > 2 * (bp + bq):
            return False
    return True
