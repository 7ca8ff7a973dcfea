"""The golden-section collision search that `lg._locate_collision` ran
before it solved the next moves' probes as one stack, kept as the oracle of
`tests/test_collision_oracle.py`.

It evaluates one parameter at a time, with one four-row `_newton_solve` per
probe (read through the module, so a test can count the calls): the two
starting probes, then one per move, the last move's included although no
comparison reads it.  The lockstep search must return its parameter bit
for bit.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from toriclg import lg


def locate_collision(traj, k_enter, k_exit):
    family, branches, params = traj.family, traj.branches, traj.params
    k0 = max(k_enter - 1, 0)
    lo = params[k0]
    hi = params[k_exit]
    left_seeds = [br[k0] for br in branches]
    nxt_pts = [br[k_exit] for br in branches]
    mid_pts = [br[min(k_enter + 1, k_exit)] for br in branches]
    i, j = min((ij for ij in itertools.combinations(range(len(mid_pts)), 2)
                if mid_pts[ij[0]].component == mid_pts[ij[1]].component),
               key=lambda ij: abs(mid_pts[ij[0]].value - mid_pts[ij[1]].value))
    seeds = [left_seeds[i], left_seeds[j], nxt_pts[i], nxt_pts[j]]

    def dist(si, sj):
        if si is None or sj is None:
            return math.inf
        return float(np.linalg.norm(lg._canonical_log(
            lg._canonical_log(si[0]) - lg._canonical_log(sj[0]))))

    def phi(s):
        F = family(s)
        li, lj, ri, rj = lg._newton_solve(
            F, [p.log_point for p in seeds],
            F.coefficient_rows([p.component for p in seeds]), tol=1e-10)
        return max(dist(li, lj), dist(ri, rj))

    invphi = (math.sqrt(5) - 1) / 2
    a, b = 0.0, 1.0

    def at(t):
        return lo + (hi - lo) * t
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(at(c)), phi(at(d))
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(at(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(at(d))
        if abs(b - a) * abs(hi - lo) < 1e-10:
            break
    return at((a + b) / 2)
