"""The crossing-by-crossing evolution `mutation.evolve` ran before it
bisected every crossing of a trajectory in lockstep, kept as the oracle of
`tests/test_refine_oracle.py`.

Each step's crossings are found from its two marking snapshots alone, and
each crossing time is bisected on its own: every bisection point is one
two-row `_newton_solve` of the two crossing branches at that point's
parameter, seeded from the step.  The lockstep bisection must give every
event's step, branches, direction, coefficient and parameter exactly as
this one, on trajectories whose alignments are never exactly 0 at a node.
"""
from __future__ import annotations

import cmath

from toriclg import errors
from toriclg.lg import _newton_solve
from toriclg.mutation import (COLLIDE_EPS, REFINE_TOL, MutationEvent,
                              admissible)


def crossing_in_step(u0, u1, phase):
    """Ray crossings between two consecutive marking snapshots: (i, j,
    direction, s) with i behind, j in front and s in (0,1] the interpolated
    crossing time."""
    d = cmath.exp(-1j * phase)
    n = len(u0)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a0 = (d * (u0[j] - u0[i])).imag
            a1 = (d * (u1[j] - u1[i])).imag
            if a0 == 0 or (a0 > 0) == (a1 > 0):
                continue
            s = a0 / (a0 - a1)
            ui = u0[i] + (u1[i] - u0[i]) * s
            uj = u0[j] + (u1[j] - u0[j]) * s
            re = (d * (uj - ui)).real
            if re <= COLLIDE_EPS:
                continue
            out.append((i, j, "up" if a1 > a0 else "down", s))
    return out


def resolve_pair(trajectory, param, near_step, i, j):
    """The critical values of branches i and j at param, one two-row solve
    from their points at near_step."""
    F = trajectory.family(param)
    pts = [trajectory.branches[b][near_step] for b in (i, j)]
    sols = _newton_solve(F, [p.log_point for p in pts],
                         F.coefficient_rows([p.component for p in pts]))
    out = []
    for b, sol in zip((i, j), sols):
        if sol is None:
            raise errors.LostBranch(
                f"refinement lost branch {b} at parameter {param}")
        out.append(F.value(sol[0], terms=sol[1]))
    return out


def refine_crossing(trajectory, k, i, j, phase, s_guess):
    """Bisection of the crossing time of branches i and j within
    [params[k], params[k+1]]."""
    d = cmath.exp(-1j * phase)
    params = trajectory.params

    def align(s):
        p = params[k] + (params[k + 1] - params[k]) * s
        ui, uj = resolve_pair(trajectory, p, k, i, j)
        return (d * (uj - ui)).imag
    a, b = 0.0, 1.0
    fa = align(a)
    fb = align(b)
    if fa == 0:
        return 0.0
    if (fa > 0) == (fb > 0):
        return s_guess
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = align(m)
        if fm == 0:
            return m
        if (fa > 0) == (fm > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
        if b - a < REFINE_TOL:
            break
    return 0.5 * (a + b)


def evolve(mrs, trajectory):
    """`mutation.evolve`, one step and one crossing at a time."""
    if len(mrs) != trajectory.nbranches:
        raise ValueError("system and trajectory sizes differ")
    cur = mrs.copy()
    events = []
    params = trajectory.params
    phase = mrs.phase
    for k in range(len(params) - 1):
        u0 = [br[k].value for br in trajectory.branches]
        u1 = [br[k + 1].value for br in trajectory.branches]
        refined = []
        for (i, j, direction, s) in crossing_in_step(u0, u1, phase):
            s_ref = s
            if trajectory.family is not None:
                s_ref = refine_crossing(trajectory, k, i, j, phase, s)
            refined.append((s_ref, i, j, direction))
        refined.sort(key=lambda t: t[0])
        for a in range(len(refined)):
            for b in range(a + 1, len(refined)):
                sa, ia, ja, _ = refined[a]
                sb, ib, jb, _ = refined[b]
                if abs(sa - sb) < 10 * REFINE_TOL:
                    if ia == ib or ia == jb or ja == ib:
                        raise errors.SimultaneousCrossing(
                            f"entangled crossings ({ia},{ja}) and ({ib},{jb})"
                            f" within refinement tolerance at step {k}")
        for (s_ref, i, j, direction) in refined:
            if direction == "up":
                c = cur.backend.pair(cur.vectors[i], cur.vectors[j])
            else:
                c = cur.backend.pair(cur.vectors[j], cur.vectors[i])
            cur.vectors[i] = tuple(x - c * y for x, y in
                                   zip(cur.vectors[i], cur.vectors[j]))
            at = params[k] + (params[k + 1] - params[k]) * s_ref
            events.append(MutationEvent(k, i, j, direction, c, at))
        cur.markings = list(u1)
    if not admissible(phase, cur.markings):
        raise errors.NonAdmissibleEndpoint(
            "endpoint phase is not admissible for the final markings")
    return cur, events
