"""The probe walk of the secondary fan and the subset scan of Sigma_0 that
`secondary.enumerate_adapted_fans` and `secondary.sigma0_max_cones`
replaced, kept as reference oracles.

`probe_walk` finds the chamber across each facet (g, ray sum p) of cpl by
probing the stability parameters 2^k p - g, k = 1..63, inside the support
cone, and keeps the first whose chamber holds the probe in its relative
interior and contains the whole facet.  `subset_scan_sigma0` builds the
angle cone(D_b : b not in I) of every subset I of S and keeps the maximal I
whose angle holds a relative interior point of the wall face in its
relative interior.
"""
from __future__ import annotations

import itertools
import random

from toriclg import errors
from toriclg.cones import Cone
from toriclg.fans import StackyFan
from toriclg.rational import idot
from toriclg.secondary import _fan_from_stability, pl_cone_data


def relint_contains(cone, x):
    """x in the relative interior of the cone."""
    return (all(idot(e, x) == 0 for e in cone.equalities)
            and all(idot(a, x) > 0 for a in cone.inequalities))


def probe_walk(vector_set):
    """(fans, walls) as `enumerate_adapted_fans` returns them."""
    S = vector_set.vectors
    L, D = vector_set.sequences()
    r = len(L)
    if r == 0:
        return [StackyFan(vector_set, [frozenset(range(len(S)))])], []
    support = Cone.from_rays(D, r)
    rng = random.Random(20200422)
    built = {}
    start = None
    for _ in range(200):
        omega = tuple(sum(rng.randint(1, 97) * D[b][j] for b in range(len(S)))
                      for j in range(r))
        fan = _fan_from_stability(vector_set, omega, (0,) * r, built)
        if fan is not None:
            data = pl_cone_data(fan)
            if data.cpl is not None and relint_contains(data.cpl, omega):
                start = fan
                break
    if start is None:
        raise errors.TooLarge("failed to locate an initial chamber")
    fans = [start]
    seen = {start.key(): 0}
    walls = []
    queue = [0]
    while queue:
        fi = queue.pop(0)
        cpl = pl_cone_data(fans[fi]).cpl
        for g in cpl.inequalities:
            face_rays = [rr for rr in cpl.rays if idot(g, rr) == 0]
            p = (0,) * r
            for rr in face_rays:
                p = tuple(a + b for a, b in zip(p, rr))
            if all(idot(g, d) >= 0 for d in D):
                continue
            neighbour = None
            for k in range(1, 64):
                omega = tuple(2 ** k * a - b for a, b in zip(p, g))
                if not support.contains(omega):
                    continue
                cand = _fan_from_stability(vector_set, omega, (0,) * r, built)
                if cand is None:
                    continue
                cdata = pl_cone_data(cand)
                if (cdata.cpl is not None
                        and relint_contains(cdata.cpl, omega)
                        and all(cdata.cpl.contains(rr) for rr in face_rays)):
                    neighbour = cand
                    break
            if neighbour is None:
                raise errors.TooLarge("chamber probe failed near a wall")
            key = neighbour.key()
            if key not in seen:
                seen[key] = len(fans)
                fans.append(neighbour)
                queue.append(seen[key])
            wi = seen[key]
            pair = (min(fi, wi), max(fi, wi))
            if not any((a, b) == pair for a, b, _ in walls):
                walls.append((pair[0], pair[1], g))
    return fans, walls


def subset_scan_sigma0(wall):
    """The index sets of `sigma0_max_cones(wall)`, as a set."""
    fan = wall.plus_fan
    m = len(fan.S)
    D = fan.divisor_images()
    d1 = pl_cone_data(wall.plus_fan)
    d2 = pl_cone_data(wall.minus_fan)
    p0 = d1.cpl.intersection(d2.cpl).relint_point()
    members = []
    for size in range(m + 1):
        for I in itertools.combinations(range(m), size):
            rest = [D[b] for b in range(m) if b not in I]
            if not rest:
                if all(x == 0 for x in p0):
                    members.append(frozenset(I))
                continue
            if relint_contains(Cone.from_rays(rest, d1.rank), p0):
                members.append(frozenset(I))
    return {I for I in members if not any(I < J for J in members)}
