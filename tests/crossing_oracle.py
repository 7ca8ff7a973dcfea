"""The pair-by-pair ray-crossing scan `mutation._crossings` ran before it
took every alignment of a trajectory as one array, kept as the oracle of
`tests/test_crossing_oracle.py`.

Each ordered pair (i, j) walks the nodes in order, carrying its last
nonzero alignment Im(e^{-i phi}(u_j - u_i)) across nodes where it is
exactly 0, in Python complex arithmetic throughout.  The array scan must
return its lists exactly, every crossing time to the bit.
"""
from __future__ import annotations

import cmath

from toriclg.mutation import COLLIDE_EPS


def crossings(values, phase):
    d = cmath.exp(-1j * phase)
    n = len(values[0])
    out = [[] for _ in values[1:]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            last = None         # (node, alignment) of the last nonzero one
            for k, u1 in enumerate(values):
                a1 = (d * (u1[j] - u1[i])).imag
                if a1 == 0:
                    continue
                if last is not None and (last[1] > 0) != (a1 > 0):
                    k0, a0 = last
                    u0 = values[k0]
                    if k0 == k - 1:
                        s = a0 / (a0 - a1)
                        ui = u0[i] + (u1[i] - u0[i]) * s
                        uj = u0[j] + (u1[j] - u0[j]) * s
                    else:
                        s = 1.0
                        ui, uj = values[k0 + 1][i], values[k0 + 1][j]
                    # j must be in front: otherwise a collision or behind
                    if (d * (uj - ui)).real > COLLIDE_EPS:
                        out[k0].append((i, j, "up" if a1 > a0 else "down",
                                        s))
                last = k, a1
    return out
