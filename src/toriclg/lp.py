"""Exact strict feasibility of an integral homogeneous system A x > 0.

The one LP the program solves is the fan's wall LP: maximize eps subject
to -A x + eps <= 0 and eps <= 1, with x = u - v free and eps >= 0.  Every
right-hand side is >= 0, so the slack basis is feasible and one phase of
Bland's rule (smallest entering column, smallest leaving basic variable
on ratio ties) runs from it.  The tableau is `int` and each pivot is
`rational.clear_column` on a positive pivot, so every row stays a
positive multiple of its rational tableau row: signs, ratios (compared by
cross-multiplication) and Bland's choices are the rational ones.
"""
from __future__ import annotations

from math import lcm

from .rational import clear_column


def feasible_strict(A_strict):
    """Decide feasibility of the homogeneous system A_strict x > 0, A_strict
    integral.  Returns (feasible, witness): witness an `int` positive
    multiple of the optimal vertex's x, so A_strict witness > 0, or None."""
    m, n = len(A_strict), len(A_strict[0])
    # columns: u, v, eps, one slack per row, then the right-hand side
    eps, width = 2 * n, 2 * n + m + 2
    T = [[-x for x in a] + list(a) + [1] + [0] * (m + 2) for a in A_strict]
    T.append([0] * eps + [1] + [0] * (m + 1) + [1])    # eps <= 1
    for i, row in enumerate(T):
        row[eps + 1 + i] = 1
    T.append([0] * (width + 1))        # objective row: minimize -eps
    T[-1][eps] = -1
    basis = list(range(eps + 1, width))
    while (col := next((j for j in range(width) if T[-1][j] < 0),
                       None)) is not None:
        # the objective is at most 1, so some entry of the column is > 0
        rows = [i for i in range(m + 1) if T[i][col] > 0]
        r = rows[0]
        for i in rows[1:]:
            k = T[i][-1] * T[r][col] - T[r][-1] * T[i][col]
            if k < 0 or k == 0 and basis[i] < basis[r]:
                r = i
        clear_column(T, r, col)
        basis[r] = col
    # the objective row ends in a positive multiple of the largest eps
    if T[-1][-1] <= 0:
        return False, None
    d = lcm(*(T[i][j] for i, j in enumerate(basis)))
    x = [0] * width
    for i, j in enumerate(basis):
        x[j] = T[i][-1] * (d // T[i][j])
    return True, [x[j] - x[n + j] for j in range(n)]
