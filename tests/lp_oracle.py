"""The general two-phase `Fraction` simplex (Bland's rule) that
`lp.feasible_strict` replaced, kept as a reference oracle: `lp_maximize`
takes inequality and equality rows and a free objective, and the old
`feasible_strict` decides A x > 0 through it.  Each simplex step is
`pivot`, one Gauss-Jordan step over Fraction on the tableau.
"""
from __future__ import annotations

from fractions import Fraction

from toriclg.rational import frac


def pivot(T, r, c):
    """Scale row r to a 1 in column c and clear column c from every other
    row, in place."""
    pv = T[r][c]
    T[r] = row = [x / pv for x in T[r]]
    for i, other in enumerate(T):
        if i != r and (f := other[c]) != 0:
            T[i] = [a - f * b for a, b in zip(other, row)]


def _simplex(T, basis, nrows, ncols):
    # T: tableau rows 0..nrows-1 constraints, last row objective (to minimize,
    # written as z-row: T[-1][j] = reduced costs, T[-1][-1] = -value).
    while True:
        zrow = T[nrows]
        col = next((j for j in range(ncols) if zrow[j] < 0), None)
        if col is None:
            return "optimal"
        ratios = [(T[i][ncols] / T[i][col], basis[i], i)
                  for i in range(nrows) if T[i][col] > 0]
        if not ratios:
            return "unbounded"
        _, _, row = min(ratios, key=lambda t: (t[0], t[1]))
        pivot(T, row, col)
        basis[row] = col


def lp_maximize(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Maximize c.x with A_ub x <= b_ub, A_eq x = b_eq, x free.

    Returns (status, value, x); value and x are None unless optimal.
    """
    c = [frac(x) for x in c]
    n = len(c)
    rows = []
    rhs = []
    kinds = []
    for a, b in zip(A_ub, b_ub):
        rows.append([frac(x) for x in a])
        rhs.append(frac(b))
        kinds.append("ub")
    for a, b in zip(A_eq, b_eq):
        rows.append([frac(x) for x in a])
        rhs.append(frac(b))
        kinds.append("eq")
    m = len(rows)
    nslack = sum(1 for k in kinds if k == "ub")
    # variables: x = u - v (2n), slacks, artificials
    ncols = 2 * n + nslack
    data = []
    si = 0
    for i in range(m):
        row = [Fraction(0)] * ncols
        for j in range(n):
            row[j] = rows[i][j]
            row[n + j] = -rows[i][j]
        if kinds[i] == "ub":
            row[2 * n + si] = Fraction(1)
            si += 1
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        data.append((row, b))
    # phase 1
    nart = m
    width = ncols + nart
    T = []
    basis = []
    for i, (row, b) in enumerate(data):
        full = row + [Fraction(0)] * nart + [b]
        full[ncols + i] = Fraction(1)
        T.append(full)
        basis.append(ncols + i)
    zrow = [Fraction(0)] * (width + 1)
    for i in range(m):
        zrow = [a - b for a, b in zip(zrow, T[i])]
    # z-row entries of artificial columns must be zero in phase 1 objective
    zrow[ncols:width] = [Fraction(0)] * m
    T.append(zrow)
    status = _simplex(T, basis, m, width)
    if status != "optimal" or T[m][width] != 0:
        return "infeasible", None, None
    # drive artificials out of the basis if possible
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if T[i][j] != 0), None)
            if col is not None:
                pivot(T, i, col)
                basis[i] = col
    # phase 2
    obj = [Fraction(0)] * (width + 1)
    for j in range(n):
        obj[j] = -c[j]       # minimize -c.x
        obj[n + j] = c[j]
    T[m] = obj
    for i, j in enumerate(basis):
        if (f := T[m][j]) != 0:
            T[m] = [a - f * b for a, b in zip(T[m], T[i])]
    # phase 2 pivots only on the first ncols columns, so artificial columns
    # never re-enter
    status = _simplex(T, basis, m, ncols)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * (2 * n)
    for i in range(m):
        if basis[i] < 2 * n:
            x[basis[i]] = T[i][width]
    sol = tuple(x[j] - x[n + j] for j in range(n))
    value = sum(c[j] * sol[j] for j in range(n))
    return "optimal", value, sol


def feasible_strict(A_strict):
    """Decide feasibility of the homogeneous system A_strict x > 0.

    Maximizes a shared slack eps with A_strict x >= eps, eps <= 1; the
    system is feasible iff the optimum is > 0.
    Returns (feasible, witness_x_or_None).
    """
    n = len(A_strict[0])
    A_ub = [[-frac(x) for x in a] + [Fraction(1)] for a in A_strict]
    b_ub = [Fraction(0)] * len(A_strict)
    A_ub.append([Fraction(0)] * n + [Fraction(1)])
    b_ub.append(Fraction(1))
    c = [Fraction(0)] * n + [Fraction(1)]
    status, value, x = lp_maximize(c, A_ub, b_ub)
    if status != "optimal" or value <= 0:
        return False, None
    return True, x[:n]
