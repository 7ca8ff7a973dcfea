"""The `Fraction` Gauss-Jordan loop, kept as a reference oracle for the
fraction-free `rational._eliminate` and the entries read from it.

Every row is a list of Fraction; a pivot row is scaled to a 1 and every
other row cleared by it, so the reduced rows are read as they stand.  The
package's versions must return equal values of the same types: Fraction
wherever these return Fraction, `int` for `scaled_inverse`.  `mat_inverse`
is the `Fraction` inverse that `scaled_inverse` replaced; the other
oracles read it too.
"""
from fractions import Fraction
from math import prod

from toriclg.rational import is_zero, vec


def pivot(rows, r, c, forward=False):
    """Scale row r to a 1 in column c and clear column c from every other
    row, in place; returns the pivot value.  With `forward` row r is left
    as it is and only the rows below it are cleared."""
    pv = rows[r][c]
    if not forward:
        rows[r] = [x / pv for x in rows[r]]
    for i in range(r + 1 if forward else 0, len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c] / pv if forward else rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    return pv


def eliminate(rows, ncols, forward=False):
    """Gauss-Jordan elimination in place: (pivots, factors), the factors
    the pivot values and a -1 per row swap, whose product is the
    determinant of a full-rank square block."""
    pivots = {}
    factors = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            factors.append(-1)
        factors.append(pivot(rows, r, c, forward))
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    return pivots, factors


def rref(rows, ncols=None):
    rows = [list(vec(r)) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, _ = eliminate(rows, ncols)
    return [tuple(row) for row in rows[:len(pivots)]], pivots


def rank(rows):
    return len(rref(rows)[0]) if rows else 0


def solve(rows, b):
    if not rows:
        return None if not is_zero(b) else ()
    n = len(rows[0])
    red, piv = rref([tuple(r) + (bb,) for r, bb in zip(rows, b)], n + 1)
    if n in piv:
        return None
    x = [Fraction(0)] * n
    for c, r in piv.items():
        x[c] = red[r][n]
    return tuple(x)


def nullspace(rows, ncols=None):
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)] if ncols else []
    n = ncols if ncols is not None else len(rows[0])
    red, piv = rref(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for c, r in piv.items():
            x[c] = -red[r][fc]
        basis.append(tuple(x))
    return basis


def det(rows):
    rows = [list(vec(r)) for r in rows]
    pivots, factors = eliminate(rows, len(rows), forward=True)
    if len(pivots) < len(rows):
        return Fraction(0)
    return prod(factors, start=Fraction(1))


def mat_inverse(rows):
    n = len(rows)
    aug = [list(vec(r)) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    piv, factors = eliminate(aug, 2 * n)
    if len(piv) < n or any(c >= n for c in piv):
        raise ValueError("singular matrix")
    inv = [None] * n
    for c, r in piv.items():
        inv[c] = tuple(aug[r][n:])
    return inv, prod(factors, start=Fraction(1))


def scaled_inverse(rows):
    """(|det B| B^-1, |det B|) of an `int` matrix, converted to `int`."""
    inv, d = mat_inverse(rows)
    vol = abs(d)
    assert vol.denominator == 1
    return [tuple(int(x * vol) for x in row) for row in inv], int(vol)
