"""Exact linear algebra over the rationals and over Z.

Vectors are tuples of Fraction, matrices are lists of row tuples.  Sizes
stay small (a dozen rows/columns), so everything over Q is one plain
Gauss-Jordan loop (`_eliminate`, read by `rref` and `mat_inverse`, and by
`det` in its forward half only) and, over Z, one textbook Hermite reduction
with full pivot tracking.  `cleared`, `primitive` and `idot` take `int`
vectors as they are, for the callers that run on integers: the cones (the
double description, membership tests and polytope facets), the chamber
walk's probes and walls, the fan cover check and the HRR pairing.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> tuple:
    return tuple(frac(x) for x in xs)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def idot(u, v) -> int:
    """Dot product of integer vectors, in `int`."""
    return sum(map(mul, u, v))


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def matvec(rows, x):
    return tuple(dot(r, x) for r in rows)


def bilinear(u, G, v):
    """u^T G v."""
    return dot(u, matvec(G, v))


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]


def pivot(rows, r, c, _forward=False):
    """Scale row r to a 1 in column c and clear column c from every other
    row, in place: the one Gauss-Jordan step of the package (`rref` and
    the simplex tableau of `lp` both take it).  Returns the pivot value.
    With `_forward` (the forward half of an elimination, for `det`) row r
    is left as it is and only the rows below it are cleared."""
    pv = rows[r][c]
    if not _forward:
        rows[r] = [x / pv for x in rows[r]]
    for i in range(r + 1 if _forward else 0, len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c] / pv if _forward else rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    return pv


def _eliminate(rows, ncols, _forward=False):
    """Gauss-Jordan elimination of the lists `rows` in place over their
    first ncols columns.  Returns (pivots, factors): pivots a dict column ->
    row index, factors the pivot values and a -1 per row swap.  Their
    product is the determinant of a full-rank square block: a swap flips
    it, scaling a row by 1/p divides it by p, clearing leaves it, and the
    reduced block is the identity.  With `_forward` only the rows below
    each pivot are cleared and no row is scaled: the block ends upper
    triangular with the pivot values on its diagonal, and the product of
    the factors is the same."""
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
        factors.append(pivot(rows, r, c, _forward))
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    return pivots, factors


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivots) with pivots a dict
    column -> row index."""
    rows = [list(vec(r)) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, _ = _eliminate(rows, ncols)
    return [tuple(row) for row in rows[:len(pivots)]], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[0])


def solve(rows, b):
    """One solution x of rows * x = b, or None if inconsistent."""
    if not rows:
        return None if not is_zero(b) else ()
    n = len(rows[0])
    aug = [tuple(r) + (bb,) for r, bb in zip(rows, b)]
    red, piv = rref(aug, n + 1)
    if n in piv:
        return None
    # a reduced pivot row is zero in every other pivot column, so with the
    # free variables at 0 each pivot variable is read off the last column
    x = [Fraction(0)] * n
    for c, r in piv.items():
        x[c] = red[r][n]
    return tuple(x)


def nullspace(rows, ncols=None):
    """Basis of the rational kernel of the matrix."""
    if not rows:
        return [tuple(Fraction(1) if i == j else Fraction(0) for j in range(ncols))
                for i in range(ncols)] if ncols else []
    n = ncols if ncols is not None else len(rows[0])
    red, piv = rref(rows, n)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for c, r in piv.items():
            x[c] = -red[r][fc]
        basis.append(tuple(x))
    return basis


def det(rows) -> Fraction:
    """Determinant of a square matrix, from the forward half of one
    elimination."""
    rows = [list(vec(r)) for r in rows]
    pivots, factors = _eliminate(rows, len(rows), _forward=True)
    if len(pivots) < len(rows):
        return Fraction(0)
    return prod(factors, start=Fraction(1))


def mat_inverse(rows):
    """(B^-1, det B) of a square matrix B, both from one elimination of
    [B | I]."""
    n = len(rows)
    aug = [list(vec(r)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, r in enumerate(rows)]
    piv, factors = _eliminate(aug, 2 * n)
    if len(piv) < n or any(c >= n for c in piv):
        raise ValueError("singular matrix")
    inv = [None] * n
    for c, r in piv.items():
        inv[c] = tuple(aug[r][n:])
    return inv, prod(factors, start=Fraction(1))


def cleared(v):
    """A rational vector over its least common denominator, as (den, ints)
    with v = ints / den; int entries are read as they are, without a
    Fraction."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return den, [x.numerator * (den // x.denominator) for x in v]


def primitive(v):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    ints = cleared(v)[1]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


# ---------------------------------------------------------------------------
# integer lattice routines


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular and U*rows = H, H in row echelon form
    with positive pivots.
    """
    m = [list(int(x) for x in r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        # find pivot with minimal absolute value, reduce column below
        while True:
            nz = [i for i in range(r, nr) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            _swap_rows(m, r, piv)
            _swap_rows(U, r, piv)
            done = True
            for i in range(r + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == nr:
                break
    return [tuple(row) for row in m], [tuple(row) for row in U]


def integer_kernel(rows):
    """Basis of the integer kernel {x in Z^n : rows*x = 0}.

    With U*rows^T = H the Hermite form of the transpose, the rows of the
    unimodular U facing the zero rows of H span the kernel over Z (Cohen
    1993, Alg. 2.4.10)."""
    if not rows:
        return []
    H, U = hnf(transpose(rows))
    return [u for h, u in zip(H, U) if not any(h)]


def integer_solutions_mod(rows_num, den):
    """Basis of {x in Z^n : rows_num * x = 0 mod den} (rows_num integer)."""
    nc = len(rows_num[0])
    k = len(rows_num)
    big = [list(r) + [0] * k for r in rows_num]
    for i in range(k):
        big[i][nc + i] = -den
    ker = integer_kernel(big)
    return [v[:nc] for v in ker]


def lattice_from_generators(gens):
    """HNF basis of the lattice spanned by integer generator rows."""
    if not gens:
        return []
    H, _ = hnf(gens)
    return [r for r in H if any(x != 0 for x in r)]


def preimage_lattice(w_rows, ncols):
    """Basis of {c in Z^ncols : W c in Z^k} for a rational matrix W."""
    den = lcm(*(frac(x).denominator for r in w_rows for x in r))
    P = [[int(frac(x) * den) for x in r] for r in w_rows]
    return integer_solutions_mod(P, den)


def dual_lattice(basis_rows):
    """Dual basis of a full-rank lattice in Q^n: rows of (B^-1)^T."""
    inv, _ = mat_inverse(basis_rows)
    return transpose(inv)


def lattice_index(sup_rows, sub_rows) -> int:
    """Index [sup : sub] for full-rank lattices given by basis rows."""
    T = []
    supinv, _ = mat_inverse(sup_rows)
    for s in sub_rows:
        coeff = matvec(transpose(supinv), s)
        if any(x.denominator != 1 for x in coeff):
            raise ValueError("not a sublattice")
        T.append(coeff)
    d = det(T)
    return abs(int(d))


def parallelepiped_units(inv, vol):
    """The lattice points of the half-open parallelepiped B[0,1)^n of an
    integer matrix B, as their coordinates over B's columns in units of
    1/vol, given B^-1 and vol = |det B| (which clears B^-1's denominators).
    These points form the group B^-1 Z^n / Z^n of order vol, so they are
    the closure under addition mod 1 of B^-1's columns, the coordinates of
    the unit vectors.  Sorted integer tuples in [0, vol)^n, 0 first."""
    gens = [tuple(int(x * vol) % vol for x in col) for col in zip(*inv)]
    zero = (0,) * len(inv)
    units, frontier = {zero}, {zero}
    while frontier:
        frontier = {tuple((a + b) % vol for a, b in zip(x, g))
                    for x in frontier for g in gens} - units
        units |= frontier
    return sorted(units)


def in_lattice(v, basis_rows) -> bool:
    """Whether v lies in the lattice spanned by basis_rows (full rank)."""
    coeff = solve(transpose(basis_rows), v)
    return coeff is not None and all(x.denominator == 1 for x in coeff)
