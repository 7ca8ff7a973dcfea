"""Exact linear algebra over the rationals and over Z.

Vectors are tuples of Fraction, matrices are lists of row tuples.  Sizes
stay small (a dozen rows/columns), so everything over Q is one
fraction-free row step on `int` rows, `clear_column`, which clears one
pivot's column.  Its two callers are the Gauss-Jordan loop `_eliminate`
(`det` takes its forward half) and the simplex of `lp.feasible_strict`.
The readers of `_eliminate` build a Fraction only for an entry they
return: `rref` (the Chow ring's graded bases, one call per degree),
`rank`, `solve`, `nullspace` and `det`.  The one matrix inverse,
`scaled_inverse`, returns (|det B| B^-1, |det B|) in `int`: the cone
charts, the complement table, dual lattices, Hilbert bases and a
potential family's splitting inverse read it.  Over Z there is one
textbook Hermite reduction with full pivot tracking.  `cleared`,
`primitive` and `idot` take `int` vectors as they are, for the callers
that run on integers: the cones, the chamber walk's probes, walls and
complement inverses, the fan's charts, circuit rows and cover check, and
the HRR pairing.
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


def clear_column(rows, r, c, lo=0):
    """Clear column c of the `int` lists rows[lo:], row r excepted, in place
    by the pivot row r (pivot p): a row with entry f != 0 becomes (p/g)
    row - (f/g) pivot row over its content, g = gcd(p, f); a row with f = 0
    is not written.  Each row stays a multiple of the row that the same
    pivot over Q leaves there, a positive one when p > 0.  Returns
    (contents, multipliers): the products of the contents divided out and
    of the p/g, the factors a determinant undoes."""
    prow = rows[r]
    p = prow[c]
    num = den = 1
    for i in range(lo, len(rows)):
        f = rows[i][c]
        if f and i != r:
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(rows[i], prow)]
            content = gcd(*row)
            rows[i] = [x // content for x in row] if content > 1 else row
            num *= content
            den *= a
    return num, den


def _eliminate(rows, ncols, _forward=False):
    """Fraction-free Gauss-Jordan elimination of the `int` lists `rows` in
    place over their first ncols columns, one `clear_column` per pivot, so
    each row stays a multiple of the row that elimination over Q leaves
    there; a pivot row is its reduced row times its final pivot value.
    `_forward` clears only below each pivot.  Returns (pivots, (num,
    den)): pivots a dict column -> row index, num / den the determinant of
    a full-rank square block (its final pivots' product, with the swaps,
    multipliers and contents undone)."""
    pivots = {}
    num, den, r = 1, 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            num = -num
        contents, multipliers = clear_column(rows, r, c,
                                             r + 1 if _forward else 0)
        num *= contents
        den *= multipliers
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    for c, i in pivots.items():
        num *= rows[i][c]
    return pivots, (num, den)


def _int_rows(rows):
    """(ints, dens): each row over its least common denominator
    (`cleared`), row i = ints[i] / dens[i]; `int` rows pass as they are."""
    pairs = [(1, list(r)) if all(type(x) is int for x in r) else cleared(r)
             for r in rows]
    return [r for _, r in pairs], [d for d, _ in pairs]


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivots) with pivots a dict
    column -> row index."""
    rows = _int_rows(rows)[0]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, _ = _eliminate(rows, ncols)
    return [tuple(Fraction(x, rows[r][c]) for x in rows[r])
            for c, r in pivots.items()], pivots


def rank(rows) -> int:
    return len(_eliminate(_int_rows(rows)[0], len(rows[0]))[0]) if rows else 0


def solve(rows, b):
    """One solution x of rows * x = b, or None if inconsistent."""
    if not rows:
        return None if not is_zero(b) else ()
    n = len(rows[0])
    aug = _int_rows(tuple(r) + (bb,) for r, bb in zip(rows, b))[0]
    piv, _ = _eliminate(aug, n + 1)
    if n in piv:
        return None
    # a reduced pivot row is zero in every other pivot column, so with the
    # free variables at 0 each pivot variable is read off the last column
    x = [Fraction(0)] * n
    for c, r in piv.items():
        x[c] = Fraction(aug[r][n], aug[r][c])
    return tuple(x)


def nullspace(rows, ncols=None):
    """Basis of the rational kernel of the matrix."""
    n = ncols if ncols is not None else len(rows[0]) if rows else 0
    red = _int_rows(rows)[0]
    piv, _ = _eliminate(red, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for c, r in piv.items():
            x[c] = Fraction(-red[r][fc], red[r][c])
        basis.append(tuple(x))
    return basis


def det(rows) -> Fraction:
    """Determinant of a square matrix, from the forward half of one
    elimination."""
    rows, dens = _int_rows(rows)
    pivots, (num, den) = _eliminate(rows, len(rows), _forward=True)
    return Fraction(num, den * prod(dens)) if len(pivots) == len(rows) \
        else Fraction(0)


def scaled_inverse(rows):
    """(A, vol) = (|det B| B^-1, |det B|) of a square `int` matrix B, both
    `int`, from one elimination of [B | I]: the pivot row of column c,
    over its pivot, is row c of B^-1.  ValueError when B is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    piv, (num, den) = _eliminate(aug, 2 * n)
    if len(piv) < n or any(c >= n for c in piv):
        raise ValueError("singular matrix")
    vol = abs(num // den)
    return [tuple(vol * x // aug[r][c] for x in aug[r][n:])
            for c, r in piv.items()], vol


def cleared(v):
    """A rational vector over its least common denominator, as (den, ints)
    with v = ints / den; int entries are read as they are, without a
    Fraction."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return den, [x.numerator * (den // x.denominator) for x in v]


def primitive(v):
    """Scale a rational vector to a primitive integer vector (gcd 1).  An
    all-`int` vector goes to the gcd as it is, without `cleared`."""
    v = tuple(v)
    ints = v if all(type(x) is int for x in v) else cleared(v)[1]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


# ---------------------------------------------------------------------------
# integer lattice routines


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
            m[r], m[piv], U[r], U[piv] = m[piv], m[r], U[piv], U[r]
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


def lattice_from_generators(gens):
    """HNF basis of the lattice spanned by integer generator rows."""
    if not gens:
        return []
    H, _ = hnf(gens)
    return [r for r in H if any(x != 0 for x in r)]


def preimage_lattice(rows):
    """Basis of {c in Z^m : W c in Z^k} for a rational k x m matrix W
    given as k pairs (p, q), row p / q with p an `int` row and q > 0: with
    W = P / den, den the lcm of the reduced denominators of W's entries,
    the c with P c = 0 mod den, read from the integer kernel of
    [P | -den I].  The basis is that kernel's, not a normal form."""
    den = lcm(*(q // gcd(x, q) for p, q in rows for x in p))
    k = len(rows)
    big = [[x * den // q for x in p] + [-den * (i == j) for j in range(k)]
           for i, (p, q) in enumerate(rows)]
    return [v[:len(big[0]) - k] for v in integer_kernel(big)]


def dual_lattice(basis_rows):
    """Dual basis of a full-rank lattice in Q^n: rows of (B^-1)^T, read
    from `scaled_inverse` of B cleared to one denominator, B = P / den,
    as B^-1 = den A / vol."""
    den = lcm(*(frac(x).denominator for r in basis_rows for x in r))
    A, vol = scaled_inverse([[int(x * den) for x in r] for r in basis_rows])
    return [tuple(Fraction(den * x, vol) for x in col) for col in zip(*A)]


# the largest index |det B| whose parallelepiped a caller walks: the walk
# visits each of its points, so a larger index raises errors.TooLarge first
MAX_BOX_INDEX = 10 ** 5


def parallelepiped_units(A, vol):
    """The lattice points of the half-open parallelepiped B[0,1)^n of an
    integer matrix B, as their coordinates over B's columns in units of
    1/vol, given (A, vol) = `scaled_inverse(B)`.  These points form the
    group B^-1 Z^n / Z^n of order vol, so they are the closure under
    addition mod 1 of B^-1's columns, the coordinates of the unit vectors.
    Sorted integer tuples in [0, vol)^n, 0 first."""
    gens = [tuple(x % vol for x in col) for col in zip(*A)]
    zero = (0,) * len(A)
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
