"""Exact linear algebra over the rationals and over Z.

Vectors are tuples of Fraction, matrices are lists of row tuples.  Sizes
stay small (a dozen rows/columns), so everything is plain Gaussian
elimination and, over Z, one textbook Hermite reduction with full pivot
tracking.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> tuple:
    return tuple(frac(x) for x in xs)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def matvec(rows, x):
    return tuple(dot(r, x) for r in rows)


def bilinear(u, G, v):
    """u^T G v."""
    return dot(u, matvec(G, v))


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivots) with pivots a dict
    column -> row index."""
    rows = [list(vec(r)) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


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
    rows = [list(vec(r)) for r in rows]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def mat_inverse(rows):
    n = len(rows)
    aug = [list(vec(r)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, r in enumerate(rows)]
    red, piv = rref(aug, 2 * n)
    if len(piv) < n or any(c >= n for c in piv):
        raise ValueError("singular matrix")
    inv = [None] * n
    for c, r in piv.items():
        inv[c] = red[r][n:]
    return [tuple(row) for row in inv]


def primitive(v):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    v = vec(v)
    if is_zero(v):
        return tuple(0 for _ in v)
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


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
    inv = mat_inverse(basis_rows)
    return transpose(inv)


def lattice_index(sup_rows, sub_rows) -> int:
    """Index [sup : sub] for full-rank lattices given by basis rows."""
    T = []
    supinv = mat_inverse(sup_rows)
    for s in sub_rows:
        coeff = matvec(transpose(supinv), s)
        if any(x.denominator != 1 for x in coeff):
            raise ValueError("not a sublattice")
        T.append(coeff)
    d = det(T)
    return abs(int(d))


def in_lattice(v, basis_rows) -> bool:
    """Whether v lies in the lattice spanned by basis_rows (full rank)."""
    coeff = solve(transpose(basis_rows), v)
    return coeff is not None and all(x.denominator == 1 for x in coeff)
