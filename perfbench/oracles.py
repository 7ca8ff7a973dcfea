"""Independent oracles for the benchmark's output checks.

Nothing here imports toriclg: every expected answer is computed from the
workload's inputs by a different method than the program uses (closed
forms, enumeration of angular orders, polynomial roots, integer
elimination)."""
from __future__ import annotations

import cmath
import math
from math import gcd

import numpy as np

# The collision of two critical values of the bl_line_p4 family on the
# imaginary lambda axis, lambda = i s*: the critical value of
# x^5 (x^2+1)^2 at x = i sqrt(5)/3.
DISCRIMINANT_S = 16 * 5 ** 2.5 / 3 ** 9


# -- integers -----------------------------------------------------------------

def int_det(rows):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination (every intermediate is an integer)."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


# -- rank-2 chambers ----------------------------------------------------------

def rank2_fans(S):
    """Every simplicial fan adapted to a rank-2 vector set S, as the set of
    S indices it uses as rays.

    A fan picks at most one vector of S per ray direction; consecutive
    chosen directions must be less than pi apart, and when the support of
    S is not the whole plane both boundary directions must be chosen.  In
    the plane every such fan is regular, so these are exactly the chambers
    of the secondary fan."""
    dirs = {}
    for i, v in enumerate(S):
        if v[0] == 0 and v[1] == 0:
            raise ValueError("zero vector in S")
        dirs.setdefault(_primitive(v), []).append(i)
    order = sorted(dirs, key=lambda d: math.atan2(d[1], d[0]))
    k = len(order)

    def below_pi(u, v):
        return u[0] * v[1] - u[1] * v[0] > 0

    wide = [i for i in range(k) if not below_pi(order[i], order[(i + 1) % k])]
    if len(wide) > 1:
        raise ValueError("S does not span the plane")
    if wide:
        g = wide[0]
        order = order[g + 1:] + order[:g + 1]   # boundary first and last
    out = set()
    for mask in range(1, 1 << k):
        chosen = [order[i] for i in range(k) if mask >> i & 1]
        if wide and not (mask & 1 and mask >> (k - 1) & 1):
            continue
        pairs = list(zip(chosen, chosen[1:]))
        if not wide:
            pairs.append((chosen[-1], chosen[0]))
            if len(chosen) < 3:
                continue
        if not all(below_pi(u, v) for u, v in pairs):
            continue
        picks = [frozenset()]
        for d in chosen:
            picks = [p | {i} for p in picks for i in dirs[d]]
        out.update(picks)
    return out


# -- critical points ----------------------------------------------------------

def circuit_values(exponents, coefficients):
    """Critical values of F = sum_b c_b x^{m_b} when the n+1 exponents m_b
    in Z^n satisfy exactly one relation sum_b k_b m_b = 0.

    x dF/dx = 0 forces c_b x^{m_b} = s k_b, and prod_b (x^{m_b})^{k_b} = 1
    gives s^{sum k} prod_b (k_b/c_b)^{k_b} = 1: |sum k| values s, each
    giving the value s * sum k at [Z^n : span m_b] points."""
    M = [list(map(int, m)) for m in exponents]
    n = len(M[0])
    if len(M) != n + 1:
        raise ValueError("circuit needs exactly n+1 exponents")
    minors = [int_det([M[c] for c in range(n + 1) if c != b])
              for b in range(n + 1)]
    k = [(-1) ** b * minors[b] for b in range(n + 1)]
    k = list(_primitive(k))
    if any(x == 0 for x in k):
        raise ValueError("a term outside the circuit has no critical point")
    index = 0
    for x in minors:
        index = gcd(index, x)
    ksum = sum(k)
    if ksum == 0:
        return []
    P = complex(1)
    for kb, cb in zip(k, coefficients):
        P *= (kb / complex(cb)) ** kb
    target = 1 / P if ksum > 0 else P      # s^|ksum| = target
    N = abs(ksum)
    r = abs(target) ** (1.0 / N)
    th = cmath.phase(target)
    out = []
    for j in range(N):
        s = r * cmath.exp(1j * (th + 2 * math.pi * j) / N)
        out.extend([s * ksum] * index)
    return out


def blp4_t(lam):
    lam = complex(lam)
    return lam ** (2.0 / 3.0) + lam ** (2.0 / 5.0)


def blp4_values(lam):
    """The nine critical values t^{-1/2} (5x + 3x^3) of the bl_line_p4
    family over the roots x of x^5 (x^2+1)^2 = lambda, with the roots
    polished by Newton's method on the polynomial."""
    lam = complex(lam)
    coeffs = [1, 0, 2, 0, 1, 0, 0, 0, 0, -lam]      # decreasing degree
    dcoeffs = np.polyder(np.asarray(coeffs, dtype=complex))
    roots = []
    for x in np.roots(coeffs):
        for _ in range(3):
            d = np.polyval(dcoeffs, x)
            if d == 0:
                break
            x = x - np.polyval(coeffs, x) / d
        roots.append(complex(x))
    t = blp4_t(lam)
    return [t ** -0.5 * (5 * x + 3 * x ** 3) for x in roots]


def match_values(got, want, rtol):
    """Whether two multisets of complex values agree to rtol relative to
    the largest modulus among them; returns (ok, worst relative error)."""
    got = list(got)
    want = list(want)
    if len(got) != len(want):
        return False, math.inf
    scale = max([abs(v) for v in want] + [1e-300])
    worst = 0.0
    free = list(range(len(got)))
    for w in want:
        j = min(free, key=lambda i: abs(got[i] - w))
        worst = max(worst, abs(got[j] - w) / scale)
        free.remove(j)
    return worst <= rtol, worst


# -- Euler characteristics of line bundles ------------------------------------

def _chi_pn(n):
    def chi(d):
        (d,) = d
        return math.prod(d + k for k in range(1, n + 1)) // math.factorial(n)
    return chi


def _chi_p1xp1(d):
    return (d[0] + 1) * (d[1] + 1)


def _chi_bl_point_p2(d):
    # L = h H + e E with H^2 = 1, E^2 = -1, H.E = 0 and K = -3H + E;
    # surface Riemann-Roch: chi(L) = 1 + (L.L - L.K) / 2
    h, e = d[0], d[1] - d[0]
    two_chi = 2 + h * h - e * e + 3 * h + e
    return two_chi // 2


# Per variety: the integer relations g with sum_b g_b v_b = 0 among its rays
# (in S order), so that a divisor sum_b a_b D_b has class (a . g) in Pic,
# and the closed form of chi(O, L) in those class coordinates, if any.
VARIETIES = {
    "p2": ([(1, 1, 1)], _chi_pn(2)),
    "p4": ([(1, 1, 1, 1, 1)], _chi_pn(4)),
    "p1xp1": ([(1, 1, 0, 0), (0, 0, 1, 1)], _chi_p1xp1),
    "bl_point_p2": ([(1, 1, 1, 0), (0, 0, 1, 1)], _chi_bl_point_p2),
    "bl_line_p4": ([(1, 1, 1, 1, 1, 0), (1, 1, 1, 0, 0, -1)], None),
}


def pic_class(variety, a):
    relations, _ = VARIETIES[variety]
    return tuple(sum(x * y for x, y in zip(a, g)) for g in relations)


def chi_line_bundles(variety, a1, a2):
    """chi(L1, L2) = chi(L2 - L1) by the closed form, or None when the
    variety has none here."""
    _, chi = VARIETIES[variety]
    if chi is None:
        return None
    return chi(pic_class(variety, [y - x for x, y in zip(a1, a2)]))


# -- Gram matrices ------------------------------------------------------------

def block_upper_unitriangular(G, blocks):
    """Semiorthogonal zero pattern: zero below the diagonal blocks, each
    diagonal block upper unitriangular."""
    blk = [bi for bi, b in enumerate(blocks) for _ in range(b)]
    n = len(G)
    if len(blk) != n:
        return False
    for i in range(n):
        for j in range(n):
            if blk[i] > blk[j] and G[i][j] != 0:
                return False
            if blk[i] == blk[j] and ((i == j and G[i][j] != 1)
                                     or (i > j and G[i][j] != 0)):
                return False
    return True
