import random
from fractions import Fraction
from math import gcd, lcm, prod

from toriclg import rational
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.rational import (cleared, det, dual_lattice, frac, hnf,
                              in_lattice, integer_kernel, matvec, nullspace,
                              parallelepiped_units, preimage_lattice,
                              primitive, rank, scaled_inverse, solve,
                              transpose, vec)


def test_rref_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)]
        if det(A) == 0:
            continue
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        b = matvec(A, x)
        assert solve(A, b) == x
    # rank-deficient systems: the last row is a combination of the others
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(1, 5)
        A = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
             for _ in range(m - 1)]
        c = [rng.randint(-2, 2) for _ in range(m - 1)]
        A.append(tuple(sum(ci * r[j] for ci, r in zip(c, A)) for j in range(n)))
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        b = matvec(A, x)
        assert matvec(A, solve(A, b)) == b
        # the same rows with the dependency broken in b alone: inconsistent
        assert solve(A, b[:-1] + (b[-1] + 1,)) is None


def test_nullspace_orthogonality():
    A = [(1, 1, 0), (0, 1, 1)]
    ns = nullspace([vec(r) for r in A])
    assert len(ns) == 1
    for r in A:
        assert sum(a * b for a, b in zip(vec(r), ns[0])) == 0


def test_primitive():
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((6, -9)) == (2, -3)


def test_integer_kernel():
    # kernel of the A1 fan map [(-1,1,0),(1,1,1)] is Z(-1,-1,2)
    ker = integer_kernel([(-1, 1, 0), (1, 1, 1)])
    assert len(ker) == 1
    v = ker[0]
    assert primitive(v) in ((-1, -1, 2), (1, 1, -2))


def test_integer_kernel_saturation_oracle():
    # the basis spans the whole integer kernel, not a finite-index sublattice:
    # each primitive integer vector of the rational kernel has integral
    # coordinates over it
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 6)
        A = [tuple(rng.randint(-5, 5) for _ in range(nc)) for _ in range(nr)]
        ker = integer_kernel(A)
        assert all(isinstance(x, int) for v in ker for x in v)
        assert all(matvec(A, v) == (0,) * nr for v in ker)
        assert len(ker) == nc - rank(A)
        rational = nullspace([vec(r) for r in A], nc)
        for _ in range(10):
            comb = [rng.randint(-3, 3) for _ in rational]
            v = primitive(tuple(sum((c * u[j] for c, u in zip(comb, rational)),
                                    Fraction(0)) for j in range(nc)))
            if not any(v):
                continue
            coeff = solve(transpose([vec(u) for u in ker]), vec(v))
            assert coeff is not None
            assert all(x.denominator == 1 for x in coeff)


def test_preimage_and_dual_lattice():
    # {c in Z^3 : (c1+c2)/2 in Z} has index 2 in Z^3
    L = preimage_lattice([((1, 1, 0), 2)])
    assert abs(det(L)) == 2
    # dual of 2Z in Q^1 is (1/2)Z
    dl = dual_lattice([(2,)])
    assert dl == [(Fraction(1, 2),)]
    assert in_lattice((Fraction(3, 2),), dl)
    assert not in_lattice((Fraction(1, 3),), dl)


def fraction_preimage_lattice(w_rows):
    """`preimage_lattice` as it took a matrix of Fractions: cleared to the
    lcm of the reduced denominators, then the kernel of [P | -den I]."""
    den = lcm(*(frac(x).denominator for r in w_rows for x in r))
    k = len(w_rows)
    big = [[int(frac(x) * den) for x in r] + [-den * (i == j) for j in range(k)]
           for i, r in enumerate(w_rows)]
    return [v[:len(big[0]) - k] for v in integer_kernel(big)]


def test_preimage_lattice_of_int_rows_is_the_fraction_form():
    # the same [P | -den I], so the same raw kernel basis, row for row;
    # shared factors of p and q make the reduced denominators smaller
    rng = random.Random(5)
    for _ in range(150):
        k, m = rng.randint(1, 3), rng.randint(1, 5)
        rows = []
        for _ in range(k):
            q = rng.choice((1, 2, 3, 4, 6, 12))
            f = rng.choice((1, 1, 2, 3))
            rows.append(([f * rng.randint(-6, 6) for _ in range(m)], q))
        want = fraction_preimage_lattice([[Fraction(x, q) for x in p]
                                          for p, q in rows])
        assert preimage_lattice(rows) == want


def primitive_by_cleared(v):
    ints = cleared(v)[1]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def test_primitive_of_int_vectors_skips_cleared(monkeypatch):
    rng = random.Random(9)
    vectors = [(0, 0, 0), [0], (), [0, 0]]
    for _ in range(300):
        m = rng.randint(1, 5)
        v = [rng.randint(-9, 9) * rng.choice((1, 1, 2, 6)) for _ in range(m)]
        if rng.random() < 0.4:
            v = [Fraction(x, rng.randint(1, 4)) for x in v]
        elif rng.random() < 0.2:
            v[0] = Fraction(v[0], 3)
        vectors.append(tuple(v) if rng.random() < 0.5 else v)
    want = [primitive_by_cleared(v) for v in vectors]
    calls = []
    real = rational.cleared

    def counting(v):
        calls.append(v)
        return real(v)
    monkeypatch.setattr(rational, "cleared", counting)
    got = [primitive(v) for v in vectors]
    assert [[(type(x), x) for x in g] for g in got] == \
        [[(type(x), x) for x in w] for w in want]
    assert all(type(g) is tuple for g in got)
    assert len(calls) == sum(not all(type(x) is int for x in v)
                             for v in vectors)


def test_vector_set_generates():
    # the free set spans a sublattice of index 2; the torsion set's free
    # parts span Z^2 but its residues mod 2 miss 1; the last set generates
    free = VectorSet(AbelianLattice(2), [(1, 1), (1, -1), (-1, -1)])
    lat = AbelianLattice(2, (2,))
    missed = VectorSet(lat, [((1, 0), (0,)), ((0, 1), (0,)),
                             ((-1, -1), (0,))])
    full = VectorSet(lat, [((1, 0), (1,)), ((0, 1), (0,)),
                           ((-1, -1), (0,))])
    assert (free.generates, missed.generates, full.generates) == \
        (False, False, True)


def test_hnf_preserves_lattice():
    A = [(2, 4), (1, 1)]
    H, U = hnf(A)
    assert abs(det(U)) == 1
    UA = [[sum(U[i][k] * A[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert [tuple(r) for r in UA] == [tuple(r) for r in H]


def cofactor_det(A):
    """Laplace expansion along the first row."""
    if not A:
        return 1
    return sum((-1) ** j * A[0][j] * cofactor_det([r[:j] + r[j + 1:]
                                                    for r in A[1:]])
               for j in range(len(A)) if A[0][j])


def test_det_matches_cofactor_expansion():
    rng = random.Random(3)
    seen = {"singular": 0, "swapped": 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        A = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            # a repeated row (singular) or a zero leading entry (a swap)
            i, j = rng.sample(range(n), 2)
            A[i] = A[j] if rng.random() < 0.5 else (0,) + A[i][1:]
        d = det(A)
        assert d == cofactor_det(A)
        seen["singular"] += d == 0
        seen["swapped"] += A[0][0] == 0 and d != 0
        # the inverse comes with the same determinant
        if d != 0:
            scaled, vol = scaled_inverse(A)
            assert vol == abs(d)
            assert [matvec(A, col) for col in zip(*scaled)] == \
                [tuple(vol * (i == j) for i in range(n)) for j in range(n)]
    assert seen["singular"] > 20 and seen["swapped"] > 20


def test_det_of_a_triangular_matrix_updates_no_row(monkeypatch):
    # det clears only below each pivot and scales no row, so on an upper
    # triangular matrix its elimination writes no row at all
    updates = []

    class CountingRows(list):
        def __setitem__(self, i, row):
            updates.append(i)
            super().__setitem__(i, row)
    real = rational._eliminate

    def counting(rows, ncols, **kw):
        counted = CountingRows(rows)
        out = real(counted, ncols, **kw)
        rows[:] = counted
        return out
    monkeypatch.setattr(rational, "_eliminate", counting)
    rng = random.Random(4)
    for unit in (True, False):
        for _ in range(20):
            n = rng.randint(1, 9)
            diag = [1 if unit else rng.choice((-3, -2, -1, 1, 2, 3))
                    for _ in range(n)]
            A = [tuple(diag[i] if i == j else rng.randint(-5, 5) * (j > i)
                       for j in range(n)) for i in range(n)]
            assert det(A) == prod(diag)
    assert updates == []
    # the counter sees the updates of a lower triangular matrix
    det([(1, 0), (2, 1)])
    assert updates


def test_parallelepiped_point_count_is_the_determinant():
    rng = random.Random(9)
    done = 0
    while done < 25:
        B = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det(B) == 0:
            continue
        done += 1
        units = parallelepiped_units(*scaled_inverse(B))
        vol = abs(det(B))
        assert len(units) == vol and units[0] == (0, 0, 0)
        for u in units:
            assert all(0 <= k < vol for k in u)
            # B u / vol is a lattice point
            assert all(sum(b * k for b, k in zip(row, u)) % vol == 0
                       for row in B)
