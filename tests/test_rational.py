import random
from fractions import Fraction

from toriclg.rational import (det, dual_lattice, hnf, in_lattice,
                              integer_kernel, lattice_index, mat_inverse,
                              matvec, nullspace, preimage_lattice, primitive,
                              rank, rref, snf, solve, transpose, vec)


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


def test_snf_diagonal_divisibility():
    rng = random.Random(3)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        D, U, V = snf(A)
        # U * A * V == D
        UA = [[sum(U[i][k] * A[k][j] for k in range(nr)) for j in range(nc)]
              for i in range(nr)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(nc)) for j in range(nc)]
               for i in range(nr)]
        for i in range(nr):
            for j in range(nc):
                assert UAV[i][j] == D[i][j]
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(nr, nc)) if D[i][i] != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert abs(det(U)) == 1 and abs(det(V)) == 1


def test_integer_kernel():
    # kernel of the A1 fan map [(-1,1,0),(1,1,1)] is Z(-1,-1,2)
    ker = integer_kernel([(-1, 1, 0), (1, 1, 1)])
    assert len(ker) == 1
    v = ker[0]
    assert primitive(v) in ((-1, -1, 2), (1, 1, -2))


def test_preimage_and_dual_lattice():
    # {c in Z^3 : (c1+c2)/2 in Z} has index 2 in Z^3
    L = preimage_lattice([(Fraction(1, 2), Fraction(1, 2), 0)], 3)
    std = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert lattice_index(std, L) == 2
    # dual of 2Z in Q^1 is (1/2)Z
    dl = dual_lattice([(2,)])
    assert dl == [(Fraction(1, 2),)]
    assert in_lattice((Fraction(3, 2),), dl)
    assert not in_lattice((Fraction(1, 3),), dl)


def test_hnf_preserves_lattice():
    A = [(2, 4), (1, 1)]
    H, U = hnf(A)
    assert abs(det(U)) == 1
    UA = [[sum(U[i][k] * A[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert [tuple(r) for r in UA] == [tuple(r) for r in H]
