"""The numpy identities the lockstep Newton of `lg` rests on, asserted on the
installed numpy.

`lg` evaluates a stack of points at once and must give each row the bits a
one-point evaluation gives, so that CLI output does not depend on how the
starts and branches are batched.  Each test below is one stacked form that
`lg` uses against its one-row form.  A numpy build (or BLAS) that breaks one
fails here, by name, rather than as a digest mismatch in
`tests/test_cli_bytes.py`.  Shapes follow the shipped potentials: 2 to 9
terms in 1 to 4 variables.  Only the product of coefficients and
exponentials also covers a single term: numpy multiplies two one-element
complex arrays in another loop than longer ones, so the stacks `lg` solves
carry a full row of coefficients per point.
"""
import cmath
import itertools
import math

import numpy as np
import pytest

from toriclg import lg

TRIALS = 400


def _cases(seed):
    rng = np.random.default_rng(seed)
    for _ in range(TRIALS):
        n = int(rng.integers(1, 5))
        nt = int(rng.integers(2, 10))
        k = int(rng.choice([1, 2, 3, 9, 40]))
        B = rng.integers(-5, 6, (nt, n)).astype(float)
        scale = 10.0 ** rng.uniform(-2, 1.5)
        L = scale * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
        c = rng.normal(size=(k, nt)) + 1j * rng.normal(size=(k, nt))
        yield rng, B, L, c


def _same(a, b):
    return a.tobytes() == b.tobytes()


def test_stacked_exponent_products():
    # LGPotential.terms: B @ l per row, one row or shared coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        for _, B, L, c in _cases(1):
            E = np.exp(np.matmul(B, L[..., None])[..., 0])
            assert _same(E, np.array([np.exp(B @ l) for l in L]))
            assert _same(c * E, np.array([ci * np.exp(B @ l)
                                          for ci, l in zip(c, L)]))
            assert _same(c[0] * E, np.array([c[0] * np.exp(B @ l)
                                             for l in L]))
            assert _same(np.matmul(B, L[0][..., None])[..., 0], B @ L[0])


def test_full_coefficient_stacks():
    # _terms: a (k, nterms) coefficient stack times e^<b, l> is the
    # one-point product row by row, one term or several.  One (nterms,)
    # row broadcast over the stack is not: at k = 1, nterms = 1 numpy
    # takes another loop, and the last bits differ
    rng = np.random.default_rng(10)
    broadcast = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for single, _ in itertools.product((False, True), range(TRIALS)):
            n = int(rng.integers(1, 5))
            nt = 1 if single else int(rng.integers(1, 10))
            k = 1 if single else int(rng.choice([1, 2, 3, 9, 40]))
            B = rng.integers(-5, 6, (nt, n))
            L = 10.0 ** rng.uniform(-2, 1.5) * (rng.normal(size=(k, n))
                                                + 1j * rng.normal(size=(k, n)))
            C = rng.normal(size=(k, nt)) + 1j * rng.normal(size=(k, nt))
            F = lg.LGPotential(B, C[0])
            want = np.array([c * np.exp(F.B @ l) for c, l in zip(C, L)])
            assert _same(lg._terms(F, L, C), want)
            if single:
                broadcast += not _same(lg._terms(F, L, C[0]), want)
    assert broadcast > 0


def test_stacked_gradients_and_hessians():
    # LGPotential.grad and LGPotential.hess on a stack of terms.  They take
    # the complex B and B^T of the layout, the arrays numpy casts a float B
    # to in each product with complex terms, so either gives the same bits
    for _, B, L, c in _cases(2):
        T = c * np.exp(np.matmul(B, L[..., None])[..., 0])
        F = lg.LGPotential(B.astype(int), c[0])
        assert _same(lg._terms(F, L, c), T)
        assert _same(F.grad(L, terms=T),
                     np.matmul(T[..., None, :], B)[..., 0, :])
        assert _same(F.hess(L, terms=T), np.matmul(B.T * T[..., None, :], B))
        assert _same(np.matmul(T[..., None, :], B)[..., 0, :],
                     np.array([t @ B for t in T]))
        assert _same(np.matmul(B.T * T[..., None, :], B),
                     np.array([(B.T * t) @ B for t in T]))
        assert _same(np.matmul(T[0][..., None, :], B)[..., 0, :], T[0] @ B)
        assert _same(np.matmul(B.T * T[0][..., None, :], B),
                     (B.T * T[0]) @ B)


def test_stacked_solves():
    # _solve: one LAPACK solve per matrix of the stack, calling the gufunc
    # under np.linalg.solve directly, bit for bit the wrapper's solve
    for rng, B, L, c in _cases(3):
        n = B.shape[1]
        H = (rng.normal(size=(len(L), n, n))
             + 1j * rng.normal(size=(len(L), n, n)))
        want = np.linalg.solve(H, -L[:, :, None])
        assert _same(want[:, :, 0],
                     np.array([np.linalg.solve(h, -g) for h, g in zip(H, L)]))
        got, ok = lg._solve(H, -L[:, :, None])
        assert ok is np.True_ and _same(got, want)
    # one singular matrix fails the whole stack: the per-matrix fallback
    # solves the others and gives the singular one zeros and a False mask
    rng = np.random.default_rng(12)
    H = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    X = rng.normal(size=(5, 3, 1)) + 1j * rng.normal(size=(5, 3, 1))
    H[2] = np.outer([1, 2, 3j], [1, -1, 0.5])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(H, X)
    got, ok = lg._solve(H, X)
    assert ok.tolist() == [True, True, False, True, True]
    assert not got[2].any()
    rest = [0, 1, 3, 4]
    assert _same(got[rest], np.linalg.solve(H[rest], X[rest]))
    # a nan matrix is not singular to LAPACK: nan rows, the others exact
    H[2] = np.nan
    got, ok = lg._solve(H, X)
    assert ok is np.True_ and np.isnan(got[2]).all()
    assert _same(got, np.linalg.solve(H, X))


def test_row_norms_are_numpy_norms():
    # _row_norms, including rows that overflow or hold inf and nan
    rng = np.random.default_rng(4)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(TRIALS):
            n, k = int(rng.integers(1, 5)), int(rng.choice([1, 2, 7, 60]))
            G = (10.0 ** rng.uniform(-170, 170, (k, 1))
                 * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))))
            if rng.random() < 0.3:
                G[rng.integers(k), rng.integers(n)] = rng.choice(
                    [np.inf, -np.inf, np.nan]) * rng.choice([1, 1j])
            want = np.array([np.linalg.norm(g) for g in G])
            got = lg._row_norms(G)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert np.array_equal(np.isnan(got), np.isnan(want))
            fin = np.isfinite(want)
            assert _same(got[fin], want[fin])


def test_row_maxima_and_steps():
    # _term_scale's row maxima; the line search's l + t dl per row
    for rng, B, L, c in _cases(5):
        mags = np.abs(c)
        assert _same(np.maximum.reduce(mags, axis=-1),
                     np.array([float(np.max(m)) for m in mags]))
        t = 0.5 ** rng.integers(0, 50, len(L)).astype(float)
        dL = rng.normal(size=L.shape) + 1j * rng.normal(size=L.shape)
        assert _same(L + t[:, None] * dL,
                     np.array([l + float(s) * d
                               for l, s, d in zip(L, t, dL)]))


def test_start_draws_and_generator_restore():
    # critical_points: a batch of starts is the one-start draws in order,
    # and restoring the generator then drawing the used starts' doubles
    # leaves it where the one-start search leaves it
    for n in (1, 2, 3, 4):
        for m in (1, 6, 41):
            one = np.random.default_rng(10 * n + m)
            want = np.array([one.uniform(-2.5, 2.5, n)
                             + 1j * one.uniform(-math.pi, math.pi, n)
                             for _ in range(m)])
            rng = np.random.default_rng(10 * n + m)
            state = rng.bit_generator.state
            u = rng.uniform(lg._START_LOW, lg._START_HIGH, (m + 5, 2, n))
            assert _same(u[:m, 0] + 1j * u[:m, 1], want)
            rng.bit_generator.state = state
            rng.random(2 * n * m)
            assert rng.bit_generator.state == one.bit_generator.state


def test_stacked_inverses_and_steps():
    # _alpha_beta: H^-1 as a stacked solve against the identity (which is
    # np.linalg.inv, matrix by matrix), its Frobenius norm, and H^-1 g
    for rng, B, L, c in _cases(6):
        n = B.shape[1]
        H = (rng.normal(size=(len(L), n, n))
             + 1j * rng.normal(size=(len(L), n, n)))
        want = np.array([np.linalg.inv(h) for h in H])
        assert _same(np.linalg.inv(H), want)
        eye = np.broadcast_to(np.eye(n, dtype=complex), H.shape)
        assert _same(np.linalg.solve(H, eye), want)
        assert _same(lg._solve(H, eye)[0], want)
        assert _same(lg._row_norms(want.reshape(len(L), -1)),
                     np.array([np.linalg.norm(h) for h in want]))
        assert _same(np.matmul(want, L[..., None])[..., 0],
                     np.array([h @ l for h, l in zip(want, L)]))


def test_row_dots_and_sums():
    # _alpha_beta: per-row dot products by np.vecdot and per-row sums.
    # W @ p (one gemv) is not the per-row dot: it differs in the last bit,
    # so it must not replace vecdot
    gemv = 0
    for rng, B, L, c in _cases(7):
        W = 10.0 ** rng.uniform(-3, 3, c.shape)
        p = 10.0 ** rng.uniform(-3, 3, c.shape[1])
        want = np.array([w @ p for w in W])
        assert _same(np.vecdot(W, p), want)
        assert _same(np.sum(W, axis=1), np.array([np.sum(w) for w in W]))
        gemv += int(np.sum(W @ p != want))
    assert gemv > 0


def test_stacked_values():
    # LGPotential.value on a stack (a tracking step's values): per-row sums
    # of complex terms, less the per-row sum of chi * l.  chi * L itself is
    # not the per-row product when L is one row of one coordinate, so the
    # stack broadcasts chi to its own shape first
    for rng, B, L, c in _cases(9):
        T = c * np.exp(np.matmul(B, L[..., None])[..., 0])
        chi = rng.normal(size=B.shape[1]) + 1j * rng.normal(size=B.shape[1])
        assert _same(np.sum(T, axis=-1), np.array([np.sum(t) for t in T]))
        assert _same(np.sum(np.broadcast_to(chi, L.shape) * L, axis=-1),
                     np.array([np.sum(chi * l) for l in L]))
        for F in (lg.LGPotential(B.astype(int), c[0], chi=chi),
                  lg.LGPotential(B.astype(int), c[0])):
            want = np.array([np.sum(t) - np.sum(F.chi * l) if np.any(F.chi)
                             else np.sum(t) for l, t in zip(L, T)])
            assert _same(F.value(L, terms=T), want)
            assert _same(np.array([F.value(l, terms=t)
                                   for l, t in zip(L, T)]), want)


def test_stacked_determinants_and_scales():
    # CriticalDatum.stack: one det and one max |H| over a stack of Hessians
    for rng, B, L, c in _cases(8):
        H = np.matmul(B.T * c[..., None, :], B)
        assert _same(np.linalg.det(H),
                     np.array([np.linalg.det(h) for h in H]))
        assert _same(np.abs(H).max(axis=(-2, -1)),
                     np.array([np.max(np.abs(h)) for h in H]))


def test_stacked_dedupe_distances():
    # critical_points' batched record: the wrapped log distances of k
    # points to m found ones as one (k, m) broadcast stack are the
    # one-point check's, row by row, and the canonical log of a stack is
    # its per-row form
    rng = np.random.default_rng(11)
    for _ in range(TRIALS):
        n = int(rng.integers(1, 5))
        k, m = int(rng.choice([1, 2, 9, 40])), int(rng.choice([1, 2, 9]))
        L = 10.0 ** rng.uniform(-2, 1.5) * (rng.normal(size=(k, n))
                                            + 1j * rng.normal(size=(k, n)))
        near = L[rng.integers(k, size=m)] + 10.0 ** rng.uniform(-12, 0) * (
            rng.normal(size=(m, n)) + 2j * math.pi * rng.integers(-2, 3, (m, n)))
        D = lg._row_norms(lg._canonical_log(near[None] - L[:, None])
                          .reshape(-1, n)).reshape(k, m)
        for r, l in enumerate(L):
            assert _same(D[r], lg._row_norms(lg._canonical_log(
                np.array(near) - l)))
        assert _same(lg._canonical_log(L),
                     np.array([lg._canonical_log(l) for l in L]))


def test_alignments_and_moduli_are_python_complex_arithmetic():
    # mutation._crossings: the alignment Im(e^{-i phi}(u_j - u_i)) of every
    # pair as d.real (Im u_j - Im u_i) + d.imag (Re u_j - Re u_i) is
    # Python's complex product; tracking's |u| and |u_i - u_j| by np.hypot
    # are Python's abs (np.abs of a complex array is not, in last bits).
    # Some pairs are equal or share a real or imaginary part, so the
    # differences hold exact (signed) zeros
    rng = np.random.default_rng(12)
    for _ in range(TRIALS):
        k = int(rng.choice([1, 2, 9, 40]))
        u, w = 10.0 ** rng.uniform(-8, 8, (2, k)) * (
            rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k)))
        w = np.where(rng.random(k) < 0.2, u, w)
        w = np.where(rng.random(k) < 0.2, u.real + 1j * w.imag, w)
        w = np.where(rng.random(k) < 0.2, w.real + 1j * u.imag, w)
        phi = float(rng.choice([0.0, math.pi, rng.uniform(-4, 4)]))
        d = cmath.exp(-1j * phi)
        got = d.real * (w.imag - u.imag) + d.imag * (w.real - u.real)
        want = [(d * (b - a)).imag for a, b in zip(u.tolist(), w.tolist())]
        assert _same(got, np.array(want))
        D = w - u
        assert _same(np.hypot(D.real, D.imag),
                     np.array([abs(z) for z in D.tolist()]))
