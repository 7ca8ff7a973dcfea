"""Mirror Landau-Ginzburg potentials, numerically: critical points by
multistart damped Newton in log coordinates, conifold points, Newton
non-degeneracy tests, and predictor-corrector tracking of critical values
along moduli paths.  The exact pieces live with the data they read: the
layout of a fan's chart in `families`, and the closed-form critical values
over a wall curve in `secondary`, beside `CurveChart`.

Every Newton iteration here is `_newton_solve`, damped Newton on a stack of
log points in lockstep: the multistart search, tracking, the collision
search, the conifold point (one row) and the non-degeneracy test (one batch
per face) all call it.  Only the multistart search gives it the search box,
where rows drifting to toric infinity are retired.  Each row carries its own
coefficients, so one stack can hold points of several potentials of one
family: mutation refinement solves the crossing branches of a whole
trajectory, each at its own parameter, as one stack per bisection level
(`Trajectory.resolve`), and the collision search solves the probes of its
next COLLISION_LOOKAHEAD golden-section moves as one stack.

The backtracking line search of each Newton pass runs in lockstep as well.
Every row starts at the full step and halves it, so all rows still pending
after h halvings share the step 2^-h: the next HALVING_LOOKAHEAD halvings of
all of them are one stack, and each row takes its first accepted level,
which is the step a search halving one level at a time takes.  The full
step that starts each search is l + dl against 0.75 |grad|, the bits of the
unit step without multiplying by it.

The multistart dedupe runs in lockstep too: each batch's converged rows are
compared with the points found before as one matrix, and the kept points
are evaluated as one stack, then taken in order.  Every stacked form gives
each row its one-point bits (tests/test_numpy_identities.py), so no output
depends on how the rows are batched.
"""
from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from collections.abc import Sequence

import numpy as np
# the LAPACK gesv gufunc that `np.linalg.solve` calls (a private module,
# the same in numpy 1.x and 2.x; pinned on numpy 2.4 by
# tests/test_numpy_identities.py)
from numpy.linalg._umath_linalg import solve as _gesv

from . import errors
from .cones import normalized_volume, polytope_facets, polytope_proper_faces
from .rational import integer_kernel, primitive, solve, transpose, vsub

TOL_NEWTON = 1e-12
TOL_HESS = 1e-9
TOL_FACE = 1e-10         # a face's critical value counts as 0 below this
                         # times its term scale
TOL_COLLIDE = 1e-4
# a multistart search keeps points with |Re log x| <= SEARCH_BOX, and its
# Newton rows leave the stack once they drift beyond it
SEARCH_BOX = 18.0
# a multistart search tries up to 200 starts per point of the count bound
MAX_CRITICAL_POINTS = 10 ** 3
# a multistart start: Re log x uniform in [-2.5, 2.5], Im log x in [-pi, pi]
_START_LOW = np.array([[-2.5], [-math.pi]])
_START_HIGH = np.array([[2.5], [math.pi]])
# the starts of each proper face in a non-degeneracy test, and their window
FACE_STARTS = 60
_FACE_LOW = np.array([[-2.0], [-math.pi]])
_FACE_HIGH = np.array([[2.0], [math.pi]])
# golden-section moves of the collision search solved as one stack
COLLISION_LOOKAHEAD = 3
# the line search halves a Newton step at most MAX_HALVINGS times, and tries
# the next HALVING_LOOKAHEAD halvings of all rows still pending as one stack
MAX_HALVINGS = 49
HALVING_LOOKAHEAD = 3
# the step 2^-h of h halvings, exact
_STEPS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))
# the fewest starts of a multistart batch after a component's first.  One
# lockstep Newton pass costs about 55 us whatever its size plus about 1.4 us
# a row (bl_line_p4 from multistart starts, median CPU time per pass: 57 us
# at 2 rows, 118 us at 32, 239 us at 128, one core of a shared 2-core x86-64
# box), so a smaller tail batch pays mostly for its passes
MIN_BATCH = 32
# Smale's alpha-test threshold, a margin below alpha_0 = (13 - 3 sqrt 17)/4
ALPHA_MAX = 0.1


class LGPotential:
    """F = sum_b c_b x^{b} (+ optional torsion characters twisting c_b and an
    equivariant shift chi), with analytic gradient and Hessian in log
    coordinates."""

    def __init__(self, exponents, coefficients, chi=None, torsion_parts=None,
                 torsion_invariants=()):
        self.B = np.asarray(exponents, dtype=float)
        self.B_int = [tuple(int(x) for x in row) for row in exponents]
        self.nterms, self.n = self.B.shape
        # B and B^T as the complex arrays numpy would cast B to in every
        # product with terms, once per layout
        self._Bc = self.B.astype(complex)
        self._BcT = np.ascontiguousarray(self._Bc.T)
        self.chi = (np.zeros(self.n, dtype=complex) if chi is None
                    else np.asarray(chi, dtype=complex))
        # max |chi| once per layout, None when chi = 0: the term scale and
        # the value read it.  The gradient skips subtracting a chi of +0
        # entries, as x - (+0) is x bit for bit (x - (-0) is not)
        zero = not self.chi.any()
        self.chi_max = None if zero else float(np.abs(self.chi).max())
        self._chi_plus_zero = zero and not (
            np.signbit(self.chi.real).any() or np.signbit(self.chi.imag).any())
        self.torsion_invariants = tuple(int(d) for d in torsion_invariants)
        self.torsion_parts = (torsion_parts if torsion_parts is not None
                              else [(0,) * len(self.torsion_invariants)] * self.nterms)
        self._bound = []        # count-bound memo, shared by the layout
        self._set_coefficients(coefficients)

    def _set_coefficients(self, coefficients):
        self.c = np.asarray(coefficients, dtype=complex)
        if (self.c == 0).any():
            raise ValueError("zero coefficients are not allowed in a potential")

    def with_coefficients(self, coefficients):
        """This layout, count-bound memo included, with new coefficients."""
        F = object.__new__(LGPotential)
        F.__dict__.update(self.__dict__)
        F._set_coefficients(coefficients)
        return F

    @property
    def torsion_order(self):
        return math.prod(self.torsion_invariants)

    def components(self):
        """Character labels of the fibre components (trivial if no torsion)."""
        out = [()]
        for d in self.torsion_invariants:
            out = [t + (r,) for t in out for r in range(d)]
        return out

    def coefficients_on(self, component):
        """Coefficients twisted by the character of the given component."""
        if not self.torsion_invariants:
            return self.c
        tw = []
        for k in range(self.nterms):
            phase = 0.0
            for gi, ti, d in zip(component, self.torsion_parts[k],
                                 self.torsion_invariants):
                phase += 2 * math.pi * gi * ti / d
            tw.append(cmath.exp(1j * phase))
        return self.c * np.asarray(tw)

    def coefficient_rows(self, components):
        """The (k, nterms) coefficient stack of k points, row i twisted by
        the character of fibre component components[i]: what `_newton_solve`
        and `_terms` take for a stack."""
        on = {c: self.coefficients_on(c) for c in set(components)}
        return np.array([on[c] for c in components],
                        dtype=complex).reshape(len(components), self.nterms)

    # -- evaluation in log coordinates l = log x ----------------------------
    # `terms`, `grad` and `hess` take one point (n,) or a stack of points
    # (k, n); a stack's terms are (k, nterms), its gradients (k, n) and its
    # Hessians (k, n, n), its values (k,), and each row equals the one-point
    # result bit for bit (tests/test_numpy_identities.py).  `terms` puts a
    # stack on one component; rows on several take `_terms` with their
    # `coefficient_rows`.
    def value(self, l, component=(), terms=None):
        t = self.terms(l, component) if terms is None else terms
        val = np.sum(t, axis=-1)
        if self.chi_max is not None:
            # chi * l on a (1, 1) stack is not the one-point product's
            # bits; chi broadcast to the stack's shape is, whatever the shape
            chi = np.broadcast_to(self.chi, l.shape)
            val = val - np.sum(chi * l, axis=-1)
        return val if val.ndim else complex(val)

    def terms(self, l, component=()):
        """The monomial terms t_b = c_b x^b at l; `value`, `grad`, `hess` and
        `_term_scale` accept them, so one point costs one exponential."""
        return _terms(self, l, self.coefficients_on(component))

    def grad(self, l, component=(), terms=None):
        t = self.terms(l, component) if terms is None else terms
        g = np.matmul(t[..., None, :], self._Bc)[..., 0, :]
        return g if self._chi_plus_zero else g - self.chi

    def hess(self, l, component=(), terms=None):
        t = self.terms(l, component) if terms is None else terms
        return np.matmul(self._BcT * t[..., None, :], self._Bc)

    def count_bound(self):
        """(bound, exact): Bernstein's bound |N_tor| x normalized volume of
        conv(supp F, plus 0 when chi != 0) on the isolated torus critical
        points, whatever the coefficients, and whether it is exact, which
        holds when 0 is interior to the Newton polytope (the Kouchnirenko
        count).  It depends only on the layout, so it is computed once per
        family of potentials sharing one.  The memo keeps the facets of
        conv(supp F) in the exact case, for `newton_nondegenerate`.
        TooLarge when the bound exceeds MAX_CRITICAL_POINTS."""
        if not self._bound:
            pts = self.B_int
            facets = polytope_facets(pts)
            exact = bool(facets) and all(a0 > 0 for _, a0, _ in facets)
            if self.chi_max is not None and not exact:
                pts = pts + [(0,) * self.n]
                facets = None
            bound = self.torsion_order * int(normalized_volume(pts, facets))
            if bound > MAX_CRITICAL_POINTS:
                raise errors.TooLarge(
                    f"critical-point bound {bound} exceeds the budget "
                    f"{MAX_CRITICAL_POINTS}")
            self._bound.append((bound, exact, facets if exact else None))
        return self._bound[0][:2]

    def expected_count(self):
        """The exact critical-point count (Kouchnirenko) when 0 is interior
        to the Newton polytope; None otherwise."""
        bound, exact = self.count_bound()
        return bound if exact else None


class CriticalDatum:
    def __init__(self, log_point, value, log_hessian, component=()):
        H = np.asarray(log_hessian, dtype=complex)
        self._fill(log_point, value, H, component, np.linalg.det(H),
                   np.abs(H).max())

    def _fill(self, log_point, value, log_hessian, component, deth, scale):
        self.log_point = np.asarray(log_point, dtype=complex)
        self.value = complex(value)
        self.log_hessian = log_hessian
        self.component = component
        self.det_hessian = deth = complex(deth)
        self.nondegenerate = abs(deth) > TOL_HESS * (
            float(scale) or 1.0) ** len(log_point)
        self.tag = "unknown"
        self.sqrt_det_h = cmath.sqrt(deth)

    @classmethod
    def stack(cls, L, values, H, components):
        """One datum per row of the stacks L, values and H (Hessians), all
        determinants and scales taken at once, each the one-matrix one."""
        out = [object.__new__(cls) for _ in components]
        for p, *row in zip(out, L, values, H, components, np.linalg.det(H),
                           np.abs(H).max(axis=(-2, -1))):
            p._fill(*row)
        return out

    def __repr__(self):
        return f"CriticalDatum(value={self.value:.6g}, tag={self.tag})"


def _canonical_log(l):
    return l.real + 1j * ((l.imag + math.pi) % (2 * math.pi) - math.pi)


def _terms(F, L, C):
    """The monomial terms C * e^<b, l> of each point of L, row i of a (k, n)
    stack with its row C[i] of a (k, nterms) coefficient stack.  Each row
    equals the one-point product bit for bit; one (nterms,) row broadcast
    over the stack does not always (tests/test_numpy_identities.py)."""
    return C * np.exp(np.matmul(F._Bc, L[..., None])[..., 0])


def _term_scale(F, terms):
    """Magnitude of the largest monomial term, per row of a stack (convergence
    is judged relative to this, so drift to toric infinity never passes as a
    zero).  Callers hold numpy's overflow and invalid warnings."""
    s = np.maximum.reduce(np.abs(terms), axis=-1)
    s = np.where(np.isfinite(s), s, math.inf)
    if F.chi_max is not None:
        s = np.maximum(s, F.chi_max)
    return np.maximum(s, 1e-300)


def _row_norms(X):
    """Euclidean norm of each row of a complex stack, by the formula of
    `np.linalg.norm` (sqrt(re.re + im.im)) with each row's dot products taken
    by the same BLAS call, so each equals the one-row norm bit for bit."""
    re, im = X.real, X.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


# a gradient norm below 2^-511 = sqrt(smallest normal) may have lost its
# squares to underflow: every entry is below it, so each square is subnormal
# or 0, and a nonzero gradient can give the norm 0
_NORM_FLOOR = 2.0 ** -511


def _small_gradient(g, bound):
    """Whether the gradient g of one row has norm below `bound`, taken over
    its largest |entry| so that no square underflows; an exact zero passes.
    `_newton_solve` asks it only of rows whose norm is below _NORM_FLOOR
    and already passed."""
    v = np.abs(np.concatenate((g.real, g.imag)))
    s = v.max()
    return not s or s * np.linalg.norm(v / s) < bound


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# np.linalg.solve's error state: its gufunc flags a singular matrix invalid
@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(H, X):
    """(H^-1 X per matrix of the complex stack H, mask of the matrices that
    are not singular; a singular one's rows are 0).  X = I gives
    `np.linalg.inv`.  The stack goes to the gufunc under `np.linalg.solve`
    with the wrapper's signature, skipping its type checks.  When none is
    singular the mask is np.True_, which broadcasts as an all-true mask and
    saves building one on every pass."""
    try:
        return _gesv(H, X, signature="DD->D"), np.True_
    except np.linalg.LinAlgError:      # one singular H fails the whole stack
        out, ok = np.zeros_like(X), np.ones(len(H), bool)
        for i, (h, x) in enumerate(zip(H, X)):
            try:
                out[i] = np.linalg.solve(h, x)
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _line_trial(F, L, dL, t, gn, C, tol):
    """One backtracking trial per row at l + t dl: whether it is accepted,
    and the point with its terms, gradient, gradient norm and term scale.
    A row's gn is finite, so a nan or inf trial norm is never accepted: a
    nan compares False and +inf is below neither bound.

    t=None is the full step, t = 1 for every row: the point is l + dl and
    the bound 0.75 gn, the bits of 1 dl and (1 - 0.25) gn for a finite dl,
    without building the ones and multiplying by them."""
    if t is None:
        Lp, bound = L + dL, 0.75 * gn
    else:
        Lp, bound = L + t[:, None] * dL, (1 - 0.25 * t) * gn
    Tp = _terms(F, Lp, C)
    Gp = F.grad(Lp, terms=Tp)
    gp, sp = _row_norms(Gp), _term_scale(F, Tp)
    ok = (gp < bound) | (gp < tol * sp)
    return ok, [Lp, Tp, Gp, gp, sp]


def _newton_solve(F, L0, C, tol=TOL_NEWTON, box=None):
    """Damped Newton from every row of the (k, n) stack L0, row i with the
    coefficients C[i] of the (k, nterms) stack C, all rows in lockstep.
    Returns one entry per row: None unless that row converges, else
    (l, terms at l).  A row converges when its gradient norm is below tol
    times its term scale; a norm below _NORM_FLOOR, whose squares may have
    underflowed, must pass again over the gradient's largest entry
    (`_small_gradient`), so a gradient of 1e-180 at terms of 1e-180 is no
    zero.  A row that passes with every term exactly 0 is retired: its
    gradient is 0 against the clamped term scale far out at toric infinity.

    F gives the exponents and chi, C alone the coefficients: C[i] is
    `F.coefficient_rows` of the row's fibre component, or that of another
    potential with F's layout, so rows of one family at different
    parameters share a stack (`Trajectory.resolve`).  C is built once per
    solve and filtered with the rows.

    Given a `box`, a row still iterating whose max |Re l| exceeds it is
    retired, as a row with a non-finite gradient is, and returns None.
    Such a row follows an escape direction to toric infinity: the initial
    system of some face has torus zeros there (Bernstein 1975, theorem B),
    the gradient decays along the way and the line search keeps accepting,
    so without the box it would run every pass.

    Each row keeps its own iterate, line-search step and exit, and leaves
    where a Newton solve from that row alone would: the stacked terms,
    gradients, Hessians, solves and norms equal their one-row forms bit for
    bit, so a row's result does not depend on the batch it is solved in
    (tests/test_newton_oracle.py keeps the one-row solve as the oracle),
    with or without a box.  The terms, gradient, its norm and the term
    scale at each point are evaluated once: an accepted line-search point's
    serve the next iterate.

    The line search (Armijo 1966) tries the full step, then halves it at
    most MAX_HALVINGS times.  Its halvings run in lockstep: the rows still
    pending after h halvings all try 2^-h, so the next HALVING_LOOKAHEAD
    levels of them are one `_line_trial` stack, level-major, and each row
    takes its first accepted level.  A trial row depends only on its own
    inputs, so the levels a one-row search would not reach change nothing,
    and the chosen step is the one halving one level at a time gives
    (tests/test_newton_oracle.py checks a stack whose rows leave on both
    sides of a chunk boundary, at the cap and past it)."""
    k = len(C)
    L = np.asarray(L0, dtype=complex).reshape(k, F.n)
    rows = np.arange(k)         # input index of each row still iterating
    out = [None] * k
    with np.errstate(over="ignore", invalid="ignore"):
        T = _terms(F, L, C)
        G = F.grad(L, terms=T)
        gn, sc = _row_norms(G), _term_scale(F, T)
        for it in range(101):   # the 101st pass only tests convergence
            done = gn < tol * sc
            for i in done.nonzero()[0]:
                # all terms 0 leave the gradient -chi, which passes only
                # when chi = 0, so the test sits under the small norms
                if gn[i] >= _NORM_FLOOR:
                    out[rows[i]] = (L[i], T[i])
                elif not T[i].any():    # every term underflowed: retired,
                    continue            # done without a result
                elif _small_gradient(G[i], tol * sc[i]):
                    out[rows[i]] = (L[i], T[i])
                else:
                    done[i] = False     # the squares underflowed, not a zero
            go = ~done
            if not it:  # every later gn is an accepted trial's, so finite
                go &= np.isfinite(gn)
            if box is not None:
                go &= np.abs(L.real).max(axis=1) <= box
            live = np.count_nonzero(go)
            if it == 100 or not live:
                break
            if live < len(go):
                L, T, G, gn, C, rows = (
                    x[go] for x in (L, T, G, gn, C, rows))
            dL, go = _solve(F.hess(L, terms=T), -G[:, :, None])
            dL = dL[:, :, 0]
            if not go.all():
                L, T, dL, gn, C, rows = (
                    x[go] for x in (L, T, dL, gn, C, rows))
            # backtracking line search, halvings in lockstep (see above)
            ok, new = _line_trial(F, L, dL, None, gn, C, tol)
            pend = (~ok).nonzero()[0]
            h = 0
            while len(pend) and h < MAX_HALVINGS:
                m, p = min(HALVING_LOOKAHEAD, MAX_HALVINGS - h), len(pend)
                at = pend[None].repeat(m, axis=0).ravel()
                ok, tried = _line_trial(F, L[at], dL[at],
                                        _STEPS[h + 1:h + m + 1].repeat(p),
                                        gn[at], C[at], tol)
                ok = ok.reshape(m, p)
                acc = ok.any(axis=0)
                pick = ok.argmax(axis=0)[acc] * p + acc.nonzero()[0]
                for x, y in zip(new, tried):
                    x[pend[acc]] = y[pick]
                pend = pend[~acc]
                h += m
            L, T, G, gn, sc = new
            if len(pend):       # no step accepted: those rows fail
                go = np.ones(len(rows), bool)
                go[pend] = False
                L, T, G, gn, sc, C, rows = (
                    x[go] for x in (L, T, G, gn, sc, C, rows))
    return out


def _alpha_beta(F, L, components):
    """Smale's (alpha, beta) at each row l of the (k, n) stack L, row i on
    fibre component components[i], for g(l) = sum_b t_b b - chi, the
    critical point system in log coordinates, with t_b = c_b e^<b, l>.

    beta = |H^-1 g| is the Newton step, raised by a bound on the rounding
    error of the evaluated g (about eps x sum_b |t_b| |b| x (terms + n |b|
    |l|)), so two roundings of one zero are never certified apart.

    gamma = sup_{k >= 2} |H^-1 D^k g / k!|^(1/(k-1)).  Since D^k g[v, ..., v]
    = sum_b t_b b <b, v>^k, |H^-1 D^k g / k!| <= M_k =
    A sum_b |t_b| |b|^(k+1) / k!, with A = |H^-1|_F >= |H^-1|_2 (no SVD
    needed).  The scan over k stops at a cutoff: with
    T = A sum_b |t_b| |b|, R = max_b |b| >= 1 and k! >= (k/e)^k,
    M_j <= T (eR/j)^j, so for every j > k >= eR
    M_j^(1/(j-1)) <= max(T, 1)^(1/k) eR / (k + 1).  Once that tail bound
    falls below the largest term scanned, no later k can raise gamma; the
    scan is capped at k = 200, where gamma takes the larger of the two.

    alpha = beta gamma; alpha < (13 - 3 sqrt 17)/4 makes l an approximate
    zero whose associated zero is simple and lies within 2 beta of l.

    Returns arrays (alpha, beta), both inf where the terms, beta or gamma
    are not finite or H is singular.  Each row scans k to its own cutoff
    and equals the one-point test bit for bit (tests/alpha_oracle.py)."""
    m = len(components)
    L = np.asarray(L, dtype=complex).reshape(m, F.n)
    with np.errstate(over="ignore", invalid="ignore"):
        T = _terms(F, L, F.coefficient_rows(components))
        H_inv, ok = _solve(F.hess(L, terms=T), np.broadcast_to(
            np.eye(F.n, dtype=complex), (m, F.n, F.n)))
        run = ok & np.isfinite(T).all(axis=1)
        a_inv = _row_norms(H_inv.reshape(m, -1))
        nb = np.linalg.norm(F.B, axis=1)
        at = np.abs(T)
        eps = np.finfo(float).eps
        err = 2 * eps * (np.sum(at * nb * (F.nterms + 3 + F.n * nb
                                           * _row_norms(L)[:, None]), axis=1)
                         + np.linalg.norm(F.chi))
        G = F.grad(L, terms=T)
        beta = _row_norms(np.matmul(H_inv, G[..., None])[..., 0]) + a_inv * err
        W = a_inv[:, None] * at
        e_r = math.e * float(np.max(nb))
        big_t = np.maximum(np.vecdot(W, nb), 1.0)
        good, gamma = run.copy(), np.zeros(m)
        p = nb * nb                  # |b|^(k+1) / k! at k = 1
        for k in range(2, 201):
            p = p * nb / k
            v = _powers(np.vecdot(W, p), 1.0 / (k - 1))
            gamma = np.where(run & (v > gamma), v, gamma)
            tail = _powers(big_t, 1.0 / k) * e_r / (k + 1)
            if k >= e_r:
                run &= ~(tail <= gamma)
            if not run.any():
                break
        gamma = np.where(run & (tail > gamma), tail, gamma)
    good &= np.isfinite(beta) & np.isfinite(gamma)
    return (np.where(good, beta * gamma, math.inf),
            np.where(good, beta, math.inf))


def _powers(a, e):
    """a ** e per entry by Python's power; np.power differs in last bits."""
    return np.array([x ** e for x in a.tolist()])


def _alpha_certified(F, points):
    """True when every point passes Smale's alpha-test (alpha < ALPHA_MAX)
    and the associated zeros of any two points on one component are apart:
    their wrapped log distance exceeds 2 (beta_i + beta_j), and each
    associated zero lies within 2 beta of its point.  The points are then
    that many distinct simple torus zeros."""
    comps = [p.component for p in points]
    L = np.array([p.log_point for p in points])
    alpha, beta = _alpha_beta(F, L, comps)
    i, j = _same_pairs(comps)
    gap = _pair_gaps(L, i, j)
    return bool((alpha < ALPHA_MAX).all()
                and (gap > 2 * (beta[i] + beta[j])).all())


def _new_points(L, near, tol):
    """The rows of the (k, n) stack L of canonical log points that a
    one-point-at-a-time record keeps, in order: those inside the search box
    whose wrapped log distance is at least tol from every row of `near`
    (the points found before) and from every row kept before them.  The
    distances to `near` are one (k, len(near)) matrix.  Then the first
    survivor is kept and the later survivors within tol of it are dropped,
    as one stack of distances, until none is left: one stack per kept row,
    not one per survivor, and no (k, k) matrix is built.  Each distance is
    the one-point check's bit for bit."""
    k, n = L.shape
    keep = ~(np.abs(L.real).max(axis=1) > SEARCH_BOX)
    if len(near):
        D = _row_norms(_canonical_log(near[None] - L[:, None]).reshape(-1, n))
        keep &= ~(D.reshape(k, -1) < tol).any(axis=1)
    kept, rest = [], keep.nonzero()[0]
    while len(rest):
        r, rest = rest[0], rest[1:]
        kept.append(int(r))
        rest = rest[~(_row_norms(_canonical_log(L[r] - L[rest])) < tol)]
    return kept


def critical_points(F: LGPotential, expected=None, rng=None,
                    budget_factor=200, dedupe_tol=1e-5):
    """All critical points x dF/dx = chi on the open torus, by multistart
    damped Newton in log coordinates, deduplicated modulo 2 pi i shifts.

    Solutions drifting to toric infinity (|Re log x| beyond SEARCH_BOX,
    where the gradient decays without a genuine zero) are rejected, and a
    Newton row is retired as soon as it leaves that box: where 0 is not
    interior to the Newton polytope most starts follow an escape direction
    (Bernstein 1975, theorem B) and would otherwise run every pass only to
    be rejected.  A row's result still does not depend on its batch.

    The target count is `expected`, or else the bound of
    `F.count_bound()`: Bernstein's bound, which no isolated solution set
    exceeds.

    The search stops in one of two ways.  When the bound is exact (the
    Kouchnirenko count, 0 interior to the Newton polytope) and the found
    points reach it, they are checked by Smale's alpha-test
    (`_alpha_certified`): if each is an approximate zero of a distinct
    simple zero, Bernstein's theorem leaves no other isolated torus zero,
    and the search stops at once.  Otherwise it stops at the target count
    only after more than a tenth of a component's try budget (the floor),
    so an extra point can still turn up and raise the over-count.  After a
    certified stop the generator skips the starts the floor would have
    drawn, so it leaves in the same state either way.

    Starts are drawn and Newton-solved in batches (`_newton_solve`), then
    taken in order, one try each, exactly as one start at a time: the
    draws, the tries, the order of the found points and every stop are the
    same whatever the batch size.  The dedupe runs in lockstep as well: a
    batch's converged rows are compared with the points found before it as
    one rows x found matrix, then each row kept in the batch with the later
    survivors as one stack (`_new_points`), and the kept rows' values and
    Hessians are one stack, so the walk through the batch only appends them.

    A search that can still be certified (exact bound, not yet decided), or
    is past the floor with m points missing, draws 4 m starts in a
    component's first batch and max(4 m 2^(b-1), MIN_BATCH) in its later
    batch b = 1, 2, ...: a lockstep pass costs mostly its fixed overhead, so
    a point with a small basin costs a few batches of a dozen passes each,
    not many small ones.  Any other search draws up to
    the floor, or the rest of the budget once the points exceed the target.
    Starts a batch drew beyond the one the search stopped at are given
    back: the generator is restored and advanced by the starts used, so it
    leaves in the state the one-start-at-a-time search leaves it in.

    Finding fewer raises IncompleteCount only when the count is exact
    (`expected` given, or the Kouchnirenko count); finding more than the
    bound always raises it."""
    if rng is None:
        rng = np.random.default_rng(0)
    bound, exact = F.count_bound()
    if expected is None and exact:
        expected = bound
    stop = bound if expected is None else expected
    if stop == 0:
        return []
    found = []
    budget = budget_factor * stop

    def record(sols, component):
        # the points a one-at-a-time record keeps from this batch, each as
        # one-point evaluation builds it: {batch row: CriticalDatum}
        conv = [r for r, sol in enumerate(sols) if sol is not None]
        if not conv:
            return {}
        L = _canonical_log(np.array([sols[r][0] for r in conv]).reshape(
            len(conv), F.n))
        near = np.array([p.log_point for p in found
                         if p.component == component]).reshape(-1, F.n)
        kept = _new_points(L, near, dedupe_tol)
        if not kept:
            return {}
        L, comps = L[kept], [component] * len(kept)
        T = _terms(F, L, F.coefficient_rows(comps))
        pts = CriticalDatum.stack(L, F.value(L, terms=T),
                                  F.hess(L, terms=T), comps)
        return {conv[r]: p for r, p in zip(kept, pts)}

    components = F.components()
    per_comp_budget = max(budget // len(components), 40)
    floor = per_comp_budget // 10
    certifiable = exact and stop == bound
    certified = None        # decided once, when the found points reach stop
    for component in components:
        tries = batches = 0
        done = False
        while tries < per_comp_budget and not done:
            missing = stop - len(found)
            if (certified is None and certifiable
                    or tries > floor and missing > 0):
                size = (max(4 * missing << batches - 1, MIN_BATCH) if batches
                        else 4 * missing)
            elif tries <= floor:
                size = floor + 1 - tries
            else:           # an over-count: only the budget ends the search
                size = per_comp_budget
            size = min(size, per_comp_budget - tries)
            batches += 1
            state = rng.bit_generator.state
            u = rng.uniform(_START_LOW, _START_HIGH, (size, 2, F.n))
            skip = 0
            new = record(_newton_solve(F, u[:, 0] + 1j * u[:, 1],
                                       F.coefficient_rows([component] * size),
                                       box=SEARCH_BOX), component)
            for used in range(1, size + 1):
                tries += 1
                if used - 1 in new:
                    found.append(new[used - 1])
                if len(found) == stop:
                    if certified is None:
                        certified = certifiable and _alpha_certified(F, found)
                    if certified:
                        skip = max(floor + 1 - tries, 0)
                    done = certified or tries > floor
                    if done:
                        break
            if used < size or skip:
                rng.bit_generator.state = state
                rng.random(2 * F.n * (used + skip))
        if len(found) == stop:
            break
    if len(found) > bound:
        raise errors.IncompleteCount(
            f"found {len(found)} critical points, more than the Bernstein "
            f"bound {bound}; points may be non-isolated or duplicated")
    if expected is not None and len(found) < expected:
        raise errors.IncompleteCount(
            f"found {len(found)} critical points, exact count is "
            f"{expected}; parameter may be near the discriminant")
    found.sort(key=lambda p: (-p.value.imag, p.value.real))
    return found


def conifold_point(F: LGPotential) -> CriticalDatum:
    """The unique critical point of F on the positive real fibre locus, the
    global minimum of the convex restriction: one `_newton_solve` row from
    l = 0.  With positive real coefficients the terms, gradient, Hessian and
    step of every iterate are real, so the point is exactly real.  Raises
    NotPositiveReal when the row does not converge."""
    if (np.abs(F.c.imag) > 1e-12).any() or (F.c.real <= 0).any():
        raise errors.NotPositiveReal("potential coefficients must be positive real")
    if F.chi_max is not None:
        raise errors.NotPositiveReal("conifold point is non-equivariant")
    if F.expected_count() is None:
        raise errors.NotPositiveReal("origin must be interior to the Newton polytope")
    sol, = _newton_solve(F, np.zeros((1, F.n)), F.coefficient_rows([()]))
    if sol is None:
        raise errors.NotPositiveReal("Newton from l = 0 did not converge")
    l, t = sol
    p = CriticalDatum(l, F.value(l, terms=t), F.hess(l, terms=t))
    p.tag = "convergent"
    p.sqrt_det_h = math.sqrt(p.det_hessian.real)   # positive definite Hessian
    return p


# ---------------------------------------------------------------------------
# Newton non-degeneracy


def newton_nondegenerate(F: LGPotential, rng=None):
    """Kouchnirenko non-degeneracy: no proper face Delta of the Newton
    polytope has a torus point where x d f_Delta = 0, f_Delta the terms of F
    on Delta.  Returns (ok, report), the report giving each face's verdict
    and the number of starts it was searched from.

    A one-point face is a monomial, never degenerate.  On a larger face take
    an active facet normal a: a.b = a0 for every b on Delta, and a0 > 0 as 0
    is interior.  Euler's relation a . x d f_Delta = a0 f_Delta makes every
    zero of x d f_Delta a zero of f_Delta, and x d phi = x^-b0 (x d f_Delta -
    b0 f_Delta) for phi = x^-b0 f_Delta, b0 the face's first point.  So
    Delta is degenerate iff phi has a torus critical point with critical
    value 0.  phi is a Laurent polynomial in s = K l, K an integer basis of
    the kernel of the active normals (b - b0 lies in it), its exponents the
    integer coordinates of b - b0 over K; grad_l phi = K^T grad_s phi, so
    its critical points are those in s.  A face's FACE_STARTS starts l0
    (Re log x uniform in [-2, 2], Im log x in [-pi, pi]) are mapped to
    s0 = K l0 and Newton-solved as one batch; the face is degenerate iff a
    converged row's critical value is below TOL_FACE times its term scale.
    A probabilistic certificate: a critical point no start reaches is
    missed."""
    if rng is None:
        rng = np.random.default_rng(1)
    if not F.count_bound()[1]:
        raise ValueError("Newton polytope must contain 0 in its interior")
    facets = F._bound[0][2]         # conv(supp F)'s, from the bound
    report = []
    ok = True
    for face in polytope_proper_faces(F.B_int, facets):
        idx = list(face)
        if len(idx) == 1:
            # monomial face: x dF has constant nonzero coefficient
            report.append({"face": idx, "degenerate": False, "budget": 0})
            continue
        K = integer_kernel([primitive(a) for a, _, act in facets
                            if set(idx) <= set(act)])
        KT, b0 = transpose(K), F.B_int[idx[0]]
        phi = LGPotential([solve(KT, vsub(F.B_int[i], b0)) for i in idx],
                          F.c[idx])
        u = rng.uniform(_FACE_LOW, _FACE_HIGH, (FACE_STARTS, 2, F.n))
        S0 = (u[:, 0] + 1j * u[:, 1]) @ np.array(KT, dtype=float)
        hit = any(abs(np.sum(t)) < TOL_FACE * _term_scale(phi, t)
                  for _, t in filter(None, _newton_solve(
                      phi, S0, phi.coefficient_rows([()] * FACE_STARTS))))
        report.append({"face": idx, "degenerate": hit,
                       "budget": FACE_STARTS})
        ok = ok and not hit
    return ok, report


# ---------------------------------------------------------------------------
# tracking


TrackedPoint = namedtuple("TrackedPoint", "log_point value component")


class _Branch(Sequence):
    """Branch b of a trajectory over its stored steps, read-only: item k is
    a `TrackedPoint` built from the step-k arrays."""

    def __init__(self, traj, b):
        self._traj, self._b = traj, b

    def __len__(self):
        return len(self._traj.values)

    def __getitem__(self, k):
        t, b = self._traj, self._b
        k = operator.index(k)
        return TrackedPoint(t.log_points[k][b], t.values[k][b].item(),
                            t.components[b])


class Trajectory:
    """Matched critical-value branches along a parameter path, one array
    pair per step.

    log_points[k] is the (branches, n) complex array of the canonical log
    points of every branch at step k, values[k] the (branches,) complex
    array of their critical values, and components[b] the fibre component
    of branch b, which it keeps along the whole path.  branches[b][k] reads
    branch b at step k from those arrays as a `TrackedPoint` (`.log_point`,
    `.value` as a Python complex, `.component`); it is a view, never
    stored."""

    def __init__(self, params, log_points, values, components, events,
                 family=None):
        self.params = list(params)
        self.log_points = list(log_points)
        self.values = list(values)
        self.components = list(components)
        self.events = list(events)    # list of dicts
        self.family = family

    @property
    def nbranches(self):
        return len(self.components)

    @property
    def branches(self):
        return [_Branch(self, b) for b in range(self.nbranches)]

    def values_at_step(self, k):
        return self.values[k].tolist()

    def resolve(self, rows):
        """Critical values at intermediate parameters, one per row
        (param, near_step, branch): that branch Newton-solved at param, on
        its own fibre component, from its point at the stored step
        near_step.  None for a row whose solve fails; no other branch is
        touched.

        All rows are one `_newton_solve` stack, whatever their parameters:
        the family's potentials share one layout (exponents, chi, torsion
        data) and differ only in their coefficients, so each row carries
        its own potential's coefficient row.  A row's value is its one-row
        solve's bit for bit, so mutation refinement bisects every crossing
        of a trajectory in lockstep, one call per bisection level."""
        if not rows:
            return []
        fam = {p: self.family(p) for p in dict.fromkeys(r[0] for r in rows)}
        F = fam[rows[0][0]]
        C = np.array([fam[p].coefficients_on(self.components[b])
                      for p, _, b in rows],
                     dtype=complex).reshape(len(rows), F.nterms)
        sols = _newton_solve(F, [self.log_points[k][b] for _, k, b in rows],
                             C)
        done = [r for r, sol in enumerate(sols) if sol is not None]
        out = [None] * len(rows)
        if done:        # values read only chi, which the family shares
            L, T = (np.array([sols[r][x] for r in done]) for x in (0, 1))
            for r, v in zip(done, F.value(L, terms=T).tolist()):
                out[r] = v
        return out


def track_critical_values(family, params, rng=None):
    """Predictor-corrector continuation of every critical branch of the
    family along the parameter list.

    family: callable param -> LGPotential with a fixed exponent layout.
    Each step solves every branch from its linear prediction P + (P - PP),
    P and PP the log points of the two steps before, as one lockstep stack
    and stores the step's log points and values as two arrays
    (`Trajectory`).  Collision events (two values on one fibre component
    approaching within TOL_COLLIDE * scale) are localized by golden-section
    on the distance of the colliding pair, its probes solved in lockstep a
    few moves ahead (`_locate_collision`), and logged with the refined
    parameter.  A failed step is halved at most 12 times before the branch
    counts as lost.
    """
    if len(params) < 2:
        raise ValueError("need at least two path parameters")
    F0 = family(params[0])
    pts = critical_points(F0, rng=rng)
    comps = [p.component for p in pts]
    L0, V0 = _step_arrays(pts, F0.n)
    traj = Trajectory(params, [L0], [V0], comps, [], family)
    events = traj.events
    # a branch keeps its fibre component (re-matching too), so the pairs
    # that share one are found once
    pi, pj = _same_pairs(comps)

    def advance(Fk, P, PP):
        # every branch from its linear prediction, then the failed ones (if
        # any) again from their previous points; the first failing both is
        # reported
        C = Fk.coefficient_rows(comps)
        sols = _newton_solve(Fk, P if PP is None else P + (P - PP), C)
        retry = [i for i, sol in enumerate(sols) if sol is None]
        for i, sol in zip(retry, retry and _newton_solve(Fk, P[retry],
                                                         C[retry])):
            if sol is None:
                return None, i
            sols[i] = sol
        L = np.array([l for l, _ in sols]).reshape(len(sols), Fk.n)
        T = np.array([t for _, t in sols]).reshape(len(sols), Fk.nterms)
        return (_canonical_log(L), Fk.value(L, terms=T)), None

    def advance_adaptive(a, b, cur, prev_prev, depth):
        nxt, failed = advance(family(b), cur, prev_prev)
        if nxt is not None:
            return nxt, cur
        if depth >= 12:
            raise errors.LostBranch(
                f"Newton failed for branch {failed} near parameter {b}")
        mid = a + (b - a) * 0.5
        (m1, _), pp = advance_adaptive(a, mid, cur, prev_prev, depth + 1)
        return advance_adaptive(mid, b, m1, pp, depth + 1)

    prev_prev = None
    pending_from = None
    last = len(params) - 2
    for k in range(last + 1):
        s0, s1 = params[k], params[k + 1]
        P = traj.log_points[-1]
        (L, V), prev_prev = advance_adaptive(s0, s1, P, prev_prev, 0)
        # two branches of one fibre component landing on one sheet, within
        # 1e-8 in wrapped log distance (monodromy past a collision):
        # re-solve the fibre and re-match greedily
        if (_pair_gaps(L, pi, pj) < 1e-8).any():
            L, V = _rematch(family(s1), P, comps, rng)
            if L is None:
                raise errors.LostBranch(
                    f"branches merged at parameter {s1} and re-matching failed")
            events.append({"step": k, "kind": "branch_lost",
                           "param": _pnum(s1)})
        traj.log_points.append(L)
        traj.values.append(V)
        # |u| and |u_i - u_j| by hypot, the bits of Python's abs(complex)
        scale = np.hypot(V.real, V.imag).max(initial=1.0)
        D = V[pi] - V[pj]
        vd = np.hypot(D.real, D.imag).min(initial=math.inf)
        if vd < TOL_COLLIDE * scale and pending_from is None:
            pending_from = k      # entered the collision neighbourhood
        # left it, or the path ends inside it (entered on the last step too)
        if pending_from is not None and (vd > 2 * TOL_COLLIDE * scale
                                         or k == last):
            sstar = _locate_collision(traj, pending_from, k + 1)
            events.append({"step": pending_from,
                           "kind": "collision_near_discriminant",
                           "param": _pnum(sstar)})
            pending_from = None
    return traj


def _step_arrays(pts, n):
    """The log points (k, n) and values (k,) of `critical_points` data."""
    return (np.array([p.log_point for p in pts], dtype=complex).reshape(
        len(pts), n), np.array([p.value for p in pts], dtype=complex))


def _same_pairs(components):
    """(i, j) over the pairs i < j of the labels on one fibre component, in
    the order of `itertools.combinations`."""
    i, j = np.triu_indices(len(components), 1)
    ids = {}
    code = np.array([ids.setdefault(c, len(ids)) for c in components], int)
    same = code[i] == code[j]
    return i[same], j[same]


def _pair_gaps(P, i, j):
    """Wrapped log distance of each pair (i, j) of the rows of the (k, n)
    log point stack P, all at once."""
    return _row_norms(_canonical_log(P[i] - P[j]))


def _pnum(s):
    s = complex(s)
    return s.real if s.imag == 0 else s


def _rematch(F, P, comps, rng):
    """Full fibre solve and greedy nearest-neighbour assignment to the
    previous step's log points P, branch b on fibre component comps[b]
    (used when monodromy merges tracked branches): the matched points' log
    points and values in branch order, or (None, None)."""
    nbranches = len(comps)
    try:
        pts = critical_points(F, rng=rng, expected=nbranches)
    except errors.IncompleteCount:
        return None, None
    pairs = sorted((np.linalg.norm(_canonical_log(p - q.log_point)), i, j)
                   for i, (p, c) in enumerate(zip(P, comps))
                   for j, q in enumerate(pts) if c == q.component)
    assign = {}             # nearest pairs first, each branch and point once
    for _, i, j in pairs:
        if i not in assign and j not in assign.values():
            assign[i] = j
    if len(assign) < nbranches:
        return None, None
    return _step_arrays([pts[assign[i]] for i in range(nbranches)], F.n)


def _locate_collision(traj, k_enter, k_exit):
    """Golden-section localization of the collision parameter of the
    trajectory between steps k_enter (separation dipped below threshold)
    and k_exit (separation rose again).

    The colliding pair is the pair of one fibre component with the closest
    values at step k_enter + 1 (the first such pair).  Its separation phi
    is re-evaluated by Newton from seeds on BOTH sides (left seeds are only
    valid below the discriminant and vice versa, so the maximum of the two
    distances is V-shaped with minimum at the collision).

    The search runs in lockstep.  Golden section takes each move from one
    comparison, so the next COLLISION_LOOKAHEAD moves can probe only
    2^COLLISION_LOOKAHEAD - 1 points: all of them are solved as one
    `_newton_solve` stack, four seed rows per parameter, each row with its
    own potential's coefficients, and the search then walks its real path
    through the solved points.  A row's result does not depend on its
    batch, so the walk, and the parameter returned, are the one-point-at-a-
    time search's bit for bit (tests/collision_oracle.py keeps it)."""
    family, params = traj.family, traj.params
    k0 = max(k_enter - 1, 0)
    lo = params[k0]
    hi = params[k_exit]
    pi, pj = _same_pairs(traj.components)
    V = traj.values[min(k_enter + 1, k_exit)]
    D = V[pi] - V[pj]
    c = int(np.hypot(D.real, D.imag).argmin())
    ij = [int(pi[c]), int(pj[c])]

    # the pair from both sides' seeds, solved together
    seeds = np.concatenate((traj.log_points[k0][ij],
                            traj.log_points[k_exit][ij]))
    comps = [traj.components[b] for b in ij] * 2
    solved = {}             # golden-section coordinate -> the seeds' solves
    phis = {}

    def dist(si, sj):
        if si is None or sj is None:
            return math.inf
        return float(np.linalg.norm(_canonical_log(
            _canonical_log(si[0]) - _canonical_log(sj[0]))))

    def phi(t):
        if t not in phis:
            li, lj, ri, rj = solved[t]
            phis[t] = max(dist(li, lj), dist(ri, rj))
        return phis[t]

    def solve(ts):
        Fs = [family(at(t)) for t in ts]
        sols = _newton_solve(
            Fs[0], np.tile(seeds, (len(ts), 1)),
            np.concatenate([F.coefficient_rows(comps) for F in Fs]),
            tol=1e-10)
        for r, t in enumerate(ts):
            solved[t] = sols[4 * r:4 * r + 4]

    invphi = (math.sqrt(5) - 1) / 2

    def at(t):
        return lo + (hi - lo) * t

    # a state (a, b, c, d, moves): the bracket, its two probes, and the
    # moves made; it compares phi(c) with phi(d) unless the search is over
    def live(state):
        a, b, _, _, m = state
        return m == 0 or m < 80 and not abs(b - a) * abs(hi - lo) < 1e-10

    def move(state, left):
        a, b, c, d, m = state
        if left:                # phi(c) < phi(d)
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
        return a, b, c, d, m + 1

    def reachable(state):
        # the live states one move on: both branches of a comparison whose
        # probes are not solved yet
        _, _, c, d, _ = state
        lefts = ((phi(c) < phi(d),) if c in solved and d in solved
                 else (True, False))
        return [s for s in (move(state, left) for left in lefts) if live(s)]

    def lookahead(state):
        # the unsolved probes of the states the next moves can reach, level
        # by level, while they fit in one stack of 2^K - 1 parameters (the
        # first level always: the opening state needs both its probes)
        ts, level = {}, [state]
        while level:
            need = dict.fromkeys(t for s in level for t in s[2:4]
                                 if t not in solved and t not in ts)
            if ts and len(ts) + len(need) > 2 ** COLLISION_LOOKAHEAD - 1:
                break
            ts.update(need)
            level = [nxt for s in level for nxt in reachable(s)]
        return list(ts)

    state = (0.0, 1.0, 1.0 - invphi, invphi, 0)
    while live(state):
        if state[2] not in solved or state[3] not in solved:
            solve(lookahead(state))
        state = move(state, phi(state[2]) < phi(state[3]))
    return at((state[0] + state[1]) / 2)
