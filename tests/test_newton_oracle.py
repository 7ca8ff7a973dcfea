"""The lockstep Newton of `lg` against the one-start solve it replaced
(`tests/newton_oracle.py`): every row's result, the terms it returns and
the multistart search's generator, bit for bit."""
import cmath
import math

import numpy as np
import pytest

from toriclg import errors, lg
from toriclg.families import (bl_line_p4_family_lambda, bl_line_p4_potential,
                              blowup_c2_potential, cyclic_orbifold_potential,
                              cyclic_resolution_potential, pn_mirror)
from toriclg.lg import LGPotential

import newton_oracle as oracle

FAMILIES = ([pn_mirror(n, 1.3 - 0.4j) for n in (1, 2, 3, 4)]
            + [bl_line_p4_potential(0.8 + 0.1j, 1.2 - 0.3j)]
            + [cyclic_orbifold_potential(d, 1.1) for d in (3, 4, 5)]
            + [cyclic_resolution_potential(d, 0.7) for d in (3, 4, 5)]
            + [blowup_c2_potential(0.8)])

TORSION = LGPotential([(1, 0), (0, 1), (-1, -1)], [1.0, 1.0, 0.9 + 0.2j],
                      torsion_parts=[(0,), (1,), (2,)],
                      torsion_invariants=(3,))


def _starts(rng, n, k):
    return rng.uniform(-2.5, 2.5, (k, n)) + 1j * rng.uniform(-3, 3, (k, n))


def _check_rows(F, L0, comps, tol=lg.TOL_NEWTON):
    """Solve the rows as one stack and each alone with the oracle; every
    row's point, terms, value and Hessian must match bit for bit.  Returns
    how many rows converged."""
    sols = lg._newton_solve(F, L0, F.coefficient_rows(comps), tol=tol)
    assert len(sols) == len(comps)
    for l0, c, sol in zip(L0, comps, sols):
        want = oracle.newton_solve(F, l0, c, tol)
        if want is None:
            assert sol is None
            continue
        l, t = sol
        assert l.tobytes() == want.tobytes()
        t_want = oracle.terms(F, want, c)
        assert t.tobytes() == t_want.tobytes()
        assert F.value(l, c, t) == oracle.value(F, want, c)
        assert F.hess(l, c, t).tobytes() == oracle.hess(F, t_want).tobytes()
    return sum(sol is not None for sol in sols)


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: str(F.B_int))
def test_rows_match_one_start_solves(F):
    rng = np.random.default_rng(F.nterms * 10 + F.n)
    L0 = _starts(rng, F.n, 24)
    L0[3] += 40.0                   # far out: the terms overflow
    L0[5] -= 25.0                   # drifts to toric infinity
    L0[7, 0] = np.nan
    L0[9, -1] = complex(np.inf, 0)
    converged = _check_rows(F, L0, [()] * len(L0))
    assert 0 < converged < len(L0)


def test_rows_on_several_torsion_components():
    F = TORSION
    rng = np.random.default_rng(2)
    comps = [(i % 3,) for i in range(18)]
    assert _check_rows(F, _starts(rng, 2, 18), comps) > 0


def test_rows_with_chi_and_a_looser_tolerance():
    F = LGPotential([(1, 0), (0, 1), (-1, -1)], [1.0, 1.0, 1.3],
                    chi=[0.3, -0.2j])
    rng = np.random.default_rng(3)
    for tol in (lg.TOL_NEWTON, 1e-10):
        assert _check_rows(F, _starts(rng, 2, 16), [()] * 16, tol) > 0
    G = LGPotential([(1,), (2,)], [1, 1], chi=[1])
    assert _check_rows(G, _starts(rng, 1, 12), [()] * 12, 1e-10) > 0


def test_singular_hessian_fails_only_its_row():
    # F = x - x^2/2 has Hessian x - 2 x^2 in log coordinates, exactly 0 at
    # x = 1/2, where the gradient is 1/4
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    at = np.array([math.log(0.5)], complex)
    assert not np.any(F.hess(at)) and np.all(F.grad(at))
    L0 = np.array([[0.1 + 0.05j], at, [-0.1j], at])
    assert oracle.newton_solve(F, at) is None
    assert _check_rows(F, L0, [()] * 4) == 2


def _first_halvings(F, l0, cap=60):
    """The halvings the one-start solve's first line search from l0 makes
    before it accepts a step, counted on past the solver's cap up to `cap`
    (None beyond), whether its full-step trial norm is finite, and whether
    the one-start solve from the accepted point converges."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = oracle.terms(F, l0)
        g = t @ F.B - F.chi
        gn = np.linalg.norm(g)
        dl = np.linalg.solve(oracle.hess(F, t), -g)
        finite = None
        for h in range(cap + 1):
            l1 = l0 + 0.5 ** h * dl
            t2 = oracle.terms(F, l1)
            g2n = np.linalg.norm(t2 @ F.B - F.chi)
            if finite is None:
                finite = bool(np.isfinite(g2n))
            if np.isfinite(g2n) and (
                    g2n < (1 - 0.25 * 0.5 ** h) * gn
                    or g2n < lg.TOL_NEWTON * oracle.term_scale(F, t2)):
                return h, finite, oracle.newton_solve(F, l1) is not None
    return None, finite, False


def test_mixed_line_search_stack_matches_one_start_solves():
    # near the fold x = 1/2 of F = x - x^2/2 (see above) the Newton step
    # is long, and the closer the start, the more halvings its first line
    # search makes.  One start per class (halvings, finite full-step trial
    # norm, converges from the accepted point) makes one stack whose rows
    # leave the lockstep halvings at every level: the full step, both sides
    # of the first chunk boundary (HALVING_LOOKAHEAD), the cap of 49, and
    # one past it, so the row fails.  A (cap, ., True) row converges, and
    # a (cap + 1, ., True) row would with one more halving, so a cap of 48
    # or 50 shows.  A row of a False class backtracks from a full step
    # whose trial norm is nan or inf
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    fold = math.log(0.5)
    starts = {}
    for e in np.geomspace(1e-9, 0.5, 150):
        for d in (1, -1, 1j, cmath.exp(1j * math.pi / 3),
                  cmath.exp(7j * math.pi / 24)):
            l0 = np.array([fold + d * e])
            starts.setdefault(_first_halvings(F, l0), l0)
    k, cap = lg.HALVING_LOOKAHEAD, 49     # the one-start solve's cap
    classes = set(starts)
    assert {(0, True), (k, True), (k + 1, True), (cap + 1, True),
            (cap + 1, False)} <= {c[:2] for c in classes}
    assert {(cap, False, True), (cap + 1, False, True)} <= classes
    assert oracle.newton_solve(F, starts[cap + 1, False, True]) is None
    assert oracle.newton_solve(F, starts[cap, False, True]) is not None
    L0 = np.array(list(starts.values()))
    assert _check_rows(F, L0, [()] * len(L0)) > 0


def test_full_step_trial_is_the_unit_step_trial():
    # `_newton_solve` tries the full step as t=None: l + dl against
    # 0.75 gn, which must be the t = 1 trial bit for bit.  Starts near the
    # fold of x - x^2/2 give accepted and rejected full steps and trial
    # norms that are nan (the terms overflow to inf - inf) or inf (finite
    # gradient entries whose squares overflow)
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    fold = math.log(0.5)
    L = np.array([[fold + d * e] for e in np.geomspace(1e-8, 0.5, 150)
                  for d in (1, -1, 1j, cmath.exp(1j * math.pi / 3))])
    C = F.coefficient_rows([()] * len(L))
    with np.errstate(over="ignore", invalid="ignore"):
        T = lg._terms(F, L, C)
        G = F.grad(L, terms=T)
        gn = lg._row_norms(G)
        dL, ok = lg._solve(F.hess(L, terms=T), -G[:, :, None])
        dL = dL[:, :, 0]
        full = lg._line_trial(F, L, dL, None, gn, C, lg.TOL_NEWTON)
        unit = lg._line_trial(F, L, dL, np.ones(len(L)), gn, C,
                              lg.TOL_NEWTON)
    assert ok and np.isfinite(gn).all() and np.isfinite(dL).all()
    acc, gp = full[0], full[1][3]
    assert acc.any() and (~acc & np.isfinite(gp)).any()
    assert np.isnan(gp).any() and np.isinf(gp).any()
    assert acc.tobytes() == unit[0].tobytes()
    for x, y in zip(full[1], unit[1]):
        assert x.tobytes() == y.tobytes()


def test_underflowed_gradient_is_no_zero():
    # from just off the fold of x - x^2/2 with no search box the solve
    # walks to x ~ 1e-180, where the gradient x - x^2 is as large as the
    # term scale, 4.7e-180: its squared norm underflows to 0, and the row
    # used to pass as converged at l ~ -412.9 + 4.1e8 i.  It fails now, in
    # the stack and in the one-start solve, while an exactly zero gradient
    # (x = 1, l = 0) still converges
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    L0 = np.array([[math.log(0.5) + 2.92e-8j], [0j]])
    sols = lg._newton_solve(F, L0, F.coefficient_rows([()] * 2))
    assert sols[0] is None
    assert sols[1][0].tobytes() == L0[1].tobytes()
    assert _check_rows(F, L0, [()] * 2) == 1
    assert not lg._small_gradient(np.array([-1.6e-180 + 4.4e-180j]),
                                  lg.TOL_NEWTON * 4.7e-180)
    assert lg._small_gradient(np.array([3e-200, -4e-200j]), 1e-192)
    assert lg._small_gradient(np.zeros(2, complex), 1e-312)


def test_all_zero_terms_are_no_zero():
    # from just off the fold of x - x^2/2 the solve walks out to
    # l ~ -1582 + 5.6e8 i, where both terms underflow to exactly 0: the
    # gradient is exactly 0 against the clamped term scale, and the row used
    # to pass as converged, with or without the search box.  It is retired
    # now, in the stack and in the one-start solve
    F = LGPotential([(1,), (2,)], [1.0, -0.5])
    L0 = np.array([[math.log(0.5) + 4.17e-8j]])
    C = F.coefficient_rows([()])
    assert lg._newton_solve(F, L0, C) == [None]
    assert lg._newton_solve(F, L0, C, box=lg.SEARCH_BOX) == [None]
    assert oracle.newton_solve(F, L0[0]) is None
    assert _check_rows(F, L0, [()]) == 0


# charts where 0 is not interior to the Newton polytope: most starts drift
# to toric infinity
DRIFTING = {**{f"cyclic-d{d}-{t}": cyclic_orbifold_potential(d, t)
               for d in (3, 4, 5) for t in (0.8, 1.1 - 0.2j, 1.4)},
            **{f"blowup-c2-{t}": blowup_c2_potential(t)
               for t in (0.7, 1.0, 1.3 + 0.1j)}}


@pytest.mark.parametrize("i, name", enumerate(DRIFTING),
                         ids=list(DRIFTING))
def test_box_keeps_every_row_that_converges_inside_it(i, name, monkeypatch):
    # every row the uncapped solve converges inside the search box converges
    # to the same bits with the box; the box only retires drifting rows,
    # which cuts the lockstep passes from 100 to a few dozen
    F = DRIFTING[name]
    u = np.random.default_rng(i).uniform(lg._START_LOW, lg._START_HIGH,
                                         (150, 2, F.n))
    L0 = u[:, 0] + 1j * u[:, 1]
    passes, solve = [], lg._solve

    def counted(H, X):
        passes[-1] += 1
        return solve(H, X)
    monkeypatch.setattr(lg, "_solve", counted)
    sols = []
    for box in (None, lg.SEARCH_BOX):
        passes.append(0)
        sols.append(lg._newton_solve(F, L0, F.coefficient_rows([()] * len(L0)),
                                    box=box))
    inside = 0
    for free, capped in zip(*sols):
        if capped is not None:
            assert capped[0].tobytes() == free[0].tobytes()
            assert capped[1].tobytes() == free[1].tobytes()
            inside += 1
        elif free is not None:      # only a point outside the box is lost
            assert np.abs(free[0].real).max() > lg.SEARCH_BOX
    assert inside > 0
    assert passes[0] == 100 and passes[1] < 40


def test_empty_stack():
    F = pn_mirror(2, 1.0)
    assert lg._newton_solve(F, np.empty((0, 2)), F.coefficient_rows([])) == []


def _search(module, F, seed, **kw):
    """Points (bytes), values and the next draw after a search, or the
    error it raised."""
    rng = np.random.default_rng(seed)
    try:
        pts = module.critical_points(F, rng=rng, **kw)
        out = ([p.log_point.tobytes() for p in pts], [p.value for p in pts])
    except errors.IncompleteCount as exc:
        out = type(exc).__name__
    return out, rng.bit_generator.state


@pytest.mark.parametrize("F, kw, raises", [
    # certified stop at the Kouchnirenko count
    (bl_line_p4_family_lambda()(2.0), {}, False),
    # a point with a small basin: a tail of 134 and 217 tries
    (bl_line_p4_family_lambda()(0.001), {}, False),
    # three fibre components searched in turn, then certified
    (TORSION, {}, False),
    # inexact bound: the floor stop, its drifting rows retired at the box
    (cyclic_orbifold_potential(3, 1.1), {}, False),
    (cyclic_orbifold_potential(4, 0.85), {}, False),
    (cyclic_orbifold_potential(4, 1.2 + 0.1j), {}, False),
    (cyclic_orbifold_potential(5, 0.9), {}, False),
    (cyclic_orbifold_potential(5, 1.15 - 0.2j), {}, False),
    (blowup_c2_potential(0.85), {}, False),
    (blowup_c2_potential(1.2), {}, False),
    # every converged start counts: the over-count
    (blowup_c2_potential(0.8), {"dedupe_tol": 0.0}, True),
    # fewer points than asked for: the whole budget
    (cyclic_orbifold_potential(4, 0.9),
     {"expected": 3, "budget_factor": 8}, True),
], ids=["certified", "long-tail", "torsion", "floor", "floor-d4-a",
        "floor-d4-b", "floor-d5-a", "floor-d5-b", "floor-blowup-a",
        "floor-blowup-b", "over-count", "incomplete"])
def test_search_draws_as_one_start_at_a_time(F, kw, raises):
    for seed in (0, 5):
        got = _search(lg, F, seed, **kw)
        assert got == _search(oracle, F, seed, **kw)
        assert (got[0] == "IncompleteCount") == raises


def test_uncertified_exact_search_draws_as_one_start_at_a_time(monkeypatch):
    F = bl_line_p4_family_lambda()(2.0)
    monkeypatch.setattr(lg, "_alpha_certified", lambda F, points: False)
    monkeypatch.setattr(oracle, "_alpha_certified", lambda F, points: False)
    assert _search(lg, F, 0) == _search(oracle, F, 0)


def test_long_tail_search_makes_few_lockstep_calls(monkeypatch):
    # one start at a time this search makes 142 tries.  Its first batch
    # draws 4 starts per point missing (36), each later one at least
    # MIN_BATCH = 32, doubling from 4 per point missing: 5 lockstep solves,
    # one per batch.  Batches of twice the points missing made 51, and
    # doubling them from the second batch on without a minimum 7
    # (18, 6, 12, 24, 16, 32, 64)
    F = bl_line_p4_family_lambda()(0.005)
    tries, batches = [], []
    one, stacked = oracle.newton_solve, lg._newton_solve

    def one_start(F, l0, component):
        tries.append(1)
        return one(F, l0, component)

    def batch(F, L0, C, **kw):
        batches.append(len(C))
        return stacked(F, L0, C, **kw)
    monkeypatch.setattr(oracle, "newton_solve", one_start)
    monkeypatch.setattr(lg, "_newton_solve", batch)
    assert _search(lg, F, 5) == _search(oracle, F, 5)
    assert len(tries) > 100 and batches == [36, 32, 32, 32, 32]


def test_long_tail_search_backtracks_in_few_stacks(monkeypatch):
    # each Newton pass makes one full-step trial and one gradient solve;
    # the trials past those are the backtracking stacks.  With batches of
    # at least MIN_BATCH starts after the first (see above) the search
    # makes 64 passes and backtracks HALVING_LOOKAHEAD = 3 levels at a
    # time in 53 stacks.  Its 7 batches without the minimum made 88 passes
    # and 67 stacks, and halving one level at a time, 150
    F = bl_line_p4_family_lambda()(0.005)
    trials, passes = [], []
    trial, solve = lg._line_trial, lg._solve

    def counted_trial(*args):
        trials.append(1)
        return trial(*args)

    def counted_solve(H, X):
        if X.shape[-1] == 1:        # a Newton step, not an alpha-test inverse
            passes.append(1)
        return solve(H, X)
    monkeypatch.setattr(lg, "_line_trial", counted_trial)
    monkeypatch.setattr(lg, "_solve", counted_solve)
    assert len(lg.critical_points(F, rng=np.random.default_rng(5))) == 9
    assert len(passes) == 64
    assert len(trials) - len(passes) <= 55
