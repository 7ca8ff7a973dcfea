import cmath
import math
import os
import sys

import numpy as np
import pytest

from critical_value_oracle import bl_line_p4_oracle_values
from toriclg import errors, lg
from toriclg.families import (bl_line_p4_family_lambda, bl_line_p4_potential,
                              blowup_c2_potential, cyclic_orbifold_potential,
                              cyclic_resolution_potential, pn_mirror)
from toriclg.fans import StackyFan
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.lg import (LGPotential, chart_family, conifold_point,
                        critical_points, curve_critical_values,
                        extraction_parameter, newton_nondegenerate,
                        track_critical_values)
from toriclg.secondary import wall_between

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def sort_vals(vals):
    return sorted(vals, key=lambda v: (-v.imag, v.real))


def test_p2_mirror_critical_points():
    F = pn_mirror(2, 1.0)
    pts = critical_points(F, rng=np.random.default_rng(0))
    assert len(pts) == 3
    vals = sorted((p.value for p in pts), key=lambda v: (v.real, v.imag))
    expected = sorted((3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)),
                      key=lambda v: (v.real, v.imag))
    for a, b in zip(vals, expected):
        assert abs(a - b) < 1e-10


def test_equivariant_shift_p1():
    # x - q/x = chi1: two roots
    q, chi1 = 1.3, 0.7
    F = LGPotential([(1,), (-1,)], [1.0, q], chi=[chi1])
    pts = critical_points(F, expected=2, rng=np.random.default_rng(1))
    assert len(pts) == 2
    for p in pts:
        x = cmath.exp(p.log_point[0])
        assert abs(x - q / x - chi1) < 1e-9


def test_gradient_consistency_finite_differences():
    rng = np.random.default_rng(3)
    F = bl_line_p4_potential(0.8 + 0.1j, 1.2 - 0.3j)
    h = 1e-6
    for _ in range(5):
        l = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        g = F.grad(l)
        H = F.hess(l)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (F.value(l + e) - F.value(l - e)) / (2 * h)
            assert abs(fd - g[i]) / max(1, abs(g[i])) < 1e-6
            gd = (F.grad(l + e) - F.grad(l - e)) / (2 * h)
            for j in range(4):
                assert abs(gd[j] - H[i, j]) / max(1, abs(H[i, j])) < 1e-5


def test_conifold_p4():
    F = pn_mirror(4, 1.0)
    p = conifold_point(F)
    assert np.allclose(p.log_point, 0, atol=1e-10)
    assert abs(p.value - 5) < 1e-10
    assert p.tag == "convergent"


def test_conifold_p1():
    q = 2.7
    F = pn_mirror(1, q)
    p = conifold_point(F)
    assert abs(cmath.exp(p.log_point[0]) - math.sqrt(q)) < 1e-10
    assert abs(p.value - 2 * math.sqrt(q)) < 1e-12
    assert abs(p.log_hessian[0, 0] - 2 * math.sqrt(q)) < 1e-10


def test_conifold_requires_positive_real():
    with pytest.raises(errors.NotPositiveReal):
        conifold_point(pn_mirror(1, -1.0))


def test_conifold_minimality_random():
    rng = np.random.default_rng(7)
    F = pn_mirror(2, 1.7)
    p = conifold_point(F)
    for _ in range(1000):
        l = rng.uniform(-2, 2, 2)
        val = F.value(l.astype(complex)).real
        assert p.value.real <= val + 1e-12
    evals = np.linalg.eigvalsh(p.log_hessian.real)
    assert np.all(evals > 0)


def test_count_law_matches_volume():
    rng = np.random.default_rng(11)
    # P^1: 2, P^2: 3, Example 7.16 chart: 9
    assert len(critical_points(pn_mirror(1, 0.9 + 0.2j), rng=rng)) == 2
    assert len(critical_points(pn_mirror(2, 1.1 - 0.4j), rng=rng)) == 3
    F = bl_line_p4_potential(0.55, 0.8)
    assert F.expected_count() == 9
    assert len(critical_points(F, rng=rng)) == 9


def test_example_716_critical_values_against_oracle():
    fam = bl_line_p4_family_lambda()
    rng = np.random.default_rng(5)
    for lam in (12.5, 0.0009):
        F = fam(lam)
        pts = critical_points(F, rng=rng)
        vals = sort_vals([p.value for p in pts])
        oracle = bl_line_p4_oracle_values(lam)
        assert len(vals) == 9
        for a, b in zip(vals, oracle):
            assert abs(a - b) / abs(b) < 1e-8


def test_incomplete_count_near_discriminant():
    # at the discriminant lambda = 400 sqrt(5) i / 3^9 two points collide;
    # exactly at it the solver cannot find nine distinct points
    lam = 400 * math.sqrt(5) * 1j / 3 ** 9
    fam = bl_line_p4_family_lambda()
    with pytest.raises(errors.IncompleteCount):
        critical_points(fam(lam), rng=np.random.default_rng(2),
                        budget_factor=40)


def test_curve_values_blowup_c2():
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (1, 1)])
    sigma1 = StackyFan(vs, [{0, 1}])
    sigma2 = StackyFan(vs, [{0, 2}, {2, 1}])
    wall = wall_between(sigma2, sigma1)
    for t in (0.7, 2.0, 1.5 - 0.5j):
        vals = curve_critical_values(wall, t)
        assert vals[0] == (0, 1)        # dim H(C^2) = 1
        nonzero = [v for v, m in vals[1:]]
        assert len(nonzero) == 1
        assert abs(nonzero[0] - (-1 / complex(t))) < 1e-12
    # oracle: direct torus solve of x1+x2+t x1 x2
    t = 0.8
    F = blowup_c2_potential(t)
    pts = critical_points(F, expected=1, rng=np.random.default_rng(0))
    assert abs(pts[0].value - (-1 / t)) < 1e-10


def test_curve_values_cyclic_match_direct_solver():
    rng = np.random.default_rng(4)
    for d in (3, 4, 5):
        vs = VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])
        orb = StackyFan(vs, [{0, 1}])
        res = StackyFan(vs, [{0, 2}, {2, 1}])
        wall = wall_between(orb, res)
        assert wall.kind == "extract_divisor"
        # pick the minus-chart coordinate value, convert to the normalized
        # parameter, compare with the direct torus solve
        for qval in (0.9, -1.3, 0.4 + 0.8j):
            tau = extraction_parameter(wall, qval)
            vals = curve_critical_values(wall, tau)
            assert vals[0] == (0, 2)
            nonzero = sort_vals([v for v, m in vals[1:]])
            assert len(nonzero) == d - 2
            F = cyclic_resolution_potential(d, qval)
            pts = critical_points(F, expected=d - 2, rng=rng)
            direct = sort_vals([p.value for p in pts])
            for a, b in zip(nonzero, direct):
                assert abs(a - b) < 1e-8 * max(1, abs(b))


def test_curve_values_never_positive_real():
    vs = VectorSet(AbelianLattice(2), [(0, 1), (3, -1), (1, 0)])
    orb = StackyFan(vs, [{0, 1}])
    res = StackyFan(vs, [{0, 2}, {2, 1}])
    wall = wall_between(orb, res)
    for t in (0.3, 1.0, 7.5):
        for v, m in curve_critical_values(wall, t):
            if v != 0:
                assert not (abs(v.imag) < 1e-12 and v.real > 0)


def test_a1_curve_has_only_zero_branch():
    # crepant A1: generic t has no torus critical points; the relative
    # critical scheme is the 0-branch alone
    F = cyclic_orbifold_potential(2, 0.73)
    pts = critical_points(F, expected=None, rng=np.random.default_rng(0),
                          budget_factor=60)
    assert len(pts) == 0


def test_count_bound():
    assert blowup_c2_potential(0.8).count_bound() == (1, False)
    for d in (3, 4, 5):
        assert cyclic_orbifold_potential(d, 1.1).count_bound() == (d - 2, False)
    assert cyclic_orbifold_potential(2, 0.73).count_bound() == (0, False)
    assert bl_line_p4_potential(0.8, 1.1).count_bound() == (9, True)
    # chi != 0 adds the origin: conv{0, 1, 2} has volume 2
    F = LGPotential([(1,), (2,)], [1, 1], chi=[1])
    assert F.count_bound() == (2, False)
    assert len(critical_points(F, rng=np.random.default_rng(0))) == 2


def test_over_count_raises():
    # without deduplication every converged start counts as a new point
    with pytest.raises(errors.IncompleteCount, match="found .* bound 1"):
        critical_points(blowup_c2_potential(0.8), dedupe_tol=0.0)


def _count_rows(monkeypatch):
    """Patch `lg._newton_solve` to record how many starts (rows) each call
    solves; returns the list of row counts."""
    rows = []
    solve = lg._newton_solve

    def counted(F, L0, C, *args, **kwargs):
        rows.append(len(C))
        return solve(F, L0, C, *args, **kwargs)
    monkeypatch.setattr(lg, "_newton_solve", counted)
    return rows


def test_tracking_solves_no_empty_stack(monkeypatch, tmp_path):
    # a tracking step retries only the rows that failed, and skips the
    # retry solve when none did
    from toriclg.cli import main
    rows = _count_rows(monkeypatch)
    rc = main(["track", "--scenario", os.path.join(SCN, "bl-line-p4.json"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert rows and 0 not in rows


def test_tracking_step_builds_no_hessian(monkeypatch, tmp_path):
    # a tracked step keeps its log points and values as two arrays: the
    # only Hessians and CriticalDatum stacks of a `track` run are Newton's
    # and the multistart search's, at step 0 and at the one re-match that
    # discriminant-probe reaches (so the re-match path stays covered)
    from toriclg.cli import main
    inside = {lg._newton_solve.__code__, lg.critical_points.__code__}
    calls = {"hess": [0, 0], "stack": [0, 0], "_rematch": 0}

    def count(name):
        f = sys._getframe()
        while f is not None and f.f_code not in inside:
            f = f.f_back
        calls[name][f is None] += 1

    hess, stack, rematch = (lg.LGPotential.hess,
                            lg.CriticalDatum.stack.__func__, lg._rematch)

    def counted_hess(self, *args, **kwargs):
        count("hess")
        return hess(self, *args, **kwargs)

    def counted_stack(cls, *args):
        count("stack")
        return stack(cls, *args)

    def counted_rematch(*args):
        calls["_rematch"] += 1
        matched.append(rematch(*args))
        return matched[-1]

    matched = []

    made = []

    class Recorded(lg.Trajectory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(lg.LGPotential, "hess", counted_hess)
    monkeypatch.setattr(lg.CriticalDatum, "stack", classmethod(counted_stack))
    monkeypatch.setattr(lg, "_rematch", counted_rematch)
    monkeypatch.setattr(lg, "Trajectory", Recorded)
    rc = main(["track", "--scenario",
               os.path.join(SCN, "discriminant-probe.json"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert calls["_rematch"] == 1
    assert calls["hess"][1] == calls["stack"][1] == 0
    assert calls["hess"][0] > 0 and calls["stack"][0] > 0
    traj, = made
    rematched = {e["step"] + 1 for e in traj.events
                 if e["kind"] == "branch_lost"}
    assert len(rematched) == 1
    # one complex array of log points and one of values per step, the
    # re-matched step's those `_rematch` returned
    shape = (traj.nbranches, traj.family(traj.params[0]).n)
    assert len(traj.log_points) == len(traj.values) == len(traj.params)
    for L, V in zip(traj.log_points, traj.values):
        assert type(L) is type(V) is np.ndarray
        assert L.dtype == V.dtype == complex
        assert L.shape == shape and V.shape == shape[:1]
    k, = rematched
    assert matched[0][0] is traj.log_points[k]
    assert matched[0][1] is traj.values[k]
    assert all(type(p) is lg.TrackedPoint for br in traj.branches for p in br)


def test_search_stops_at_count_bound(monkeypatch):
    rows = _count_rows(monkeypatch)
    pts = critical_points(cyclic_orbifold_potential(4, 1.0),
                          rng=np.random.default_rng(0))
    assert len(pts) == 2 and sum(rows) <= 400
    rows.clear()
    assert critical_points(cyclic_orbifold_potential(2, 0.73)) == []
    assert rows == []


def test_batched_dedupe_is_rows_times_found():
    # critical_points' record on a floor-size batch: the 181 starts of
    # bl_line_p4 at lambda = 2 (budget 1800, floor 180), all converged.  It
    # keeps the rows a one-at-a-time record keeps, and compares them with
    # the points found before as one rows x found matrix, never rows x
    # rows: its traced peak stays below the size of one rows^2 stack of
    # points, which a pairwise matrix alone would reach
    import tracemalloc
    F = bl_line_p4_family_lambda()(2.0)
    found = np.array([p.log_point for p in critical_points(
        F, rng=np.random.default_rng(0))])
    u = np.random.default_rng(1).uniform(lg._START_LOW, lg._START_HIGH,
                                         (181, 2, F.n))
    sols = lg._newton_solve(F, u[:, 0] + 1j * u[:, 1],
                            F.coefficient_rows([()] * 181), box=lg.SEARCH_BOX)
    L = lg._canonical_log(np.array([s[0] for s in sols if s is not None]))
    assert len(L) >= 180
    for near in (found, found[:0]):
        want, seen = [], list(near)
        for r, l in enumerate(L):
            if not (seen and np.any(lg._row_norms(
                    lg._canonical_log(np.array(seen) - l)) < 1e-5)):
                want.append(r)
                seen.append(l)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kept = lg._new_points(L, near, 1e-5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept == want and len(kept) == 9 - len(near)
        assert peak < len(L) ** 2 * F.n * L.itemsize


def test_alpha_certificate_passes_on_found_points():
    for F in (pn_mirror(2, 1.0), bl_line_p4_family_lambda()(2.0)):
        pts = critical_points(F, rng=np.random.default_rng(0))
        assert len(pts) == F.expected_count()
        for p in pts:
            [alpha], [beta] = lg._alpha_beta(F, [p.log_point], [p.component])
            assert alpha < lg.ALPHA_MAX and beta < 1e-10
        assert lg._alpha_certified(F, pts)


def test_alpha_certificate_fails_off_zeros_and_on_duplicates():
    F = bl_line_p4_family_lambda()(2.0)
    pts = critical_points(F, rng=np.random.default_rng(0))
    rng = np.random.default_rng(4)
    start = rng.uniform(-2.5, 2.5, 4) + 1j * rng.uniform(-math.pi, math.pi, 4)
    assert lg._alpha_beta(F, [start], [()])[0][0] >= lg.ALPHA_MAX
    stray = lg.CriticalDatum(start, F.value(start), F.hess(start))
    assert not lg._alpha_certified(F, pts[:-1] + [stray])
    # one zero recorded twice, bit for bit and as a second Newton solve
    assert not lg._alpha_certified(F, pts[:-1] + [pts[0]])
    [(again, _)] = lg._newton_solve(F, [pts[0].log_point + 1e-3],
                                    F.coefficient_rows([()]))
    assert np.linalg.norm(lg._canonical_log(again - pts[0].log_point)) < 1e-9
    twice = lg.CriticalDatum(lg._canonical_log(again), F.value(again),
                             F.hess(again))
    assert not lg._alpha_certified(F, [pts[0], twice])
    # P^2 at q = 1 has the zero l = 0, where g evaluates to exactly 0, and
    # l = (2^-60, 0) rounds to the same terms: beta from the evaluated g
    # alone would be 0 at both and certify the two apart
    G = pn_mirror(2, 1.0)
    zero = lg.CriticalDatum(np.zeros(2, complex), 3.0, G.hess(np.zeros(2)))
    ulp = lg.CriticalDatum(np.array([2.0 ** -60, 0], complex), 3.0,
                           G.hess(np.zeros(2)))
    assert not np.any(G.grad(ulp.log_point))
    assert not lg._alpha_certified(G, [zero, ulp])


def test_alpha_gamma_bounds_every_order():
    # gamma = alpha / beta must cover M_k^(1/(k-1)) for every k, not only
    # the k scanned before the tail bound stops the scan.  A far monomial
    # with a tiny coefficient puts the largest term near k = 45.
    F = bl_line_p4_family_lambda()(0.01)
    rng = np.random.default_rng(6)
    cases = [(F, rng.uniform(-2.5, 2.5, 4) + 1j * rng.uniform(-3, 3, 4))
             for _ in range(5)]
    cases += [(F, p.log_point) for p in critical_points(F, rng=rng)]
    far = LGPotential([(1,), (-1,), (20,)], [1.0, 1.0, 1e-12])
    cases += [(far, np.array([x], complex)) for x in (0.0, 0.3j, -0.2)]
    for G, l in cases:
        norms = [math.sqrt(sum(x * x for x in b)) for b in G.B_int]
        [alpha], [beta] = lg._alpha_beta(G, [l], [()])
        terms = G.c * np.exp(G.B @ l)
        hinv = 1 / np.linalg.svd(G.hess(l), compute_uv=False)[-1]
        for k in range(2, 120):
            m_k = hinv * sum(abs(t) * nb ** (k + 1) for t, nb
                             in zip(terms, norms)) / math.factorial(k)
            assert m_k ** (1 / (k - 1)) <= alpha / beta * (1 + 1e-9)


def test_undeduplicated_search_is_not_certified():
    # every converged start counts as a point: the first nine reach the
    # count, fail the certificate as duplicates, and the floor finds a tenth
    # (a short budget, as the over-count is raised only once it is spent)
    with pytest.raises(errors.IncompleteCount, match="more than"):
        critical_points(bl_line_p4_family_lambda()(2.0), dedupe_tol=0.0,
                        budget_factor=10)


def _without_certificate(monkeypatch):
    monkeypatch.setattr(lg, "_alpha_certified", lambda F, points: False)


def test_certified_stop_changes_only_the_work(monkeypatch):
    F = bl_line_p4_family_lambda()(2.0)
    rows = _count_rows(monkeypatch)
    runs = []
    for certify in (True, False):
        if not certify:
            _without_certificate(monkeypatch)
        rows.clear()
        rng = np.random.default_rng(0)
        pts = critical_points(F, rng=rng)
        runs.append(([p.log_point.tobytes() for p in pts],
                     [p.value for p in pts], rng.random(), sum(rows)))
    (pts1, vals1, next1, solves1), (pts0, vals0, next0, solves0) = runs
    assert pts1 == pts0 and vals1 == vals0 and next1 == next0
    assert solves0 == 181 and solves1 < 181


def test_certified_stop_leaves_cli_files_unchanged(tmp_path, monkeypatch):
    # `critical` passes its generator on to newton_nondegenerate and
    # tracking passes it on to re-matching, so a generator left in another
    # state would show in these files
    import os

    from toriclg.cli import main
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")

    def run(tag):
        out = {}
        for command, scenario in (("critical", "p2.json"),
                                  ("track", "discriminant-probe.json")):
            d = tmp_path / tag / command
            assert main([command, "--scenario",
                         os.path.join(scenarios, scenario),
                         "--out", str(d)]) == 0
            for f in sorted(d.iterdir()):
                out[f"{command}/{f.name}"] = f.read_bytes()
        return out
    certified = run("certified")
    _without_certificate(monkeypatch)
    assert run("floor") == certified


def test_count_bound_computed_once_per_potential(monkeypatch, tmp_path):
    from toriclg import cones
    from toriclg.cli import main
    calls = []
    facets = cones.polytope_facets

    def counting(points):
        calls.append(len(points[0]))
        return facets(points)
    monkeypatch.setattr(cones, "polytope_facets", counting)
    monkeypatch.setattr(lg, "polytope_facets", counting)
    family = bl_line_p4_family_lambda()
    F = family(2.0)
    pts = critical_points(F, rng=np.random.default_rng(0))
    once = len(calls)
    # the volume reuses the bound's facets; only its recursion adds more
    assert calls.count(F.n) == 1 and once > 1
    # the CLI's "expected" field reads the same bound again
    assert F.expected_count() == len(pts) == 9
    assert len(calls) == once
    # so does every other potential of the family, on any path
    for seed in (1, 2):
        track_critical_values(family, [2.5, 2.4],
                              rng=np.random.default_rng(seed))
    assert len(calls) == once
    # a scenario chart: one bound, one splitting inverse and one
    # Lambda^Sigma basis for the whole `track`
    work = {"scaled_inverse": 0, "_lambda_sigma_basis": 0}
    for name in work:
        def counted(*args, _name=name, _fn=getattr(lg, name)):
            work[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lg, name, counted)
    for scenario in ("p2.json", "a1.json"):
        calls.clear()
        work.update(dict.fromkeys(work, 0))
        rc = main(["track", "--scenario", os.path.join(SCN, scenario),
                   "--out", str(tmp_path), "--seed", "0"])
        assert rc == 0
        assert calls.count(2) == 1
        assert work == {"scaled_inverse": 1, "_lambda_sigma_basis": 1}
    # `critical` computes the Newton polytope's facets once, for the bound;
    # the non-degeneracy check and its face lattice reuse them
    calls.clear()
    assert main(["critical", "--scenario", os.path.join(SCN, "p2.json"),
                 "--out", str(tmp_path), "--seed", "0"]) == 0
    assert calls.count(2) == 1


def test_newton_nondegenerate():
    ok, report = newton_nondegenerate(pn_mirror(2, 1.0))
    assert ok
    F = bl_line_p4_potential(0.8, 1.1)
    ok, report = newton_nondegenerate(F)
    assert ok
    assert {r["budget"] for r in report if len(r["face"]) > 1} \
        == {lg.FACE_STARTS}
    # degenerate: the edge x^2 + 2xy + y^2 = (x+y)^2 has torus critical
    # points along x = -y
    G = LGPotential([(2, 0), (1, 1), (0, 2), (-1, -1)],
                    [1.0, 2.0, 1.0, 1.0])
    ok, report = newton_nondegenerate(G)
    assert not ok
    assert [r["face"] for r in report if r["degenerate"]] == [[0, 1, 2]]


def test_face_and_conifold_cost_one_solve_each(monkeypatch):
    calls = []
    solve = lg._newton_solve

    def counted(F, L0, C):
        calls.append(len(C))
        return solve(F, L0, C)
    monkeypatch.setattr(lg, "_newton_solve", counted)
    for F in (pn_mirror(2, 1.3), bl_line_p4_potential(0.8, 1.1)):
        calls.clear()
        ok, report = newton_nondegenerate(F)
        faces = [r for r in report if len(r["face"]) > 1]
        assert ok and faces
        assert calls == [lg.FACE_STARTS] * len(faces)
        calls.clear()
        conifold_point(F)
        assert calls == [1]


def test_conifold_point_is_exactly_real():
    rng = np.random.default_rng(11)
    for layout in (pn_mirror(2, 1.0), pn_mirror(4, 1.0),
                   bl_line_p4_potential(1.0, 1.0)):
        for _ in range(10):
            F = layout.with_coefficients(rng.uniform(0.1, 5.0, layout.nterms))
            p = conifold_point(F)
            assert np.all(p.log_point.imag == 0)
            assert np.linalg.norm(F.grad(p.log_point)) < 1e-10 * max(
                1.0, np.max(np.abs(F.terms(p.log_point))))


def test_conifold_unconverged_raises(monkeypatch):
    monkeypatch.setattr(lg, "_newton_solve",
                        lambda F, L0, C: [None])
    with pytest.raises(errors.NotPositiveReal):
        conifold_point(pn_mirror(2, 1.0))


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        LGPotential([(1, 0), (0, 1)], [1.0, 0.0])
    with pytest.raises(ValueError):
        LGPotential([(1, 0), (0, 1)], [1.0, 2.0]).with_coefficients([0.0, 1.0])


def test_tracking_constant_path_identity():
    fam = bl_line_p4_family_lambda()
    traj = track_critical_values(lambda s: fam(2.0), [0.0, 0.5, 1.0],
                                 rng=np.random.default_rng(1))
    assert traj.nbranches == 9
    for br in traj.branches:
        assert abs(br[0].value - br[-1].value) < 1e-10
    assert not [e for e in traj.events if e["kind"] != "collision_near_discriminant"]


def test_tracking_endpoint_consistency_step_halving():
    fam = bl_line_p4_family_lambda()
    lams1 = np.exp(np.linspace(math.log(12.5), math.log(2.0), 41))
    lams2 = np.exp(np.linspace(math.log(12.5), math.log(2.0), 81))
    t1 = track_critical_values(fam, list(lams1), rng=np.random.default_rng(2))
    t2 = track_critical_values(fam, list(lams2), rng=np.random.default_rng(2))
    v1 = sort_vals(t1.values_at_step(len(lams1) - 1))
    v2 = sort_vals(t2.values_at_step(len(lams2) - 1))
    for a, b in zip(v1, v2):
        assert abs(a - b) < 1e-6


def test_resolve_twisted_component_matches_stored_values():
    # Z/2-twisted P^2 mirror: half the branches live on the non-trivial
    # component, where the coefficient q picks up the character's sign
    def family(q):
        return LGPotential([(1, 0), (0, 1), (-1, -1)], [1, 1, q],
                           torsion_parts=[(0,), (0,), (1,)],
                           torsion_invariants=(2,))
    traj = track_critical_values(family, [1.0, 1.1, 1.2],
                                 rng=np.random.default_rng(0))
    assert {br[1].component for br in traj.branches} == {(0,), (1,)}
    which = range(traj.nbranches)
    got = traj.resolve([(traj.params[1], 1, b) for b in which])
    for b, v in zip(which, got):
        assert abs(v - traj.branches[b][1].value) < 1e-12
    # a subset comes back in the requested order
    assert traj.resolve([(traj.params[1], 1, 3), (traj.params[1], 1, 0)]) \
        == [got[3], got[0]]
    # rows at several parameters and seed steps share one stack, and each
    # row is its one-parameter solve bit for bit, on both components
    rows = [(p, k, b) for p, k in ((1.03, 0), (1.07, 1), (1.15, 1),
                                   (1.19, 2)) for b in which]
    alone = [v for p, k, b in rows for v in traj.resolve([(p, k, b)])]
    assert None not in alone
    assert np.array(traj.resolve(rows)).tobytes() == np.array(alone).tobytes()
    assert traj.resolve([]) == []


def test_values_on_two_components_are_no_collision():
    # the twist x1 -> -x1 maps the critical points of one fibre component
    # to those of the other, so every value is taken once on each: the two
    # components' values coincide along the whole path, but no two branches
    # of one component meet, so there is no collision to report
    def family(q):
        return LGPotential([(1, 0), (0, 1), (-1, -1)], [1, 1, q],
                           torsion_parts=[(1,), (0,), (1,)],
                           torsion_invariants=(2,))
    traj = track_critical_values(family, [1.0, 1.1, 1.2, 1.3],
                                 rng=np.random.default_rng(0))
    comps = [br[0].component for br in traj.branches]
    assert sorted(comps) == [(0,)] * 3 + [(1,)] * 3
    for V in map(traj.values_at_step, range(4)):
        gap = [abs(u - v) for a, u in zip(comps, V) for b, v in zip(comps, V)
               if a != b]
        assert min(gap) < 1e-12
    assert traj.events == []


def test_tracking_collision_event_at_discriminant():
    fam = bl_line_p4_family_lambda()
    sstar = 400 * math.sqrt(5) / 3 ** 9

    def family(s):
        return fam(1j * s)
    grid = list(np.linspace(0.02, 0.08, 61))
    traj = track_critical_values(family, grid, rng=np.random.default_rng(3))
    coll = [e for e in traj.events if e["kind"] == "collision_near_discriminant"]
    assert len(coll) == 1
    assert abs(complex(coll[0]["param"]).real - sstar) < 1e-6


def test_chart_family_cyclic_charts():
    d = 3
    vs = VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])
    orb = StackyFan(vs, [{0, 1}])
    res = StackyFan(vs, [{0, 2}, {2, 1}])
    # orbifold chart: no q coordinates, ghost t at index 2
    F = chart_family(orb)([], {2: 0.37})
    got = {F.B_int[i]: F.c[i] for i in range(3)}
    assert abs(got[(0, 1)] - 1) < 1e-14
    assert abs(got[(d, -1)] - 1) < 1e-14
    assert abs(got[(1, 0)] - 0.37) < 1e-14
    # resolution chart with the paper splitting {(0,1),(1,0)}: coefficient q
    # lands on the (d,-1) term
    G = chart_family(res, splitting=[0, 2])([0.25], {})
    gotg = {G.B_int[i]: G.c[i] for i in range(3)}
    assert abs(gotg[(0, 1)] - 1) < 1e-14
    assert abs(gotg[(1, 0)] - 1) < 1e-14
    assert abs(abs(gotg[(d, -1)]) - 0.25) < 1e-14


def test_chart_family_a1_chart():
    vs = VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)])
    s1 = StackyFan(vs, [{0, 1}])
    F = chart_family(s1)([], {2: 1.5})
    got = {F.B_int[i]: F.c[i] for i in range(3)}
    assert abs(got[(-1, 1)] - 1) < 1e-14
    assert abs(got[(1, 1)] - 1) < 1e-14
    assert abs(got[(0, 1)] - 1.5) < 1e-14
