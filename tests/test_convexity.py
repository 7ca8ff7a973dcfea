"""One convexity certificate for every fan: heights from the wall-local LP
(or the caller), checked globally by `StackyFan._heights_certify`, against
the full LP of `convexity_oracle`; and the fan's per-cone chart against a
per-cone `rational.solve`."""
import functools
import glob
import os
import random
from fractions import Fraction

import pytest

from toriclg import errors
from toriclg import fans as fans_mod
from toriclg.cli import main
from toriclg.fans import StackyFan
from toriclg.ktheory import (bl_line_p4, bl_point_p2, p1xp1,
                             projective_space)
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.rational import dot, idot, primitive, solve, vec
from toriclg.scenario import Scenario
from toriclg.secondary import enumerate_adapted_fans, pl_cone_data

from convexity_oracle import convexity_certificate

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")

PRESETS = {"p2": lambda: projective_space(2),
           "p4": lambda: projective_space(4),
           "p1xp1": p1xp1, "bl_point_p2": bl_point_p2,
           "bl_line_p4": bl_line_p4}

CHAMBER_SETS = {
    "bl_line_p4": (AbelianLattice(4),
                   [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                    (-1, -1, -1, -1), (1, 1, 1, 0)]),
    "rank2": (AbelianLattice(2), [(0, -1), (0, 1), (1, -2), (0, 2), (2, 2)]),
    # the rank2 free parts, three of them twisted by N_tor = Z/2
    "rank2-torsion": (AbelianLattice(2, (2,)),
                      [((0, -1), (0,)), ((0, 1), (0,)), ((1, -2), (1,)),
                       ((0, 2), (1,)), ((2, 2), (1,))]),
}


def cone_matrix(fan, cs):
    """Rows of the matrix whose columns are the rays cs."""
    return [tuple(fan.S[i].free[j] for i in cs) for j in range(fan.n)]


def solve_psi(fan, v):
    """Psi^Sigma(v): solve over the first cone with nonnegative solution."""
    for cone in fan.max_cones:
        cs = sorted(cone)
        coeff = solve(cone_matrix(fan, cs), vec(v.free))
        if all(x >= 0 for x in coeff):
            out = [Fraction(0)] * len(fan.S)
            for i, x in zip(cs, coeff):
                out[i] = x
            return tuple(out)
    return None


def solve_certify(fan, c):
    """Strict convexity of heights c, with each slope solved per cone."""
    for cone in fan.max_cones:
        cs = sorted(cone)
        m = solve([fan.ray_free(b) for b in cs], [c[b] for b in cs])
        if any(c[b] - dot(m, fan.ray_free(b)) <= 0
               for b in fan.rays if b not in cone):
            return False
    return True


def solve_cpl_rows(fan):
    """The CPL_+ inequality rows: e_b >= 0, then c_b >= m_sigma(c)(b) for
    each cone sigma and b outside it, with B^-1 b solved per cone."""
    m = len(fan.S)
    rows = [tuple(Fraction(int(a == b)) for a in range(m)) for b in range(m)]
    for cone in fan.max_cones:
        cs = sorted(cone)
        for b in range(m):
            if b in cone:
                continue
            coeff = solve(cone_matrix(fan, cs), fan.ray_free(b))
            row = [Fraction(int(a == b)) for a in range(m)]
            for i, x in zip(cs, coeff):
                row[i] -= x
            rows.append(tuple(row))
    return rows


def assert_chart_matches_solve(fan):
    """Chart coordinates, circuit rows, psi, the height certificate and the
    CPL_+ rows agree with their per-cone `solve` versions."""
    m = len(fan.S)
    for ci, cone in enumerate(fan.max_cones):
        cs = sorted(cone)
        B = cone_matrix(fan, cs)
        _, A, vol = fan._charts()[ci]
        for b in range(m):
            coeff = solve(B, fan.ray_free(b))
            assert tuple(Fraction(idot(row, fan.ray_free(b)), vol)
                         for row in A) == coeff
            if b in cone:
                continue
            # vol (e_b - sum_k coeff_k e_{cs[k]}), in `int`
            row = [Fraction(vol * (a == b)) for a in range(m)]
            for i, x in zip(cs, coeff):
                row[i] -= vol * x
            assert fan.circuits()[ci][b] == tuple(row)
            assert all(type(x) is int for x in fan.circuits()[ci][b])
    for v in fan.S:
        assert fan.psi(v) == solve_psi(fan, v)
    rng = random.Random(3)
    heights = [fan._wall_heights(fan._check_cover()),
               [Fraction(0)] * len(fan.S)]
    heights += [[Fraction(rng.randint(-3, 6)) for _ in fan.S]
                for _ in range(4)]
    for c in heights:
        assert fan._heights_certify(c) == solve_certify(fan, c)
    # the rows of the circuit table are positive multiples of the solved ones
    assert [primitive(a) for a in pl_cone_data(fan).cpl_plus.inequalities] \
        == [primitive(a) for a in solve_cpl_rows(fan)]


def mother_fan():
    """A complete simplicial fan over the "mother of all examples" that is
    not regular: a genuine fan without a strictly convex support function."""
    vs = VectorSet(AbelianLattice(3), [(4, 0, 0), (0, 4, 0), (0, 0, 4),
                                       (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    cones = [{0, 1, 4}, {0, 3, 4}, {1, 2, 5}, {1, 4, 5}, {0, 2, 3},
             {2, 3, 5}, {3, 4, 5}]
    return vs, cones


def pentagram_fan():
    """Five 2-cones that close up around 0 twice: every ray lies in two
    cones on opposite sides of it, but the cones overlap."""
    vs = VectorSet(AbelianLattice(2),
                   [(1, 0), (1, 3), (-1, 1), (-1, -1), (1, -3)])
    return vs, [{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}]


def scenario_fans():
    out = {}
    for path in sorted(glob.glob(os.path.join(SCN, "*.json"))):
        scn = Scenario.load(path)
        for name, cones in sorted(scn.get("fans").items()):
            out[f"{scn.name}:{name}"] = (scn.vector_set(),
                                         [set(c) for c in cones])
    return out


def certified(vs, cones):
    """Whether `StackyFan` certifies the fan (raises for a non-fan)."""
    try:
        StackyFan(vs, cones)
    except errors.NoConvexSupportFunction:
        return False
    return True


def preset_data(build):
    fan = build()
    return fan.vector_set, fan.max_cones


def cases():
    """(id, builder of (vector set, cones)); presets validate when built,
    so they are built inside the test."""
    out = [(f"preset-{name}", functools.partial(preset_data, build))
           for name, build in PRESETS.items()]
    out += [(f"scenario-{name}", lambda data=data: data)
            for name, data in scenario_fans().items()]
    out.append(("mother", mother_fan))
    return out


@pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                  for name, make in cases()])
def test_wall_certificate_agrees_with_full_lp(make):
    vs, cones = make()
    oracle, _ = convexity_certificate(StackyFan(vs, cones, validate=False))
    assert certified(vs, cones) == oracle
    if oracle:
        assert_chart_matches_solve(StackyFan(vs, cones))


@pytest.mark.parametrize("name", sorted(CHAMBER_SETS))
def test_wall_certificate_agrees_on_chamber_fans(name):
    vs = VectorSet(*CHAMBER_SETS[name])
    fans, _ = enumerate_adapted_fans(vs)
    assert len(fans) > 1
    for fan in fans:
        # the chamber search certified these with its own heights; the wall
        # LP certifies them again without them
        assert convexity_certificate(fan)[0]
        assert certified(vs, fan.max_cones)
        assert_chart_matches_solve(fan)


def test_pentagram_passes_local_checks_but_is_not_a_fan():
    vs, cones = pentagram_fan()
    fan = StackyFan(vs, cones, validate=False)
    walls = fan._check_cover()
    assert len(walls) == 5
    heights = fan._wall_heights(walls)
    assert heights is not None
    assert not fan._heights_certify(heights)
    assert not convexity_certificate(fan)[0]
    with pytest.raises(errors.SupportMismatch):
        StackyFan(vs, cones)


@pytest.fixture
def pairwise(monkeypatch):
    """The fans `_check_pairwise_faces` runs on, in call order."""
    calls = []
    real = StackyFan._check_pairwise_faces

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(StackyFan, "_check_pairwise_faces", counting)
    return calls


def test_valid_fans_skip_the_pairwise_check_and_solve_the_wall_lp(
        pairwise, monkeypatch, tmp_path):
    lp_sizes, ray_counts = [], []
    real_wall_heights = StackyFan._wall_heights
    real_feasible = fans_mod.feasible_strict

    def recording_wall_heights(self, walls):
        ray_counts.append(len(self.rays))
        return real_wall_heights(self, walls)

    def recording_feasible(A_strict):
        lp_sizes.append((ray_counts[-1], len(A_strict[0])))
        return real_feasible(A_strict)

    monkeypatch.setattr(StackyFan, "_wall_heights", recording_wall_heights)
    monkeypatch.setattr(fans_mod, "feasible_strict", recording_feasible)
    for build in PRESETS.values():
        build()
    assert main(["gkz", "--scenario", os.path.join(SCN, "bl-line-p4.json"),
                 "--out", str(tmp_path)]) == 0
    assert pairwise == []
    assert len(lp_sizes) >= len(PRESETS) + 1
    assert all(rays == nvars for rays, nvars in lp_sizes)


def test_failed_certificate_runs_the_pairwise_check(pairwise):
    fan = StackyFan(*mother_fan(), validate=False)
    assert fan._wall_heights(fan._check_cover()) is None
    # the pairwise check passes (a genuine fan), so convexity is what fails
    with pytest.raises(errors.NoConvexSupportFunction):
        StackyFan(*mother_fan())
    assert len(pairwise) == 1
    vs, cones = pentagram_fan()
    with pytest.raises(errors.SupportMismatch):
        StackyFan(vs, cones)
    assert len(pairwise) == 2
