"""The one-phase `int` simplex of `lp.feasible_strict` against the general
two-phase `Fraction` simplex it replaced (`lp_oracle.py`): the same verdict
on every wall system the fans below hand the LP and on random small
integral systems, and every witness is strictly feasible in `int`."""
import random

import pytest

import lp_oracle
from test_convexity import (CHAMBER_SETS, PRESETS, mother_fan, pentagram_fan,
                            scenario_fans)
from toriclg import errors
from toriclg import fans as fans_mod
from toriclg.cones import polytope_facets
from toriclg.fans import StackyFan
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.lp import feasible_strict
from toriclg.rational import idot, primitive
from toriclg.secondary import enumerate_adapted_fans


def assert_agrees(A):
    """`feasible_strict` gives the oracle's verdict on A; returns it."""
    ok, witness = feasible_strict(A)
    assert ok == lp_oracle.feasible_strict(A)[0], A
    if ok:
        assert all(type(x) is int for x in witness)
        assert all(idot(a, witness) > 0 for a in A), (A, witness)
    else:
        assert witness is None
    return ok


def wall_systems(build):
    """The systems that `build()` hands the wall LP, in call order; a fan
    that fails its certificate raises after its LP, and that is caught."""
    seen = []
    real = fans_mod.feasible_strict

    def recording(A_strict):
        seen.append(A_strict)
        return real(A_strict)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fans_mod, "feasible_strict", recording)
        try:
            build()
        except (errors.NoConvexSupportFunction, errors.SupportMismatch):
            pass
    return seen


def face_fan(seed, nrays):
    """The face fan of a random simplicial polytope in Z^3 with the origin
    inside and nrays primitive vertices; a face fan is the normal fan of
    the polar polytope, so its wall LP is feasible."""
    rng = random.Random(seed)
    while True:
        pts = set()
        while len(pts) < nrays:
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            if any(v):
                pts.add(primitive(v))
        pts = sorted(pts)
        facets = polytope_facets(pts)
        if all(len(act) == 3 and a0 > 0 for _, a0, act in facets) and \
                len(set().union(*(act for _, _, act in facets))) == nrays:
            return VectorSet(AbelianLattice(3), pts), \
                [set(act) for _, _, act in facets]


def fan_cases():
    """(id, builder, feasible) per fan whose validation runs the wall LP:
    the presets, the scenario fans with more than one cone, the mother fan
    (not regular), the pentagram (feasible on its walls, but not a fan) and
    random face fans."""
    out = [(f"preset-{name}", build, True) for name, build in PRESETS.items()]
    out += [(f"scenario-{name}", lambda data=data: StackyFan(*data), True)
            for name, data in scenario_fans().items() if len(data[1]) > 1]
    out += [("mother", lambda: StackyFan(*mother_fan()), False),
            ("pentagram", lambda: StackyFan(*pentagram_fan()), True)]
    out += [(f"face-{nrays}-{seed}",
             lambda seed=seed, nrays=nrays: StackyFan(*face_fan(seed, nrays)),
             True)
            for nrays in (8, 9, 10) for seed in range(2)]
    return out


@pytest.mark.parametrize("build,feasible",
                         [pytest.param(build, feasible, id=name)
                          for name, build, feasible in fan_cases()])
def test_wall_systems_agree_with_the_fraction_simplex(build, feasible):
    (A,) = wall_systems(build)
    assert assert_agrees(A) == feasible


@pytest.mark.parametrize("name", sorted(CHAMBER_SETS))
def test_chamber_fans_agree_with_the_fraction_simplex(name):
    vs = VectorSet(*CHAMBER_SETS[name])
    fans, _ = enumerate_adapted_fans(vs)
    assert len(fans) > 1
    for fan in fans:
        # the chamber walk certified these with its own heights; built
        # again without them, each one runs the wall LP
        (A,) = wall_systems(lambda: StackyFan(vs, fan.max_cones))
        assert assert_agrees(A)


def test_random_systems_agree_with_the_fraction_simplex():
    rng = random.Random(5)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:          # a row and its negative
            A.append([-x for x in A[0]])
        if rng.random() < 0.3:          # degenerate: a repeated row
            A.append(list(A[-1]))
        verdicts.append(assert_agrees(A))
    assert True in verdicts and False in verdicts
