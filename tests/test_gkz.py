import random

import numpy as np
import pytest

from toriclg import errors
from toriclg.fans import StackyFan
from toriclg.gkz import (char_variety_at_limit, generic_rank_check,
                         gkz_relation, weak_fano)
from toriclg.ktheory import bl_line_p4, projective_space
from toriclg.lattice import AbelianLattice, VectorSet


def p1_fan():
    vs = VectorSet(AbelianLattice(1), [(1,), (-1,)])
    return StackyFan(vs, [{0}, {1}])


def cyclic_fans(d):
    vs = VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])
    return StackyFan(vs, [{0, 1}]), StackyFan(vs, [{0, 2}, {2, 1}])


def test_p1_quantum_operator():
    fan = p1_fan()
    op = gkz_relation(fan, (0,), (1, 1))
    # two positive factors with kappa = 0: (z theta)^2 - q at chi = 0
    assert len(op.pos_factors) == 2 and not op.neg_factors
    assert all(kappa == 0 for _, kappa in op.pos_factors)
    assert op.annihilates()
    case, (pos, neg) = op.principal_symbol()
    assert case == "positive"
    assert pos == {(2,): 1} and neg == {}


def test_lambda_zero_trivial():
    fan = p1_fan()
    op = gkz_relation(fan, (0,), (0, 0))
    assert op.annihilates()
    case, (pos, neg) = op.principal_symbol()
    assert case == "balanced"
    assert pos == neg == {(0,): 1}


def test_not_in_mori_cone():
    fan = p1_fan()
    with pytest.raises(errors.NotInMoriCone):
        gkz_relation(fan, (0,), (1, 0))     # not in L
    with pytest.raises(errors.NotInMoriCone):
        gkz_relation(fan, (0,), (-1, -1))   # wrong side of the Mori cone


def test_cyclic_resolution_relation():
    orb, res = cyclic_fans(3)
    # Mori generator of the resolution: the (-1,-1,3)-side or its negative
    L = res.kernel_basis()
    ne = res.extended_mori_cone()
    gen = ne.extreme_rays()[0]
    lam = [sum(int(gen[j]) * L[j][b] for j in range(len(L)))
           for b in range(3)]
    op = gkz_relation(res, (0, 0), lam)
    assert op.annihilates()
    case, _ = op.principal_symbol()
    assert case == "negative"  # exceptional curve of a non-weak-Fano chart


def test_formal_annihilation_random():
    rng = random.Random(6)
    fans = [p1_fan(), cyclic_fans(3)[1], cyclic_fans(4)[0],
            projective_space(2)]
    count = 0
    for fan in fans:
        L = fan.kernel_basis()
        if not L:
            continue
        ne = fan.extended_mori_cone()
        rays = ne.extreme_rays()
        for _ in range(16):
            # random small Mori class
            coeff = [rng.randint(0, 2) for _ in rays]
            lam_k = [sum(c * r[j] for c, r in zip(coeff, rays))
                     for j in range(len(L))]
            lam = [sum(int(lam_k[j]) * L[j][b] for j in range(len(L)))
                   for b in range(len(fan.S))]
            if all(x == 0 for x in lam) and rng.random() < 0.5:
                continue
            # random v inside the support
            c0 = sorted(fan.max_cones[0])
            v_free = [0] * fan.n
            for i in c0:
                w = rng.randint(0, 2)
                for k in range(fan.n):
                    v_free[k] += w * fan.S[i].free[k]
            op = gkz_relation(fan, tuple(v_free), lam)
            assert op.annihilates()
            count += 1
    assert count >= 50


def test_symbol_multiplicativity():
    # symbols of factor products multiply degree-wise
    fan = projective_space(2)
    op1 = gkz_relation(fan, (0, 0), [1, 1, 1])
    case, (pos, _) = op1.principal_symbol()
    assert case == "positive"
    assert pos == {(3,): 1}


def test_char_variety_p_n():
    for n in (1, 2, 4):
        ok, w = char_variety_at_limit(projective_space(n))
        assert ok and w is None


def test_char_variety_cyclic_and_a1():
    # cyclic orbifold charts are weak Fano; their d >= 3 resolutions are not
    orb, res = cyclic_fans(3)
    ok, _ = char_variety_at_limit(orb)
    assert ok
    assert not weak_fano(res)
    with pytest.raises(errors.NotWeakFano):
        char_variety_at_limit(res)
    # the A1 resolution is crepant, hence weak Fano: the lemma check passes
    vs = VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)])
    a1_res = StackyFan(vs, [{0, 2}, {2, 1}])
    assert weak_fano(a1_res)
    ok, _ = char_variety_at_limit(a1_res)
    assert ok


def test_weak_fano_flag_hirzebruch():
    # F_3 is the classical non-weak-Fano surface
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (-1, 3), (0, -1)])
    fan = StackyFan(vs, [{0, 1}, {1, 2}, {2, 3}, {3, 0}])
    assert not weak_fano(fan)


def test_weak_fano_computes_the_hull_facets_once(monkeypatch):
    # the volume check and the containment check share one set of facets;
    # lower-dimensional calls are the triangulation's recursion
    from toriclg import cones, gkz
    calls = []
    real = cones.polytope_facets

    def counting(points):
        calls.append(len(points[0]))
        return real(points)
    monkeypatch.setattr(cones, "polytope_facets", counting)
    monkeypatch.setattr(gkz, "polytope_facets", counting)
    orb, res = cyclic_fans(3)
    for fan in (projective_space(2), bl_line_p4(), orb, res):
        calls.clear()
        weak_fano(fan)
        assert calls.count(fan.n) == 1


def test_generic_rank_checks():
    rng = np.random.default_rng(8)
    rep = generic_rank_check(p1_fan(), rng=rng)
    assert rep["expected"] == 2
    rep = generic_rank_check(projective_space(2), rng=rng)
    assert rep["expected"] == 3
    for d in (3, 4, 5):
        orb, res = cyclic_fans(d)
        rep = generic_rank_check(orb, rng=rng)
        assert rep["expected"] == d
    rep = generic_rank_check(bl_line_p4(), rng=rng)
    assert rep["expected"] == 9


def test_pretty_golden_p1():
    fan = p1_fan()
    op = gkz_relation(fan, (0,), (1, 1))
    assert op.pretty() == "(z*D0qdq)(z*D1qdq-chi1) - q^(1,1)*1"
    op2 = gkz_relation(fan, (0,), (2, 2))
    assert op2.pretty() == ("(z*D0qdq)(z*D0qdq-1*z)(z*D1qdq-chi1)"
                            "(z*D1qdq-chi1-1*z) - q^(2,2)*1")
