"""The four workloads: seeded inputs, one operation per call into toriclg's
public functions, and each operation's independent output check.

A workload is built by `WORKLOADS[name](seed)`, which makes its inputs
(untimed) and returns the operations of one round.  An operation's `run()`
is the timed call; its `check(result)` runs afterwards, outside the timed
region, and returns a list of problems (empty when the output is correct).
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

import oracles

# Modules whose import (from a fresh interpreter) is the workload's set-up.
SETUP_MODULES = {
    "chambers": ["toriclg.secondary", "toriclg.fans", "toriclg.lattice"],
    "critical": ["toriclg.lg", "toriclg.families"],
    "track": ["toriclg.lg", "toriclg.families", "toriclg.ktheory",
              "toriclg.mutation"],
    "ktheory": ["toriclg.ktheory", "toriclg.secondary"],
}

BL_LINE_P4_S = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (-1, -1, -1, -1), (1, 1, 1, 0)]

# Rank-2 vector sets.  The secondary fan of S depends only on the linear
# relations among its vectors, so the seed moves each set by a unimodular
# change of lattice basis: the numbers differ from seed to seed while the
# chambers stay the same.  The cost still moves by up to 15% with the
# coordinates (pivot orders in the exact LP and double description), and
# random sets of one size differ 5x, so the sets are fixed and the two
# 3-chamber sets with |S| = 4 run under four changes of basis each: the
# median operation then sits among eight of about the same cost.
RANK2_SETS = [
    ([(-2, 1), (3, -3), (-1, -3), (3, 3)], 4),           # 3 chambers
    ([(1, -3), (3, -2), (-1, 2), (2, 0)], 4),            # 3 chambers
    ([(0, -1), (0, 1), (1, -2), (0, 2), (2, 2)], 1),     # 6 chambers
    ([(-2, 1), (0, -2), (3, -3), (0, -1), (2, -2)], 1),  # 6 chambers
    ([(-2, 0), (-3, -3), (-3, -2), (-2, -2), (-1, -2)], 1),  # 6 chambers
]

WALL_KINDS = {"flip", "contract_divisor", "extract_divisor", "root",
              "crepant"}

RTOL_VALUES = 1e-8


class Op:
    """One operation; a round runs it `repeat` times back to back, so that
    the median of a fast operation rests on several samples."""

    def __init__(self, name, run, check, repeat=1):
        self.name = name
        self.run = run
        self.check = check
        self.repeat = repeat


def _log_band(rng, j, bands, lo=0.001, hi=12.5):
    """A log-uniform lambda in the j-th of `bands` equal slices of [lo, hi]:
    stratified, so operation j costs about the same for every seed."""
    w = (math.log(hi) - math.log(lo)) / bands
    return math.exp(math.log(lo) + w * (j + rng.random()))


def _unimodular(rng):
    """A random element of GL(2, Z): a symmetry of the square times a shear."""
    m = [[1, 0], [0, 1]] if rng.random() < 0.5 else [[0, 1], [1, 0]]
    m = [[x * rng.choice((-1, 1)) for x in row] for row in m]
    s = rng.choice((-1, 0, 1))
    shear = [[1, s], [0, 1]] if rng.random() < 0.5 else [[1, 0], [s, 1]]
    return [[sum(m[i][k] * shear[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _apply(g, v):
    return tuple(sum(g[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(g)))


# -- chambers -----------------------------------------------------------------

def _fans_op(S):
    from toriclg import secondary
    from toriclg.lattice import AbelianLattice, VectorSet

    def run():
        vs = VectorSet(AbelianLattice(len(S[0])), S)
        fans, walls = secondary.enumerate_adapted_fans(vs)
        dims = [fan.dim_orbifold_cohomology() for fan in fans]
        crossings = [secondary.wall_between(fans[a], fans[b])
                     for a, b, _ in walls]
        return fans, dims, walls, crossings
    return run


def _check_fans(S, expect_rays):
    def check(result):
        fans, dims, _, crossings = result
        bad = []
        for fan, dim in zip(fans, dims):
            vol = sum(abs(oracles.int_det([S[i] for i in sorted(c)]))
                      for c in fan.max_cones)
            if vol != dim:
                bad.append(f"dim_orbifold_cohomology {dim} != volume {vol}")
        for wc in crossings:
            if wc.kind not in WALL_KINDS or wc.discrepancy < 0:
                bad.append(f"wall kind {wc.kind} discrepancy {wc.discrepancy}")
        if expect_rays is not None:
            got = [frozenset(f.rays) for f in fans]
            if len(got) != len(expect_rays) or set(got) != expect_rays:
                bad.append(f"{len(got)} chambers, oracle has "
                           f"{len(expect_rays)}")
        else:
            kinds = [wc.kind for wc in crossings]
            if len(fans) != 2 or kinds != ["contract_divisor"]:
                bad.append(f"{len(fans)} chambers with walls {kinds}, "
                           f"expected 2 joined by one contract_divisor")
        return bad
    return check


def build_chambers(seed):
    rng = random.Random(seed)
    ops = []
    for k, (base, copies) in enumerate(RANK2_SETS):
        for c in range(copies):
            g = _unimodular(rng)
            S = [_apply(g, v) for v in base]
            ops.append(Op(f"rank2-{k}.{c}", _fans_op(S),
                          _check_fans(S, oracles.rank2_fans(S))))
    ops.append(Op("rank4-bl-line-p4", _fans_op(BL_LINE_P4_S),
                  _check_fans(BL_LINE_P4_S, None)))
    return ops


# -- critical -----------------------------------------------------------------

def _critical_op(F, seed):
    from toriclg import lg

    def run():
        return lg.critical_points(F, rng=np.random.default_rng(seed))
    return run


def _check_values(want):
    def check(points):
        ok, err = oracles.match_values([p.value for p in points], want,
                                       RTOL_VALUES)
        if ok:
            return []
        return [f"{len(points)} critical values, oracle has {len(want)}, "
                f"worst relative error {err:.3g}"]
    return check


def build_critical(seed):
    from toriclg import families
    rng = random.Random(seed)
    ops = []

    def add(name, F, want, repeat=1):
        ops.append(Op(name, _critical_op(F, rng.randrange(2 ** 32)),
                      _check_values(want), repeat))
    # Kouchnirenko-certified: the search stops at the certified count
    for n in (1, 2, 3, 4):
        q = complex(math.exp(rng.uniform(-0.7, 0.7)), rng.uniform(-0.5, 0.5))
        exps = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        add(f"p{n}-mirror", families.pn_mirror(n, q),
            oracles.circuit_values(exps + [(-1,) * n], [1] * n + [q]), 3)
    family = families.bl_line_p4_family_lambda()
    for j in range(4):
        lam = _log_band(rng, j, 4)
        add(f"bl-line-p4-{j}", family(lam), oracles.blp4_values(lam), 3)
    # uncertified: 0 is not interior to the Newton polytope, so the search
    # spends its whole try budget
    for d in (3, 4, 5):
        t = rng.uniform(0.8, 1.25)
        add(f"cyclic-d{d}", families.cyclic_orbifold_potential(d, t),
            oracles.circuit_values([(0, 1), (d, -1), (1, 0)], [1, 1, t]))
    t = rng.uniform(0.8, 1.25)
    add("blowup-c2", families.blowup_c2_potential(t),
        oracles.circuit_values([(1, 0), (0, 1), (1, 1)], [1, 1, t]))
    return ops


# -- track --------------------------------------------------------------------

def _check_steps(traj, params):
    for k, lam in enumerate(params):
        ok, err = oracles.match_values(traj.values_at_step(k),
                                       oracles.blp4_values(lam), RTOL_VALUES)
        if not ok:
            return [f"step {k} at lambda {lam}: relative error {err:.3g}"]
    return []


def _mutate_op(fan, params, seed):
    from toriclg import families, ktheory, lg, mutation

    def run():
        traj = lg.track_critical_values(families.bl_line_p4_family_lambda(),
                                        params,
                                        rng=np.random.default_rng(seed))
        ring = ktheory.build_cohomology_ring(fan)
        back = mutation.KBackend(ring)
        initial = ktheory.bl_line_p4_initial_collection(ring)
        order0 = sorted(range(traj.nbranches),
                        key=lambda b: -traj.branches[b][0].value.imag)
        vectors = [None] * traj.nbranches
        for pos, b in enumerate(order0):
            vectors[b] = back.flatten(initial[pos].ch)
        mrs = mutation.MarkedReflectionSystem(
            back, vectors, [br[0].value for br in traj.branches], phase=0.0)
        final, events = mutation.evolve(mrs, traj)
        expected = [back.flatten(c.ch)
                    for c in ktheory.bl_line_p4_collection(ring)]
        return traj, back, final, expected
    return run


def _check_mutate(params):
    def check(result):
        traj, back, final, expected = result
        bad = _check_steps(traj, params)
        order1 = sorted(range(traj.nbranches),
                        key=lambda b: -traj.branches[b][-1].value.imag)
        got = [final.vectors[b] for b in order1]
        signs = [1 if g == w else (-1 if tuple(-x for x in g) == w else 0)
                 for g, w in zip(got, expected)]
        conifold = min(range(len(order1)), key=lambda pos: abs(
            traj.branches[order1[pos]][-1].value.imag))
        if 0 in signs or signs[conifold] != 1:
            bad.append(f"final collection does not match up to sign: {signs}")
        G = [[back.pair(a, b) for b in got] for a in got]
        n = len(G)
        if not all(G[i][i] == 1 and all(G[i][j] == 0 for j in range(i))
                   for i in range(n)):
            bad.append("Gram of the final collection is not upper "
                       "unitriangular")
        return bad
    return check


def _track_op(family, params, seed):
    from toriclg import lg

    def run():
        return lg.track_critical_values(family, params,
                                        rng=np.random.default_rng(seed))
    return run


def _check_segment(params):
    return lambda traj: _check_steps(traj, params)


def _check_probe(traj):
    coll = [e for e in traj.events
            if e["kind"] == "collision_near_discriminant"]
    if len(coll) != 1:
        return [f"{len(coll)} collision events, expected 1"]
    err = abs(complex(coll[0]["param"]) - oracles.DISCRIMINANT_S)
    return [] if err < 1e-6 else [f"collision {err:.3g} from s*"]


# Real 21-step segments of the bl_line_p4 family, one per slice of the
# lambda range; six, so that the median operation is a segment from the
# middle of the range rather than the costliest one.
SEGMENTS = 6


def build_track(seed):
    from toriclg import families, ktheory
    rng = random.Random(seed)
    fan = ktheory.bl_line_p4()
    path = [float(x) for x in
            np.exp(np.linspace(math.log(12.5), math.log(0.0009), 201))]
    ops = [Op("mutate-bl-line-p4",
              _mutate_op(fan, path, rng.randrange(2 ** 32)),
              _check_mutate(path))]
    family = families.bl_line_p4_family_lambda()

    def imaginary(s):
        return family(1j * s)
    probe = [float(x) for x in np.linspace(0.02, 0.08, 61)]
    ops.append(Op("discriminant-probe",
                  _track_op(imaginary, probe, rng.randrange(2 ** 32)),
                  _check_probe))
    for j in range(SEGMENTS):
        a, b = _log_band(rng, j, SEGMENTS), _log_band(rng, j, SEGMENTS)
        seg = [float(x) for x in np.exp(np.linspace(math.log(a), math.log(b),
                                                    21))]
        ops.append(Op(f"segment-{j}",
                      _track_op(family, seg, rng.randrange(2 ** 32)),
                      _check_segment(seg), 2))
    return ops


# -- ktheory ------------------------------------------------------------------

GRAM_SIZE = 6
BUNDLE_RANGE = 2


def _variety_fans():
    from toriclg import ktheory
    return {"p2": ktheory.projective_space(2),
            "p4": ktheory.projective_space(4),
            "p1xp1": ktheory.p1xp1(),
            "bl_point_p2": ktheory.bl_point_p2(),
            "bl_line_p4": ktheory.bl_line_p4()}


def _gram_op(fan, bundles):
    from toriclg import ktheory

    def run():
        ring = ktheory.build_cohomology_ring(fan)
        gd = ktheory.GammaData(ring)
        classes = []
        for a in bundles:
            c1 = ring.zero()
            for b, x in enumerate(a):
                c1 = c1 + ring.divisor_by_s_index(b).scaled(Fraction(x))
            classes.append(ktheory.KClass.line_bundle(ring, c1, "L"))
        hrr = [[ktheory.euler_pairing_hrr(u, v) for v in classes]
               for u in classes]
        gamma = [[ktheory.euler_pairing_gamma(gd, u, v, check=False)
                  for v in classes] for u in classes]
        return hrr, gamma
    return run


def _check_gram(variety, bundles):
    def check(result):
        hrr, gamma = result
        bad = []
        by_class = {}
        for i, a1 in enumerate(bundles):
            for j, a2 in enumerate(bundles):
                x = hrr[i][j]
                if i == j and x != 1:
                    bad.append(f"chi(L, L) = {x}")
                diff = oracles.pic_class(
                    variety, [y - z for y, z in zip(a2, a1)])
                if by_class.setdefault(diff, x) != x:
                    bad.append(f"equal difference class {diff}, unequal chi")
                want = oracles.chi_line_bundles(variety, a1, a2)
                if want is not None and want != x:
                    bad.append(f"chi {x}, closed form {want}")
                if abs(gamma[i][j] - x) > 1e-6:
                    bad.append(f"gamma pairing {gamma[i][j]} vs HRR {x}")
        return bad[:3]
    return check


def _orlov_op(wall):
    from toriclg import ktheory

    def run():
        bd = ktheory.BlowupData(wall, 3)
        classes, blocks = bd.orlov_basis(1)
        _, G = ktheory.verify_sod(classes, blocks)
        bd.verify_k_relations()
        return blocks, G
    return run


def _check_orlov(result):
    blocks, G = result
    bad = []
    if blocks != [2, 5, 2]:
        bad.append(f"blocks {blocks}")
    if not oracles.block_upper_unitriangular(G, blocks):
        bad.append("Gram is not semiorthogonal with unitriangular blocks")
    d = oracles.int_det(G)
    if abs(d) != 1:
        bad.append(f"Gram determinant {d}")
    return bad


def build_ktheory(seed):
    from toriclg import secondary
    from toriclg.fans import StackyFan
    rng = random.Random(seed)
    fans = _variety_fans()
    ops = []
    for name, fan in fans.items():
        bundles = [tuple(rng.randint(-BUNDLE_RANGE, BUNDLE_RANGE)
                         for _ in fan.S) for _ in range(GRAM_SIZE)]
        ops.append(Op(f"gram-{name}", _gram_op(fan, bundles),
                      _check_gram(name, bundles), 1 if fan.n > 2 else 5))
    blowup = fans["bl_line_p4"]
    p4 = StackyFan(blowup.vector_set, itertools.combinations(range(5), 4))
    wall = secondary.wall_between(blowup, p4)
    ops.append(Op("orlov-bl-line-p4", _orlov_op(wall), _check_orlov))
    return ops


WORKLOADS = {"chambers": build_chambers, "critical": build_critical,
            "track": build_track, "ktheory": build_ktheory}
