"""Work counts of the charts: every per-cone coordinate of a fan is read
from one elimination of each maximal cone's ray matrix, which gives both
its inverse and its determinant, and every circuit row from one table per
fan built on those charts.  The charts, the complement inverses and the
extended sequences depend on S alone, so the vector set computes each once
for all the fans adapted to it, and so keeps each cone's Box count."""
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from test_elimination_oracle import BL_LINE_P4_S, perfbench_constant
from test_rational import fraction_preimage_lattice
from test_secondary import count_wall_builds
from toriclg import cones, fans, gkz, ktheory, lattice, lg, rational, secondary
from toriclg.ktheory import CohomologyRing, bl_line_p4
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.secondary import PLConeData

# the modules that import the kernel's routines; rational's own internal
# calls (lattice indices, dual bases) never see a cone
MODULES = (cones, fans, secondary, gkz, ktheory, lattice, lg)


def key(rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def record(monkeypatch, name):
    """Matrices passed to `rational.<name>` from MODULES, in call order."""
    seen = []
    real = getattr(rational, name)

    def counting(rows, *args, **kwargs):
        seen.append(key(rows))
        return real(rows, *args, **kwargs)
    for mod in MODULES:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return seen


def record_eliminations(monkeypatch):
    """Leading square blocks of the matrices that `rational._eliminate`, the
    one elimination loop, reduces, wherever the call comes from; an
    inverse's augmented [B | I] shows as B."""
    seen = []
    real = rational._eliminate

    def counting(rows, ncols, **forward):
        seen.append(key(r[:len(rows)] for r in rows))
        return real(rows, ncols, **forward)
    monkeypatch.setattr(rational, "_eliminate", counting)
    return seen


def test_each_cone_ray_matrix_is_inverted_once(monkeypatch):
    inverted = record(monkeypatch, "scaled_inverse")
    solved = record(monkeypatch, "solve")
    dets = record(monkeypatch, "det")
    kernels = record(monkeypatch, "nullspace")
    eliminated = record_eliminations(monkeypatch)
    fan = bl_line_p4()
    for v in fan.S:
        fan.psi(v)
    PLConeData(fan)
    fan.open_mori_cone()
    fan.pl_lattice()
    fan.dim_orbifold_cohomology()
    CohomologyRing(fan)

    assert len(fan.max_cones) == 9
    cone_mats, ray_rows, facets = [], set(), set()
    for c in fan.max_cones:
        cs = sorted(c)
        B = key([[fan.S[i].free[j] for i in cs] for j in range(fan.n)])
        cone_mats.append(B)
        ray_rows.add(key(zip(*B)))
        facets.update(key(fan.ray_free(i) for i in cs if i != d) for d in cs)
    # one elimination per cone, for the chart: it gives the inverse and
    # the determinant, so no separate `det` runs on a cone matrix
    assert Counter(m for m in inverted if m in cone_mats) == Counter(cone_mats)
    assert Counter(m for m in eliminated if m in cone_mats) \
        == Counter(cone_mats)
    assert not any(m in cone_mats for m in dets)
    # no per-cone solve, no Cramer ratio and no facet nullspace
    assert not any(m in cone_mats or m in ray_rows for m in solved)
    assert not any(m in facets for m in kernels)
    assert not hasattr(fans.StackyFan, "_facet_data")


def test_box_count_inverts_nothing_beyond_the_charts(monkeypatch):
    # Box(sigma) is read from the chart inverse's columns: building and
    # validating a fan and counting its orbifold cohomology invert each
    # cone's ray matrix once, for its chart
    cyclic = VectorSet(AbelianLattice(2), [(0, 1), (5, -1), (1, 0)])
    twisted = VectorSet(AbelianLattice(2, (2,)),
                        [((1, 0), (1,)), ((0, 1), (0,)), ((-1, -1), (0,))])
    builds = (bl_line_p4, lambda: fans.StackyFan(cyclic, [{0, 1}]),
              lambda: fans.StackyFan(twisted, [{0, 1}, {1, 2}, {0, 2}]))
    inverted = record(monkeypatch, "scaled_inverse")
    for build in builds:
        before = len(inverted)
        fan = build()
        fan.dim_orbifold_cohomology()
        assert len(inverted) - before == len(fan.max_cones)


def test_circuit_readers_share_one_table(monkeypatch):
    # validation (by the wall LP and by the chamber walk's heights), the
    # open Mori cone, CPL_+ and the Chow ring's intersection numbers read
    # the circuit rows from one table per fan, never a chart coordinate
    located, tables = [], {}
    real_locate = fans.StackyFan.locate
    real_circuits = fans.StackyFan.circuits

    def counting_locate(self, x):
        located.append((self, x))
        return real_locate(self, x)

    def counting_circuits(self):
        table = real_circuits(self)
        tables.setdefault(id(self), (self, []))[1].append(table)
        return table
    monkeypatch.setattr(fans.StackyFan, "locate", counting_locate)
    monkeypatch.setattr(fans.StackyFan, "circuits", counting_circuits)
    blown_up = bl_line_p4()
    walked, _ = secondary.enumerate_adapted_fans(VectorSet(
        AbelianLattice(2), [(1, 0), (1, 1), (0, 1), (-1, -1), (-1, 0)]))
    assert len(walked) > 1
    for fan in [blown_up] + walked:
        fan.open_mori_cone()
        assert PLConeData(fan).cpl_plus.rays
    CohomologyRing(blown_up)
    assert located == []
    # every fan reads its table several times, and it is one table
    for fan in [blown_up] + walked:
        seen = tables[id(fan)][1]
        assert len(seen) > 1 and all(t is seen[0] for t in seen)


# the rank-2 vector sets of the `chambers` benchmark workload, each with
# its number of copies in one round
ROUND_SETS = perfbench_constant("RANK2_SETS")
CHAMBER_SETS = [S for S, _ in ROUND_SETS]


def test_pl_lattice_is_the_fraction_conditions_kernel():
    # the integrality conditions pass as int chart rows over vol; the
    # basis is the raw kernel the Fraction conditions gave, row for row
    walked = [f for S in CHAMBER_SETS for f in secondary.enumerate_adapted_fans(
        VectorSet(AbelianLattice(2), S))[0]]
    assert len(walked) == 24
    for fan in walked + [bl_line_p4()]:
        m = len(fan.S)
        conds = []
        for cs, A, vol in fan._charts():
            for i in range(fan.n):
                row = [Fraction(0)] * m
                for k, b in enumerate(cs):
                    row[b] = Fraction(A[k][i], vol)
                conds.append(row)
        assert fan.pl_lattice() == fraction_preimage_lattice(conds)


def count_secondary_fan_work(monkeypatch):
    """The matrices handed to `scaled_inverse` from MODULES, and the vector
    sets handed to `extended_sequences`, each in call order."""
    sequences = []
    real = lattice.extended_sequences

    def counting(vector_set):
        sequences.append(vector_set)
        return real(vector_set)
    monkeypatch.setattr(lattice, "extended_sequences", counting)
    return record(monkeypatch, "scaled_inverse"), sequences


def walk(S):
    """The `chambers` workload's operation on S: every chamber of the
    secondary fan, the orbifold cohomology of each and every wall."""
    vs = VectorSet(AbelianLattice(len(S[0])), S)
    walked, walls = secondary.enumerate_adapted_fans(vs)
    for fan in walked:
        fan.dim_orbifold_cohomology()
    crossings = [secondary.wall_between(walked[a], walked[b])
                 for a, b, _ in walls]
    return vs, walked, crossings


@pytest.mark.parametrize("S", [CHAMBER_SETS[2], BL_LINE_P4_S],
                         ids=["rank2-5", "bl-line-p4"])
def test_secondary_fan_data_is_computed_once_per_vector_set(S, monkeypatch):
    # the chambers share S, so the chart of an n-subset I (its ray matrix
    # B_I), the complement inverse of I (the matrix M_I of the D_b, b not
    # in I) and the extended sequences are computed once for all of them
    inverted, sequences = count_secondary_fan_work(monkeypatch)
    vs, walked, crossings = walk(S)
    assert len(walked) > 1 and crossings
    m, n = len(S), len(S[0])
    D = vs.sequences()[1]
    subsets = list(itertools.combinations(range(m), n))
    ray_mats = {I: key([[S[i][j] for i in I] for j in range(n)])
                for I in subsets}
    complement_mats = {I: key([[D[b][j] for b in range(m) if b not in I]
                               for j in range(len(D[0]))]) for I in subsets}
    # equal D_b can give two subsets the same M_I, so the matrices are
    # counted with the multiplicity of their subsets
    charted = {tuple(sorted(c)) for fan in walked for c in fan.max_cones}
    assert len(charted) < sum(len(fan.max_cones) for fan in walked)
    assert Counter(inverted) == Counter(
        [ray_mats[I] for I in charted] + list(complement_mats.values()))
    assert sequences == [vs]


def test_chamber_round_inverts_each_matrix_once(monkeypatch):
    # one round of the `chambers` workload walks the 12 vector sets below;
    # the workload moves each by a unimodular change of basis, which keeps
    # the chambers and so these counts.  Computed per fan and per call, the
    # round inverted 357 matrices, ran `extended_sequences` 56 times, built
    # 58 wall crossings for its 42 walls and walked 131 Box parallelepipeds
    # for its 83 (vector set, cone) pairs
    inverted, sequences = count_secondary_fan_work(monkeypatch)
    builds = count_wall_builds(monkeypatch)
    boxes = []
    real_box_points = fans.StackyFan._box_points

    def box_points(self, cone_idx):
        boxes.append((self.vector_set, self.max_cones[cone_idx]))
        return real_box_points(self, cone_idx)
    monkeypatch.setattr(fans.StackyFan, "_box_points", box_points)
    walls = 0
    for S, copies in ROUND_SETS + [(BL_LINE_P4_S, 1)]:
        for _ in range(copies):
            walls += len(walk(S)[2])
    assert len(sequences) == 12
    assert len(inverted) == 176
    assert len(builds) == walls == 42
    assert len(boxes) == len(set(boxes)) == 83
