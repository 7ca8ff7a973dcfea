"""The fraction-free elimination against the `Fraction` Gauss-Jordan loop
it replaced (`elimination_oracle.py`): every entry read from it returns an
equal value of the same type, on random matrices and on every matrix the
chamber inputs and the shipped scenarios hand the kernel."""
import ast
import pathlib
import random
import sys
from fractions import Fraction

import pytest

import elimination_oracle as oracle
from toriclg import rational, secondary
from toriclg.cli import main
from toriclg.lattice import AbelianLattice, VectorSet

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES = ("rref", "rank", "solve", "nullspace", "det", "scaled_inverse")


def perfbench_constant(name):
    """A literal constant of perfbench/workloads.py, read from its source."""
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/workloads.py defines no {name}")


RANK2_SETS = [S for S, _ in perfbench_constant("RANK2_SETS")]
BL_LINE_P4_S = perfbench_constant("BL_LINE_P4_S")


def same(a, b):
    """Equal values of the same types, containers compared entry by entry."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcome(f, *args):
    """f's result, or the class of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def check(name, *args):
    got = outcome(getattr(rational, name), *args)
    want = outcome(getattr(oracle, name), *args)
    assert same(got, want), (name, args, got, want)
    return got


def random_matrix(rng, m, n):
    """An m x n matrix of `int` or `Fraction` entries, often with a zero
    row, a repeated combination of rows or a zero leading column."""
    fractional = rng.random() < 0.5

    def entry():
        x = rng.randint(-4, 4)
        return Fraction(x, rng.randint(1, 4)) if fractional else x
    A = [[entry() if rng.random() < 0.8 else 0 for _ in range(n)]
         for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        # a dependent row: singular or rank-deficient
        i, j = rng.sample(range(m), 2)
        k = rng.choice((-2, -1, 2, Fraction(1, 3)))
        A[i] = [k * x for x in A[j]]
        if not fractional:
            A[i] = [int(x) for x in A[i]]
    if m and rng.random() < 0.2:
        A[rng.randrange(m)] = [0] * n
    if m and n and rng.random() < 0.2:
        for row in A:
            row[0] = 0
    return [tuple(r) for r in A]


def test_random_matrices_match_the_fraction_loop():
    rng = random.Random(20)
    seen = {"square": 0, "singular": 0, "wide": 0, "tall": 0, "fraction": 0,
            "negative pivot": 0, "inconsistent": 0, "negative det": 0}
    shapes = [(0, 0)] + [(rng.randint(1, 6), rng.randint(1, 6))
                         for _ in range(599)]
    for m, n in shapes:
        A = random_matrix(rng, m, n)
        check("rref", A)
        check("rank", A)
        check("nullspace", A, n)
        if A:
            check("rref", A, rng.randint(0, n))
            x = [rng.randint(-3, 3) for _ in range(n)]
            b = tuple(sum((a * xi for a, xi in zip(r, x)), Fraction(0))
                      for r in A)
            check("solve", A, b)
            if check("solve", A, b[:-1] + (b[-1] + 1,)) is None:
                seen["inconsistent"] += 1
        seen["wide"] += m < n
        seen["tall"] += m > n
        seen["fraction"] += any(type(x) is Fraction for r in A for x in r)
        seen["negative pivot"] += bool(A and A[0] and A[0][0] < 0)
        if m == n:
            seen["square"] += 1
            d = check("det", A)
            seen["singular"] += d == 0
            if all(type(x) is int for r in A for x in r):
                # A and A with its first row negated: opposite determinants
                flipped = [tuple(-x for x in r) if i == 0 else r
                           for i, r in enumerate(A)]
                for B in (A, flipped):
                    check("scaled_inverse", B)
                    seen["negative det"] += rational.det(B) < 0
    check("solve", [], ())
    check("nullspace", [], 3)
    assert min(seen.values()) > 20, seen


def record_calls(monkeypatch):
    """(name, args) of every call of NAMES, from any module of the package
    (rational's own internal calls included), rows copied as tuples."""
    calls = []
    modules = [m for k, m in sys.modules.items()
               if k == "toriclg" or k.startswith("toriclg.")]
    for name in NAMES:
        real = getattr(rational, name)

        def recording(rows, *args, _real=real, _name=name):
            rows = [tuple(r) for r in rows]
            calls.append((_name, rows) + args)
            return _real(rows, *args)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recording)
    return calls


def replay(calls):
    done = set()
    for name, *args in calls:
        key = (name, repr(args))
        if key not in done:
            done.add(key)
            check(name, *args)
    return {name for name, *_ in calls}


def test_chamber_inputs_match_the_fraction_loop(monkeypatch):
    # every chart, complement inverse and wall nullspace of the chamber
    # workload's inputs
    calls = record_calls(monkeypatch)
    for S in RANK2_SETS + [BL_LINE_P4_S]:
        fans, walls = secondary.enumerate_adapted_fans(
            VectorSet(AbelianLattice(len(S[0])), S))
        for fan in fans:
            fan.dim_orbifold_cohomology()
        for a, b, _ in walls:
            secondary.wall_between(fans[a], fans[b])
    monkeypatch.undo()
    assert {"scaled_inverse", "nullspace"} <= replay(calls)


@pytest.mark.parametrize("scenario", sorted(
    p.name for p in (ROOT / "scenarios").glob("*.json")))
def test_scenario_fans_match_the_fraction_loop(scenario, monkeypatch,
                                               tmp_path):
    calls = record_calls(monkeypatch)
    rc = main(["fans", "--scenario", str(ROOT / "scenarios" / scenario),
               "--out", str(tmp_path)])
    monkeypatch.undo()
    assert rc in (0, 2)
    replay(calls)


def test_elimination_stays_on_integers(monkeypatch):
    # every row the loop receives and leaves holds `int` entries only
    rows_seen = []
    real = rational._eliminate

    def checking(rows, ncols, **forward):
        rows_seen.extend(map(tuple, rows))
        out = real(rows, ncols, **forward)
        rows_seen.extend(map(tuple, rows))
        return out
    monkeypatch.setattr(rational, "_eliminate", checking)
    fans, _ = secondary.enumerate_adapted_fans(
        VectorSet(AbelianLattice(4), BL_LINE_P4_S))
    assert fans and rows_seen
    assert all(type(x) is int for row in rows_seen for x in row)


def test_singular_complement_is_skipped_not_divided_by_zero():
    # S_I = {v0, v1} spans a line, so the complement {D_2, D_3} is no basis
    # of L^*_Q: the inverse raises ValueError and the table skips I, as
    # the chart of I finds no inverse either
    S = [(1, 0), (-1, 0), (0, 1), (1, -1)]
    vs = VectorSet(AbelianLattice(2), S)
    D = vs.sequences()[1]

    def complement(rest):
        return [[D[b][j] for b in rest] for j in range(len(D[0]))]
    with pytest.raises(ValueError):
        rational.scaled_inverse(complement([2, 3]))
    table = vs.complements()
    assert frozenset({0, 1}) not in table and len(table) == 5
    assert vs.chart({0, 1}) is None
    for I, (rest, adj) in table.items():
        assert rest == [b for b in range(4) if b not in I]
        assert adj == rational.scaled_inverse(complement(rest))[0]
        assert vs.chart(I) is not None
    with pytest.raises(ValueError):
        rational.scaled_inverse([(2, 4), (1, 2)])
