"""Command-line entry points: scenario-driven reproducible runs.

Commands: fans, wallcross, critical, track, mutate, euler, orlov, gkz.
Each takes --scenario FILE, --out DIR, --seed N >= 0.  The exit status is
0 when every verification inside the command passes, 1 when one fails (a
`VerificationFailed` error or a failed check in the report) and 2 on bad
input or a math error (any other `ToricLGError`).  JSON output is key-sorted and
floats keep full 17-digit round-trip precision, so reruns are
byte-identical for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import errors
from .scenario import Scenario


def _jnum(x):
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, Fraction):
        return str(x)
    return x


def _dump(obj, outdir, fname):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, fname)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=_jnum)
        fh.write("\n")


def _rng(seed):
    """numpy's generator for --seed; numpy is imported only by the
    subcommands that draw from it."""
    import numpy as np
    return np.random.default_rng(seed)


def cmd_fans(scn: Scenario, outdir, seed):
    from .secondary import enumerate_adapted_fans, wall_between
    fans, walls = enumerate_adapted_fans(scn.vector_set())
    report = {"name": scn.name, "count": len(fans), "fans": [], "walls": []}
    for i, fan in enumerate(fans):
        report["fans"].append({
            "index": i,
            "rays": fan.rays,
            "cones": [sorted(c) for c in fan.max_cones],
            "dim_orbifold_cohomology": fan.dim_orbifold_cohomology(),
        })
    for a, b, w in walls:
        wc = wall_between(fans[a], fans[b])
        report["walls"].append({
            "between": [a, b],
            "w": list(wc.w),
            "M_plus": wc.M_plus,
            "M_minus": wc.M_minus,
            "discrepancy": wc.discrepancy,
            "kind": wc.kind,
        })
    _dump(report, outdir, "fans.json")
    return 0


def cmd_wallcross(scn: Scenario, outdir, seed):
    from .lg import curve_critical_values
    from .secondary import CurveChart
    wall = scn.wall()
    report = {
        "name": scn.name,
        "kind": wall.kind,
        "w": list(wall.w),
        "k": wall.k,
        "M_plus": wall.M_plus,
        "M_minus": wall.M_minus,
        "discrepancy": wall.discrepancy,
        "swapped": wall.swapped,
        "J": wall.J,
        "K": wall.K,
        "hat_b": (list(wall.hat_b.free) if wall.hat_b is not None else None),
    }
    if wall.kind != "crepant":
        chart = CurveChart(wall)
        report["e_plus"] = chart.e_plus
        report["e_minus"] = chart.e_minus
        tval = scn.get("curve_parameter")
        vals = curve_critical_values(wall, tval)
        report["curve_values_at_t"] = {
            "t": _jnum(complex(tval)),
            "values": [[_jnum(complex(v)), m] for v, m in vals],
        }
    _dump(report, outdir, "wallcross.json")
    return 0


def cmd_critical(scn: Scenario, outdir, seed):
    from .lg import conifold_point, critical_points, newton_nondegenerate
    at, F = scn.potential()
    rng = _rng(seed)
    pts = critical_points(F, rng=rng)
    report = {"name": scn.name, "at": _jnum(complex(at)),
              "count": len(pts), "expected": F.expected_count(),
              "points": []}
    for p in pts:
        report["points"].append({
            "log_point": [_jnum(z) for z in p.log_point],
            "value": _jnum(p.value),
            "nondegenerate": p.nondegenerate,
            "tag": p.tag,
        })
    if scn.get("nondegeneracy_scan"):
        ok, faces = newton_nondegenerate(F, rng=rng)
        report["newton_nondegenerate"] = ok
        report["face_budgets"] = faces
    if scn.get("conifold"):
        p = conifold_point(F)
        report["conifold"] = {"log_point": [_jnum(z) for z in p.log_point],
                              "value": _jnum(p.value)}
    _dump(report, outdir, "critical.json")
    return 0


def _track(scn, seed):
    from .lg import track_critical_values
    family = scn.family()
    params = scn.path_values(at_least=2)
    rng = _rng(seed)
    return track_critical_values(family, params, rng=rng), params


def cmd_track(scn: Scenario, outdir, seed):
    traj, params = _track(scn, seed)
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "trajectory.csv")
    with open(csv_path, "w") as fh:
        header = ["step", "param_re", "param_im"]
        for b in range(traj.nbranches):
            header += [f"re_u{b}", f"im_u{b}"]
        fh.write(",".join(header) + "\n")
        for k, s in enumerate(params):
            s = complex(s)
            row = [str(k), "%.17g" % s.real, "%.17g" % s.imag]
            for v in traj.values_at_step(k):
                row += ["%.17g" % v.real, "%.17g" % v.imag]
            fh.write(",".join(row) + "\n")
    _dump({"name": scn.name, "events": traj.events}, outdir, "events.json")
    return 0


def cmd_mutate(scn: Scenario, outdir, seed):
    from .ktheory import (bl_line_p4_collection,
                          bl_line_p4_initial_collection,
                          build_cohomology_ring, unitriangular)
    from .mutation import MarkedReflectionSystem, KBackend, evolve
    variety = scn.collection()
    phase = float(scn.get("phase"))
    traj, params = _track(scn, seed)
    ring = build_cohomology_ring(variety)
    back = KBackend(ring)
    initial = bl_line_p4_initial_collection(ring)
    order0 = sorted(range(traj.nbranches),
                    key=lambda b: -traj.values[0][b].imag)
    vectors = [None] * traj.nbranches
    labels = [None] * traj.nbranches
    for pos, b in enumerate(order0):
        vectors[b] = back.flatten(initial[pos].ch)
        labels[b] = initial[pos].label
    mrs = MarkedReflectionSystem(back, vectors, traj.values_at_step(0),
                                 phase=phase, labels=labels)
    final, events = evolve(mrs, traj)
    # compare against the expected nine-term collection up to sign, the
    # conifold vector pinned to +O
    expected = bl_line_p4_collection(ring)
    order1 = sorted(range(traj.nbranches),
                    key=lambda b: -traj.values[-1][b].imag)
    got = [final.vectors[b] for b in order1]
    want = [back.flatten(c.ch) for c in expected]
    conifold_pos = min(range(len(order1)),
                       key=lambda pos: abs(traj.values[-1][order1[pos]].imag))
    signs = []
    ok = True
    for pos, (g, w) in enumerate(zip(got, want)):
        if g == w:
            signs.append(1)
        elif tuple(-x for x in g) == w:
            signs.append(-1)
        else:
            ok = False
            signs.append(0)
    if ok and signs[conifold_pos] != 1:
        ok = False
    G = final.gram(order1)
    unipotent = unitriangular(G)
    report = {
        "name": scn.name,
        "initial": [labels[b] for b in order0],
        "events": [e.as_dict() for e in events],
        "final": [expected[pos].label if signs[pos] == 1 else
                  ("-" + expected[pos].label if signs[pos] == -1 else "?")
                  for pos in range(len(got))],
        "match_up_to_sign": ok,
        "gram_unipotent_upper_triangular": unipotent,
        "gram": [[str(x) for x in row] for row in G],
    }
    _dump(report, outdir, "mutate.json")
    return 0 if (ok and unipotent) else 1


def cmd_euler(scn: Scenario, outdir, seed):
    from .ktheory import (GammaData, KClass, build_cohomology_ring,
                          euler_pairing_gamma, euler_pairing_hrr)
    size, spread = scn.get("euler.gram_size"), scn.get("euler.range")
    tol = float(scn.get("tolerances.gamma_vs_hrr"))
    rng = _rng(seed)
    report = {"name": scn.name, "varieties": {}}
    worst = 0.0
    for vname in scn.get("euler.varieties"):
        ring = build_cohomology_ring(scn.variety(vname))
        gd = GammaData(ring)
        bundles = []
        for _ in range(size):
            c1 = ring.zero()
            for ray in range(ring.m):
                c1 = c1 + ring.divisor(ray).scaled(
                    Fraction(int(rng.integers(-spread, spread + 1))))
            bundles.append(KClass.line_bundle(ring, c1, "L"))
        gram = []
        dev = 0.0
        for a in bundles:
            row = []
            for b in bundles:
                exact = euler_pairing_hrr(a, b)
                approx = euler_pairing_gamma(gd, a, b, check=False)
                dev = max(dev, abs(approx - exact))
                row.append(exact)
            gram.append(row)
        report["varieties"][vname] = {"gram": gram, "max_deviation": dev}
        worst = max(worst, dev)
    report["max_deviation"] = worst
    report["tolerance"] = tol
    _dump(report, outdir, "euler.json")
    return 0 if worst < tol else 1


def cmd_orlov(scn: Scenario, outdir, seed):
    from .ktheory import verify_sod
    bd = scn.blowup()
    h = scn.get("orlov.h")
    h = min(1, bd.J) if h is None else h
    classes, blocks = bd.orlov_basis(h)
    ok, G = verify_sod(classes, blocks)
    bd.verify_k_relations()
    report = {
        "name": scn.name,
        "J": bd.J,
        "h": h,
        "blocks": blocks,
        "labels": [c.label for c in classes],
        "gram": G,
        "semiorthogonal_and_unimodular": ok,
        "k_relations_vanish": True,
    }
    _dump(report, outdir, "orlov.json")
    return 0 if ok else 1


def cmd_gkz(scn: Scenario, outdir, seed):
    from .gkz import char_variety_at_limit, generic_rank_check, gkz_relation
    fan = scn.fan("gkz.chart") if scn.get("gkz.chart") is not None \
        else scn.variety(scn.get("gkz.variety"))
    rng = _rng(seed)
    ok, witness = char_variety_at_limit(fan)
    rank_report = generic_rank_check(fan, rng=rng)
    ops = []
    L = fan.kernel_basis()
    if L:
        ne = fan.extended_mori_cone()
        for ray in ne.extreme_rays()[:3]:
            lam = [sum(int(ray[j]) * L[j][b] for j in range(len(L)))
                   for b in range(len(fan.S))]
            op = gkz_relation(fan, (0,) * fan.n, lam)
            ops.append({"lambda": lam, "pretty": op.pretty(),
                        "annihilates": op.annihilates()})
    report = {
        "name": scn.name,
        "char_variety_trivial_at_limit": ok,
        "witness": witness if witness is None else [str(x) for x in witness],
        "rank": rank_report,
        "operators": ops,
    }
    _dump(report, outdir, "gkz.json")
    all_ok = ok and all(o["annihilates"] for o in ops)
    return 0 if all_ok else 1


COMMANDS = {
    "fans": cmd_fans,
    "wallcross": cmd_wallcross,
    "critical": cmd_critical,
    "track": cmd_track,
    "mutate": cmd_mutate,
    "euler": cmd_euler,
    "orlov": cmd_orlov,
    "gkz": cmd_gkz,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toriclg",
        description="Secondary-fan wall crossings, LG critical points, "
                    "Gamma-class Euler pairings and mutation bookkeeping")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:       # numpy's generators take no negative seed
        parser.error(f"argument --seed: {args.seed} is negative")
    out = os.path.abspath(args.out)
    while not os.path.exists(out):
        out = os.path.dirname(out)
    if not os.path.isdir(out):
        parser.error(f"argument --out: {out} is not a directory")
    try:
        scn = Scenario.load(args.scenario)
        rc = COMMANDS[args.command](scn, args.out, args.seed)
    except errors.ToricLGError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, errors.VerificationFailed) else 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
