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
import cmath
import json
import os
import sys
from fractions import Fraction

from . import errors
from .scenario import Scenario, _is_int, _is_real, compile_expr


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
    return path


def _rng(seed):
    """numpy's generator for --seed; numpy is imported only by the
    subcommands that draw from it."""
    import numpy as np
    return np.random.default_rng(seed)


def _checked(value, ok, field, want):
    """value, or a ScenarioError naming the field when ok(value) fails."""
    if not ok(value):
        raise errors.ScenarioError(f"{field} must be {want}, got {value!r}")
    return value


def _section(scn, name):
    """The scenario's `name` object, {} when absent."""
    return _checked(scn.doc.get(name, {}), lambda s: isinstance(s, dict),
                    name, "an object")


def _expr(text, var, field):
    """compile_expr, with a parse error naming the scenario field.  Every
    expression is a potential coefficient, so a failed evaluation or a zero
    or non-finite value names the field and the parameter value."""
    try:
        fn = compile_expr(text, var)
    except errors.ScenarioError as exc:
        raise errors.ScenarioError(f"{field}: {exc}") from None

    def value(s):
        try:
            x = fn(s)
        except ArithmeticError as exc:
            problem = exc
        else:
            if x != 0 and cmath.isfinite(x):
                return x
            problem = "a potential coefficient must be finite and nonzero"
        raise errors.ScenarioError(f"{field} at {var} = {s:.6g}: {problem}")
    return value


def _enumerate(scn):
    from .secondary import enumerate_adapted_fans
    if scn.vector_set is None:
        raise errors.ScenarioError("scenario has no lattice/S data")
    return enumerate_adapted_fans(scn.vector_set)


def cmd_fans(scn: Scenario, outdir, seed):
    from .secondary import wall_between
    fans, walls = _enumerate(scn)
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


def _wall_from_scenario(scn):
    from .secondary import wall_between
    wall_spec = scn.doc.get("wall")
    if wall_spec and "plus" in wall_spec:
        fp = scn.named_fan(wall_spec["plus"], "wall.plus")
        fm = scn.named_fan(wall_spec["minus"], "wall.minus")
        return wall_between(fp, fm)
    fans, walls = _enumerate(scn)
    if not walls:
        raise errors.NotAdjacent("no walls in the secondary fan")
    a, b, _ = walls[0]
    return wall_between(fans[a], fans[b])


def cmd_wallcross(scn: Scenario, outdir, seed):
    from .lg import curve_critical_values
    from .secondary import CurveChart
    wall = _wall_from_scenario(scn)
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
        tval = _checked(scn.doc.get("curve_parameter", 1.0), _is_real,
                        "curve_parameter", "a real number")
        vals = curve_critical_values(wall, tval)
        report["curve_values_at_t"] = {
            "t": _jnum(complex(tval)),
            "values": [[_jnum(complex(v)), m] for v, m in vals],
        }
    _dump(report, outdir, "wallcross.json")
    return 0


def _family_from_scenario(scn):
    pot = scn.doc.get("potential")
    if pot is None:
        raise errors.ScenarioError("scenario has no potential")
    _checked(pot, lambda p: isinstance(p, dict), "potential", "an object")
    var = scn.path_variable()
    if "preset" in pot:
        _checked(pot["preset"], lambda p: p == "bl_line_p4",
                 "potential.preset", "'bl_line_p4'")
        from .families import bl_line_p4_family_lambda
        texpr = pot.get("t_of_lambda")
        t_of = _expr(texpr, var, "potential.t_of_lambda") if texpr else None
        return bl_line_p4_family_lambda(t_of)
    from .lg import chart_family
    if "chart" not in pot:
        raise errors.ScenarioError("potential needs a chart or a preset")
    qs = _checked(pot.get("q", []), lambda q: isinstance(q, list),
                  "potential.q", "a list")
    ts = _checked(pot.get("t", {}), lambda t: isinstance(t, dict) and all(
        k.isascii() and k.isdigit() for k in t), "potential.t",
        "an object keyed by S indices")
    qexprs = [_expr(e, var, f"potential.q[{i}]") for i, e in enumerate(qs)]
    texprs = {int(k): _expr(e, var, f"potential.t[{k!r}]")
              for k, e in ts.items()}
    fan = scn.named_fan(pot["chart"], "potential.chart")
    potential = chart_family(fan, chi=pot.get("chi"),
                             splitting=pot.get("splitting"))

    def family(s):
        return potential([f(s) for f in qexprs],
                         {k: f(s) for k, f in texprs.items()})
    return family


def cmd_critical(scn: Scenario, outdir, seed):
    from .lg import conifold_point, critical_points, newton_nondegenerate
    family = _family_from_scenario(scn)
    at = scn.doc.get("at", scn.path_values()[0])
    if "at" in scn.doc:
        _checked(at, _is_real, "at", "a real number")
    F = family(complex(at))
    scan = scn.doc.get("nondegeneracy_scan", False)
    if scan and F.expected_count() is None:
        raise errors.ScenarioError(
            "nondegeneracy_scan needs a potential whose Newton polytope has "
            "0 in its interior")
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
    if scan:
        ok, faces = newton_nondegenerate(F, rng=rng)
        report["newton_nondegenerate"] = ok
        report["face_budgets"] = faces
    if scn.doc.get("conifold", False):
        p = conifold_point(F)
        report["conifold"] = {"log_point": [_jnum(z) for z in p.log_point],
                              "value": _jnum(p.value)}
    _dump(report, outdir, "critical.json")
    return 0


def _track(scn, seed):
    from .lg import track_critical_values
    family = _family_from_scenario(scn)
    params = scn.path_values()
    if len(params) < 2:
        field = "path.values" if "values" in scn.doc["path"] else "path.steps"
        raise errors.ScenarioError(
            f"{field} must give at least two path parameters to track, "
            f"got {len(params)}")
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
            for br in traj.branches:
                v = br[k].value
                row += ["%.17g" % v.real, "%.17g" % v.imag]
            fh.write(",".join(row) + "\n")
    _dump({"name": scn.name, "events": traj.events}, outdir, "events.json")
    return 0


def cmd_mutate(scn: Scenario, outdir, seed):
    from .ktheory import (bl_line_p4, bl_line_p4_collection,
                          bl_line_p4_initial_collection,
                          build_cohomology_ring)
    from .mutation import MarkedReflectionSystem, KBackend, evolve
    coll_spec = _section(scn, "collection")
    if coll_spec.get("preset") != "bl_line_p4":
        raise errors.ScenarioError("mutate currently ships the bl_line_p4 preset")
    phase = float(_checked(scn.doc.get("phase", 0.0), _is_real, "phase",
                           "a real number"))
    traj, params = _track(scn, seed)
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    initial = bl_line_p4_initial_collection(ring)
    order0 = sorted(range(traj.nbranches),
                    key=lambda b: -traj.branches[b][0].value.imag)
    vectors = [None] * traj.nbranches
    labels = [None] * traj.nbranches
    for pos, b in enumerate(order0):
        vectors[b] = back.flatten(initial[pos].ch)
        labels[b] = initial[pos].label
    mrs = MarkedReflectionSystem(back, vectors,
                                 [br[0].value for br in traj.branches],
                                 phase=phase, labels=labels)
    final, events = evolve(mrs, traj)
    # compare against the expected nine-term collection up to sign, the
    # conifold vector pinned to +O
    expected = bl_line_p4_collection(ring)
    order1 = sorted(range(traj.nbranches),
                    key=lambda b: -traj.branches[b][-1].value.imag)
    got = [final.vectors[b] for b in order1]
    want = [back.flatten(c.ch) for c in expected]
    conifold_pos = min(range(len(order1)),
                       key=lambda pos: abs(traj.branches[order1[pos]][-1]
                                           .value.imag))
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
    G = [[final.backend.pair(got[a], got[b]) for b in range(len(got))]
         for a in range(len(got))]
    unipotent = all(G[a][a] == 1 for a in range(len(got))) \
        and all(G[a][b] == 0 for a in range(len(got)) for b in range(a))
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


_VARIETIES = None


def _variety(name, field):
    """The preset variety `name`, read from the scenario field `field`."""
    global _VARIETIES
    from .ktheory import bl_line_p4, bl_point_p2, p1xp1, projective_space
    if _VARIETIES is None:
        _VARIETIES = {
            "p1": lambda: projective_space(1),
            "p2": lambda: projective_space(2),
            "p4": lambda: projective_space(4),
            "p1xp1": p1xp1,
            "bl_line_p4": bl_line_p4,
            "bl_point_p2": bl_point_p2,
        }
    if not isinstance(name, str):
        raise errors.ScenarioError(
            f"{field} must be a variety name (a string), got {name!r}")
    if name not in _VARIETIES:
        raise errors.ScenarioError(f"{field}: unknown variety {name!r}")
    return _VARIETIES[name]()


def cmd_euler(scn: Scenario, outdir, seed):
    from .ktheory import (GammaData, KClass, build_cohomology_ring,
                          euler_pairing_gamma, euler_pairing_hrr)
    spec = _section(scn, "euler")
    varieties = _checked(spec.get("varieties",
                                  ["p2", "p4", "p1xp1", "bl_line_p4"]),
                         lambda v: isinstance(v, list), "euler.varieties",
                         "a list of variety names")
    size = _checked(spec.get("gram_size", 20), lambda x: _is_int(x) and x >= 1,
                    "euler.gram_size", "an integer >= 1")
    spread = _checked(spec.get("range", 3), lambda x: _is_int(x) and x >= 0,
                      "euler.range", "an integer >= 0")
    tols = _checked(scn.tolerances, lambda t: isinstance(t, dict),
                    "tolerances", "an object")
    tol = float(_checked(tols.get("gamma_vs_hrr", 1e-6),
                         lambda x: _is_real(x) and x > 0,
                         "tolerances.gamma_vs_hrr", "a positive number"))
    rng = _rng(seed)
    report = {"name": scn.name, "varieties": {}}
    worst = 0.0
    for i, vname in enumerate(varieties):
        ring = build_cohomology_ring(_variety(vname, f"euler.varieties[{i}]"))
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
    from .ktheory import BlowupData, verify_sod
    spec = _section(scn, "orlov")
    if "h" in spec:
        _checked(spec["h"], _is_int, "orlov.h", "an integer")
    wall = _wall_from_scenario(scn)
    if "center_twist_ray" in spec:
        shared = set(wall.plus_fan.rays) & set(wall.minus_fan.rays)
        _checked(spec["center_twist_ray"], lambda b: _is_int(b) and b in shared,
                 "orlov.center_twist_ray",
                 f"the S index of a ray of both fans {sorted(shared)}")
    bd = BlowupData(wall, spec.get("center_twist_ray"))
    h = spec.get("h", min(1, bd.J))
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
    spec = _section(scn, "gkz")
    fan = scn.named_fan(spec["chart"], "gkz.chart") if "chart" in spec \
        else _variety(spec.get("variety", "p2"), "gkz.variety")
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
