import json
import os
import subprocess
import sys

import pytest

from toriclg import errors
from toriclg.cli import main
from toriclg.scenario import FIELDS, Scenario, compile_expr

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scn(name):
    return os.path.join(SCN, name)


def read(outdir, fname):
    with open(os.path.join(outdir, fname)) as fh:
        return json.load(fh)


def test_expression_parser():
    f = compile_expr("lam^(2/3)+lam^(2/5)", "lam")
    lam = 12.5
    assert abs(f(lam) - (lam ** (2 / 3) + lam ** (2 / 5))) < 1e-14
    g = compile_expr("1/lam", "lam")
    assert abs(g(4.0) - 0.25) < 1e-15
    h = compile_expr("-2*lam + 3", "lam")
    assert abs(h(1.0) - 1.0) < 1e-15
    with pytest.raises(Exception):
        compile_expr("lam + bad", "lam")


def test_scenario_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "lattice": {"rank": 2}, "S": []}))
    with pytest.raises(errors.ScenarioError):
        Scenario.load(str(p))


# the table's fields with no rows below them
LEAVES = [f.path for f in FIELDS if not f.path.endswith(("[]", "*"))
          and not any(g.path.startswith((f.path + ".", f.path + "["))
                      for g in FIELDS)]


def loaded(doc):
    """The checked leaf fields of the scenario doc, or the error loading
    it."""
    try:
        scenario = Scenario(doc)
    except errors.ScenarioError as exc:
        return str(exc)
    return [scenario.get(path) for path in LEAVES]


def edited(doc, path, null):
    """A copy of doc with the field at `path` set to null or deleted."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if null:
        parent[path[-1]] = None
    else:
        del parent[path[-1]]
    return out


@pytest.mark.parametrize("name", ["bl-line-p4.json", "p2.json"])
def test_null_field_reads_as_absent(name):
    # each field of the table, at the top or one object below, read as
    # null and as deleted: the same checked values or the same error
    with open(scn(name)) as fh:
        doc = json.load(fh)
    rows = {tuple(field.path.split(".")) for field in FIELDS}
    paths = [(k,) for k in doc] + [(k, j) for k in doc
                                   if isinstance(doc[k], dict) for j in doc[k]]
    for path in filter(rows.__contains__, paths):
        assert loaded(edited(doc, path, True)) == \
            loaded(edited(doc, path, False)), path


def test_cmd_critical_q_count_mismatch_exits_2(tmp_path, capsys):
    with open(scn("blowup-c2.json")) as fh:
        doc = json.load(fh)
    doc["potential"]["q"] = ["lam"]      # the c2 chart takes no q-values
    p = tmp_path / "bad-q.json"
    p.write_text(json.dumps(doc))
    rc = main(["critical", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "ScenarioError" in capsys.readouterr().err


def p2_with(**fields):
    """p2.json's text with some top-level fields replaced."""
    with open(scn("p2.json")) as fh:
        doc = json.load(fh)
    doc.update(fields)
    return json.dumps(doc)


MALFORMED = [
    # (case, file text or update of p2.json's path, text named on stderr)
    ("invalid-json", '{"name": "p2", "path": {"steps": 6,}', "invalid JSON"),
    ("not-an-object", '["p2"]', "JSON object"),
    ("path-not-an-object", '{"name": "p2", "path": [0.5, 2.0]}',
     "path must be an object"),
    ("steps-missing", '{"name": "p2", "path": {"from": 0.5, "to": 2.0}}',
     "path.steps"),
    ("steps-zero", {"steps": 0}, "path.steps"),
    ("steps-string", {"steps": "6"}, "path.steps"),
    ("steps-negative", {"steps": -3}, "path.steps"),
    ("unknown-grid", {"grid": "cubic"}, "path.grid"),
    ("geometric-from-zero", {"grid": "geometric", "from": 0}, "path.from"),
    ("geometric-to-negative", {"grid": "geometric", "to": -1.5}, "path.to"),
    ("from-not-a-number", {"from": "0.5"}, "path.from"),
    ("S-vector-too-long", p2_with(S=[[1, 0], [0, 1, 0], [-1, -1]]), "S[1]"),
    ("S-float-entry", p2_with(S=[[1, 0], [0, 1.5], [-1, -1]]), "S[1]"),
    ("S-bool-entry", p2_with(S=[[True, 0], [0, 1], [-1, -1]]), "S[0]"),
    ("S-entry-not-a-list", p2_with(S=[1, [0, 1], [-1, -1]]), "S[0]"),
    ("S-not-full-dimensional", p2_with(S=[[1, 0], [-1, 0], [2, 0]]), "S"),
    ("rank-string", p2_with(lattice={"rank": "2"}), "lattice.rank"),
    ("rank-zero", p2_with(lattice={"rank": 0}), "lattice.rank"),
    ("rank-float", p2_with(lattice={"rank": 2.0}), "lattice.rank"),
    ("torsion-factor-one", p2_with(lattice={"rank": 2, "torsion": [1]}),
     "lattice"),
    ("potential-not-an-object", p2_with(potential="p2"), "potential"),
    ("potential-without-chart", p2_with(potential={"q": ["lam"]}),
     "chart or a preset"),
    ("q-not-a-list", p2_with(potential={"chart": "p2", "q": 5}),
     "potential.q"),
    ("unknown-preset", p2_with(potential={"preset": "p3"}),
     "potential.preset"),
    ("t-key-not-an-integer",
     p2_with(potential={"chart": "p2", "q": ["lam"], "t": {"x": "lam"}}),
     "potential.t"),
    ("t-key-not-a-ghost",
     p2_with(potential={"chart": "p2", "q": ["lam"], "t": {"2": "lam"}}),
     "ghost indices"),
    ("splitting-repeated",
     p2_with(potential={"chart": "p2", "q": ["lam"], "splitting": [0, 0]}),
     "splitting"),
    ("splitting-not-a-ray",
     p2_with(potential={"chart": "p2", "q": ["lam"], "splitting": [0, 7]}),
     "splitting"),
    ("chi-not-numbers",
     p2_with(potential={"chart": "p2", "q": ["lam"], "chi": ["a", "b"]}),
     "chi"),
    ("chi-too-short",
     p2_with(potential={"chart": "p2", "q": ["lam"], "chi": [1]}), "chi"),
    ("at-not-a-number", p2_with(at="x"), "at"),
    ("chart-not-a-string",
     p2_with(potential={"chart": ["p2"], "q": ["lam"], "t": {}}),
     "potential.chart"),
    ("fans-not-an-object", p2_with(fans=[[0, 1]]), "fans must be an object"),
    ("fan-cone-not-integers", p2_with(fans={"p2": [["a", 1]]}), "fans.p2"),
    ("fan-cone-not-a-list", p2_with(fans={"p2": ["x"]}), "fans.p2"),
    ("wall-not-an-object", p2_with(wall="p2"), "wall must be an object"),
    ("values-not-numbers", {"values": ["x"]}, "path.values"),
    ("values-not-a-list", {"values": 0.5}, "path.values"),
    ("values-bad-pair", {"values": [[1, 0, 0]]}, "path.values"),
    ("prefactor-not-a-pair", {"prefactor": [0, 1, 2]}, "path.prefactor"),
    ("prefactor-not-numbers", {"prefactor": ["0", "1"]}, "path.prefactor"),
]
# `track` reads no `at`
CRITICAL_ONLY = {"at-not-a-number"}
MALFORMED_RUNS = [(case, content, field, command)
                  for case, content, field in MALFORMED
                  for command in ("critical", "track")
                  if command == "critical" or case not in CRITICAL_ONLY]


@pytest.mark.parametrize("case,content,field,command", MALFORMED_RUNS,
                         ids=[f"{r[0]}-{r[3]}" for r in MALFORMED_RUNS])
def test_malformed_scenario_exits_2(tmp_path, capsys, command, case,
                                    content, field):
    p = tmp_path / f"{case}.json"
    if isinstance(content, str):
        p.write_text(content)
    else:
        with open(scn("p2.json")) as fh:
            doc = json.load(fh)
        doc["path"].update(content)
        p.write_text(json.dumps(doc))
    rc = main([command, "--scenario", str(p), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ScenarioError" in err and field in err
    assert "Traceback" not in err


def with_fields(name, **fields):
    """A shipped scenario's text with some top-level fields replaced."""
    with open(scn(name)) as fh:
        doc = json.load(fh)
    doc.update(fields)
    return json.dumps(doc)


MALFORMED_FIELDS = [
    # (command, scenario text, text named on stderr)
    ("mutate", with_fields("bl-line-p4.json", phase="x"), "phase"),
    ("orlov", with_fields("bl-line-p4.json", orlov={"h": "a"}), "orlov.h"),
    ("euler", with_fields("euler-gram.json", euler={"gram_size": -1}),
     "euler.gram_size"),
    ("euler", with_fields("euler-gram.json", euler={"range": -1}),
     "euler.range"),
    ("critical", with_fields("a1.json", potential={
        "chart": "orbifold", "q": [], "t": {"2": "1.2.3"}}), "potential.t"),
    ("orlov", with_fields("bl-line-p4.json",
                          orlov={"h": 1, "center_twist_ray": "x"}),
     "orlov.center_twist_ray"),
    ("euler", with_fields("euler-gram.json", tolerances={"gamma_vs_hrr": "x"}),
     "tolerances.gamma_vs_hrr"),
    ("gkz", with_fields("p2.json", gkz="x"), "gkz"),
    ("euler", with_fields("euler-gram.json", euler="x"),
     "euler"),
    ("orlov", with_fields("bl-line-p4.json", orlov="x"),
     "orlov"),
    ("mutate", with_fields("bl-line-p4.json", collection="x"),
     "collection"),
    ("critical", with_fields("a1.json", fans={
        "orbifold": [["a", 1]], "resolution": [[0, 2], [2, 1]]}),
     "fans.orbifold"),
    ("track", with_fields("a1.json", path={"values": ["x"]}), "path.values"),
    ("wallcross", with_fields("blowup-c2.json", curve_parameter="x"),
     "curve_parameter"),
    ("wallcross", with_fields("a1.json", wall={"plus": "orbifold"}),
     "wall"),
]


@pytest.mark.parametrize("command,content,field", MALFORMED_FIELDS,
                         ids=[f"{c[0]}-{c[2]}" for c in MALFORMED_FIELDS])
def test_malformed_command_field_exits_2(tmp_path, capsys, command, content,
                                         field):
    p = tmp_path / "bad.json"
    p.write_text(content)
    rc = main([command, "--scenario", str(p), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ScenarioError" in err and field in err
    assert "Traceback" not in err


def test_failed_verification_exits_1(tmp_path, capsys, monkeypatch):
    # a valid input whose internal cross-check fails: the volume count and
    # the per-cone Box count of `dim_orbifold_cohomology` disagree
    from toriclg.fans import StackyFan
    real = StackyFan.fan_polytope_volume
    monkeypatch.setattr(StackyFan, "fan_polytope_volume",
                        lambda fan: real(fan) + 1)
    rc = main(["fans", "--scenario", scn("a1.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "VolumeBoxMismatch" in err and "Traceback" not in err
    assert issubclass(errors.VolumeBoxMismatch, errors.VerificationFailed)


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 10 ** 5],
                         ids=["not-utf-8", "nested-too-deep"])
def test_undecodable_scenario_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc = main(["fans", "--scenario", str(bad), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ScenarioError: ") and "invalid JSON" in err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["fans", "--scenario", str(missing), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ScenarioError" in err and str(missing) in err


# subcommand -> a shipped scenario it runs on
COMMAND_SCENARIOS = {
    "fans": "a1.json", "wallcross": "a1.json", "critical": "p2.json",
    "track": "p2.json", "mutate": "bl-line-p4.json",
    "euler": "euler-gram.json", "orlov": "bl-line-p4.json", "gkz": "p2.json",
}


def test_every_command_has_a_scenario():
    from toriclg.cli import COMMANDS
    assert sorted(COMMAND_SCENARIOS) == sorted(COMMANDS)


def exit_code(argv):
    """main's exit status, through SystemExit when argparse rejects argv."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", sorted(COMMAND_SCENARIOS))
def test_negative_seed_exits_2(tmp_path, capsys, command):
    rc = exit_code([command, "--scenario", scn(COMMAND_SCENARIOS[command]),
                    "--out", str(tmp_path / "out"), "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--seed: -1 is negative" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fans", "track"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_path_through_a_file_exits_2(tmp_path, capsys, command, below):
    # `fans` writes through `_dump`, `track` makes its directory itself
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below if below else afile
    rc = exit_code([command, "--scenario", scn(COMMAND_SCENARIOS[command]),
                    "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{afile} is not a directory" in err and "Traceback" not in err
    assert afile.read_text() == "kept\n"


def test_cmd_fans_a1(tmp_path):
    rc = main(["fans", "--scenario", scn("a1.json"), "--out", str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "fans.json")
    assert rep["count"] == 2
    dims = sorted(f["dim_orbifold_cohomology"] for f in rep["fans"])
    assert dims == [2, 2]


def test_cmd_fans_cyclic5(tmp_path):
    rc = main(["fans", "--scenario", scn("cyclic-d5.json"), "--out",
               str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "fans.json")
    assert rep["count"] == 2


def test_cmd_wallcross_blowup(tmp_path):
    rc = main(["wallcross", "--scenario", scn("blowup-c2.json"), "--out",
               str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "wallcross.json")
    assert rep["kind"] == "contract_divisor"
    assert rep["J"] == 1 and rep["K"] == 1 and rep["discrepancy"] == 1


def test_cmd_wallcross_a1_crepant(tmp_path):
    rc = main(["wallcross", "--scenario", scn("a1.json"), "--out",
               str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "wallcross.json")
    assert rep["kind"] == "crepant" and rep["discrepancy"] == 0


def test_cmd_critical_p2(tmp_path):
    rc = main(["critical", "--scenario", scn("p2.json"), "--out",
               str(tmp_path), "--seed", "5"])
    assert rc == 0
    rep = read(tmp_path, "critical.json")
    assert rep["count"] == 3 and rep["expected"] == 3
    assert rep["newton_nondegenerate"] is True
    assert abs(rep["conifold"]["value"][0] - 3.0) < 1e-9


def test_cmd_track_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        rc = main(["track", "--scenario", scn("blowup-c2.json"), "--out",
                   str(out), "--seed", "7"])
        assert rc == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2
    e1 = (out1 / "events.json").read_bytes()
    e2 = (out2 / "events.json").read_bytes()
    assert e1 == e2


def test_cmd_track_a1_has_no_branches(tmp_path):
    # the crepant A1 chart has no torus critical points: the trajectory
    # carries the parameter columns alone
    rc = main(["track", "--scenario", scn("a1.json"), "--out",
               str(tmp_path), "--seed", "0"])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,param_re,param_im"
    assert len(lines) == 12
    assert read(tmp_path, "events.json")["events"] == []


def test_cmd_gkz_p2(tmp_path):
    rc = main(["gkz", "--scenario", scn("p2.json"), "--out", str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "gkz.json")
    assert rep["char_variety_trivial_at_limit"] is True
    assert rep["rank"]["expected"] == 3
    assert all(o["annihilates"] for o in rep["operators"])


def test_cmd_orlov_bl_line(tmp_path):
    rc = main(["orlov", "--scenario", scn("bl-line-p4.json"), "--out",
               str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path, "orlov.json")
    assert rep["J"] == 2 and rep["h"] == 1
    assert rep["blocks"] == [2, 5, 2]
    assert rep["semiorthogonal_and_unimodular"] is True


# Refined crossing parameters of `mutate bl-line-p4 --seed 0`.  Each is a
# bisection over Newton solves of the two crossing branches, so a change to
# those solves or to the bisection moves these digits.  All crossings are
# bisected in lockstep, one stacked solve per level, and a row's solve does
# not depend on its stack, so how the rows are batched must not move them.
BL_LINE_MUTATION_PARAMS = [
    (32, "(2.6909313446062195+0j)"), (32, "(2.6909313446062195+0j)"),
    (83, "(0.23809931309332094+0j)"), (83, "(0.23809931309332094+0j)"),
    (118, "(0.043498239477309485+0j)"), (118, "(0.043498239477309485+0j)"),
    (130, "(0.02535167185725112+0j)"), (130, "(0.02535167185725112+0j)"),
    (149, "(0.010046613941016197+0j)"), (149, "(0.010046613941016197+0j)"),
]


def test_cmd_mutate_bl_line_refined_params(tmp_path):
    rc = main(["mutate", "--scenario", scn("bl-line-p4.json"), "--out",
               str(tmp_path), "--seed", "0"])
    assert rc == 0
    events = read(tmp_path, "mutate.json")["events"]
    assert [(e["step"], e["param"]) for e in events] == BL_LINE_MUTATION_PARAMS


def test_cli_error_carries_module_error_name(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "lattice": {"rank": 2},
        "S": [[1, 0], [0, 1]],
        "fans": {"f": [[0], [1]]},
    }))
    rc = main(["fans", "--scenario", str(bad), "--out", str(tmp_path)])
    # enumeration works for a basis; force a module error via wallcross
    rc = main(["wallcross", "--scenario", str(bad), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "NotAdjacent" in captured.err


def test_console_entry_point(tmp_path):
    # the child sees src on PYTHONPATH, as pytest's own pythonpath setting
    # does not reach it
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "toriclg.cli", "fans",
                          "--scenario", scn("a1.json"), "--out",
                          str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0


NEGATIVE = os.path.join(SCN, "negative")
# file in scenarios/negative -> (command, error class, text named on stderr)
NEGATIVE_RUNS = {
    "invalid-json.json": ("critical", "ScenarioError", "invalid JSON"),
    "lattice-rank-zero.json": ("critical", "ScenarioError", "lattice.rank"),
    "lattice-torsion-factor-one.json": ("fans", "ScenarioError", "torsion"),
    "S-float-entry.json": ("critical", "ScenarioError", "S[1]"),
    "S-not-full-dimensional.json": ("fans", "ScenarioError", "S"),
    "path-not-an-object.json": ("track", "ScenarioError",
                                "path must be an object"),
    "path-steps-zero.json": ("track", "ScenarioError", "path.steps"),
    "path-values-not-numbers.json": ("track", "ScenarioError",
                                     "path.values"),
    "path-values-infinity.json": ("track", "ScenarioError", "path.values"),
    "path-from-nan.json": ("track", "ScenarioError", "path.from"),
    "at-nan.json": ("critical", "ScenarioError", "at must be"),
    "chi-not-numbers.json": ("critical", "ScenarioError", "chi"),
    "chi-too-short.json": ("track", "ScenarioError", "chi"),
    "potential-not-an-object.json": ("critical", "ScenarioError",
                                     "potential"),
    "gkz-not-an-object.json": ("gkz", "ScenarioError", "gkz"),
    "euler-not-an-object.json": ("euler", "ScenarioError", "euler"),
    "orlov-not-an-object.json": ("orlov", "ScenarioError", "orlov"),
    "unknown-preset.json": ("critical", "ScenarioError", "potential.preset"),
    "fan-cone-not-integers.json": ("critical", "ScenarioError",
                                   "fans.orbifold"),
    "q-count-mismatch.json": ("critical", "ScenarioError", "q-values"),
    "expression-two-points.json": ("critical", "ScenarioError",
                                   "potential.t"),
    "center-twist-ray-not-a-ray.json": ("orlov", "ScenarioError",
                                        "orlov.center_twist_ray"),
    "tolerance-not-a-number.json": ("euler", "ScenarioError",
                                    "tolerances.gamma_vs_hrr"),
    "curve-parameter-not-a-number.json": ("wallcross", "ScenarioError",
                                          "curve_parameter"),
    "fans-not-adjacent.json": ("wallcross", "NotAdjacent", "NotAdjacent"),
    "potential-chart-not-a-string.json": ("critical", "ScenarioError",
                                          "potential.chart"),
    "gkz-chart-not-a-string.json": ("gkz", "ScenarioError", "gkz.chart"),
    "gkz-variety-not-a-string.json": ("gkz", "ScenarioError",
                                      "gkz.variety"),
    "euler-variety-not-a-string.json": ("euler", "ScenarioError",
                                        "euler.varieties[1]"),
    "euler-varieties-not-a-list.json": ("euler", "ScenarioError",
                                        "euler.varieties"),
    "euler-range-too-wide.json": ("euler", "ScenarioError",
                                  "euler.range must be an integer from 0 "
                                  "to 50, got 100"),
    "potential-t-division-by-zero.json": ("critical", "ScenarioError",
                                          "potential.t['2'] at lam = 1+0j"),
    "potential-t-zero-to-negative-power.json": (
        "track", "ScenarioError", "potential.t['2'] at lam = 0.5+0j"),
    "potential-t-zero-at-parameter.json": ("critical", "ScenarioError",
                                           "potential.t['2'] at lam = 1+0j"),
    "potential-t-infinite.json": ("critical", "ScenarioError",
                                  "potential.t['2'] at lam = 1+0j"),
    "nondegeneracy-scan-origin-not-interior.json": (
        "critical", "ScenarioError", "nondegeneracy_scan"),
    "path-one-step.json": ("track", "ScenarioError", "path.steps"),
    "path-values-one-point.json": ("mutate", "ScenarioError", "path.values"),
    "path-null.json": ("track", "ScenarioError", "scenario has no path"),
    "lattice-missing.json": ("orlov", "ScenarioError", "no lattice/S data"),
    "S-missing.json": ("wallcross", "ScenarioError", "no lattice/S data"),
    "S-entry-huge.json": ("fans", "TooLarge",
                          "index 1000000000 exceeds the Box budget"),
}


def test_every_negative_scenario_has_a_run():
    assert sorted(os.listdir(NEGATIVE)) == sorted(NEGATIVE_RUNS)


@pytest.mark.parametrize("fname", sorted(NEGATIVE_RUNS))
def test_negative_scenario_exits_2(tmp_path, capsys, fname):
    command, error, field = NEGATIVE_RUNS[fname]
    rc = main([command, "--scenario", os.path.join(NEGATIVE, fname),
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert error in err and field in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
