import json
from pathlib import Path

import pytest

from flowlab import fields
from flowlab.cli import _HANDLERS, main, run_scenario
from flowlab.errors import EscapeError, ScenarioError
from flowlab.fields import estimate_lipschitz, sample_regular_points
from flowlab.flowbox import make_chart, verify_box_bounds
from flowlab.scenario import load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

SADDLE_FLOWBOX = """
# flowbox verification on the planar saddle
field linear
  matrix 1 0 0 -1

command flowbox
  bases 3
  grid 4
  sample-box 0.4 2.0 -1.5 1.5

seed 7
tol 1e-10
"""

ROTATION_EXPANSIVE = """
field rotation

command expansive
  mode rescaled
  points 1.0 0.0  1.1 0.0  0.8 0.3
  horizon -3 3
  epsilons 0.01
  deltas 0.2
  budget 30
  lipschitz 1.05

seed 3
"""


def test_parse_basic():
    sc = parse_scenario(SADDLE_FLOWBOX)
    assert sc.field_kind == "linear"
    assert sc.command == "flowbox"
    assert sc.seed == 7
    assert sc.tol == 1e-10
    assert sc.options["bases"] == ["3"]  # tokens, typed when read
    assert sc.number("bases", 10, int) == 3


def test_parse_reports_line_numbers():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("field rotation\n\ncommand flowbox\n  nope 3\n")
    assert exc.value.line == 4
    # keys of fixed tolerances and sample sizes are unknown keys too
    removed = [("poincare", "identity-tol"), ("poincare", "fd-step-rel"),
               ("poincare", "burn"), ("expansive", "arc-tol"),
               ("split", "gap-threshold"), ("fixedpoint", "solve-tol"),
               ("fixedpoint", "dim-s"), ("fixedpoint", "dim-u"),
               ("flowbox", "lipschitz-samples"), ("flowbox", "burn"),
               ("shadow", "t-nodes"), ("shadow", "offsets")]
    for command, key in removed:
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"field rotation\n\ncommand {command}\n"
                           f"  {key} 3\n")
        assert exc.value.line == 4, key


def test_parse_unknown_command():
    with pytest.raises(ScenarioError):
        parse_scenario("field rotation\n\ncommand warp\n")


def test_parse_requires_field():
    with pytest.raises(ScenarioError):
        parse_scenario("command flowbox\n")


def test_unknown_field_kind_exits_2(tmp_path, capsys, monkeypatch):
    # and the other malformed values that once crashed or passed silently,
    # each found before the first solve, with no output file written
    monkeypatch.setattr(fields, "solve_ivp", _no_solve)
    lorenz = "field lorenz\n  params 10 28 2.6666666666666665\n\n"
    box = "  sample-box 0.5 1.5 -0.5 0.5\n"
    saddle = ("field linear\n  matrix 1 0 0 -1\n\ncommand constants\n"
              "  sample-box 0.4 2.0 -1.5 1.5\n")
    late = lorenz + ("command expansive\n  samples 2\n  burn 1\n"
                     "  sample-box -15 15 -20 20 10 40\n")
    cases = [
        ("field warpdrive\n\ncommand flowbox\n  bases 1\n", "registry"),
        ("field rotation\n  dimension 2\n\ncommand flowbox\n  bases 1\n",
         "unknown field key 'dimension'"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n"
         "  horizon -3\n", "horizon needs 2 numbers"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n"
         "  lattice 9\n", "lattice needs 2 numbers"),
        (lorenz + "command split\n  start 1 1 1\n  cocycle-u flowspeed\n",
         "cocycle-u"),
        (lorenz + "command split\n  start 1 1\n", "start needs 3 numbers"),
        ("field rotation\n\ncommand flowbox\n  bases ten\n",
         "bases needs numbers"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n  grid 3 4\n",
         "grid needs 1 number, got 2"),
        ("field rotation\n\ncommand expansive\n  points 1 0 0.5\n",
         "points needs a multiple of 2 numbers"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n"
         "  horizon a 3\n", "horizon needs numbers"),
        ("field rotation\n\ncommand flowbox\n  bases 2.5\n",
         "bases needs integers"),
        ("field rotation\n\ncommand constants\n  t nan\n", "t needs numbers"),
        ("field rotation\n\ncommand constants\n  samples 0\n",
         "samples must be >= 1"),
        ("field rotation\n\ncommand flowbox\n  bases 1\n  grid 1\n"
         "  sample-box 0.5 1.5 -0.5 0.5\n", "grid must be >= 2"),
        ("field rotation\n\ncommand poincare\n  bases 0\n" + box,
         "bases must be >= 1"),
        ("field rotation\n\ncommand shadow\n  pairs 0\n" + box,
         "pairs must be >= 1"),
        ("field rotation\n\ncommand expansive\n  samples 0\n" + box,
         "samples must be >= 1"),
        ("field rotation\n\ncommand fixedpoint\n  systems 0\n",
         "systems must be >= 1"),
        ("field rotation\n\ncommand flowbox\n  bases 0\n" + box,
         "bases must be >= 1"),
        ("field rotation\n\ncommand fixedpoint\n  systems 1\n"
         "  starts 0\n", "starts must be >= 1"),
        (lorenz + "command split\n  start 1 1 1\n  burn -12\n",
         "burn must be >= 0"),
        (lorenz + "command pipeline\n  start 1 1 1\n  burn -12\n",
         "burn must be >= 0"),
        ("field rotation\n\ncommand expansive\n  samples 1\n  burn -1\n"
         + box, "burn must be >= 0"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n  burn 100\n",
         "burn cannot be given with points"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n  samples 4\n",
         "samples cannot be given with points"),
        ("field rotation\n\ncommand expansive\n  points 1 0\n" + box,
         "sample-box cannot be given with points"),
        # a top-level or field value is typed like a command key's
        (saddle + "seed abc\n", "seed needs numbers, got 'abc'"),
        (saddle + "tol abc\n", "tol needs numbers, got 'abc'"),
        (saddle.replace("1 0 0 -1", "a b c d"), "matrix needs numbers"),
        (saddle.replace("\n\n", "\n  domain -1 1 x 1\n\n", 1),
         "domain needs numbers, got 'x'"),
        (saddle + "seed -3\n", "seed must be >= 0"),
        (lorenz.replace("2.6666666666666665", "nan") + "command constants\n",
         "params needs numbers, got 'nan'"),
        (saddle + "seed 1.5\n", "seed needs integers"),
        (saddle + "tol 0\n", "tol must be > 0"),
        (saddle + "tol -1\n", "tol must be > 0"),
        (saddle.replace("\n\n", "\n  domain -1 1 -1 inf\n\n", 1),
         "domain needs numbers, got 'inf'"),
        (saddle.replace("\n\n", "\n  params 1 1 1\n\n", 1),
         "matrix and params exclude each other"),
        # the keys a solve would follow are read before the first solve
        (lorenz + "command pipeline\n  start 1 1 1\n  burn 1\n"
         "  sample-box -20 20 -25 25 5\n", "sample-box needs 6 numbers"),
        (late + "  mode fast\n", "mode must be one of probe, rescaled"),
        (late + "  epsilons x\n", "epsilons needs numbers"),
        (late + "  deltas x\n", "deltas needs numbers"),
        (late + "  budget 0\n", "budget must be >= 1"),
        (late + "  grid 1\n", "grid must be >= 2"),
        (late + "  lipschitz x\n", "lipschitz needs numbers"),
        # and the scan's checks that need no solve run before the burn-in
        (late + "  horizon 3 -3\n", "horizon must be a nonempty interval"),
        (late + "  epsilons 0.5\n  lipschitz 2.0\n",
         "epsilon grid must stay within the chart radius"),
        # times, scales and grids of epsilon and delta must be positive
        ("field rotation\n\ncommand constants\n  t 0\n", "t must be > 0"),
        ("field rotation\n\ncommand poincare\n  t -1\n" + box,
         "t must be > 0"),
        (lorenz + "command split\n  start 1 1 1\n  t-block -0.5\n",
         "t-block must be > 0"),
        (lorenz + "command split\n  start 1 1 1\n  c 0\n", "c must be > 0"),
        (lorenz + "command split\n  start 1 1 1\n  lambda -0.1\n",
         "lambda must be > 0"),
        ("field rotation\n\ncommand shadow\n  t-factor 0\n" + box,
         "t-factor must be > 0"),
        ("field rotation\n\ncommand shadow\n  epsilon -0.3\n" + box,
         "epsilon must be > 0"),
        (late + "  epsilons 0.01 0\n", "epsilons must be > 0"),
        (late + "  deltas -0.1\n", "deltas must be > 0"),
        (late + "  lipschitz 0\n", "lipschitz must be > 0"),
        ("field rotation\n\ncommand fixedpoint\n  kappa-max 0\n",
         "kappa-max must be > 0"),
    ]
    p = tmp_path / "bad.scn"
    for text, message in cases:
        p.write_text(text)
        assert run_scenario(str(p), out=str(tmp_path / "out")) == 2, text
        assert message in capsys.readouterr().err
        assert not [f for f in (tmp_path / "out").rglob("*")], text


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before every scenario key was read")


def test_run_flags_are_typed_like_scenario_values(tmp_path, capsys):
    p = tmp_path / "s.scn"
    p.write_text(SADDLE_FLOWBOX)
    out = str(tmp_path / "out")
    for flag, value, message in [("--seed", "-3", "seed must be >= 0"),
                                 ("--seed", "1.5", "seed needs integers"),
                                 ("--seed", "abc", "seed needs numbers"),
                                 ("--tol", "0", "tol must be > 0"),
                                 ("--tol", "nan", "tol needs numbers")]:
        assert main(["run", str(p), "--out", out, flag, value]) == 2, value
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_command_has_a_shipped_scenario():
    shipped = {load_scenario(p).command for p in SCENARIOS.glob("*.scn")}
    assert shipped == set(_HANDLERS)


def test_flowbox_scenario_passes(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(SADDLE_FLOWBOX)
    code = run_scenario(str(p), out=str(tmp_path / "out"))
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["max_dev"] <= 0.5 + 1e-3
    assert (tmp_path / "out" / "series-flowbox.csv").exists()
    assert (tmp_path / "out" / "run-meta.json").exists()


def test_flowbox_skips_a_base_whose_chart_leaves_the_domain(tmp_path,
                                                          capsys):
    # without a sample-box the second base lies near the domain edge, and
    # its chart grid leaves the domain: it is counted, not fatal
    p = tmp_path / "s.scn"
    p.write_text("field rotation\n\ncommand flowbox\n  bases 2\n\nseed 0\n")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["bases"] == len(rep["reports"]) == 1
    assert rep["skipped_bases"] == 1
    assert rep["reports"][0]["bounds_ok"]
    out = capsys.readouterr().out
    assert out.count(" PASS") == 1 and out.count(" SKIP") == 1


def test_flowbox_skips_the_bases_that_leave_one_at_a_time(tmp_path, capsys):
    # bases near the x = 10 face: the charts that leave the domain in the
    # stacked check are the ones that leave it checked one by one
    p = tmp_path / "s.scn"
    p.write_text("field saddle_suspension\n  domain -10 10 -10 10 -10 10\n\n"
                 "command flowbox\n  bases 6\n  grid 3\n"
                 "  sample-box 8 9.9 -1 1 -1 1\n\nseed 4\n")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    sc = load_scenario(p)
    field = sc.build_field()
    box = fields.Box([8.0, -1.0, -1.0], [9.9, 1.0, 1.0])
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    singles = []
    for x in sample_regular_points(field, box, 6, seed=sc.seed, tol=sc.tol):
        try:
            singles.append(verify_box_bounds([make_chart(field, x, L)], 3,
                                             tol=sc.tol)[0].to_json_dict())
        except EscapeError:
            pass
    assert 0 < rep["skipped_bases"] == 6 - len(singles) < 6
    assert [r["base"] for r in rep["reports"]] == [r["base"] for r in singles]
    for got, want in zip(rep["reports"], singles):
        assert got["bounds_ok"] == want["bounds_ok"]
        for key in ("max_dev", "min_mininorm", "max_norm"):
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-9)
    assert capsys.readouterr().out.count(" SKIP") == rep["skipped_bases"]


def test_flowbox_without_a_verified_base_exits_2(tmp_path, capsys):
    p = tmp_path / "s.scn"
    p.write_text("field linear\n  matrix 1 0 0 -1\n\ncommand flowbox\n"
                 "  bases 2\n  sample-box 95 99.9 -1 1\n\nseed 0\n")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 2
    assert "no base verified" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_report_does_not_depend_on_the_scenario_path(tmp_path, monkeypatch):
    # the same scenario through two absolute paths and a relative one
    (tmp_path / "sub").mkdir()
    p = tmp_path / "s.scn"
    p.write_text(SADDLE_FLOWBOX)
    monkeypatch.chdir(tmp_path)
    paths = (str(p), str(tmp_path / "sub" / ".." / "s.scn"), "s.scn")
    reports = []
    for i, path in enumerate(paths):
        assert run_scenario(path, out=str(tmp_path / f"out{i}")) == 0
        reports.append((tmp_path / f"out{i}" / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["scenario"]["source"] == "s.scn"


def test_expansive_scenario_finds_violation(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(ROTATION_EXPANSIVE)
    code = run_scenario(str(p), out=str(tmp_path / "out"))
    assert code == 1
    witnesses = sorted((tmp_path / "out").glob("witness-*.json"))
    assert witnesses


def test_replay_subcommand(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(ROTATION_EXPANSIVE)
    run_scenario(str(p), out=str(tmp_path / "out"))
    w = sorted((tmp_path / "out").glob("witness-*.json"))[0]
    assert main(["replay", str(w)]) == 0


def test_replay_of_broken_input_exits_2(tmp_path, capsys):
    # a missing file, a file that is not JSON, and a witness without a key
    p = tmp_path / "s.scn"
    p.write_text(ROTATION_EXPANSIVE)
    run_scenario(str(p), out=str(tmp_path / "out"))
    w = sorted((tmp_path / "out").glob("witness-*.json"))[0]
    witness = json.loads(w.read_text())
    del witness["field"]
    (tmp_path / "partial.json").write_text(json.dumps(witness))
    (tmp_path / "text.json").write_text("not json\n")
    for name, message in [("missing.json", "cannot read"),
                          ("text.json", "cannot read"),
                          ("partial.json", "no 'field'")]:
        assert main(["replay", str(tmp_path / name)]) == 2, name
        err = capsys.readouterr().err
        assert "replay error" in err and message in err, err


def test_reports_byte_identical(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(ROTATION_EXPANSIVE)
    run_scenario(str(p), out=str(tmp_path / "a"))
    run_scenario(str(p), out=str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_seed_override_changes_report(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(SADDLE_FLOWBOX)
    run_scenario(str(p), out=str(tmp_path / "a"))
    run_scenario(str(p), out=str(tmp_path / "b"), seed=123)
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["scenario"]["seed"] != rb["scenario"]["seed"]


def test_list_fields(capsys):
    assert main(["list-fields"]) == 0
    out = capsys.readouterr().out
    for kind in ("linear", "rotation", "lorenz", "saddle_suspension"):
        assert kind in out


def test_constants_scenario(tmp_path):
    p = tmp_path / "c.scn"
    p.write_text("""
field rotation

command constants
  t 1.0
  epsilons 0.1 0.3
  sample-box 0.5 1.5 -0.5 0.5

seed 1
""")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["L"] == pytest.approx(1.05)
    assert rep["r0"] == pytest.approx(1 / 10.5)
    assert "epsilon0" in rep


def test_fixedpoint_scenario(tmp_path):
    p = tmp_path / "f.scn"
    p.write_text("""
field rotation

command fixedpoint
  systems 4
  starts 3
  blocks 8
  kappa-max 0.8

seed 11
""")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "series-fixedpoint.csv").exists()


def test_shadow_scenario(tmp_path):
    p = tmp_path / "sh.scn"
    p.write_text("""
field rotation

command shadow
  pairs 5
  epsilon 0.3
  t-factor 2.0
  sample-box 0.5 1.5 -0.5 0.5

seed 5
tol 1e-10
""")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["violations"] == 0


def test_poincare_scenario(tmp_path):
    p = tmp_path / "po.scn"
    p.write_text("""
field linear
  matrix 1 0 0 -1

command poincare
  bases 3
  t 0.5
  sample-box 0.4 2.0 -1.5 1.5

seed 4
tol 1e-10
""")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 0
    raw = (tmp_path / "out" / "report.json").read_text()
    assert '"identity_tol": 0.001' in raw
    rep = json.loads(raw)
    assert len(rep["entries"]) == 3
    assert all(e["pass"] for e in rep["entries"])


def test_pipeline_scenario_reports_a_failed_certificate(tmp_path):
    # at split's default margins (C 1.05, lambda 0.1) a short Lorenz window
    # fails the expansion check, and its block system is infeasible: a
    # finding, with no fixed point attempted
    p = tmp_path / "pl.scn"
    p.write_text("""
field lorenz
  params 10 28 2.6666666666666665

command pipeline
  start 1 1 1
  burn 12
  blocks 6
  warmup 2
  sample-box -20 20 -25 25 5 48

seed 2
tol 1e-10
""")
    assert run_scenario(str(p), out=str(tmp_path / "out")) == 1
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not rep["domination"]["expansion_ok"]
    assert not rep["feasible"] and rep["kappa"] >= 1.0
    assert rep["fixed_point"] is None
    assert rep["scenario"]["findings"] == 1
