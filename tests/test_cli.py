import json
from pathlib import Path

import pytest

from ragame import GameConfig, RadialDistribution, Strategy, StrategyProfile
from ragame.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_NODE = str(CONFIGS / "two_node_uniform.json")
INNER_HALF = str(CONFIGS / "profile_opponent_inner_half.json")
COSTS_3_1 = str(CONFIGS / "two_node_costs_3_1.json")
MIDDLE_BAND = str(CONFIGS / "profile_opponent_middle_band.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_success_curve_to_stdout(capsys):
    code, out, _ = run(
        capsys,
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF,
         "--node", "0", "--grid", "5"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,g"
    rows = {float(a): float(b) for a, b in (line.split(",") for line in lines[1:])}
    assert rows[0.0] == 1.0
    assert rows[9.0] == 0.75
    assert rows[12.0] == 0.75
    # grid of 5 plus the opponent breakpoint endpoints
    assert set(rows) == {0.0, 3.0, 6.0, 9.0, 12.0}


def test_success_curve_minimal_grid(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys,
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF,
         "--node", "0", "--grid", "2", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    ds = [float(line.split(",")[0]) for line in lines[1:]]
    assert ds == [0.0, 6.0, 12.0]  # endpoints plus the cut-off breakpoint


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"radius": 12.0,,}')
    code, _, err = run(
        capsys,
        ["success-curve", "--config", str(bad), "--profile", INNER_HALF, "--node", "0"],
    )
    assert code == 2
    assert "line" in err and "column" in err


def test_bad_node_index_exits_3(capsys):
    code, _, err = run(
        capsys,
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "7"],
    )
    assert code == 3
    assert "out of range" in err
    code, _, err = run(
        capsys,
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "7",
         "--d", "3.0", "--quantity", "utility"],
    )
    assert code == 3
    assert "out of range" in err


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["success-curve", "--config", str(tmp_path / "nope.json"),
         "--profile", INNER_HALF, "--node", "0"],
    )
    assert code == 3
    assert "no such file" in err
    missing = str(tmp_path / "nope.json")
    for argv in (
        ["verify", "--config", TWO_NODE, "--profile", missing],
        ["simulate", "--config", TWO_NODE, "--profile", missing, "--node", "0", "--d", "3.0"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "no such file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0"],
        ["cutoff-sweep", "--n-list", "2", "--c-list", "1.0"],
        ["equilibrium", "--config", COSTS_3_1],
        ["verify", "--config", COSTS_3_1, "--profile", MIDDLE_BAND],  # exit 1 if written
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0",
         "--d", "3.0", "--samples", "100"],
    ],
)
def test_unwritable_output_exits_3(capsys, tmp_path, argv):
    # exit 1 is reserved for a negative verification, so an --out path that
    # cannot be opened is a domain error, not an OSError traceback
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        code, stdout, err = run(capsys, argv + ["--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_bad_tolerance_exits_3(capsys):
    # without --tol this profile is not an equilibrium (exit 1); a tolerance
    # of nan or inf must not certify it
    assert run(capsys, ["verify", "--config", COSTS_3_1, "--profile", MIDDLE_BAND])[0] == 1
    for tol in ("-1", "0", "nan", "inf"):
        code, out, _ = run(capsys, ["equilibrium", "--config", TWO_NODE, "--tol", tol])
        assert (code, out) == (3, "")
        code, out, _ = run(
            capsys, ["verify", "--config", COSTS_3_1, "--profile", MIDDLE_BAND, "--tol", tol]
        )
        assert (code, out) == (3, "")
    code, _, _ = run(
        capsys,
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF,
         "--node", "0", "--grid", "1"],
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0", "--d", "nan"],
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0", "--d", "nan",
         "--quantity", "utility"],
        ["cutoff-sweep", "--n-list", "2", "--radius", "nan"],
        ["cutoff-sweep", "--n-list", "2", "--c-list", "nan,1.0"],
        ["cutoff-sweep", "--n-list", "2", "--c-list", "inf"],
        ["cutoff-sweep", "--n-list", "1" + "0" * 400, "--c-list", "1"],  # n - 1 overflows a float
        ["equilibrium", "--config", "NAN_KNOTS"],
        ["success-curve", "--config", "NAN_KNOTS", "--profile", INNER_HALF, "--node", "0"],
    ],
)
def test_non_finite_inputs_exit_3(capsys, tmp_path, argv):
    nan_knots = tmp_path / "nan_knots.json"
    nan_knots.write_text(json.dumps({
        "radius": 12.0, "n": 2, "costs": [1.0, 1.0],
        "distribution": {"kind": "piecewise-linear-cdf",
                         "knots": [[0.0, 0.0], [float("nan"), 0.5], [12.0, 1.0]]},
    }))
    argv = [str(nan_knots) if arg == "NAN_KNOTS" else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


GOOD_CONFIG = {"radius": 12.0, "n": 2, "costs": [1.0, 1.0], "distribution": {"kind": "uniform-disk"}}


@pytest.mark.parametrize(
    "config, profile_entry, sweep",
    [
        ({"n": float("nan")}, None, None),
        ({"costs": 1.0}, None, None),
        ({"radius": "x"}, None, None),
        ({"distribution": 5}, None, None),
        ({"distribution": {"kind": "piecewise-linear-cdf", "knots": [[0, 0], [0, "a"], [12, 1]]}},
         None, None),
        (None, {"threshold": "x"}, None),
        (None, {"intervals": 5}, None),
        (None, {"intervals": [[1]]}, None),
        (None, None, ["--n-list", "2,x"]),
        (None, None, ["--c-count", "-1"]),
        # values that int(), float() or iteration would silently coerce
        ({"n": 2.7}, None, None),
        ({"n": True}, None, None),
        ({"costs": "31"}, None, None),
        ({"radius": "12"}, None, None),
        ({"distribution": {"kind": "piecewise-linear-cdf", "knots": [[0, 0], ["6", "0.5"], [12, 1]]}},
         None, None),
        (None, {"threshold": "6"}, None),
        (None, {"intervals": [[1, 2, 3]]}, None),
        ({"costs": [10**400, 1.0]}, None, None),  # too large for a float
    ],
    ids=["n-nan", "costs-scalar", "radius-str", "distribution-int", "knot-str",
         "threshold-str", "intervals-int", "interval-short", "n-list-str", "c-count-negative",
         "n-float", "n-bool", "costs-str", "radius-numeric-str", "knot-numeric-str",
         "threshold-numeric-str", "interval-long", "costs-huge-int"],
)
def test_wrongly_typed_specs_exit_3(capsys, tmp_path, config, profile_entry, sweep):
    config_path, profile_path = tmp_path / "config.json", tmp_path / "profile.json"
    config_path.write_text(json.dumps({**GOOD_CONFIG, **(config or {})}))
    profile_path.write_text(json.dumps([{"threshold": 12.0}, profile_entry or {"threshold": 6.0}]))
    if sweep:
        runs = [["cutoff-sweep", *sweep]]
    else:
        runs = [["verify", "--config", str(config_path), "--profile", str(profile_path)]]
    if config:
        runs.append(["equilibrium", "--config", str(config_path)])
    for argv in runs:
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed ")


NO_DISTRIBUTION = {k: v for k, v in GOOD_CONFIG.items() if k != "distribution"}
BOTH_ALWAYS = [{"threshold": 12.0}] * 2


@pytest.mark.parametrize(
    "config, profile, message",
    [
        (GOOD_CONFIG, [{"threshold": 12.0}] * 3, "profile has 3 strategies for 2 nodes"),
        ([1, 2], BOTH_ALWAYS, "game config must be an object"),
        (NO_DISTRIBUTION, BOTH_ALWAYS, "game config missing 'distribution'"),
        ({**GOOD_CONFIG, "distribution": [["kind", "uniform-disk"]]}, BOTH_ALWAYS,
         "malformed game config: distribution spec must be an object, "
         "got [['kind', 'uniform-disk']]"),
        (GOOD_CONFIG, {"threshold": 6.0}, "profile spec must be an array of strategy specs"),
        (GOOD_CONFIG, [{"threshold": 12.0}, 6.0], "strategy spec must be an object, got 6.0"),
    ],
    ids=["three-strategies", "config-array", "config-no-distribution", "distribution-pairs",
         "profile-object", "strategy-number"],
)
def test_ill_shaped_documents_exit_3(capsys, tmp_path, config, profile, message):
    config_path, profile_path = tmp_path / "config.json", tmp_path / "profile.json"
    config_path.write_text(json.dumps(config))
    profile_path.write_text(json.dumps(profile))
    runs = [["verify", "--config", str(config_path), "--profile", str(profile_path)]]
    if config is not GOOD_CONFIG:
        runs.append(["equilibrium", "--config", str(config_path)])
    for argv in runs:
        assert run(capsys, argv) == (3, "", f"error: {message}\n")


def test_tiny_cutoff_equilibrium_exits_0(capsys, tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        **GOOD_CONFIG,
        "distribution": {"kind": "piecewise-linear-cdf",
                         "knots": [[0.0, 0.0], [1e-100, 0.9], [12.0, 1.0]]},
    }))
    code, out, _ = run(capsys, ["equilibrium", "--config", str(config)])
    assert code == 0
    assert json.loads(out)["is_nash"] is True


def test_numeric_failure_exits_4(capsys, monkeypatch):
    from ragame import NumericError
    import ragame.cli as cli_mod

    def boom(cfg, tol=None):
        raise NumericError("stalled")

    monkeypatch.setattr(cli_mod, "solve_sequential", boom)
    code, _, err = run(capsys, ["equilibrium", "--config", TWO_NODE])
    assert code == 4
    assert "stalled" in err


def test_equilibrium_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["equilibrium", "--config", str(CONFIGS / "two_node_costs_3_1.json"),
         "--out", str(out_path)],
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["is_nash"] is True
    assert report["thresholds"][0] == pytest.approx(6.0, abs=1e-9)
    assert report["thresholds"][1] == 12.0
    assert report["last_class_full"] is True


def test_verify_accepts_equilibrium_and_rejects_always(capsys, tmp_path):
    # solve, dump the profile, verify it back
    code, out, _ = run(
        capsys, ["equilibrium", "--config", str(CONFIGS / "three_node_costs_3_3_1.json")]
    )
    assert code == 0
    thresholds = json.loads(out)["thresholds"]
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps([{"threshold": t} for t in thresholds]))
    code, _, _ = run(
        capsys,
        ["verify", "--config", str(CONFIGS / "three_node_costs_3_3_1.json"),
         "--profile", str(profile_path)],
    )
    assert code == 0

    code, out, _ = run(
        capsys,
        ["verify", "--config", TWO_NODE, "--profile", str(CONFIGS / "profile_both_always.json")],
    )
    assert code == 1
    report = json.loads(out)
    assert report["is_nash"] is False
    assert report["verdicts"]["single_full_transmitter"]["passed"] is False


def test_cutoff_sweep(capsys):
    code, out, _ = run(
        capsys,
        ["cutoff-sweep", "--n-list", "2,3", "--c-list", "0.5,1.0,2.0", "--radius", "12"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,c,d_star"
    rows = [line.split(",") for line in lines[1:]]
    table = {(int(n), float(c)): float(d) for n, c, d in rows}
    assert table[(2, 1.0)] == pytest.approx(8.485281374238571, abs=1e-9)
    # strictly decreasing in c for fixed n, and in n for fixed c
    for n in (2, 3):
        ds = [table[(n, c)] for c in (0.5, 1.0, 2.0)]
        assert ds[0] > ds[1] > ds[2]
    for c in (0.5, 1.0, 2.0):
        assert table[(2, c)] > table[(3, c)]


def test_cutoff_sweep_rejects_nonpositive_cost(capsys):
    code, _, _ = run(capsys, ["cutoff-sweep", "--n-list", "2", "--c-list", "0.0,1.0"])
    assert code == 3


def test_simulate_deterministic_files(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF,
            "--node", "0", "--d", "3.0", "--samples", "20000", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().strip().split("\n")
    assert header == "d,estimate,std_error"
    d, est, se = map(float, row.split(","))
    assert d == 3.0
    assert abs(est - 0.9375) <= 6.0 * max(se, 1e-9)


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--samples", "0"), ("--samples", "-5")])
def test_simulate_bad_seed_or_samples_exits_3(capsys, flag, value):
    # exit 1 is reserved for a negative verification, so a bad seed or
    # sample count is a domain error, not a ValueError traceback
    code, out, err = run(
        capsys,
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0",
         "--d", "3.0", flag, value],
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and flag[2:] in err


def test_simulate_utility_quantity(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "--config", TWO_NODE, "--profile", INNER_HALF, "--node", "0",
         "--d", "3.0", "--samples", "20000", "--seed", "1", "--quantity", "utility"],
    )
    assert code == 0
    row = out.strip().split("\n")[1]
    util = float(row.split(",")[1])
    assert abs(util - (2 * 0.9375 - 1)) <= 0.05


def test_bundled_configs_round_trip():
    disk = RadialDistribution.uniform_disk(12.0)
    for name, costs in (
        ("two_node_uniform.json", (1.0, 1.0)),
        ("two_node_costs_3_1.json", (3.0, 1.0)),
        ("three_node_costs_3_3_1.json", (3.0, 3.0, 1.0)),
    ):
        cfg = GameConfig.from_spec(json.loads((CONFIGS / name).read_text()))
        assert cfg == GameConfig(distribution=disk, n=len(costs), costs=costs)
    for name, opponent in (
        ("profile_opponent_inner_half.json", ((0.0, 6.0),)),
        ("profile_opponent_outer_half.json", ((6.0, 12.0),)),
        ("profile_opponent_band_edges.json", ((0.0, 4.0), (8.0, 12.0))),
        ("profile_opponent_middle_band.json", ((4.0, 8.0),)),
        ("profile_both_always.json", ((0.0, 12.0),)),
    ):
        profile = StrategyProfile.from_spec(json.loads((CONFIGS / name).read_text()), 12.0)
        assert profile.strategies == (Strategy.always(12.0), Strategy(12.0, opponent))
