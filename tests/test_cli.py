import json
from pathlib import Path

import pytest

from ragame import GameConfig, StrategyProfile
from ragame.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_NODE = str(CONFIGS / "two_node_uniform.json")
INNER_HALF = str(CONFIGS / "profile_opponent_inner_half.json")


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


def test_bad_tolerance_exits_3(capsys):
    code, _, _ = run(capsys, ["equilibrium", "--config", TWO_NODE, "--tol", "-1"])
    assert code == 3
    code, _, _ = run(
        capsys,
        ["success-curve", "--config", TWO_NODE, "--profile", INNER_HALF,
         "--node", "0", "--grid", "1"],
    )
    assert code == 3


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
    for name in ("two_node_uniform.json", "two_node_costs_3_1.json", "three_node_costs_3_3_1.json"):
        spec = json.loads((CONFIGS / name).read_text())
        cfg = GameConfig.from_spec(spec)
        assert GameConfig.from_spec(cfg.to_spec()).to_spec() == cfg.to_spec()
    for name in (
        "profile_opponent_inner_half.json",
        "profile_opponent_outer_half.json",
        "profile_opponent_band_edges.json",
        "profile_opponent_middle_band.json",
        "profile_both_always.json",
    ):
        spec = json.loads((CONFIGS / name).read_text())
        profile = StrategyProfile.from_spec(spec, 12.0)
        assert StrategyProfile.from_spec(profile.to_spec(), 12.0) == profile
