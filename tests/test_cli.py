import json
import math
import os

import pytest

import cltflow.charfn as charfn
from cltflow.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance_prints_csv_row(capsys):
    code, out, _ = run_cli(["distance", "--a", "rademacher", "--b", "gaussian", "--s", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "s,xi_min,xi_max,grid_sup,grid_argmax" in lines[0]
    row = lines[1].split(",")
    assert float(row[7]) == pytest.approx(0.07523920775801167, rel=1e-12)
    assert row[8] == "true"


def test_flow_gaussian_all_zero(tmp_path, capsys):
    code, out, _ = run_cli(
        ["flow", "--measure", "gaussian", "--steps", "5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    body = (tmp_path / "01_flow.csv").read_text()
    lines = body.splitlines()
    assert lines[0] == "n,d3,d2,ratio"
    assert len(lines) == 8  # header + 6 steps + slope row
    for line in lines[1:7]:
        d3 = float(line.split(",")[1])
        assert d3 <= 1e-10
    assert lines[-1].startswith("slope,")


def test_flow_skewed_slope_summary(tmp_path, capsys):
    code, out, _ = run_cli(
        ["flow", "--measure", "skewed", "--steps", "10", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    slope_row = (tmp_path / "01_flow.csv").read_text().splitlines()[-1]
    slope = float(slope_row.split(",")[1])
    assert slope == pytest.approx(-0.5, abs=0.02)
    assert "ok" in out


def test_verify_contraction_csv(tmp_path, capsys):
    code, out, _ = run_cli(["verify-contraction", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "01_verify-contraction.csv").read_text().splitlines()
    assert lines[0] == "a,b,ratio,bound,ok"
    assert len(lines) == 11
    bound = 2.0**-0.5 + 1e-6
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[2]) <= bound
        assert cols[4] == "true"


def test_unknown_measure_exits_2(capsys):
    code, _, err = run_cli(["distance", "--a", "nope", "--b", "gaussian", "--s", "3"], capsys)
    assert code == 2
    assert "undeclared measure" in err


def test_run_config_roundtrip(tmp_path, capsys):
    config = {
        "measures": {
            "coin": {"type": "atomic", "atoms": [[-1, 0.5], [1, 0.5]]},
        },
        "grid": {"points_per_decade": 50},
        "seed": 99,
        "commands": [
            {"command": "distance", "a": "coin", "b": "gaussian", "s": 3},
            {"command": "flow", "measure": "coin", "steps": 4},
        ],
        "output_path": str(tmp_path / "reports"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert (tmp_path / "reports" / "01_distance.csv").exists()
    assert (tmp_path / "reports" / "02_flow.csv").exists()
    assert "all checks passed" in out


def test_run_config_unknown_keys_exit_2(tmp_path, capsys):
    bad = {"commands": [{"command": "verify-contraction"}], "extra_key": 1}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(bad))
    code, _, err = run_cli(["run", "--config", str(p)], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_run_config_undeclared_reference_exit_2(tmp_path, capsys):
    bad = {"commands": [{"command": "distance", "a": "ghost", "b": "gaussian", "s": 3}]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(bad))
    code, _, err = run_cli(["run", "--config", str(p)], capsys)
    assert code == 2
    assert "ghost" in err


def test_run_config_bad_json_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    code, _, err = run_cli(["run", "--config", str(p)], capsys)
    assert code == 2


def test_run_config_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["run", "--config", str(tmp_path / "none.json")], capsys)
    assert code == 2


def test_run_config_unknown_command_keys_exit_2(tmp_path, capsys):
    bad = {"commands": [{"command": "flow", "measure": "gaussian", "speed": 9}]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(bad))
    code, _, err = run_cli(["run", "--config", str(p)], capsys)
    assert code == 2
    assert "unknown keys" in err


def test_fault_injection_exits_1(tmp_path, capsys, monkeypatch):
    # damp the gaussian reference cf by ~1e-3: inequalities must now fail
    orig = charfn._dev_parametric

    def perturbed(family, params, xi):
        dev = orig(family, params, xi)
        if family == "gaussian":
            g = xi * xi / (1.0 + xi * xi)
            dev = dev + (1.0 + dev) * (-1e-3 * g)
        return dev

    monkeypatch.setattr(charfn, "_dev_parametric", perturbed)
    code, out, _ = run_cli(
        ["flow", "--measure", "skewed", "--steps", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_io_failure_exits_3(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code, _, _ = run_cli(
        ["distance", "--a", "rademacher", "--b", "gaussian", "--s", "3",
         "--out", str(target)],
        capsys,
    )
    assert code == 3


def test_byte_identical_reruns(tmp_path, capsys):
    config = {
        "seed": 7,
        "commands": [
            {"command": "distance", "a": "skewed", "b": "gaussian", "s": 3},
            {"command": "verify-contraction"},
            {"command": "flow", "measure": "rademacher", "steps": 5},
            {"command": "oracle", "levels": 2, "samples": 100000},
        ],
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(config))
    outs = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        code, _, _ = run_cli(["run", "--config", str(p), "--out", str(out_dir)], capsys)
        assert code == 0
        blob = {}
        for name in sorted(os.listdir(out_dir)):
            blob[name] = (out_dir / name).read_bytes()
        outs.append(blob)
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name


def test_seventeen_digit_floats(capsys):
    code, out, _ = run_cli(["distance", "--a", "exponential-std", "--b", "gaussian", "--s", "3"], capsys)
    assert code == 0
    row = out.splitlines()[1]
    assert "0.33333333333333331" in row


def run_raw_config(text, tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(text)
    return run_cli(["run", "--config", str(p)], capsys)


@pytest.mark.parametrize(
    "grid, word",
    [
        ('{"xi_max": 1e400}', "xi_max"),  # JSON reads 1e400 as inf
        ('{"xi_max": 1' + "0" * 400 + "}", "xi_max"),  # an int beyond float range
        ('{"xi_min": "abc"}', "xi_min"),
        ('{"xi_min": true}', "xi_min"),
        ('{"xi_min": NaN}', "xi_min"),
        ('{"points_per_decade": [1]}', "points_per_decade"),
        ('{"points_per_decade": true}', "points_per_decade"),
        ('{"points_per_decade": 200.0}', "points_per_decade"),
        ('{"points_per_decade": 10001}', "points_per_decade"),
    ],
    ids=["inf", "huge-int", "string", "bool", "nan", "list", "bool-ppd", "float-ppd",
         "ppd-over-cap"],
)
def test_grid_values_must_be_finite_reals(grid, word, tmp_path, capsys):
    text = '{"grid": %s, "commands": [{"command": "verify-contraction"}]}' % grid
    code, _, err = run_raw_config(text, tmp_path, capsys)
    assert code == 2
    assert "config error" in err and word in err


@pytest.mark.parametrize(
    "args",
    [["--xi-max", "inf"], ["--xi-min", "nan"], ["--xi-max", "1e400"],
     ["--points-per-decade", "10001"], ["--samples", "10000001"]],
)
def test_cli_grid_and_size_flags_exit_2(args, capsys):
    code, _, err = run_cli(["oracle", *args], capsys)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "cmd",
    [
        {"command": "flow", "measure": "skewed", "steps": True},
        {"command": "verify-lyapunov", "steps": True},
        {"command": "verify-clt-rate", "n_max": True},
        {"command": "oracle", "levels": True},
        {"command": "oracle", "samples": True},
        {"command": "oracle", "samples": 10_000_001},
    ],
)
def test_bool_and_oversized_command_values_exit_2(cmd, tmp_path, capsys):
    code, _, err = run_raw_config(json.dumps({"commands": [cmd]}), tmp_path, capsys)
    assert code == 2
    assert "config error" in err


def test_size_caps_are_in_help(capsys):
    assert main(["oracle", "--help"]) == 0
    out = capsys.readouterr().out
    assert "at most 10000000" in out and "at most 10000" in out


def test_verify_lyapunov_passes_at_40_steps(tmp_path, capsys):
    # d2 falls below 1e-10 from n = 28 on; the decrease is judged relative
    # to d2, where the smallest of the 240 steps is about 0.18
    code, out, _ = run_cli(
        ["verify-lyapunov", "--steps", "40", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    rows = (tmp_path / "01_verify-lyapunov.csv").read_text().splitlines()[1:]
    assert len(rows) == 240
    assert all(row.endswith(",true") for row in rows)
    rel = [float(r.split(",")[4]) / float(r.split(",")[2]) for r in rows]
    assert min(rel) > 0.1
