import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import cltflow
import cltflow.charfn as charfn
from cltflow import cli, flow, mc, metrics
from cltflow.cli import main
from cltflow.errors import MeasureError
from test_acceptance import ANALYTIC_SUITE_CONFIG


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


def test_oracle_with_no_measures_exits_2(tmp_path, capsys):
    # checking nothing is not a pass
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"commands": [{"command": "oracle", "measures": []}]}))
    code, out, err = run_cli(["run", "--config", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error:")
    assert "all checks passed" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, s",
    [(name, 2) for name in cltflow.bank.ALIASES]
    + [(name, 3) for name in cltflow.bank.Q3_BANK_NAMES],
)
def test_bank_distances_reach_xi_1e14(name, s, tmp_path, capsys):
    # every deviation keeps |phi| <= 1 + 1e-12 out to the grid's last point
    code, _, err = run_cli(
        ["distance", "--a", name, "--b", "gaussian", "--s", str(s), "--xi-max", "1e14",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    xi = metrics.GridSpec(1e-3, 1e14, 200).positive_points()
    dev = charfn.cf_deviation(cltflow.bank.ALIASES[name](), xi)
    assert np.max(np.abs(1.0 + dev)) <= 1.0 + 1e-12


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


def perturb_gaussian(monkeypatch, family="gaussian"):
    # damp the gaussian reference cf (or the family's) by ~1e-3, at xi
    # itself, whatever the law's scale: inequalities must now fail
    orig = charfn._dev_parametric

    def perturbed(fam, params, xi):
        dev = orig(fam, params, xi)
        if fam == family:
            g = xi * xi / (1.0 + xi * xi)
            dev = dev + (1.0 + dev) * (-1e-3 * g)
        return dev

    monkeypatch.setattr(charfn, "_dev_parametric", perturbed)


def test_fault_injection_exits_1(tmp_path, capsys, monkeypatch):
    perturb_gaussian(monkeypatch)
    code, out, _ = run_cli(
        ["flow", "--measure", "skewed", "--steps", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def step_is_identity(monkeypatch):
    # T nu swapped for nu itself: every contraction ratio is 1
    monkeypatch.setattr(flow, "renorm_step", lambda m: m)


def fourfold_for_twofold(monkeypatch):
    # each convolution a * b of the structural checks swapped for (a * b) * (a * b)
    orig = metrics.convolve
    monkeypatch.setattr(metrics, "convolve", lambda a, b: orig(orig(a, b), orig(a, b)))


def biased_draws(monkeypatch):
    # every draw of the oracle's float route made 10% too wide
    orig = mc._transform

    def biased(m, size):
        transform = orig(m, size)

        def draw(z, out):
            transform(z, out)
            out *= 1.1

        return draw

    monkeypatch.setattr(mc, "_transform", biased)


@pytest.mark.parametrize("fault, cmd, failing", [
    (step_is_identity, {"command": "verify-contraction"}, ""),
    (lambda patch: perturb_gaussian(patch, "uniform"), {"command": "verify-ideal"}, "scaling,"),
    (fourfold_for_twofold, {"command": "verify-ideal"}, "doubling,"),
    (perturb_gaussian, {"command": "verify-clt-rate", "n_max": 4}, ""),
    (biased_draws, {"command": "oracle", "measures": ["gaussian"], "levels": 1,
                    "samples": 100_000}, ""),
], ids=["contraction", "scaling", "doubling", "clt-rate", "oracle"])
def test_a_fault_upstream_of_a_verdict_writes_a_false_row(fault, cmd, failing, tmp_path,
                                                          capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"commands": [cmd]}))
    csv = f"01_{cmd['command']}.csv"
    code, _, _ = run_cli(["run", "--config", str(config), "--out", str(tmp_path / "clean")],
                         capsys)
    assert code == 0
    fault(monkeypatch)
    code, out, _ = run_cli(["run", "--config", str(config), "--out", str(tmp_path / "faulty")],
                           capsys)
    assert code == 1 and "FAIL" in out
    rows = (tmp_path / "faulty" / csv).read_text().splitlines()[1:]
    assert not any(row.startswith("error,") for row in rows)
    assert any(row.startswith(failing) and row.endswith(",false") for row in rows)


def test_a_perturbed_gaussian_breaks_the_decay_envelope(capsys, monkeypatch):
    perturb_gaussian(monkeypatch)
    assert cltflow.renorm_trajectory(cltflow.bank.skewed_two_atom(), 4).envelope_violation == 1
    code, out, _ = run_cli(["flow", "--measure", "skewed", "--steps", "4"], capsys)
    assert code == 1 and "FAIL (decay envelope violated at step 1)" in out


def test_flow_and_verify_lyapunov_share_one_lyapunov_rule(tmp_path, capsys, monkeypatch):
    # d2 at step 2 made to fall from its value at step 1 by a relative 1e-12
    # only, in every trajectory: both commands fail that step
    orig = flow.ds_distance
    last = {}

    def patched(a, b, s, grid=None, **kwargs):
        res = orig(a, b, s, grid, **kwargs)
        if s == 2:
            if isinstance(a, cltflow.NormalizedSum) and a.n == 4:
                res = dataclasses.replace(res, value=last["d2"] * (1.0 - 1e-12))
            last["d2"] = res.value
        return res

    monkeypatch.setattr(flow, "ds_distance", patched)
    code, out, _ = run_cli(["flow", "--measure", "skewed", "--steps", "4"], capsys)
    assert code == 1 and "FAIL (d2 not strictly decreasing at step 1)" in out
    code, out, _ = run_cli(["verify-lyapunov", "--steps", "4", "--out", str(tmp_path)], capsys)
    assert code == 1 and "FAIL" in out
    rows = (tmp_path / "01_verify-lyapunov.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows if row.endswith(",false")] == ["1"] * 6


def test_the_gaussian_under_a_q2_name_passes_both_lyapunov_commands(tmp_path, capsys):
    # at the fixed point d2 is rounding and has nothing to lose: every step passes
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "measures": {"rademacher": {"type": "parametric", "family": "gaussian",
                                    "params": [0.0, 1.0]}},
        "commands": [{"command": "flow", "measure": "rademacher", "steps": 10},
                     {"command": "verify-lyapunov", "steps": 10}],
    }))
    code, out, _ = run_cli(["run", "--config", str(config), "--out", str(tmp_path)], capsys)
    assert code == 0 and "all checks passed" in out
    rows = (tmp_path / "02_verify-lyapunov.csv").read_text().splitlines()[1:]
    assert len(rows) == 60 and all(row.endswith(",true") for row in rows)


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
    [["verify-contraction", "--xi-max", "inf"], ["verify-contraction", "--xi-min", "nan"],
     ["verify-contraction", "--xi-max", "1e400"],
     ["verify-contraction", "--points-per-decade", "10001"],
     ["oracle", "--samples", "10000001"], ["oracle", "--samples", "99999"],
     ["oracle", "--levels", "13"], ["oracle", "--levels", "0"],
     # the trajectory refuses a 41st step, so the config does
     ["flow", "--measure", "skewed", "--steps", "41"], ["verify-lyapunov", "--steps", "41"],
     # n = 2..1 checks nothing; 1024 sums take about a second
     ["verify-clt-rate", "--n-max", "1"], ["verify-clt-rate", "--n-max", "1025"],
     # the generator's key is a 64-bit word: 2^64 would run as seed 0
     ["oracle", "--levels", "1", "--samples", "100000", "--seed", str(2**64)],
     ["oracle", "--levels", "1", "--samples", "100000", "--seed", "-1"]],
)
def test_cli_grid_and_size_flags_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "config error" in err and out == ""


def test_largest_seed_runs(tmp_path, capsys):
    code, out, _ = run_cli(["oracle", "--levels", "1", "--samples", "100000",
                            "--seed", str(2**64 - 1), "--out", str(tmp_path)], capsys)
    assert code == 0 and f"seed={2**64 - 1}" in out
    assert (tmp_path / "01_oracle.csv").read_text().count(",true\n") == 6


@pytest.mark.parametrize(
    "args", [["--xi-max", "5"], ["--xi-min", "0.01"], ["--points-per-decade", "3"]]
)
def test_oracle_takes_no_grid_flags(args, capsys):
    # the oracle always runs on ORACLE_GRID; a grid flag is an error, not ignored
    code, out, err = run_cli(["oracle", "--levels", "1", "--samples", "100000", *args],
                             capsys)
    assert code == 2
    assert "unrecognized arguments" in err and out == ""


@pytest.mark.parametrize(
    "cmd",
    [
        {"command": "flow", "measure": "skewed", "steps": True},
        {"command": "verify-lyapunov", "steps": True},
        {"command": "verify-clt-rate", "n_max": True},
        {"command": "oracle", "levels": True},
        {"command": "oracle", "samples": True},
        {"command": "oracle", "samples": 10_000_001},
        {"command": "oracle", "samples": 99_999},
        {"command": "oracle", "levels": 13},
        {"command": "flow", "measure": "skewed", "steps": 41},
        {"command": "verify-lyapunov", "steps": 41},
    ],
)
def test_bool_and_oversized_command_values_exit_2(cmd, tmp_path, capsys):
    code, _, err = run_raw_config(json.dumps({"commands": [cmd]}), tmp_path, capsys)
    assert code == 2
    assert "config error" in err


def test_size_caps_are_in_help(capsys):
    assert main(["oracle", "--help"]) == 0
    out = capsys.readouterr().out
    assert "at least 100000 and at most 10000000" in out
    assert "at least 1 and at most 12" in out and "ORACLE_GRID" in out
    assert "--xi-max" not in out and "--points-per-decade" not in out
    assert main(["verify-contraction", "--help"]) == 0
    assert "at most 10000\n" in capsys.readouterr().out
    for command in ("flow", "verify-lyapunov"):
        assert main([command, "--help"]) == 0
        assert "at least 1 and at most 40" in capsys.readouterr().out
    assert main(["verify-clt-rate", "--help"]) == 0
    assert "at least 2 and at most 1024" in capsys.readouterr().out
    assert main(["run", "--help"]) == 0
    assert "ORACLE_GRID" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "grid",
    [["--xi-max", "1e305"],
     ["--xi-min", "1e-300", "--xi-max", "1e300", "--points-per-decade", "10000"],
     ["--xi-min", "1e-120", "--xi-max", "1e20"],
     # below the floor, rounding over xi^3 reads d3(skewed, gaussian) = 0.25 as 7.25e83
     ["--xi-min", "1e-100", "--xi-max", "1e100", "--points-per-decade", "1"]],
    ids=["xi-max-1e305", "1e-300..1e300", "1e-120..1e20", "1e-100..1e100"],
)
def test_extreme_grids_exit_2(grid, capsys):
    code, out, err = run_cli(
        ["distance", "--a", "uniform-std", "--b", "gaussian", "--s", "2", *grid], capsys
    )
    assert code == 2
    assert "config error" in err and "1e-06 <= xi_min and xi_max <= 1e+100" in err
    assert out == ""


def test_verify_ideal_grid_rescaled_out_of_range_exits_2(tmp_path, capsys):
    # lambda = 2 rescales the grid by 1/2, below the floor, and lambda = 1/2
    # by 2, above the largest point: the config is refused before any check
    # runs, and no CSV is written; the same grid serves every other command
    for xi_min, xi_max, lam in ((1.5e-6, 1e-3, "2"), (1e-3, 6e99, "0.5")):
        grid = ["--xi-min", str(xi_min), "--xi-max", str(xi_max), "--points-per-decade", "1"]
        out_dir = tmp_path / lam
        code, out, err = run_cli(["verify-ideal", *grid, "--out", str(out_dir)], capsys)
        assert code == 2 and not out and not out_dir.exists()
        assert err.startswith(f"config error: verify-ideal grid scaled by 1/{lam}: grid needs")
        code, _, _ = run_cli(["distance", "--a", "skewed", "--b", "gaussian", "--s", "3", *grid],
                             capsys)
        assert code == 0


def test_grid_range_is_in_help(capsys):
    assert main(["distance", "--help"]) == 0
    out = capsys.readouterr().out
    assert "at least 1e-06" in out and "at most 1e+100" in out


# ---------------------------------------------------------------------------
# deviations shared within one command
# ---------------------------------------------------------------------------


def test_perturbed_deviations_do_not_outlive_the_command(tmp_path, capsys, monkeypatch):
    args = ["flow", "--measure", "skewed", "--steps", "4", "--out"]
    code, _, _ = run_cli(args + [str(tmp_path / "clean")], capsys)
    assert code == 0
    with monkeypatch.context() as patch:
        perturb_gaussian(patch)
        code, out, _ = run_cli(args + [str(tmp_path / "faulty")], capsys)
        assert code == 1 and "FAIL" in out
    code, _, _ = run_cli(args + [str(tmp_path / "again")], capsys)
    assert code == 0
    clean = (tmp_path / "clean" / "01_flow.csv").read_bytes()
    assert (tmp_path / "again" / "01_flow.csv").read_bytes() == clean
    assert (tmp_path / "faulty" / "01_flow.csv").read_bytes() != clean


def test_memo_is_dropped_after_run_also_on_error(capsys, monkeypatch):
    seen = []

    def failing(cmd, env):
        cli.ds_distance(env.resolve("skewed"), env.resolve("gaussian"), 3, env.grid)
        scope = metrics._active
        seen.append((len(scope.leaves), len(scope.distances), weakref.ref(scope)))
        raise MeasureError("injected")

    monkeypatch.setitem(
        cli.COMMANDS, "distance", dataclasses.replace(cli.COMMANDS["distance"], run=failing)
    )
    code, out, _ = run_cli(
        ["distance", "--a", "skewed", "--b", "gaussian", "--s", "3"], capsys
    )
    assert code == 1 and "FAIL (injected)" in out
    (leaves, distances, scope), = seen
    assert (leaves, distances) == (2, 1)
    assert metrics._active is None
    assert scope() is None  # the scope and its tables are freed


def test_a_run_keeps_its_distances_and_drops_deviations_between_commands(monkeypatch):
    seen = []
    orig = cli.COMMANDS["distance"].run

    def probe(cmd, env):
        scope = metrics._active
        seen.append((len(scope.leaves), len(scope.distances)))
        return orig(cmd, env)

    monkeypatch.setitem(cli.COMMANDS, "distance",
                        dataclasses.replace(cli.COMMANDS["distance"], run=probe))
    cmd = {"command": "distance", "a": "skewed", "b": "gaussian", "s": 3}
    config = cli.parse_config({"commands": [cmd, cmd, {**cmd, "s": 2}]})
    assert cli.run(config, stream=io.StringIO()) == 0
    assert seen == [(0, 0), (0, 1), (0, 1)]
    assert metrics._active is None


def count_deviations(monkeypatch):
    """Count the grid deviations the metrics scope computes, its table misses, and their points."""
    calls = {"calls": 0, "points": 0}
    orig = metrics._Scope.deviation

    def counted(scope, m, grid, leaf, compute):
        def miss():
            dev = compute()
            calls["calls"] += 1
            calls["points"] += dev.size
            return dev
        return orig(scope, m, grid, leaf, miss)

    monkeypatch.setattr(metrics._Scope, "deviation", counted)
    return calls


@pytest.mark.parametrize(
    "args, calls, points",
    [
        # 41 iterates and the gaussian, each on the 941 positive points; the
        # mirrored grid without sharing made 164 calls on 308,648 points
        (["flow", "--measure", "skewed", "--steps", "40"], 42, 42 * 941),
        # 126 sums, the two laws and the gaussian, where 504 calls were made
        (["verify-clt-rate", "--n-max", "64"], 129, 129 * 941),
    ],
)
def test_each_deviation_is_evaluated_once_per_command(args, calls, points, capsys,
                                                      monkeypatch):
    counts = count_deviations(monkeypatch)
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert counts == {"calls": calls, "points": points}


def count_distances(monkeypatch):
    """Count the ds_distance calls, made through every module that calls it,
    and the distances they computed rather than read from a scope."""
    counts = {"calls": 0, "computed": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    calls = counted("calls", metrics.ds_distance)
    for module in (metrics, flow, cli):
        monkeypatch.setattr(module, "ds_distance", calls)
    monkeypatch.setattr(metrics, "_distance", counted("computed", metrics._distance))
    return counts


@pytest.mark.parametrize(
    "doc, calls, computed",
    [
        # T^k nu meets flow, verify-lyapunov and verify-clt-rate again, and
        # verify-ideal asks for a pair's d_s(nu, mu) up to eight times
        (ANALYTIC_SUITE_CONFIG, 1017, 576),
        ({"commands": [{"command": "verify-ideal"}]}, 458, 222),
        # 126 sums and the two laws' own distances, the latter asked for at each n
        ({"commands": [{"command": "verify-clt-rate", "n_max": 64}]}, 252, 128),
    ],
    ids=["analytic-suite", "verify-ideal", "verify-clt-rate"],
)
def test_each_distance_is_computed_once_per_run(doc, calls, computed, monkeypatch):
    counts = count_distances(monkeypatch)
    assert cli.run(cli.parse_config(doc), stream=io.StringIO()) == 0
    assert counts == {"calls": calls, "computed": computed}


def test_verify_ideal_evaluates_each_leaf_about_once(capsys, monkeypatch):
    # an 8-entry memo of whole deviations, where composites and rescaled
    # laws evicted the bank laws, made 537 leaf evaluations; the scope's
    # leaf table makes 54
    leaves = {"n": 0}
    for name in ("_dev_atomic", "_dev_parametric"):
        def counted(*args, _orig=getattr(charfn, name)):
            leaves["n"] += 1
            return _orig(*args)
        monkeypatch.setattr(charfn, name, counted)
    code, _, _ = run_cli(["verify-ideal"], capsys)
    assert code == 0
    assert leaves["n"] <= 80


@pytest.mark.parametrize("cmd", [
    {"command": "verify-ideal"},
    {"command": "verify-contraction"},
    {"command": "flow", "measure": "skewed", "steps": 12},
    {"command": "flow", "measure": "uniform-std", "steps": 12},
    {"command": "verify-clt-rate"},
], ids=lambda cmd: "-".join(map(str, cmd.values())))
def test_shared_rows_equal_fresh_rows(cmd):
    # outside a scope every distance and deviation is computed afresh
    config = cli.parse_config({"commands": [cmd]})
    env, (cmd,) = config["env"], config["commands"]
    runner = cli.COMMANDS[cmd["command"]].run
    fresh = runner(cmd, env).rows
    with metrics.shared_deviations():
        shared = runner(cmd, env).rows
    assert shared == fresh


def test_a_failing_scaling_check_fails_at_its_own_row(monkeypatch):
    # the scaling checks run lambda by lambda ahead of the rows, so the last
    # pair at lambda 1/2 runs before the first pair at lambda 2; the first
    # failure in row order is still the one reported
    orig = cli.check_scaling_ideality
    first = (cltflow.bank.rademacher(), cltflow.bank.skewed_two_atom())
    last = (cltflow.bank.exponential_std(), cltflow.bank.heavy_tail_std())

    def failing(nu, mu, lam, s, grid):
        if ((nu, mu), lam) in ((first, 2.0), (last, 0.5)):
            raise MeasureError(f"injected at lambda {lam}")
        return orig(nu, mu, lam, s, grid)

    monkeypatch.setattr(cli, "check_scaling_ideality", failing)
    env = cli.parse_config({"commands": [{"command": "verify-ideal"}]})["env"]
    with pytest.raises(MeasureError, match="injected at lambda 2.0$"):
        cli._run_verify_ideal({"command": "verify-ideal"}, env)


@pytest.mark.parametrize("failing", [False, True], ids=["passing", "failing"])
def test_closed_stdout_exits_quietly(tmp_path, failing):
    # the read end is closed before the CLI writes a byte, as when `| head`
    # has read what it wanted: no traceback, no noise at exit, the CSV
    # report is written and the status still reports the checks
    src = os.path.dirname(os.path.dirname(os.path.abspath(cltflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    args = ["distance", "--a", "skewed", "--b", "gaussian", "--s", "3"]
    if failing:  # heavy-tail-std has no third moment, so its d3 fails: exit 1
        config = tmp_path / "failing.json"
        config.write_text(json.dumps({"commands": [
            {"command": "distance", "a": "heavy-tail-std", "b": "gaussian", "s": 3}]}))
        args = ["run", "--config", str(config)]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cltflow.cli", *args, "--out", str(tmp_path / "out")],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write)
    assert proc.returncode == (1 if failing else 0)
    assert proc.stderr == b""
    assert os.listdir(tmp_path / "out") == ["01_distance.csv"]
