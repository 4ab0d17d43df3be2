"""Command-line entry point.

Subcommands run the library's verification suites over the built-in measure
bank (or measures declared in a JSON config) and emit one CSV per command
plus a human-readable summary on stdout.  Exit status: 0 when every asserted
inequality held, 1 when at least one failed (or a computational contract was
violated mid-run), 2 for config parse/validation problems, 3 for I/O
failures.  All floating-point output uses 17 significant digits so repeated
runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

from .bank import Q2_BANK_NAMES, Q3_BANK_NAMES, resolve_alias
from .errors import CharFnBoundError, ConfigError, MeasureError
from .flow import (
    CONTRACTION_BOUND,
    clt_rate_check,
    contraction_ratio,
    renorm_trajectory,
)
from .measures import Measure, convolve, measure_from_literal
from .metrics import (
    GridSpec,
    check_convolution_invariance,
    check_convolution_subadditivity,
    check_scaling_ideality,
    ds_distance,
)
from .mc import ORACLE_GRID, empirical_flow_check

DEFAULT_SEED = 1234
DEFAULT_ORACLE_SAMPLES = 1_000_000
# caps on the two sizes a config sets directly; both stay far above what
# the benchmark and the accuracy studies use (2e5 samples, 3200 per decade)
MAX_ORACLE_SAMPLES = 10_000_000
MAX_POINTS_PER_DECADE = 10_000
# a Lyapunov step passes when d2 falls by more than this fraction of itself;
# d2 is accurate to about 1e-14 relative, its true decrease is above 0.1
LYAPUNOV_MIN_RELATIVE_DECREASE = 1e-9
IDEAL_LAMBDAS = (0.5, 2.0**-0.5, 1.0, 2.0)
_COMMANDS = (
    "distance",
    "flow",
    "verify-contraction",
    "verify-ideal",
    "verify-lyapunov",
    "verify-clt-rate",
    "oracle",
)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _flag(ok: bool) -> str:
    return "true" if ok else "false"


@dataclass
class CommandResult:
    name: str
    header: str
    rows: list[str]
    ok: bool
    summary: str


class _Env:
    def __init__(self, measures: dict[str, Measure], grid: GridSpec, seed: int):
        self.measures = measures
        self.grid = grid
        self.seed = seed

    def resolve(self, name: str) -> Measure:
        if name in self.measures:
            return self.measures[name]
        try:
            return resolve_alias(name)
        except KeyError:
            raise ConfigError(
                f"command references undeclared measure {name!r}"
            ) from None

    def bank(self, names) -> dict[str, Measure]:
        return {name: self.resolve(name) for name in names}


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------


def _run_distance(cmd: dict, env: _Env) -> CommandResult:
    a = env.resolve(cmd["a"])
    b = env.resolve(cmd["b"])
    res = ds_distance(a, b, cmd["s"], env.grid)
    header = type(res).CSV_HEADER
    row = res.to_csv_row()
    summary = f"distance s={cmd['s']} {cmd['a']} vs {cmd['b']}: {header}\n{row}"
    return CommandResult("distance", header, [row], True, summary)


def _run_flow(cmd: dict, env: _Env) -> CommandResult:
    m = env.resolve(cmd["measure"])
    steps = cmd.get("steps", 10)
    report = renorm_trajectory(m, steps, env.grid)
    ok = report.lyapunov_monotone
    detail = []
    if report.distances_d3 is not None and report.distances_d3[0] > 1e-12:
        d0 = report.distances_d3[0]
        for n in range(1, steps + 1):
            if report.distances_d3[n] > 2.0 ** (-n / 2.0) * d0 * (1.0 + 1e-6):
                ok = False
                detail.append(f"decay envelope violated at step {n}")
                break
    if not report.lyapunov_monotone:
        detail.append("d2 not strictly decreasing")
    slope = (
        "undefined"
        if report.fitted_slope_log2 is None
        else _fmt(report.fitted_slope_log2)
    )
    summary = (
        f"flow {cmd['measure']} steps={steps}: slope_log2={slope} "
        f"{'ok' if ok else 'FAIL (' + '; '.join(detail) + ')'}"
    )
    return CommandResult("flow", report.CSV_HEADER, report.to_csv_rows(), ok, summary)


def _run_verify_contraction(cmd: dict, env: _Env) -> CommandResult:
    bank = env.bank(Q3_BANK_NAMES)
    bound = CONTRACTION_BOUND + 1e-6
    rows, ok = [], True
    worst = 0.0
    for (na, ma), (nb, mb) in itertools.combinations(bank.items(), 2):
        ratio = contraction_ratio(ma, mb, env.grid, enforce=False)
        good = ratio <= bound
        ok &= good
        worst = max(worst, ratio)
        rows.append(f"{na},{nb},{_fmt(ratio)},{_fmt(bound)},{_flag(good)}")
    summary = (
        f"verify-contraction: 10 pairs, worst ratio {_fmt(worst)} "
        f"(bound {_fmt(bound)}) {'ok' if ok else 'FAIL'}"
    )
    return CommandResult(
        "verify-contraction", "a,b,ratio,bound,ok", rows, ok, summary
    )


def _run_verify_ideal(cmd: dict, env: _Env) -> CommandResult:
    gauss = env.resolve("gaussian")
    rows, ok = [], True

    def emit(check, s, names, lam, lhs, rhs, stat, good):
        nonlocal ok
        ok &= good
        lam_s = "" if lam is None else _fmt(lam)
        rows.append(
            f"{check},{s},{'|'.join(names)},{lam_s},{_fmt(lhs)},{_fmt(rhs)},"
            f"{_fmt(stat)},{_flag(good)}"
        )

    for s in (2, 3):
        bank = env.bank(Q3_BANK_NAMES if s == 3 else Q2_BANK_NAMES)
        pairs = list(itertools.combinations(bank.items(), 2))
        for (na, ma), (nb, mb) in itertools.combinations_with_replacement(
            bank.items(), 2
        ):
            sub = check_convolution_subadditivity(ma, mb, gauss, gauss, s, env.grid)
            emit("subadditivity", s, (na, nb, "gaussian", "gaussian"), None,
                 sub.lhs, sub.rhs, sub.margin, sub.ok)
        for (na, ma), (nb, mb) in pairs:
            for eta_name in ("gaussian", "rademacher"):
                inv = check_convolution_invariance(
                    ma, mb, env.resolve(eta_name), s, env.grid
                )
                emit("conv-invariance", s, (na, nb, eta_name), None,
                     inv.lhs, inv.rhs, inv.margin, inv.ok)
            for lam in IDEAL_LAMBDAS:
                sc = check_scaling_ideality(ma, mb, lam, s, env.grid)
                emit("scaling", s, (na, nb), lam, sc.lhs, sc.rhs, sc.ratio, sc.ok)
            # generic doubling bound: d(nu*nu, mu*mu) <= 2 d(nu, mu)
            lhs = ds_distance(
                convolve(ma, ma), convolve(mb, mb), s, env.grid,
                require_class_membership=False,
            ).value
            rhs = ds_distance(ma, mb, s, env.grid).value
            emit("doubling", s, (na, nb), None, lhs, 2.0 * rhs,
                 2.0 * rhs - lhs, lhs <= 2.0 * rhs + 1e-8)
    summary = f"verify-ideal: {len(rows)} checks {'ok' if ok else 'FAIL'}"
    return CommandResult(
        "verify-ideal",
        "check,s,measures,lambda,lhs,rhs,stat,ok",
        rows,
        ok,
        summary,
    )


def _run_verify_lyapunov(cmd: dict, env: _Env) -> CommandResult:
    steps = cmd.get("steps", 10)
    rows, ok = [], True
    for name, m in env.bank(Q2_BANK_NAMES).items():
        report = renorm_trajectory(m, steps, env.grid)
        d2 = report.distances_d2
        for n in range(steps):
            decrease = d2[n] - d2[n + 1]
            good = decrease > LYAPUNOV_MIN_RELATIVE_DECREASE * d2[n]
            ok &= good
            rows.append(
                f"{name},{n},{_fmt(d2[n])},{_fmt(d2[n + 1])},{_fmt(decrease)},"
                f"{_flag(good)}"
            )
    summary = (
        f"verify-lyapunov: strict d2 decrease over {steps} steps "
        f"{'ok' if ok else 'FAIL'}"
    )
    return CommandResult(
        "verify-lyapunov", "measure,n,v_before,v_after,decrease,ok", rows, ok, summary
    )


def _run_verify_clt_rate(cmd: dict, env: _Env) -> CommandResult:
    n_max = cmd.get("n_max", 64)
    rows, ok = [], True
    for name in ("rademacher", "skewed"):
        m = env.resolve(name)
        for n in range(2, n_max + 1):
            chk = clt_rate_check(m, n, env.grid)
            ok &= chk.ok
            rows.append(
                f"{name},{n},{_fmt(chk.lhs)},{_fmt(chk.rhs)},{_fmt(chk.margin)},"
                f"{_flag(chk.ok)}"
            )
    summary = f"verify-clt-rate: n=2..{n_max} {'ok' if ok else 'FAIL'}"
    return CommandResult(
        "verify-clt-rate", "measure,n,lhs,rhs,margin,ok", rows, ok, summary
    )


def _run_oracle(cmd: dict, env: _Env) -> CommandResult:
    levels = cmd.get("levels", 6)
    samples = cmd.get("samples", DEFAULT_ORACLE_SAMPLES)
    rows, ok = [], True
    for name in cmd.get("measures", ("gaussian", "rademacher", "skewed")):
        m = env.resolve(name)
        chk = empirical_flow_check(m, levels, samples, env.seed, ORACLE_GRID)
        ok &= chk.ok
        for level, dev in enumerate(chk.per_level):
            rows.append(
                f"{name},{level},{_fmt(dev)},{_fmt(chk.envelope)},"
                f"{_flag(dev <= chk.envelope)}"
            )
    summary = (
        f"oracle: levels 0..{levels} at n={samples}, seed={env.seed} "
        f"{'ok' if ok else 'FAIL'}"
    )
    return CommandResult(
        "oracle", "measure,level,max_dev,envelope,ok", rows, ok, summary
    )


_RUNNERS = {
    "distance": _run_distance,
    "flow": _run_flow,
    "verify-contraction": _run_verify_contraction,
    "verify-ideal": _run_verify_ideal,
    "verify-lyapunov": _run_verify_lyapunov,
    "verify-clt-rate": _run_verify_clt_rate,
    "oracle": _run_oracle,
}

_COMMAND_KEYS = {
    "distance": ({"command", "a", "b", "s"}, {"a", "b", "s"}),
    "flow": ({"command", "measure", "steps"}, {"measure"}),
    "verify-contraction": ({"command"}, set()),
    "verify-ideal": ({"command"}, set()),
    "verify-lyapunov": ({"command", "steps"}, set()),
    "verify-clt-rate": ({"command", "n_max"}, set()),
    "oracle": ({"command", "levels", "samples", "measures"}, set()),
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _validate_command(cmd) -> dict:
    if not isinstance(cmd, dict) or "command" not in cmd:
        raise ConfigError("each command must be an object with a 'command' key")
    name = cmd["command"]
    if name not in _COMMAND_KEYS:
        raise ConfigError(f"unknown command {name!r}; known: {sorted(_COMMAND_KEYS)}")
    allowed, required = _COMMAND_KEYS[name]
    extra = set(cmd) - allowed
    if extra:
        raise ConfigError(f"unknown keys for command {name!r}: {sorted(extra)}")
    missing = required - set(cmd)
    if missing:
        raise ConfigError(f"command {name!r} is missing keys: {sorted(missing)}")
    if name == "distance" and cmd["s"] not in (2, 3):
        raise ConfigError("distance command needs s in {2, 3}")
    for key in ("steps", "n_max", "levels", "samples"):
        if key in cmd and (not _is_int(cmd[key]) or cmd[key] < 1):
            raise ConfigError(f"command key {key!r} must be a positive integer")
    if cmd.get("samples", 0) > MAX_ORACLE_SAMPLES:
        raise ConfigError(f"command key 'samples' must be at most {MAX_ORACLE_SAMPLES}")
    return cmd


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"grid key {key!r} must be a finite real number")


def parse_config(doc) -> dict:
    """Validate a config document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"measures", "grid", "seed", "output_path", "commands"}
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    commands = doc.get("commands")
    if not isinstance(commands, list) or not commands:
        raise ConfigError("config needs a nonempty 'commands' list")
    measures = {}
    raw_measures = doc.get("measures", {})
    if not isinstance(raw_measures, dict):
        raise ConfigError("'measures' must map names to measure literals")
    for name, literal in raw_measures.items():
        try:
            measures[name] = measure_from_literal(literal)
        except MeasureError as exc:
            raise ConfigError(f"measure {name!r}: {exc}") from exc
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("'grid' must be an object")
    grid_extra = set(grid_doc) - {"xi_min", "xi_max", "points_per_decade"}
    if grid_extra:
        raise ConfigError(f"unknown grid keys: {sorted(grid_extra)}")
    ppd = grid_doc.get("points_per_decade", 200)
    if not _is_int(ppd) or not 1 <= ppd <= MAX_POINTS_PER_DECADE:
        raise ConfigError(
            f"grid key 'points_per_decade' must be an integer in 1..{MAX_POINTS_PER_DECADE}"
        )
    try:
        grid = GridSpec(
            xi_min=_finite_real(grid_doc, "xi_min", 1e-3),
            xi_max=_finite_real(grid_doc, "xi_max", 50.0),
            points_per_decade=ppd,
        )
    except MeasureError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    seed = doc.get("seed", DEFAULT_SEED)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("'seed' must be a nonnegative integer")
    validated = [_validate_command(c) for c in commands]
    env = _Env(measures, grid, seed)
    for cmd in validated:
        for key in ("a", "b", "measure"):
            if key in cmd:
                env.resolve(cmd[key])
        for name in cmd.get("measures", ()):
            env.resolve(name)
    return {
        "commands": validated,
        "env": env,
        "output_path": doc.get("output_path"),
    }


def run(config: dict, out_dir: str | None = None, stream=None) -> int:
    """Execute a validated config; returns the process exit status."""
    stream = stream or sys.stdout
    env: _Env = config["env"]
    out_dir = out_dir or config.get("output_path")
    results: list[CommandResult] = []
    for cmd in config["commands"]:
        runner = _RUNNERS[cmd["command"]]
        try:
            results.append(runner(cmd, env))
        except (MeasureError, CharFnBoundError, FloatingPointError) as exc:
            results.append(
                CommandResult(
                    cmd["command"],
                    "error",
                    [f"error,{exc}"],
                    False,
                    f"{cmd['command']}: FAIL ({exc})",
                )
            )
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for idx, res in enumerate(results, start=1):
                path = os.path.join(out_dir, f"{idx:02d}_{res.name}.csv")
                with open(path, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(res.header + "\n")
                    for row in res.rows:
                        fh.write(row + "\n")
        except OSError as exc:
            print(f"i/o failure: {exc}", file=stream)
            return 3
    for res in results:
        print(res.summary, file=stream)
    failed = sum(1 for r in results if not r.ok)
    print(
        "all checks passed" if failed == 0 else f"{failed} command(s) failed",
        file=stream,
    )
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltflow",
        description="Fourier-metric verification of the renormalization CLT flow",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="directory for CSV reports")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--xi-min", type=float, default=1e-3)
        p.add_argument("--xi-max", type=float, default=50.0)
        p.add_argument(
            "--points-per-decade", type=int, default=200,
            help=f"grid resolution, at most {MAX_POINTS_PER_DECADE}",
        )

    p = sub.add_parser("distance", help="one Fourier distance, printed as CSV")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--s", type=int, required=True, choices=(2, 3))
    add_common(p)

    p = sub.add_parser("flow", help="trajectory distances under the renormalization map")
    p.add_argument("--measure", required=True)
    p.add_argument("--steps", type=int, default=10)
    add_common(p)

    p = sub.add_parser("verify-contraction", help="contraction bound over the bank")
    add_common(p)

    p = sub.add_parser("verify-ideal", help="ideal-metric structure checks")
    add_common(p)

    p = sub.add_parser("verify-lyapunov", help="strict d2 decrease along trajectories")
    p.add_argument("--steps", type=int, default=10)
    add_common(p)

    p = sub.add_parser("verify-clt-rate", help="sqrt(n) rate for arbitrary n")
    p.add_argument("--n-max", type=int, default=64)
    add_common(p)

    p = sub.add_parser("oracle", help="Monte Carlo agreement with the analytic flow")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument(
        "--samples", type=int, default=DEFAULT_ORACLE_SAMPLES,
        help=f"draws per level, at most {MAX_ORACLE_SAMPLES}",
    )
    add_common(p)

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="overrides the config output_path")
    return parser


def _args_to_config(args) -> dict:
    cmd: dict = {"command": args.subcommand}
    if args.subcommand == "distance":
        cmd.update(a=args.a, b=args.b, s=args.s)
    elif args.subcommand == "flow":
        cmd.update(measure=args.measure, steps=args.steps)
    elif args.subcommand == "verify-lyapunov":
        cmd.update(steps=args.steps)
    elif args.subcommand == "verify-clt-rate":
        cmd.update(n_max=args.n_max)
    elif args.subcommand == "oracle":
        cmd.update(levels=args.levels, samples=args.samples)
    doc = {
        "commands": [cmd],
        "grid": {
            "xi_min": args.xi_min,
            "xi_max": args.xi_max,
            "points_per_decade": args.points_per_decade,
        },
        "seed": args.seed,
    }
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as exc:
                print(f"config is not valid JSON: {exc}", file=sys.stderr)
                return 2
        else:
            doc = _args_to_config(args)
        config = parse_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config, out_dir=args.out)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
