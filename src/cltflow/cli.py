"""Command-line entry point.

Subcommands run the library's verification suites over the built-in measure
bank (or measures declared in a JSON config) and emit one CSV per command
plus a human-readable summary on stdout.  Exit status: 0 when every asserted
inequality held, 1 when at least one failed (or a computational contract was
violated mid-run), 2 for config parse/validation problems, 3 for I/O
failures of the CSV reports.  A reader that closes stdout early (`| head`)
only cuts the summary short.  All floating-point output uses 17 significant
digits so repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .bank import Q2_BANK_NAMES, Q3_BANK_NAMES, resolve_alias
from .errors import CharFnBoundError, ConfigError, MeasureError
from .flow import MAX_TRAJECTORY_STEPS, clt_rate_check, contraction_ratio, renorm_trajectory
from .measures import Measure, measure_from_literal
from .metrics import (GRID_XI_MAX, GRID_XI_MIN, GridSpec, _fmt, check_convolution_invariance,
                      check_convolution_subadditivity, check_doubling, check_scaling_ideality,
                      ds_distance, shared_deviations)
from .mc import MAX_FLOW_LEVELS, MAX_SEED, MIN_FLOW_SAMPLES, ORACLE_GRID, empirical_flow_check

DEFAULT_SEED = 1234
DEFAULT_ORACLE_SAMPLES = 1_000_000
# caps on the two sizes a config sets directly; both stay far above what
# the benchmark and the accuracy studies use (2e5 samples, 3200 per decade)
MAX_ORACLE_SAMPLES = 10_000_000
MAX_POINTS_PER_DECADE = 10_000
# verify-clt-rate checks n = 2..n_max, about 0.4 ms per n (both laws) at the
# default grid on a 2-core x86 VM, so about 0.4 s at the cap
MAX_CLT_RATE_N = 1024
IDEAL_LAMBDAS = (0.5, 2.0**-0.5, 1.0, 2.0)
# a command that raises one of these fails with an error row; any other
# exception propagates
_RUN_ERRORS = (MeasureError, CharFnBoundError, FloatingPointError)


def _flag(ok: bool) -> str:
    return "true" if ok else "false"


@dataclass
class CommandResult:
    """A command's CSV report (header and rows), verdict and summary line."""

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
        if not isinstance(name, str):
            raise ConfigError(f"a measure reference must be a name, got {name!r}")
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
    return CommandResult(header, [row], True, summary)


def _report(header: str, rows: list[str], oks: list[bool], summary: str) -> CommandResult:
    """The result of a command whose rows carry the verdicts oks: ok when all hold."""
    ok = all(oks)
    return CommandResult(header, rows, ok, f"{summary} {'ok' if ok else 'FAIL'}")


def _run_flow(cmd: dict, env: _Env) -> CommandResult:
    steps = cmd["steps"]
    report = renorm_trajectory(env.resolve(cmd["measure"]), steps, env.grid)
    detail = []
    if report.envelope_violation is not None:
        detail.append(f"decay envelope violated at step {report.envelope_violation}")
    if not all(report.lyapunov):
        detail.append(f"d2 not strictly decreasing at step {report.lyapunov.index(False)}")
    slope = "undefined" if report.fitted_slope_log2 is None else _fmt(report.fitted_slope_log2)
    summary = (
        f"flow {cmd['measure']} steps={steps}: slope_log2={slope} "
        f"{'ok' if report.ok else 'FAIL (' + '; '.join(detail) + ')'}"
    )
    return CommandResult(report.CSV_HEADER, report.to_csv_rows(), report.ok, summary)


def _run_verify_contraction(cmd: dict, env: _Env) -> CommandResult:
    rows, checks = [], []
    for (na, ma), (nb, mb) in itertools.combinations(env.bank(Q3_BANK_NAMES).items(), 2):
        chk = contraction_ratio(ma, mb, env.grid)
        checks.append(chk)
        rows.append(f"{na},{nb},{_fmt(chk.lhs)},{_fmt(chk.rhs)},{_flag(chk.ok)}")
    worst = max(checks, key=lambda chk: chk.lhs)
    return _report(
        "a,b,ratio,bound,ok", rows, [chk.ok for chk in checks],
        f"verify-contraction: {len(rows)} pairs, worst ratio {_fmt(worst.lhs)} "
        f"(bound {_fmt(worst.rhs)})",
    )


def _run_verify_ideal(cmd: dict, env: _Env) -> CommandResult:
    gauss = env.resolve("gaussian")
    rows, oks = [], []

    def emit(check, s, names, lam, chk):
        oks.append(chk.ok)
        lam_s = "" if lam is None else _fmt(lam)
        rows.append(
            f"{check},{s},{'|'.join(names)},{lam_s},{_fmt(chk.lhs)},{_fmt(chk.rhs)},"
            f"{_fmt(chk.stat)},{_flag(chk.ok)}"
        )

    for s in (2, 3):
        bank = env.bank(Q3_BANK_NAMES if s == 3 else Q2_BANK_NAMES)
        pairs = list(itertools.combinations(bank.items(), 2))
        for (na, ma), (nb, mb) in itertools.combinations_with_replacement(
            bank.items(), 2
        ):
            emit("subadditivity", s, (na, nb, "gaussian", "gaussian"), None,
                 check_convolution_subadditivity(ma, mb, gauss, gauss, s, env.grid))
        # lambda in the outer loop keeps one lambda's rescaled laws shared
        # across the pairs; a check that fails raises at its own row
        scaling = {}
        for lam in IDEAL_LAMBDAS:
            for (na, ma), (nb, mb) in pairs:
                try:
                    sc = check_scaling_ideality(ma, mb, lam, s, env.grid)
                except _RUN_ERRORS as exc:
                    sc = exc
                scaling[na, nb, lam] = sc
        for (na, ma), (nb, mb) in pairs:
            for eta_name in ("gaussian", "rademacher"):
                emit("conv-invariance", s, (na, nb, eta_name), None,
                     check_convolution_invariance(ma, mb, env.resolve(eta_name), s, env.grid))
            for lam in IDEAL_LAMBDAS:
                sc = scaling[na, nb, lam]
                if isinstance(sc, Exception):
                    raise sc
                emit("scaling", s, (na, nb), lam, sc)
            emit("doubling", s, (na, nb), None, check_doubling(ma, mb, s, env.grid))
    return _report("check,s,measures,lambda,lhs,rhs,stat,ok", rows, oks,
                    f"verify-ideal: {len(rows)} checks")


def _run_verify_lyapunov(cmd: dict, env: _Env) -> CommandResult:
    steps = cmd["steps"]
    rows, oks = [], []
    for name, m in env.bank(Q2_BANK_NAMES).items():
        report = renorm_trajectory(m, steps, env.grid)
        d2 = report.distances_d2
        for n, good in enumerate(report.lyapunov):
            oks.append(good)
            rows.append(
                f"{name},{n},{_fmt(d2[n])},{_fmt(d2[n + 1])},{_fmt(d2[n] - d2[n + 1])},"
                f"{_flag(good)}"
            )
    return _report("measure,n,v_before,v_after,decrease,ok", rows, oks,
                    f"verify-lyapunov: strict d2 decrease over {steps} steps")


def _run_verify_clt_rate(cmd: dict, env: _Env) -> CommandResult:
    n_max = cmd["n_max"]
    rows, oks = [], []
    for name in ("rademacher", "skewed"):
        m = env.resolve(name)
        for n in range(2, n_max + 1):
            chk = clt_rate_check(m, n, env.grid)
            oks.append(chk.ok)
            rows.append(
                f"{name},{n},{_fmt(chk.lhs)},{_fmt(chk.rhs)},{_fmt(chk.stat)},"
                f"{_flag(chk.ok)}"
            )
    return _report("measure,n,lhs,rhs,margin,ok", rows, oks,
                    f"verify-clt-rate: n=2..{n_max}")


def _run_oracle(cmd: dict, env: _Env) -> CommandResult:
    levels, samples = cmd["levels"], cmd["samples"]
    names = cmd["measures"]
    checks = empirical_flow_check([env.resolve(name) for name in names], levels, samples,
                                  env.seed)
    rows = [
        f"{name},{level},{_fmt(dev)},{_fmt(chk.envelope)},{_flag(good)}"
        for name, chk in zip(names, checks)
        for level, (dev, good) in enumerate(zip(chk.per_level, chk.levels_ok))
    ]
    return _report("measure,level,max_dev,envelope,ok", rows, [chk.ok for chk in checks],
                    f"oracle: levels 0..{levels} at n={samples}, seed={env.seed}")


# ---------------------------------------------------------------------------
# the command table and config handling
# ---------------------------------------------------------------------------

# the config's grid keys, and the flags of every command that takes them
_GRID_FLAGS = {
    "xi_min": (float, f"smallest grid point, at least {GRID_XI_MIN:g}"),
    "xi_max": (float, f"largest grid point, at most {GRID_XI_MAX:g}"),
    "points_per_decade": (int, f"grid resolution, at most {MAX_POINTS_PER_DECADE}"),
}

REQUIRED = object()  # the default of a key that a command must give


@dataclass(frozen=True)
class Key:
    """One key of a command: a config key and, but for a list, the flag --name.

    An int key is bounded by lo..hi (hi None: no upper bound), and choices
    makes its flag list lo..hi; a str key names a measure, a list key lists
    measure names and is set in a config only.
    """

    name: str
    type: type
    default: object = REQUIRED
    lo: int | None = None
    hi: int | None = None
    help: str | None = None
    choices: bool = False

    def check(self, value):
        """value, if it is of this key's type and within its bounds."""
        if self.type is int:
            ok = _is_int(value) and self.lo <= value and (self.hi is None or value <= self.hi)
            what = (f"an integer of at least {self.lo}" if self.hi is None
                    else f"an integer in {self.lo}..{self.hi}")
        else:
            ok = isinstance(value, self.type) and len(value) > 0
            what = "a measure name" if self.type is str else "a nonempty list of measure names"
        if not ok:
            raise ConfigError(f"command key {self.name!r} must be {what}")
        return list(value) if self.type is list else value


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner, --help text, keys, and whether it takes the grid flags.

    One without the grid flags names the grid it uses in its --help description.
    """

    run: Callable[[dict, _Env], CommandResult]
    help: str
    keys: tuple[Key, ...] = ()
    grid: bool = True


_STEPS = Key("steps", int, 10, lo=1, hi=MAX_TRAJECTORY_STEPS,
             help=f"renormalization steps, at least 1 and at most {MAX_TRAJECTORY_STEPS}")

COMMANDS = {
    "distance": Command(_run_distance, "one Fourier distance, printed as CSV", (
        Key("a", str), Key("b", str), Key("s", int, lo=2, hi=3, choices=True))),
    "flow": Command(_run_flow, "trajectory distances under the renormalization map",
                    (Key("measure", str), _STEPS)),
    "verify-contraction": Command(_run_verify_contraction, "contraction bound over the bank"),
    "verify-ideal": Command(_run_verify_ideal, "ideal-metric structure checks"),
    "verify-lyapunov": Command(_run_verify_lyapunov, "strict d2 decrease along trajectories",
                               (_STEPS,)),
    "verify-clt-rate": Command(_run_verify_clt_rate, "sqrt(n) rate for arbitrary n",
                               (Key("n_max", int, 64, lo=2, hi=MAX_CLT_RATE_N,
                                    help=f"largest sum length n, at least 2 and at most "
                                         f"{MAX_CLT_RATE_N}"),)),
    "oracle": Command(
        _run_oracle, "Monte Carlo agreement with the analytic flow", (
            Key("levels", int, 6, lo=1, hi=MAX_FLOW_LEVELS,
                help=f"pairwise-sum levels, at least 1 and at most {MAX_FLOW_LEVELS}"),
            Key("samples", int, DEFAULT_ORACLE_SAMPLES, lo=MIN_FLOW_SAMPLES,
                hi=MAX_ORACLE_SAMPLES,
                help=f"samples per level, at least {MIN_FLOW_SAMPLES} and at most "
                     f"{MAX_ORACLE_SAMPLES}; each law draws 2^levels x samples base values"),
            Key("measures", list, ["gaussian", "rademacher", "skewed"]),
        ),
        grid=False,
    ),
}


def _validate_command(cmd) -> dict:
    """cmd checked against its row of COMMANDS, with every default filled in."""
    if not isinstance(cmd, dict) or "command" not in cmd:
        raise ConfigError("each command must be an object with a 'command' key")
    name = cmd["command"]
    if not isinstance(name, str) or name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}; known: {sorted(COMMANDS)}")
    keys = COMMANDS[name].keys
    extra = set(cmd) - {"command", *(key.name for key in keys)}
    if extra:
        raise ConfigError(f"unknown keys for command {name!r}: {sorted(extra)}")
    out = {"command": name}
    for key in keys:
        if key.default is REQUIRED and key.name not in cmd:
            raise ConfigError(f"command {name!r} is missing key {key.name!r}")
        out[key.name] = key.check(cmd.get(key.name, key.default))
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(key: str, value) -> float:
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
    grid_extra = set(grid_doc) - set(_GRID_FLAGS)
    if grid_extra:
        raise ConfigError(f"unknown grid keys: {sorted(grid_extra)}")
    # the keys the config gives are checked here; GridSpec fills in the rest
    given = dict(grid_doc)
    ppd = given.get("points_per_decade")
    if "points_per_decade" in given and not (_is_int(ppd) and 1 <= ppd <= MAX_POINTS_PER_DECADE):
        raise ConfigError(
            f"grid key 'points_per_decade' must be an integer in 1..{MAX_POINTS_PER_DECADE}"
        )
    for key in ("xi_min", "xi_max"):
        if key in given:
            given[key] = _finite_real(key, given[key])
    try:
        grid = GridSpec(**given)
    except MeasureError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("'output_path' must be a string")
    seed = doc.get("seed", DEFAULT_SEED)
    if not _is_int(seed) or not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"'seed' must be an integer in 0..{MAX_SEED}")
    validated = [_validate_command(c) for c in commands]
    if any(cmd["command"] == "verify-ideal" for cmd in validated):
        for lam in IDEAL_LAMBDAS:  # its scaling checks run on the grid scaled by 1/lambda
            try:
                grid.scaled(1.0 / lam)
            except MeasureError as exc:
                raise ConfigError(f"verify-ideal grid scaled by 1/{lam:g}: {exc}") from exc
    env = _Env(measures, grid, seed)
    for cmd in validated:
        for key in COMMANDS[cmd["command"]].keys:
            if key.type is not int:  # a measure name, or a list of them
                env.bank(cmd[key.name] if key.type is list else [cmd[key.name]])
    return {
        "commands": validated,
        "env": env,
        "output_path": output_path,
    }


def run(config: dict, out_dir: str | None = None, stream=None) -> int:
    """Execute a validated config; returns the process exit status.

    One shared_deviations() scope lasts the whole run (metrics module
    notes).  A command that fails still writes its own error row.
    """
    stream = stream or sys.stdout
    env: _Env = config["env"]
    out_dir = out_dir or config.get("output_path")
    results: list[CommandResult] = []
    with shared_deviations() as scope:
        for cmd in config["commands"]:
            try:
                results.append(COMMANDS[cmd["command"]].run(cmd, env))
            except _RUN_ERRORS as exc:
                results.append(CommandResult("error", [f"error,{exc}"], False,
                                             f"{cmd['command']}: FAIL ({exc})"))
            # a full leaf table carried into the next command raises its
            # peak memory; the leaves it held are cheap to compute again
            scope.drop_deviations()
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for idx, (cmd, res) in enumerate(zip(config["commands"], results), start=1):
                path = os.path.join(out_dir, f"{idx:02d}_{cmd['command']}.csv")
                with open(path, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(res.header + "\n")
                    for row in res.rows:
                        fh.write(row + "\n")
        except OSError as exc:
            print(f"i/o failure: {exc}", file=stream)
            return 3
    failed = sum(1 for r in results if not r.ok)
    try:
        for res in results:
            print(res.summary, file=stream)
        print(
            "all checks passed" if failed == 0 else f"{failed} command(s) failed",
            file=stream,
        )
        stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); the rest goes to devnull,
        # so the flush at exit stays quiet, and the status still reports
        # the checks
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=None if command.grid else
                           f"It takes no grid flags: ORACLE_GRID = {ORACLE_GRID}.")
        for key in command.keys:
            if key.type is list:  # set in a config only
                continue
            p.add_argument(
                "--" + key.name.replace("_", "-"), type=key.type, default=key.default,
                required=key.default is REQUIRED, help=key.help,
                choices=range(key.lo, key.hi + 1) if key.choices else None,
            )
        p.add_argument("--out", default=None, help="directory for CSV reports")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        for key, (kind, text) in _GRID_FLAGS.items() if command.grid else ():
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)

    p = sub.add_parser("run", help="execute a JSON experiment config",
                       description="Its grid serves every command but oracle (ORACLE_GRID).")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="overrides the config output_path")
    return parser


def _args_to_config(args) -> dict:
    command = COMMANDS[args.subcommand]
    cmd = {"command": args.subcommand}
    cmd.update((key.name, getattr(args, key.name)) for key in command.keys
               if key.type is not list)
    doc = {"commands": [cmd], "seed": args.seed}
    if command.grid:  # a flag left out takes the config's default
        doc["grid"] = {key: getattr(args, key) for key in _GRID_FLAGS
                       if getattr(args, key) is not None}
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
