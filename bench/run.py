"""Benchmark of the cltflow CLI: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the cltflow in src/ of the checkout that holds bench/.  Each
workload is one `run` config that the benchmark writes (with the seed in it)
and hands to a fresh `python3` child, which imports `cltflow.cli` from `src/`
and calls `cltflow.cli.main(["run", "--config", ..., "--out", ...])`.
Children run one at a time, until S seconds have passed and at least a few
have run; every figure is a median over children.

--trace 0 reports the end-to-end metrics: cpu_s (the child's user and
system CPU time, spawn to exit), setup_s (the `import cltflow.cli`), run_s
(the `cli.main` call) and peak_rss_mb.  The times are CPU times, which other
processes on the machine leave nearly alone, scaled to the speed of a
reference machine.  The benchmark pins itself, and so every child, to one
CPU, and runs bench/pace.py there too: fixed work at low priority that does
not touch cltflow and takes about a tenth of the CPU while a child runs.  A
child's slowdown is REF_RATE, the probe's units of work per CPU second on
the reference machine, over its rate while the child ran, and the child's
times are divided by it.  A shared host that slows the CPU, from one second
to the next, slows the probe in the same slices of time, and the scaled
times stay put.  The unscaled medians and the wall times (wall_s,
setup_wall_s, run_wall_s) are printed and kept in result.json, not reported
as metrics.  Children run with one BLAS thread, so no idle BLAS thread spins
on the CPU clock.  After each workload child two more children only import
`cltflow.cli`; setup_s is the median over both kinds of child, so a 20 s run
rests on about 20 imports.
--trace 1 alternates untraced children with traced ones (spans around every
public function, `-X importtime`) and reports the per-layer metrics.  The
metrics, their units and directions are those of BENCHMARK.json;
bench/layers.json says which end-to-end metric and workload each per-layer
metric should move.  trace.overhead_s is traced minus untraced run_s.
Span times are wall times.

Every CSV of every child is checked: a subcommand fails when the exit status
is not 0, its CSV is missing, has an `error,` row, an `ok` column reading
`false`, or the wrong number of rows.  All children must write the same
bytes, traced or not.  `csv_identical` compares the CSV digests with the
ones kept in bench/digests.json; it is printed but not part of `correct`,
because a correctness fix may change CSV bytes on purpose.  A change that
does so copies the new digests from the run's result.json into
bench/digests.json by hand.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, each child's record and a
manifest of what varies between machines go to .bench_out/<run>/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402

DEFAULT_SEED = 1234
MIN_CHILDREN = 3
MIN_TRACED_PAIRS = 2
SETUP_ONLY_PER_CHILD = 2
# bench/pace.py units per CPU second on the 2-core x86 VM the benchmark was
# sized on: the speed the reported times are scaled to
REF_RATE = 6000.0
# a window in which the probe ran for less CPU time than this takes the
# slowdown of the whole run
MIN_PACE_CPU_S = 0.002
TIME_LIMIT_S = 170.0
WALL_AND_CPU = ("setup_s", "setup_wall_s", "run_s", "run_wall_s", "peak_rss_mb")
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The oracle sample counts keep one child near 2 s on a 2-core x86 machine,
# like the analytic suite, so a 20 s run takes about eight children and its
# medians ride out a burst of load in one of them; the flow check needs
# n >= 1e5.
WORKLOADS = {
    "oracle-dense": {
        "seeded": True,
        "commands": [
            {"command": "oracle", "measures": ["gaussian"], "levels": 6,
             "samples": 100_000},
        ],
    },
    "oracle-lattice": {
        "seeded": True,
        "commands": [
            {"command": "oracle", "measures": ["rademacher", "skewed"],
             "levels": 6, "samples": 200_000},
        ],
    },
    "analytic-suite": {
        "seeded": False,
        "grid": {"points_per_decade": 1600},
        "commands": [
            {"command": "distance", "a": "skewed", "b": "gaussian", "s": 3},
            {"command": "distance", "a": "rademacher", "b": "gaussian", "s": 2},
            {"command": "flow", "measure": "skewed", "steps": 40},
            {"command": "flow", "measure": "rademacher", "steps": 40},
            {"command": "verify-contraction"},
            {"command": "verify-ideal"},
            # 10 steps: at 40 the absolute 1e-10 decrease test fails once
            # d2 < 2e-10 (see bench/NOTES.md)
            {"command": "verify-lyapunov"},
            {"command": "verify-clt-rate", "n_max": 64},
        ],
    },
}


def expected_rows(cmd: dict) -> int:
    """Data rows the CLI writes for one command of the built-in bank."""
    name = cmd["command"]
    if name == "distance":
        return 1
    if name == "flow":
        return cmd.get("steps", 10) + 2
    if name == "verify-contraction":
        return 10  # pairs of the 5-law q3 bank
    if name == "verify-ideal":
        return 211  # 126 checks over the q2 bank (s = 2), 85 over q3 (s = 3)
    if name == "verify-lyapunov":
        return 6 * cmd.get("steps", 10)
    if name == "verify-clt-rate":
        return 2 * (cmd.get("n_max", 64) - 1)
    if name == "oracle":
        return len(cmd["measures"]) * (cmd.get("levels", 6) + 1)
    raise ValueError(f"no row count for command {name!r}")


def make_config(workload: dict, seed: int) -> dict:
    doc = {"seed": seed, "commands": workload["commands"]}
    if "grid" in workload:
        doc["grid"] = workload["grid"]
    return doc


def check_csvs(csv_dir: str, commands: list, rc: int) -> dict:
    """Per-subcommand pass/fail, digests, row total and oracle accuracy of one child."""
    digests, failed, problems, rows_total, dev_ratio = {}, 0, [], 0, 0.0
    for idx, cmd in enumerate(commands, start=1):
        fname = f"{idx:02d}_{cmd['command']}.csv"
        path = os.path.join(csv_dir, fname)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            failed += 1
            problems.append(f"{fname}: missing")
            continue
        digests[fname] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii").splitlines()
        if not lines:
            failed += 1
            problems.append(f"{fname}: empty")
            continue
        header, rows = lines[0].split(","), lines[1:]
        rows_total += len(rows)
        bad = []
        if rc != 0:
            bad.append(f"exit status {rc}")
        if any(r.startswith("error,") for r in rows):
            bad.append("error row")
        if "ok" in header:
            col = header.index("ok")
            if any(r.split(",")[col] == "false" for r in rows):
                bad.append("ok=false row")
        if len(rows) != expected_rows(cmd):
            bad.append(f"{len(rows)} rows, expected {expected_rows(cmd)}")
        if "max_dev" in header and "envelope" in header:
            i_dev, i_env = header.index("max_dev"), header.index("envelope")
            for r in rows:
                cols = r.split(",")
                dev_ratio = max(dev_ratio, float(cols[i_dev]) / float(cols[i_env]))
        if bad:
            failed += 1
            problems.append(f"{fname}: " + ", ".join(bad))
    return {"digests": digests, "failed": failed, "problems": problems,
            "rows": rows_total, "dev_over_envelope": dev_ratio}


def import_times(stderr_text: str) -> dict:
    """Self import time per top-level package from `-X importtime` output."""
    totals = {"scipy": 0, "numpy": 0, "cltflow": 0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:
            continue  # the column header
        top = parts[2].strip().split(".", 1)[0]
        if top in totals:
            totals[top] += self_us
    return {k: v / 1e6 for k, v in totals.items()}


def layer_metrics(child: dict, names: list, span_list: list) -> tuple[dict, dict]:
    """Per-layer metrics of one traced child, and the span analysis behind them."""
    a = spans.analyse(names, span_list)
    by_name, by_layer = a["by_name"], a["by_layer"]
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0}

    def get(name):
        return by_name.get(name, zero)

    def per(ns, count):
        return ns / count if count else 0.0

    imports = child["imports"]
    m = {
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
        "import.cltflow_self_s": imports["cltflow"],
        "cli.parse_config_s": get("cli.parse_config")["total_ns"] / 1e9,
        "cli.run_self_s": get("cli.run")["self_ns"] / 1e9,
        "cli.rows": child["rows"],
    }
    for fn in ("renorm_trajectory", "clt_rate_check", "contraction_ratio"):
        d = get(f"flow.{fn}")
        m[f"flow.{fn}.calls"] = d["calls"]
        m[f"flow.{fn}.self_s"] = d["self_ns"] / 1e9
    d = get("metrics.ds_distance")
    m["metrics.ds_distance.calls"] = d["calls"]
    m["metrics.ds_distance.self_s"] = d["self_ns"] / 1e9
    m["metrics.ds_distance.grid_points"] = d["count"]
    checks = [v for k, v in by_name.items() if k.startswith("metrics.check_")]
    m["metrics.checks.calls"] = sum(v["calls"] for v in checks)
    m["metrics.checks.self_s"] = sum(v["self_ns"] for v in checks) / 1e9
    d = by_layer.get("measures", {"calls": 0, "self_ns": 0})
    m["measures.calls"] = d["calls"]
    m["measures.self_s"] = d["self_ns"] / 1e9
    d = get("charfn.cf_deviation")
    m["charfn.cf_deviation.calls"] = d["calls"]
    m["charfn.cf_deviation.self_s"] = d["self_ns"] / 1e9
    m["charfn.cf_deviation.points"] = d["count"]
    m["charfn.cf_deviation.ns_per_point"] = per(d["self_ns"], d["count"])
    d = get("charfn.empirical_cf")
    m["charfn.empirical_cf.calls"] = d["calls"]
    m["charfn.empirical_cf.self_s"] = d["self_ns"] / 1e9
    m["charfn.empirical_cf.pairs"] = d["count"]
    m["charfn.empirical_cf.ns_per_pair"] = per(d["self_ns"], d["count"])
    d = get("charfn.eval_cf_grid")
    m["charfn.eval_cf_grid.calls"] = d["calls"]
    m["charfn.eval_cf_grid.self_s"] = d["self_ns"] / 1e9
    # the flow check's own time is the drawing and fold sums: its charfn
    # children (empirical and analytic cf) are subtracted as child spans
    d = get("mc.empirical_flow_check")
    m["mc.empirical_flow_check.calls"] = d["calls"]
    m["mc.draw.self_s"] = d["self_ns"] / 1e9
    m["mc.base_draws"] = d["count"]
    m["mc.ns_per_draw"] = per(d["self_ns"], d["count"])
    m["mc.dev_over_envelope"] = child["dev_over_envelope"]
    return m, a


def spawn(argv: list, root: str, timeout: float, stdout, stderr):
    """Run one child to its end; returns it, its wall time and its CPU time."""
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src, **{k: "1" for k in BLAS_ENV})
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=stdout, stderr=stderr, env=env, cwd=root,
                          timeout=timeout)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # children run one at a time, so the growth of RUSAGE_CHILDREN is this one
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return proc, wall, cpu


def run_child(root: str, run_dir: str, label: str, commands: list,
              config_path: str, traced: bool, timeout: float) -> dict:
    child_dir = os.path.join(run_dir, label)
    csv_dir = os.path.join(child_dir, "csv")
    os.makedirs(child_dir)
    result_path = os.path.join(child_dir, "child.json")
    src = os.path.join(root, "src")
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += [os.path.join(BENCH_DIR, "child.py"), src, result_path]
    if traced:
        argv.append("--trace")
    argv += ["run", "--config", config_path, "--out", csv_dir]
    with open(os.path.join(child_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(child_dir, "stderr.txt"), "wb") as err:
        proc, wall, cpu = spawn(argv, root, timeout, out, err)
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        raise RuntimeError(
            f"{label} wrote no result (exit status {proc.returncode}); "
            f"see {child_dir}/stderr.txt"
        ) from None
    child = {"traced": traced, "rc": proc.returncode, "cpu_s": cpu, "wall_s": wall}
    child.update({k: res[k] for k in WALL_AND_CPU if k in res})
    child.update(check_csvs(csv_dir, commands, proc.returncode))
    if traced:
        with open(os.path.join(child_dir, "stderr.txt"), encoding="utf-8") as fh:
            child["imports"] = import_times(fh.read())
        try:
            child["layers"], a = layer_metrics(child, res["span_names"], res["spans"])
        except ValueError as exc:
            child["problems"].append(f"spans do not nest: {exc}")
        else:
            # spans nest, so the self times add up to the root span (cli.main);
            # the child's run_wall_s wraps that one call, so they differ by a
            # single wrapper's cost
            child["self_sum_s"] = a["self_sum_ns"] / 1e9
            if not 0.0 <= child["run_wall_s"] - child["self_sum_s"] < 1e-3:
                child["problems"].append(
                    f"self times sum to {child['self_sum_s']} s, run_wall_s is "
                    f"{child['run_wall_s']} s"
                )
    return child


def run_setup_child(root: str, run_dir: str, label: str, timeout: float) -> dict:
    """setup_s and setup_wall_s of a child that only imports cltflow.cli."""
    result_path = os.path.join(run_dir, f"{label}.json")
    src = os.path.join(root, "src")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), src, result_path,
            "--setup-only"]
    proc, _, _ = spawn(argv, root, timeout, subprocess.DEVNULL, subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"{label} failed (exit status {proc.returncode}): "
                           + proc.stderr.decode(errors="replace").strip())
    return load_json(result_path)


class Probe:
    """bench/pace.py running beside the measured children; see that file."""

    def __init__(self, root: str, marks_path: str):
        self.marks_path = marks_path
        self.count = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "pace.py"), marks_path],
            stdout=subprocess.PIPE, cwd=root,
            env=dict(os.environ, **{k: "1" for k in BLAS_ENV}))
        if self.proc.stdout.readline() != b"ready\n":
            self.kill()
            raise RuntimeError("bench/pace.py did not start")

    def mark(self) -> int:
        """Has the probe note its progress; returns the note's index."""
        self.proc.send_signal(signal.SIGUSR1)
        self.count += 1
        return self.count - 1

    def stop(self) -> list:
        """Stops the probe; returns its notes, one per mark."""
        self.proc.terminate()
        self.proc.wait(timeout=30)
        try:
            marks = load_json(self.marks_path)
        except (OSError, ValueError):
            marks = []
        if self.proc.returncode != 0 or len(marks) != self.count:
            raise RuntimeError(f"bench/pace.py noted {len(marks)} of {self.count} "
                               f"marks (exit status {self.proc.returncode})")
        return marks

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def pace_rate(m0: list, m1: list) -> float | None:
    """Probe units per CPU second between two marks; None if it hardly ran."""
    units, cpu = m1[0] - m0[0], m1[1] - m0[1]
    return units / cpu if cpu >= MIN_PACE_CPU_S else None


def git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def manifest(root: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_pinned_to": sorted(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "child_blas_threads_env": {k: "1" for k in BLAS_ENV},
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    started = time.perf_counter()
    # SIGTERM unwinds like an error, so the child running and the probe are
    # stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for the benchmark, its children and the probe (see above)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "cltflow", "cli.py")):
        print(f"no src/cltflow/cli.py in {root}: bench/ must sit in a cltflow checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    commands = workload["commands"]
    declared = load_json(os.path.join(root, "BENCHMARK.json"))
    table = load_json(os.path.join(BENCH_DIR, "digests.json"))
    run_dir = os.path.join(
        root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(make_config(workload, args.seed), fh, indent=1)
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest(root, args), fh, indent=1)

    children, setups, marks, probe = [], [], [], None
    try:
        # warm-up, not measured: compiles bytecode and faults in the shared
        # libraries and code paths, so the measured children see the state
        # every later CLI call sees
        run_child(root, run_dir, "warmup", commands, config_path, False,
                  TIME_LIMIT_S)
        if not args.trace:
            probe = Probe(root, os.path.join(run_dir, "pace.json"))
            boundary = probe.mark()
        measured = 0.0  # wall time of the workload children
        n_min = 2 * MIN_TRACED_PAIRS if args.trace else MIN_CHILDREN
        while True:
            if not args.trace:
                batch = (False,)
            elif len(children) % 4 == 0:
                batch = (False, True)
            else:  # alternate which side of a traced pair runs first
                batch = (True, False)
            for traced in batch:
                t0 = time.perf_counter()
                budget = TIME_LIMIT_S - (t0 - started)
                children.append(run_child(root, run_dir, f"child-{len(children):03d}",
                                          commands, config_path, traced, budget))
                measured += time.perf_counter() - t0
                if args.trace:
                    continue
                # the probe notes its progress between any two children, so
                # each child's window is marks[window] to marks[window + 1]
                children[-1]["window"], boundary = boundary, probe.mark()
                for _ in range(SETUP_ONLY_PER_CHILD):
                    budget = TIME_LIMIT_S - (time.perf_counter() - started)
                    setup = run_setup_child(
                        root, run_dir, f"setup-{len(setups):03d}", budget)
                    setup["window"], boundary = boundary, probe.mark()
                    setups.append(setup)
            if len(children) >= n_min and measured >= args.seconds:
                break
        if probe is not None:
            marks = probe.stop()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if probe is not None:
            probe.kill()

    plain = [c for c in children if not c["traced"]]
    traced_children = [c for c in children if c["traced"]]
    attempted = len(children) * len(commands)
    failed = sum(c["failed"] for c in children)
    problems = sorted({p for c in children for p in c["problems"]})
    digest_sets = {json.dumps(c["digests"], sort_keys=True) for c in children}
    deterministic = len(digest_sets) == 1
    if not deterministic:
        problems.append("children wrote different CSV bytes")
    correct = failed == 0 and not problems

    if workload["seeded"] and args.seed != table["seed"]:
        csv_identical = None  # digests are kept for the default seed only
    else:
        csv_identical = (deterministic and table["workloads"].get(args.workload)
                         == children[0]["digests"])

    metrics, detail = {}, {}
    if args.trace:
        for name, unit in ((m["name"], m["unit"]) for m in declared["per_layer"]):
            if name == "trace.overhead_s":
                continue
            values = [c["layers"][name] for c in traced_children if "layers" in c]
            if not values:
                continue
            detail[name] = summary(values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median(c["run_s"] for c in traced_children)
                    - statistics.median(c["run_s"] for c in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        expected = {m["name"] for m in declared["per_layer"]}
        if set(metrics) != expected:
            problems.append("traced children gave no per-layer metrics")
            correct = False
    else:
        # each child's slowdown against the reference machine: REF_RATE over
        # the probe's units per CPU second in the child's window; its times
        # are divided by it
        whole = pace_rate(marks[0], marks[-1])
        fallbacks = 0
        for rec in plain + setups:
            rate = pace_rate(marks[rec["window"]], marks[rec["window"] + 1])
            if rate is None:  # the probe hardly ran in this window
                rate, fallbacks = whole, fallbacks + 1
            rec["slowdown"] = REF_RATE / rate
        detail["slowdown"] = summary([r["slowdown"] for r in plain + setups])
        detail["slowdown"]["whole_run"] = REF_RATE / whole
        detail["slowdown"]["fallbacks"] = fallbacks
        for name, unit in ((m["name"], m["unit"]) for m in declared["end_to_end"]):
            recs = plain + setups if name == "setup_s" else plain
            values = [r[name] for r in recs]
            if unit == "s":
                detail[name] = summary(values)
                values = [r[name] / r["slowdown"] for r in recs]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        # wall times: printed and kept, not reported as metrics
        for name in ("wall_s", "setup_wall_s", "run_wall_s"):
            recs = plain + setups if name == "setup_wall_s" else plain
            detail[name] = summary([r[name] for r in recs])

    error_rate = failed / attempted
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, error_rate=error_rate, csv_identical=csv_identical,
                       problems=problems, detail=detail, setup_only=setups,
                       pace_marks=marks,
                       children=[
                           {k: v for k, v in c.items() if k != "layers"}
                           for c in children]), fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced_children)} traced children, "
          f"{len(setups)} import-only children")
    for name, m in metrics.items():
        d = detail.get(name) if args.trace else None
        rng = (f"  (min {d['min']:.6g}, max {d['max']:.6g}, n={d['n']})"
               if d else "")
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}{rng}")
    if not args.trace:
        print("  the times above are medians of each child's CPU time divided by its"
              f" slowdown ({REF_RATE} / bench/pace.py units per CPU second while it"
              " ran); as measured:")
        for name, d in sorted(detail.items()):
            print(f"    {name:34s} median {d['median']:<12.6g} (min {d['min']:.6g}, "
                  f"max {d['max']:.6g}, n={d['n']})")
        if fallbacks:
            print(f"    {fallbacks} children took the slowdown of the whole run")
    print(f"  {'error_rate':36s} {error_rate:<14.6g} failed/attempted "
          f"({failed}/{attempted})")
    if csv_identical is None:
        identical = f"n/a (digests are kept for seed {table['seed']})"
    else:
        identical = "true" if csv_identical else "false"
    print(f"  {'csv_identical':36s} {identical}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"  details: {os.path.relpath(run_dir, root)}/result.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
