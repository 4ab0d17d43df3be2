"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks, on the checkout that holds it, that

* BENCHMARK.json and bench/run.py have the same workloads, bench/layers.json
  has the per-layer metrics of BENCHMARK.json, and names for each the
  end-to-end metrics and workloads it should move;
* the span analysis computes self times and rejects spans that do not nest;
* tracing rebinds every wrapped function wherever cltflow looks it up;
* tracing is transparent: a traced child writes the same CSV bytes as an
  untraced one, its spans nest, and its self times add up to the untraced
  run_wall_s within the measured tracing overhead.

Exits with 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import spans


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_declarations(root: str) -> None:
    bench = run.load_json(os.path.join(root, "BENCHMARK.json"))
    layers = run.load_json(os.path.join(run.BENCH_DIR, "layers.json"))["metrics"]
    workloads = {w["name"] for w in bench["workloads"]}
    check(workloads == set(run.WORKLOADS), "BENCHMARK.json lists the workloads of run.py")
    check(set(layers) == {m["name"] for m in bench["per_layer"]},
          "layers.json places every per-layer metric of BENCHMARK.json")
    e2e = {m["name"] for m in bench["end_to_end"]}
    check(all(set(m["moves"]) <= e2e and m["on"] and set(m["on"]) <= workloads
              for m in layers.values()),
          "every per-layer metric names end-to-end metrics and workloads")


def check_analysis() -> None:
    names = ["cli.main", "measures.cumulants", "charfn.cf_deviation"]
    good = [[0, 0, 100, -1, 0], [1, 10, 30, 0, 0], [2, 40, 90, 0, 7],
            [1, 50, 60, 2, 0]]
    a = spans.analyse(names, good)
    by = a["by_name"]
    check(by["cli.main"]["self_ns"] == 30 and by["charfn.cf_deviation"]["self_ns"] == 40
          and by["measures.cumulants"]["calls"] == 2
          and by["measures.cumulants"]["self_ns"] == 30
          and by["charfn.cf_deviation"]["count"] == 7,
          "self time is span minus child spans")
    check(a["self_sum_ns"] == a["root_ns"] == 100, "self times add up to the root span")
    rejected = 0
    for bad in ([[0, 0, 100, -1, 0], [1, 90, 110, 0, 0]],
                [[0, 0, 100, -1, 0], [1, 10, 50, 0, 0], [1, 40, 60, 0, 0]]):
        try:
            spans.analyse(names, bad)
        except ValueError:
            rejected += 1
    check(rejected == 2, "spans that do not nest are rejected")


def check_rebinding(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import cltflow.cli  # noqa: F401

    originals = {}
    for layer in spans.LAYERS:
        module = sys.modules[f"cltflow.{layer}"]
        for _, fn in spans.public_functions(module):
            originals[id(fn)] = fn
    spans.install()
    left = [f"{mod}.{attr}" for mod, module in sys.modules.items()
            if mod == "cltflow" or mod.startswith("cltflow.")
            for attr, value in vars(module).items()
            if originals.get(id(value)) is value]
    check(not left, f"every wrapped function is rebound ({len(originals)} wrapped)"
          + (f"; still original: {left}" if left else ""))


def check_transparency(root: str) -> None:
    commands = [
        {"command": "distance", "a": "skewed", "b": "gaussian", "s": 3},
        {"command": "flow", "measure": "rademacher", "steps": 4},
        {"command": "verify-clt-rate", "n_max": 4},
        {"command": "oracle", "measures": ["gaussian", "skewed"], "levels": 1,
         "samples": 100_000},
    ]
    run_dir = os.path.join(root, ".bench_out", "selftest")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"seed": 5, "commands": commands}, fh)
    plain = run.run_child(root, run_dir, "plain", commands, config, False, 170)
    traced = run.run_child(root, run_dir, "traced", commands, config, True, 170)
    check(plain["failed"] == traced["failed"] == 0, "both children pass every subcommand")
    check(plain["digests"] == traced["digests"] and len(plain["digests"]) == 4,
          "traced and untraced children write the same CSV bytes")
    check(not traced["problems"] and "layers" in traced,
          "the traced child's spans nest and add up to its run_wall_s")
    # spans are wall times, so they are held against the wall run time
    overhead = traced["run_wall_s"] - plain["run_wall_s"]
    check(abs(traced["self_sum_s"] - plain["run_wall_s"]) <= abs(overhead) + 1e-3,
          f"self times sum to the untraced run_wall_s ({plain['run_wall_s']:.4f} s) "
          f"within the overhead ({overhead:+.4f} s)")
    layers = traced["layers"]
    check(layers["charfn.empirical_cf.calls"] == 4
          and layers["mc.empirical_flow_check.calls"] == 2
          and layers["mc.base_draws"] == 2 * 3 * 100_000
          and layers["metrics.ds_distance.calls"] > 0
          and layers["cli.rows"] == 1 + 6 + 6 + 4,
          "per-layer counts match the config")


def main() -> int:
    root = os.path.dirname(run.BENCH_DIR)
    check_declarations(root)
    check_analysis()
    check_transparency(root)
    check_rebinding(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
