"""One measured CLI invocation, run in a fresh interpreter by bench/run.py.

    python3 [-X importtime] bench/child.py SRC RESULT [--trace] [run args...]
    python3 bench/child.py SRC RESULT --setup-only

Times `import cltflow.cli` (the set-up every CLI call pays) and the
`cltflow.cli.main(run args)` call, in CPU time of the process (setup_s,
run_s) and in wall time (setup_wall_s, run_wall_s), then writes the times,
the exit status and the peak resident set size as JSON to RESULT.  With
--trace the public functions are wrapped with spans after the import, and
the spans go into RESULT too.  With --setup-only it times the import alone
and writes only setup_s and setup_wall_s.  Exits with the CLI's own status,
or 4 when the cltflow that got imported is not the one under SRC.
"""

import sys
import time

t_import, c_import = time.perf_counter(), time.process_time()
import cltflow.cli  # noqa: E402

t_imported, c_imported = time.perf_counter(), time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main(argv) -> int:
    src, result_path, rest = argv[0], argv[1], argv[2:]
    where = os.path.realpath(cltflow.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"imported cltflow from {where}, not from {src}", file=sys.stderr)
        return 4
    setup = {"setup_s": c_imported - c_import, "setup_wall_s": t_imported - t_import}
    if rest == ["--setup-only"]:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return 0
    recorder = None
    if rest[:1] == ["--trace"]:
        rest = rest[1:]
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        recorder = spans.install()
    t0, c0 = time.perf_counter(), time.process_time()
    rc = cltflow.cli.main(rest)
    t1, c1 = time.perf_counter(), time.process_time()
    result = {
        "rc": rc,
        **setup,
        "run_s": c1 - c0,
        "run_wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["span_names"] = recorder.names
        result["spans"] = recorder.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
