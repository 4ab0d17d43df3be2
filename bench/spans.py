"""In-memory span tracing of cltflow's public functions, and its analysis.

`install` wraps every public function of the traced modules and rebinds the
wrapper under every name that points at the original, in every loaded
cltflow module, so calls made through `from .charfn import empirical_cf`
style imports are traced as well as calls through module attributes.  A span
is `[name_id, start_ns, end_ns, parent_index, count]`; `count` is an optional
work count (points, pairs, draws) taken from the arguments after the call.
Spans stay in a list until the process writes them out at the end.

`analyse` turns one span list into per-name and per-layer call counts, self
times and work counts.  A span's self time is its duration minus the
durations of its direct children; the children of one span never overlap
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "flow", "metrics", "measures", "charfn", "mc")
_CLI_ENTRY_POINTS = ("main", "parse_config", "run")


def _grid_points(args, kwargs):
    from cltflow.metrics import GridSpec

    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    return 2 * (grid or GridSpec()).positive_points().size


def _base_draws(args, kwargs):
    from cltflow.measures import CfLevel

    m, levels, n = args[0], args[1], args[2]
    depth = m.count if isinstance(m, CfLevel) else 0
    return n * ((1 << (levels + 1)) - 1) << depth


def _size(x):
    return x.size if hasattr(x, "size") else len(x)


# work counts recorded per call, keyed by span name
COUNTERS = {
    "metrics.ds_distance": _grid_points,
    "charfn.cf_deviation": lambda args, kwargs: _size(args[1]),
    "charfn.empirical_cf": lambda args, kwargs: _size(args[0]) * _size(args[1]),
    "mc.empirical_flow_check": _base_draws,
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._stack = [-1]

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if count is not None:
                    span[4] = count(args, kwargs)

        return traced


def public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    for attr, value in vars(module).items():
        if not inspect.isfunction(value) or value.__module__ != module.__name__:
            continue
        if short == "cli":
            if attr in _CLI_ENTRY_POINTS:
                yield attr, value
        elif not attr.startswith("_"):
            yield attr, value


def install() -> Recorder:
    """Wrap the public functions of every traced layer; returns the recorder."""
    rec = Recorder()
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"cltflow.{layer}"]
        for attr, fn in public_functions(module):
            wrappers[id(fn)] = (fn, rec.wrap(f"{layer}.{attr}", fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cltflow" and not mod_name.startswith("cltflow."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return rec


def analyse(names: list[str], spans: list[list[int]]) -> dict:
    """Per-name and per-layer totals of one span list.

    Raises ValueError when a span is not enclosed by its parent or starts
    before its previous sibling ended, i.e. when the spans do not nest.
    """
    child_ns = [0] * len(spans)
    last_end = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ends before it starts")
        if start < last_end.get(parent, -1):
            raise ValueError(f"span {i} overlaps its previous sibling")
        last_end[parent] = end
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                raise ValueError(f"span {i} is not inside its parent {parent}")
            child_ns[parent] += end - start
    by_name: dict[str, dict] = {}
    root_ns = 0
    for i, (name_id, start, end, parent, count) in enumerate(spans):
        name = names[name_id]
        d = by_name.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0}
        )
        d["calls"] += 1
        d["total_ns"] += end - start
        d["self_ns"] += end - start - child_ns[i]
        d["count"] += count
        if parent < 0:
            root_ns += end - start
    by_layer: dict[str, dict] = {}
    for name, d in by_name.items():
        agg = by_layer.setdefault(name.split(".", 1)[0], {"calls": 0, "self_ns": 0})
        agg["calls"] += d["calls"]
        agg["self_ns"] += d["self_ns"]
    self_sum = sum(d["self_ns"] for d in by_name.values())
    return {"by_name": by_name, "by_layer": by_layer,
            "root_ns": root_ns, "self_sum_ns": self_sum}
