"""What one analytic command computes once: live only inside metrics.shared_deviations().

A scope keeps, until it ends:

* the cf deviation of each leaf law (Atomic, Parametric) at the positive
  points of a grid, for the _LEAVES pairs most recently used;
* the deviations of the last _COMPOSITES composite laws on a grid, enough
  for a flow iterate's d2 and d3;
* every moment summary (cumulants, moment, abs_moment_bound, q_membership)
  asked for, by law and arguments.

Laws compare by value; deviations are keyed by (law, GridSpec) and stored
read-only.  metrics._grid_deviation hands the cf the grid whose points it
evaluates, so that a convolution product looks its leaf parts up by that
grid (charfn._dev).  The base of a normalized sum or an affine image is
evaluated at scaled points and never looked up.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

# at 1,600 points per decade on the default range an entry holds 7,521
# complex values, about 120 KB; 12 leaves hold the six rescaled laws of a
# scaling check and the six laws they rescale
_LEAVES = 12
_COMPOSITES = 2

active: Scope | None = None


class Scope:
    """The tables of one scope (module notes)."""

    def __init__(self):
        self.leaves: OrderedDict = OrderedDict()
        self.composites: OrderedDict = OrderedDict()
        self.summaries: dict = {}

    def deviation(self, m, grid, leaf: bool, compute):
        """The deviation of m at the positive points of grid; compute() gives it on a miss."""
        table, size = (self.leaves, _LEAVES) if leaf else (self.composites, _COMPOSITES)
        key = (m, grid)
        dev = table.get(key)
        if dev is not None:
            table.move_to_end(key)
            return dev
        dev = compute()
        dev.setflags(write=False)
        table[key] = dev
        if len(table) > size:
            table.popitem(last=False)
        return dev


def summary(fn):
    """fn(m, ...) remembered by law and arguments inside a scope."""

    @functools.wraps(fn)
    def remembered(m, *args, **kwargs):
        if active is None:
            return fn(m, *args, **kwargs)
        # the argument types too: moment(m, 3.0) must raise, not find moment(m, 3)
        key = (fn, m, args, tuple(map(type, args)), tuple(kwargs.items()))
        table = active.summaries
        if key not in table:
            table[key] = fn(m, *args, **kwargs)
        return table[key]

    return remembered
