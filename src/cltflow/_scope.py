"""What one CLI run computes once: live only inside metrics.shared_deviations().

cli.run opens one scope for the whole run, so every command of a config
shares it, and drops its deviation tables at the end of each command
(drop_deviations).  A scope keeps, until it ends:

* the cf deviation of each leaf law (Atomic, Parametric) at the positive
  points of a grid, for the _LEAVES pairs most recently used;
* the deviations of the last _COMPOSITES composite laws on a grid, enough
  for a flow iterate's d2 and d3;
* every finished distance, a DistanceResult keyed by (a, b, s, GridSpec),
  about 0.4 KB an entry with its key: 2,048 entries for verify-clt-rate
  at its largest n_max.  ds_distance checks its arguments on every call
  and only then reads the table; a distance that raises stores nothing.

It holds cf work only: a law's cumulants are kept by the law object
(measures module notes).  Laws compare by value; deviations are keyed by
(law, GridSpec) and stored read-only.  metrics._grid_deviation hands the
cf the grid whose points it evaluates, so that a convolution product
looks its leaf parts up by that grid (charfn._dev).  The base of a
normalized sum is evaluated at scaled points and never looked up.
"""

from __future__ import annotations

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
        self.distances: dict = {}

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

    def drop_deviations(self):
        """Free the deviation tables; the distances stay."""
        self.leaves.clear()
        self.composites.clear()

    def distance(self, key, compute):
        """The distance stored under key (a, b, s, grid); compute() gives it on a miss."""
        res = self.distances.get(key)
        if res is None:
            res = self.distances[key] = compute()
        return res

