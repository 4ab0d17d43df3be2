"""Fourier-based distances d_s and the structural checks built on them.

d_s(a, b) = sup over xi != 0 of |phi_a(xi) - phi_b(xi)| / |xi|^s is computed
from three mechanisms, one per regime of the ratio:

* a symmetric log-spaced grid covers the bulk (the ratio is smooth there),
  from GRID_XI_MIN on, where rounding divided by |xi|^s stays small;
* the exact xi -> 0 limit comes from cumulant differences (|dk3|/6 for
  s = 3, |dk2|/2 for s = 2), so no floating-point division by tiny xi^s
  ever enters the reported value;
* the region beyond the grid is covered by the certificate 2 / xi_max^s,
  valid because cf differences are bounded by 2.

The reported value is max(grid supremum, zero limit); the result is marked
certified when the tail certificate cannot exceed it.

The grid ratio is evaluated on the positive points alone.  A deviation
satisfies D(-xi) = conj D(xi), and the computed values at -xi are the
conjugates of those at +xi, so the modulus of a difference (and so the
ratio, the supremum and the |phi| <= 1 check) is the same at +xi and -xi
to the bit.  grid_argmax is the smallest positive point that attains the
supremum, the point a mirrored grid reports when its ties go to the
smallest |xi|, then to the positive sign.

Inside a ``shared_deviations()`` scope, the one memo of the library,
work is shared between distances.  A scope keeps, until it ends:

* every finished distance, a DistanceResult keyed by (a, b, s, grid),
  about 0.4 KB an entry with its key.  ds_distance checks its arguments
  on every call and only then reads the table; a distance that raises
  stores nothing;
* the deviation at the positive points of a grid of each leaf law
  (atomic or parametric), keyed by (law, grid), for the _LEAVES = 12
  pairs most recently used, whether ds_distance took the law alone or as
  a part of a convolution product: 12 hold the six rescaled laws of a
  scaling check and the six laws they rescale;
* the deviations of the last _COMPOSITES = 2 composite laws on a grid,
  enough for a flow iterate's d2 and d3.

Laws compare by value, and the stored deviations are read-only, each
checked against |phi| <= 1 when first computed, a leaf part before the
product it enters.  _grid_deviation alone reads and writes the deviation
tables: the cf code (charfn) is pure and knows no scope.  The base of a
normalized sum is evaluated at scaled points and never stored.  The scope
holds cf work only: a law's cumulants, which the zero limits and the
membership checks read, are kept by the law object itself (measures
module notes), in a scope or not.  The checks compare many laws and their
convolutions against the same gaussian, and each flow iterate against it
twice; the commands of one config ask for many of the same distances
(T^k nu is the normalized sum of 2^k copies, which verify-clt-rate and
verify-lyapunov meet again).  Outside a scope every distance and
deviation is computed afresh, so a library caller never sees a value
from before a change to the cf code.  cli.run opens one scope per run,
shared by its commands, and drops its deviation tables at the end of
each command (_Scope.drop_deviations); verify-clt-rate at its largest
n_max stores 2,048 distances.

The structural checks return a BoundCheck, each verdict with one named
slack.  Subadditivity d_s(nu1*nu2, mu1*mu2) <= d_s(nu1, mu1) + d_s(nu2, mu2),
invariance d_s(nu*eta, mu*eta) <= d_s(nu, mu) and doubling d_s(nu*nu, mu*mu)
<= 2 d_s(nu, mu) pass within SUP_SLACK = 1e-8, absolute: both sides are
suprema of O(1) values, accurate to about 1e-14, and an equality case (eta
a point mass) must not fail on rounding.  Scaling d_s(lam nu, lam mu) =
lam^s d_s(nu, mu) is an equality, and its ratio passes in
[1 - SCALING_SLACK, 1 + SUP_SLACK]: SCALING_SLACK = 1e-6 is looser, as a
ratio below 1 breaks no upper bound (the bank laws read 1 to 4e-15).  A
distance is certified when its tail bound 2 / xi_max^s is at most the value
plus 1e-9.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import charfn
from .errors import MeasureError, MembershipError
from .measures import (Atomic, ConvProduct, Measure, Parametric, convolve, cumulants,
                       require_membership, scale_law)

__all__ = [
    "GridSpec",
    "DistanceResult",
    "ds_distance",
    "shared_deviations",
    "check_convolution_subadditivity",
    "check_scaling_ideality",
    "check_convolution_invariance",
    "check_doubling",
    "BoundCheck",
]

SUP_SLACK = 1e-8
SCALING_SLACK = 1e-6
_MOMENT_MATCH_TOL = 1e-9
# near 0 both deviations are about -xi^2 / 2, and their one-ulp roundings
# divided by xi^3 are about 2^-53 / xi: 1.2e-10 of d3 at 1e-6, 9e-5 at
# 1e-12; the largest point is the largest the cf takes (charfn.XI_ABS_MAX)
GRID_XI_MIN = 1e-6
GRID_XI_MAX = charfn.XI_ABS_MAX
# the sizes of a scope's deviation tables (module notes); at 1,600 points
# per decade on the default range a deviation holds 7,521 complex values,
# about 120 KB
_LEAVES = 12
_COMPOSITES = 2
_LEAF_LAWS = (Atomic, Parametric)


@dataclass(frozen=True)
class GridSpec:
    """Symmetric log-spaced evaluation grid for the supremum.

    Positive points sit on the exponent lattice log10(xi_min) + i/ppd with
    xi_max appended when the lattice undershoots it, so doubling
    points_per_decade yields an exact superset of the points.
    """

    xi_min: float = 1e-3
    xi_max: float = 50.0
    points_per_decade: int = 200

    def __post_init__(self):
        if not (0.0 < self.xi_min < self.xi_max):
            raise MeasureError("grid needs 0 < xi_min < xi_max")
        if not (GRID_XI_MIN <= self.xi_min and self.xi_max <= GRID_XI_MAX):
            raise MeasureError(
                f"grid needs {GRID_XI_MIN:g} <= xi_min and xi_max <= {GRID_XI_MAX:g}"
            )
        if not isinstance(self.points_per_decade, int) or self.points_per_decade < 1:
            raise MeasureError("points_per_decade must be a positive integer")

    def positive_points(self) -> np.ndarray:
        return _positive_points(self)[0]

    def points(self) -> np.ndarray:
        """All evaluation points, ascending, negatives mirrored, zero excluded."""
        pos = self.positive_points()
        return np.concatenate([-pos[::-1], pos])

    def scaled(self, factor: float) -> "GridSpec":
        """The grid with both endpoints multiplied by factor > 0."""
        return GridSpec(
            self.xi_min * factor, self.xi_max * factor, self.points_per_decade
        )


@lru_cache(maxsize=64)
def _positive_points(spec: GridSpec) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The positive points, and their powers xi^s for s = 2, 3, all read-only."""
    e0 = math.log10(spec.xi_min)
    span = math.log10(spec.xi_max) - e0
    top = int(math.floor(span * spec.points_per_decade + 1e-9))
    pts = 10.0 ** (e0 + np.arange(top + 1) / spec.points_per_decade)
    if pts[-1] < spec.xi_max:
        pts = np.append(pts, spec.xi_max)
    powers = {s: pts**s for s in (2, 3)}
    for arr in (pts, *powers.values()):
        arr.setflags(write=False)
    return pts, powers


@dataclass(frozen=True)
class DistanceResult:
    """d_s value with its provenance breakdown.

    value = max(grid_sup, zero_limit); certified means the analytic tail
    certificate cannot exceed the reported supremum.
    """

    s: float
    xi_min: float
    xi_max: float
    value: float
    grid_sup: float
    grid_argmax: float
    zero_limit: float
    tail_bound: float
    certified: bool

    CSV_HEADER = "s,xi_min,xi_max,grid_sup,grid_argmax,zero_limit,tail_bound,value,certified"

    def to_csv_row(self) -> str:
        cols = (self.s, self.xi_min, self.xi_max, self.grid_sup, self.grid_argmax,
                self.zero_limit, self.tail_bound, self.value)
        return ",".join(map(_fmt, cols)) + (",true" if self.certified else ",false")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _validate_s(s) -> int:
    if s not in (2, 3, 2.0, 3.0):
        raise MeasureError(f"the metric exponent s must be 2 or 3, got {s}")
    return int(s)


def _zero_limit_relaxed(a: Measure, b: Measure, s: int) -> float:
    """xi -> 0 limit of the ratio for mean-matched laws.

    Mean mismatch makes the limit infinite for both exponents; variance
    mismatch makes it infinite for s = 3 and equal to |dk2|/2 for s = 2.
    For laws whose means and variances match the limit is |dk3|/6 when
    s = 3 and 0 when s = 2.
    """
    ka, kb = cumulants(a), cumulants(b)
    if abs(ka[0] - kb[0]) > _MOMENT_MATCH_TOL:
        return math.inf
    dvar = abs(ka[1] - kb[1])
    if s == 2:
        return 0.5 * dvar
    if dvar > _MOMENT_MATCH_TOL:
        return math.inf
    if not (math.isfinite(ka[2]) and math.isfinite(kb[2])):
        raise MeasureError("the s = 3 zero limit needs finite third moments")
    return abs(ka[2] - kb[2]) / 6.0


class _Scope:
    """The tables of one shared_deviations() scope (module notes)."""

    def __init__(self):
        self.leaves: OrderedDict = OrderedDict()
        self.composites: OrderedDict = OrderedDict()
        self.distances: dict = {}

    def deviation(self, m: Measure, grid: GridSpec, leaf: bool, compute) -> np.ndarray:
        """The deviation of m on grid; compute() gives it on a miss."""
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


_active: _Scope | None = None


@contextmanager
def shared_deviations():
    """Share distances and grid deviations until the scope ends (module notes).

    Yields the scope.  Everything is freed when it ends, also on error.  A
    scope opened inside another shares the outer one.  Keep a scope short:
    a cf routine replaced inside it is not seen by what was computed before.
    """
    global _active
    if _active is not None:
        yield _active
        return
    _active = _Scope()
    try:
        yield _active
    finally:
        _active = None


def _grid_deviation(m: Measure, grid: GridSpec) -> np.ndarray:
    """cf deviation of m at the positive grid points, shared inside a scope (module notes)."""
    pts = grid.positive_points()
    scope = _active
    if scope is None:
        return charfn.cf_deviation(m, pts)

    def compute():
        if isinstance(m, ConvProduct):  # its leaf parts from the table, the others afresh
            dev = charfn._product(_grid_deviation(p, grid) if isinstance(p, _LEAF_LAWS)
                                  else charfn._dev(p, pts) for p in m.parts)
        else:
            dev = charfn._dev(m, pts)
        return charfn._checked(m, dev)

    return scope.deviation(m, grid, isinstance(m, _LEAF_LAWS), compute)


def ds_distance(
    a: Measure,
    b: Measure,
    s,
    grid: GridSpec | None = None,
    *,
    require_class_membership: bool = True,
) -> DistanceResult:
    """Fourier distance of exponent s between a and b.

    The grid supremum is taken over the positive grid points, where the
    ratio equals its value at the mirrored negative point bit for bit;
    grid_argmax is the smallest positive point that attains it.  Inside a
    shared_deviations() scope work is shared (module notes).

    With require_class_membership (the default) both laws must be centred,
    reduced, and have a finite s-th absolute moment.  The structural checks
    relax that to compare convolutions and rescalings, whose moments match
    by construction even though they are not reduced.
    """
    s = _validate_s(s)
    grid = grid or GridSpec()
    if require_class_membership:
        require_membership(a, s, f"d_{s}")
        require_membership(b, s, f"d_{s}")
    if _active is None:
        return _distance(a, b, s, grid)
    key, table = (a, b, s, grid), _active.distances
    res = table.get(key)
    if res is None:
        res = table[key] = _distance(a, b, s, grid)
    return res


def _distance(a: Measure, b: Measure, s: int, grid: GridSpec) -> DistanceResult:
    """d_s(a, b) on grid, its arguments checked (ds_distance)."""
    zl = _zero_limit_relaxed(a, b, s)
    if not math.isfinite(zl):
        raise MembershipError(
            "the distance diverges at xi -> 0: means/variances do not match"
        )
    xi, powers = _positive_points(grid)
    ratio = np.abs(_grid_deviation(a, grid) - _grid_deviation(b, grid))
    ratio /= powers[s]
    i = int(np.argmax(ratio))  # the first peak: the ratio holds no NaN
    grid_sup, argmax = float(ratio[i]), xi[i]
    tail = 2.0 / grid.xi_max**s
    value = max(grid_sup, zl)
    return DistanceResult(
        s=float(s),
        xi_min=grid.xi_min,
        xi_max=grid.xi_max,
        value=value,
        grid_sup=grid_sup,
        grid_argmax=float(argmax),
        zero_limit=zl,
        tail_bound=tail,
        certified=tail <= value + 1e-9,
    )


@dataclass(frozen=True)
class BoundCheck:
    """The verdict on one inequality, a statistic of it and both of its sides.

    For a bound lhs <= rhs (BoundCheck.of) the statistic is the margin
    rhs - lhs; for the scaling equality it is the ratio lhs / rhs.
    """

    ok: bool
    stat: float
    lhs: float
    rhs: float

    @classmethod
    def of(cls, lhs: float, rhs: float, slack: float = SUP_SLACK) -> BoundCheck:
        """lhs <= rhs + slack."""
        return cls(lhs <= rhs + slack, rhs - lhs, lhs, rhs)


def _convolution_bound(what, laws, left, right, pairs, s, grid, factor=1.0) -> BoundCheck:
    """d_s(*left, *right) <= factor times the sum of d_s over pairs, within SUP_SLACK.

    laws must be in P_s; the convolutions left and right are compared
    through their cf products and need not be reduced themselves.
    """
    s = _validate_s(s)
    grid = grid or GridSpec()
    for m in laws:
        require_membership(m, s, what)
    lhs = ds_distance(
        convolve(*left), convolve(*right), s, grid, require_class_membership=False
    ).value
    return BoundCheck.of(lhs, factor * sum(ds_distance(a, b, s, grid).value for a, b in pairs))


def check_convolution_subadditivity(
    nu1: Measure, nu2: Measure, mu1: Measure, mu2: Measure, s, grid: GridSpec | None = None
) -> BoundCheck:
    """d_s(nu1*nu2, mu1*mu2) <= d_s(nu1, mu1) + d_s(nu2, mu2) within slack."""
    return _convolution_bound("subadditivity check", (nu1, nu2, mu1, mu2), (nu1, nu2),
                              (mu1, mu2), ((nu1, mu1), (nu2, mu2)), s, grid)


def check_convolution_invariance(
    nu: Measure, mu: Measure, eta: Measure, s, grid: GridSpec | None = None
) -> BoundCheck:
    """d_s(nu*eta, mu*eta) <= d_s(nu, mu) within slack."""
    return _convolution_bound("invariance check", (nu, mu), (nu, eta), (mu, eta), ((nu, mu),),
                              s, grid)


def check_doubling(nu: Measure, mu: Measure, s, grid: GridSpec | None = None) -> BoundCheck:
    """d_s(nu*nu, mu*mu) <= 2 d_s(nu, mu) within slack; rhs is 2 d_s(nu, mu)."""
    return _convolution_bound("doubling check", (nu, mu), (nu, nu), (mu, mu), ((nu, mu),),
                              s, grid, 2.0)


def check_scaling_ideality(
    nu: Measure, mu: Measure, lam: float, s, grid: GridSpec | None = None
) -> BoundCheck:
    """d_s of the lambda-rescaled pair against lambda^s d_s(nu, mu); stat is their ratio.

    The rescaled pair is evaluated on the grid rescaled by 1/lambda, which
    visits exactly the rescaled images of the original points; for these
    Fourier metrics the scaling property holds with equality, so the ratio
    must equal 1 within SCALING_SLACK below and SUP_SLACK above.
    """
    s = _validate_s(s)
    grid = grid or GridSpec()
    lam = float(lam)
    if not lam > 0:
        raise MeasureError(f"scaling factor must be positive, got {lam}")
    require_membership(nu, s, "scaling check")
    require_membership(mu, s, "scaling check")
    rhs = lam**s * ds_distance(nu, mu, s, grid).value
    lhs = ds_distance(scale_law(nu, lam), scale_law(mu, lam), s, grid.scaled(1.0 / lam),
                      require_class_membership=False).value
    if rhs == 0.0:
        ratio = 1.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    ok = (1.0 - SCALING_SLACK) <= ratio <= (1.0 + SUP_SLACK)
    return BoundCheck(ok, ratio, lhs, rhs)
