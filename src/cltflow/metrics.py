"""Fourier-based distances d_s and the structural checks built on them.

d_s(a, b) = sup over xi != 0 of |phi_a(xi) - phi_b(xi)| / |xi|^s is computed
from three mechanisms, one per regime of the ratio:

* a symmetric log-spaced grid covers the bulk (the ratio is smooth there),
  from GRID_XI_MIN on, where rounding divided by |xi|^s stays small;
* the exact xi -> 0 limit comes from moment differences (|dm3|/6 for s = 3,
  |dvariance|/2 for s = 2), so no floating-point division by tiny xi^s ever
  enters the reported value;
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

Inside a ``shared_deviations()`` scope each leaf law (atomic or parametric)
has its deviation on a grid computed once, whether ds_distance takes it
alone or as a part of a convolution, while it stays among the 12 (law,
grid) pairs most recently used; the last two composite deviations are
kept too, and the moment summaries of every law.  _grid_deviation hands
the cf the grid, so a convolution product finds its parts in the scope's
table by that grid; a normalized sum evaluates its base at scaled points,
outside the table.  The checks compare many laws and their convolutions
against the same gaussian, and each flow iterate against it twice.
Outside a scope every deviation is computed afresh, so a library caller
never sees a value from before a change to the cf code.  The CLI opens
one scope per command.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _scope, charfn
from .errors import MeasureError, MembershipError
from .measures import (
    Measure,
    convolve,
    cumulants,
    moment,
    require_membership,
    scale_law,
)

__all__ = [
    "GridSpec",
    "DistanceResult",
    "ds_distance",
    "shared_deviations",
    "check_convolution_subadditivity",
    "check_scaling_ideality",
    "check_convolution_invariance",
    "SubadditivityCheck",
    "ScalingCheck",
    "InvarianceCheck",
]

SUP_SLACK = 1e-8
_MOMENT_MATCH_TOL = 1e-9
# near 0 both deviations are about -xi^2 / 2, and their one-ulp roundings
# divided by xi^3 are about 2^-53 / xi: 1.2e-10 of d3 at 1e-6, 9e-5 at
# 1e-12; the largest point is the largest the cf takes (charfn.XI_ABS_MAX)
GRID_XI_MIN = 1e-6
GRID_XI_MAX = charfn.XI_ABS_MAX


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
        cols = [
            _fmt(self.s),
            _fmt(self.xi_min),
            _fmt(self.xi_max),
            _fmt(self.grid_sup),
            _fmt(self.grid_argmax),
            _fmt(self.zero_limit),
            _fmt(self.tail_bound),
            _fmt(self.value),
            "true" if self.certified else "false",
        ]
        return ",".join(cols)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _validate_s(s) -> int:
    if s not in (2, 3, 2.0, 3.0):
        raise MeasureError(f"the metric exponent s must be 2 or 3, got {s}")
    return int(s)


def _zero_limit_relaxed(a: Measure, b: Measure, s: int) -> float:
    """xi -> 0 limit of the ratio for mean-matched laws.

    Mean mismatch makes the limit infinite for both exponents; variance
    mismatch makes it infinite for s = 3 and equal to |dvariance|/2 for
    s = 2.  For fully matched laws the limit is |dm3|/6 when s = 3 and 0
    when s = 2.
    """
    ka, kb = cumulants(a), cumulants(b)
    if abs(ka[0] - kb[0]) > _MOMENT_MATCH_TOL:
        return math.inf
    dvar = abs(ka[1] - kb[1])
    if s == 2:
        return 0.5 * dvar
    if dvar > _MOMENT_MATCH_TOL:
        return math.inf
    m3a, m3b = moment(a, 3), moment(b, 3)
    if not (math.isfinite(m3a) and math.isfinite(m3b)):
        raise MeasureError("the s = 3 zero limit needs finite third moments")
    return abs(m3a - m3b) / 6.0


@contextmanager
def shared_deviations():
    """Compute each grid deviation and moment summary once until the scope ends.

    Keyed by (law, grid), laws by value, the scope keeps the deviations of
    the 12 leaf laws (atomic or parametric) most recently used, whether
    ds_distance took them alone or as parts of a convolution product, and
    of the last two composite laws; and the cumulants, moments,
    absolute moment bounds and memberships of every law asked about.
    Everything is freed when the scope ends.  A scope opened inside another
    shares the outer one.  Keep a scope short: a cf routine replaced inside
    it is not seen by what was computed before.
    """
    if _scope.active is not None:
        yield
        return
    _scope.active = _scope.Scope()
    try:
        yield
    finally:
        _scope.active = None


def _grid_deviation(m: Measure, grid: GridSpec) -> np.ndarray:
    """cf deviation of m at the positive grid points, shared inside a scope (module notes)."""
    pts = grid.positive_points()
    scope = _scope.active
    if scope is None:
        return charfn.cf_deviation(m, pts)
    return scope.deviation(
        m, grid, isinstance(m, charfn._LEAF_TYPES),
        lambda: charfn._checked(m, charfn._dev(m, pts, grid)),
    )


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
    shared_deviations() scope the deviation of each law on the grid is
    reused from earlier calls; outside one it is computed afresh.

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
    zl = _zero_limit_relaxed(a, b, s)
    if not math.isfinite(zl):
        raise MembershipError(
            "the distance diverges at xi -> 0: means/variances do not match"
        )
    xi, powers = _positive_points(grid)
    ratio = np.abs(_grid_deviation(a, grid) - _grid_deviation(b, grid))
    ratio /= powers[s]
    grid_sup = float(np.max(ratio))
    argmax = xi[np.flatnonzero(ratio == grid_sup)[0]]
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
class SubadditivityCheck:
    ok: bool
    margin: float
    lhs: float
    rhs: float


def check_convolution_subadditivity(
    nu1: Measure,
    nu2: Measure,
    mu1: Measure,
    mu2: Measure,
    s,
    grid: GridSpec | None = None,
) -> SubadditivityCheck:
    """d_s(nu1*nu2, mu1*mu2) <= d_s(nu1, mu1) + d_s(nu2, mu2) within slack.

    The convolutions are compared through their cf products; they need not be
    reduced themselves.
    """
    s = _validate_s(s)
    grid = grid or GridSpec()
    for m in (nu1, nu2, mu1, mu2):
        require_membership(m, s, "subadditivity check")
    lhs = ds_distance(
        convolve(nu1, nu2), convolve(mu1, mu2), s, grid, require_class_membership=False
    ).value
    rhs = ds_distance(nu1, mu1, s, grid).value + ds_distance(nu2, mu2, s, grid).value
    return SubadditivityCheck(lhs <= rhs + SUP_SLACK, rhs - lhs, lhs, rhs)


@dataclass(frozen=True)
class ScalingCheck:
    ok: bool
    ratio: float
    lhs: float
    rhs: float


def check_scaling_ideality(
    nu: Measure, mu: Measure, lam: float, s, grid: GridSpec | None = None
) -> ScalingCheck:
    """d_s of the lambda-rescaled pair against lambda^s d_s(nu, mu).

    The rescaled pair is evaluated on the grid rescaled by 1/lambda, which
    visits exactly the rescaled images of the original points; for these
    Fourier metrics the scaling property holds with equality, so the ratio
    must equal 1 to rounding and never exceed 1 beyond slack.
    """
    s = _validate_s(s)
    grid = grid or GridSpec()
    lam = float(lam)
    if not lam > 0:
        raise MeasureError(f"scaling factor must be positive, got {lam}")
    require_membership(nu, s, "scaling check")
    require_membership(mu, s, "scaling check")
    rhs = lam**s * ds_distance(nu, mu, s, grid).value
    lhs = ds_distance(
        scale_law(nu, lam),
        scale_law(mu, lam),
        s,
        grid.scaled(1.0 / lam),
        require_class_membership=False,
    ).value
    if rhs == 0.0:
        ratio = 1.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    ok = (1.0 - 1e-6) <= ratio <= (1.0 + SUP_SLACK)
    return ScalingCheck(ok, ratio, lhs, rhs)


@dataclass(frozen=True)
class InvarianceCheck:
    ok: bool
    margin: float
    lhs: float
    rhs: float


def check_convolution_invariance(
    nu: Measure, mu: Measure, eta: Measure, s, grid: GridSpec | None = None
) -> InvarianceCheck:
    """d_s(nu*eta, mu*eta) <= d_s(nu, mu) within slack."""
    s = _validate_s(s)
    grid = grid or GridSpec()
    require_membership(nu, s, "invariance check")
    require_membership(mu, s, "invariance check")
    lhs = ds_distance(
        convolve(nu, eta), convolve(mu, eta), s, grid, require_class_membership=False
    ).value
    rhs = ds_distance(nu, mu, s, grid).value
    return InvarianceCheck(lhs <= rhs + SUP_SLACK, rhs - lhs, lhs, rhs)
