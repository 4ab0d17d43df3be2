"""The renormalization map T and measurements along its trajectories.

T sends a centred, reduced law nu to the law of (X + Y)/sqrt(2) for
independent X, Y ~ nu, so T^n nu is the law of S_{2^n} / 2^{n/2}, the
normalized sum of 2^n copies, and the sqrt(n) rate compares S_n / sqrt(n)
at any n: both are NormalizedSum laws.  Laws that convolve in closed form
(atomic laws, the gaussian) step exactly (convolve, rescale, merge);
everything else steps at cf level, where n applications cost n complex
squarings per evaluation point.  Trajectory distances are always computed
on the cf-level iterates NormalizedSum(nu, 2^n); exact atomic iteration is
kept as a low-depth cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError, MembershipError
from .measures import (
    ConvProduct,
    Measure,
    NormalizedSum,
    Parametric,
    convolve,
    q_membership,
    require_membership,
    scale_law,
)
from .metrics import GridSpec, ds_distance

__all__ = [
    "FlowReport",
    "renorm_step",
    "renorm_trajectory",
    "contraction_ratio",
    "clt_rate_check",
    "CltRateCheck",
    "CONTRACTION_BOUND",
]

CONTRACTION_BOUND = 2.0**-0.5
MAX_TRAJECTORY_STEPS = 40
_GAUSSIAN_STD = Parametric("gaussian", (0.0, 1.0))


def renorm_step(m: Measure) -> Measure:
    """One application of T: the law of (X + Y)/sqrt(2), X, Y independent ~ m.

    Laws whose convolution stays in closed form (atomic laws, the gaussian)
    step in closed form.  Every other law m becomes NormalizedSum(m, 2), and
    NormalizedSum(b, n) becomes NormalizedSum(b, 2 n).
    """
    require_membership(m, 2, "the renormalization step")
    both = convolve(m, m)
    if isinstance(both, ConvProduct):
        return _iterate(m, 1)
    return scale_law(both, CONTRACTION_BOUND)


def _iterate(m: Measure, n: int) -> Measure:
    """T^n m at cf level: the normalized sum of 2^n copies, nested sums merged."""
    if n == 0:
        return m
    if isinstance(m, NormalizedSum):
        return NormalizedSum(m.base, m.n << n)
    return NormalizedSum(m, 1 << n)


@dataclass(frozen=True)
class FlowReport:
    """Per-step distances to the gaussian fixed point along a T-trajectory.

    distances_d3 is None when the base law lacks a third absolute moment;
    contraction_ratios entries are nan where the previous distance is below
    1e-14; fitted_slope_log2 is the least-squares slope of log2 d3 over steps
    2..n restricted to distances above 1e-12 (None when under two such steps
    remain, e.g. at the fixed point itself).
    """

    base: Measure
    steps: int
    distances_d3: tuple[float, ...] | None
    distances_d2: tuple[float, ...]
    contraction_ratios: tuple[float, ...] | None
    fitted_slope_log2: float | None
    lyapunov_monotone: bool

    CSV_HEADER = "n,d3,d2,ratio"

    def to_csv_rows(self) -> list[str]:
        rows = []
        for n in range(self.steps + 1):
            d3 = "" if self.distances_d3 is None else "%.17g" % self.distances_d3[n]
            d2 = "%.17g" % self.distances_d2[n]
            if self.contraction_ratios is None or n >= self.steps:
                ratio = ""
            else:
                r = self.contraction_ratios[n]
                ratio = "" if math.isnan(r) else "%.17g" % r
            rows.append(f"{n},{d3},{d2},{ratio}")
        slope = "" if self.fitted_slope_log2 is None else "%.17g" % self.fitted_slope_log2
        rows.append(f"slope,{slope},,")
        return rows


def renorm_trajectory(m: Measure, steps: int, grid: GridSpec | None = None) -> FlowReport:
    """Distances d3 (when defined) and d2 from T^n m to the gaussian, n = 0..steps."""
    if not isinstance(steps, int) or steps < 1:
        raise MeasureError("trajectory needs a positive number of steps")
    if steps > MAX_TRAJECTORY_STEPS:
        raise MeasureError(f"trajectory depth is capped at {MAX_TRAJECTORY_STEPS}")
    require_membership(m, 2, "the renormalization trajectory")
    grid = grid or GridSpec()
    in_q3 = q_membership(m, 3).is_member
    d3s: list[float] = []
    d2s: list[float] = []
    for n in range(steps + 1):
        it = _iterate(m, n)
        d2s.append(ds_distance(it, _GAUSSIAN_STD, 2, grid).value)
        if in_q3:
            d3s.append(ds_distance(it, _GAUSSIAN_STD, 3, grid).value)
    ratios = None
    slope = None
    if in_q3:
        ratios = tuple(
            d3s[n + 1] / d3s[n] if d3s[n] > 1e-14 else math.nan for n in range(steps)
        )
        ns = [n for n in range(2, steps + 1) if d3s[n] > 1e-12]
        if len(ns) >= 2:
            slope = float(
                np.polyfit(np.array(ns, dtype=float), np.log2([d3s[n] for n in ns]), 1)[0]
            )
    monotone = all(
        d2s[n + 1] < d2s[n] for n in range(steps) if d2s[n] > 1e-12
    )
    return FlowReport(
        base=m,
        steps=steps,
        distances_d3=tuple(d3s) if in_q3 else None,
        distances_d2=tuple(d2s),
        contraction_ratios=ratios,
        fitted_slope_log2=slope,
        lyapunov_monotone=monotone,
    )


def contraction_ratio(nu: Measure, mu: Measure, grid: GridSpec | None = None) -> float:
    """d3(T nu, T mu) / d3(nu, mu); callers hold it against CONTRACTION_BOUND = 2^{-1/2}."""
    grid = grid or GridSpec()
    require_membership(nu, 3, "the contraction ratio")
    require_membership(mu, 3, "the contraction ratio")
    base = ds_distance(nu, mu, 3, grid).value
    if base <= 1e-12:
        raise MembershipError(
            "contraction ratio is undefined for numerically coincident laws"
        )
    stepped = ds_distance(renorm_step(nu), renorm_step(mu), 3, grid).value
    return stepped / base


@dataclass(frozen=True)
class CltRateCheck:
    ok: bool
    margin: float
    lhs: float
    rhs: float


def clt_rate_check(
    m: Measure, n: int, grid: GridSpec | None = None
) -> CltRateCheck:
    """d3(S_n / sqrt(n), gauss) against d3(m, gauss)/sqrt(n), S_n the sum of n copies of m.

    Valid for every integer n >= 1, not only powers of two: S_n / sqrt(n) is
    NormalizedSum(m, n), whose cf power is evaluated by binary powering.
    """
    if not isinstance(n, int) or n < 1:
        raise MeasureError("the sum length n must be a positive integer")
    grid = grid or GridSpec()
    require_membership(m, 3, "the clt rate check")
    summed = m if n == 1 else NormalizedSum(m, n)
    lhs = ds_distance(summed, _GAUSSIAN_STD, 3, grid, require_class_membership=False).value
    rhs = ds_distance(m, _GAUSSIAN_STD, 3, grid).value / math.sqrt(n)
    return CltRateCheck(lhs <= rhs + 1e-8, rhs - lhs, lhs, rhs)

