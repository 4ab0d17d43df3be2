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

The flow's verdicts are decided here, each with one named slack or floor:

* contraction d3(T nu, T mu) <= 2^{-1/2} d3(nu, mu): contraction_ratio
  holds the ratio against CONTRACTION_BOUND + CONTRACTION_SLACK (1e-6,
  absolute); the bank pairs that attain the bound read it to about 1e-16.
  Laws at most FIXED_POINT_FLOOR = 1e-12 apart in d3 have no ratio.
* decay envelope d3(T^n nu, gauss) <= 2^{-n/2} d3(nu, gauss), the
  contraction n times: renorm_trajectory holds it within ENVELOPE_SLACK
  (1e-6, relative) where d3(nu, gauss) > FIXED_POINT_FLOOR.
* Lyapunov decrease: step n passes when d2[n] - d2[n+1] >
  LYAPUNOV_MIN_DECREASE d2[n] (1e-9); d2 is accurate to about 1e-14
  relative, and it falls by more than 0.1 relative per step on the bank
  laws.  A base at the fixed point, d2[0] <= FIXED_POINT_FLOOR, passes
  every step: it has nothing to lose.
* sqrt(n) rate d3(S_n / sqrt(n), gauss) <= d3(nu, gauss) / sqrt(n):
  clt_rate_check, within metrics.SUP_SLACK like the structural bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError, MembershipError
from .measures import (ConvProduct, Measure, NormalizedSum, Parametric, convolve, q_membership,
                       require_membership, scale_law)
from .metrics import BoundCheck, GridSpec, _fmt, ds_distance

__all__ = [
    "FlowReport",
    "renorm_step",
    "renorm_trajectory",
    "contraction_ratio",
    "clt_rate_check",
    "CONTRACTION_BOUND",
]

CONTRACTION_BOUND = 2.0**-0.5
CONTRACTION_SLACK = 1e-6
ENVELOPE_SLACK = 1e-6
LYAPUNOV_MIN_DECREASE = 1e-9
FIXED_POINT_FLOOR = 1e-12
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
    """Per-step distances to the gaussian fixed point along a T-trajectory, and their verdicts.

    distances_d3 is None when the base law lacks a third absolute moment;
    contraction_ratios entries are nan where the previous distance is below
    1e-14; fitted_slope_log2 is the least-squares slope of log2 d3 over steps
    2..n restricted to distances above FIXED_POINT_FLOOR (None when under
    two such steps remain, e.g. at the fixed point itself).  lyapunov[n] is
    the verdict on the fall of d2 from step n to n + 1, and
    envelope_violation the first step whose d3 exceeds the decay envelope,
    None when none does (module notes); ok is both verdicts together.
    """

    steps: int
    distances_d3: tuple[float, ...] | None
    distances_d2: tuple[float, ...]
    contraction_ratios: tuple[float, ...] | None
    fitted_slope_log2: float | None
    lyapunov: tuple[bool, ...]
    envelope_violation: int | None

    CSV_HEADER = "n,d3,d2,ratio"

    @property
    def ok(self) -> bool:
        return all(self.lyapunov) and self.envelope_violation is None

    def to_csv_rows(self) -> list[str]:
        rows, ratios = [], self.contraction_ratios
        for n in range(self.steps + 1):
            d3 = "" if self.distances_d3 is None else _fmt(self.distances_d3[n])
            r = math.nan if ratios is None or n >= self.steps else ratios[n]
            rows.append(f"{n},{d3},{_fmt(self.distances_d2[n])},{'' if math.isnan(r) else _fmt(r)}")
        slope = "" if self.fitted_slope_log2 is None else _fmt(self.fitted_slope_log2)
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
    in_q3 = q_membership(m, 3)
    d3s: list[float] = []
    d2s: list[float] = []
    for n in range(steps + 1):
        it = _iterate(m, n)
        d2s.append(ds_distance(it, _GAUSSIAN_STD, 2, grid).value)
        if in_q3:
            d3s.append(ds_distance(it, _GAUSSIAN_STD, 3, grid).value)
    ratios = None
    slope = None
    violation = None
    if in_q3:
        ratios = tuple(
            d3s[n + 1] / d3s[n] if d3s[n] > 1e-14 else math.nan for n in range(steps)
        )
        ns = [n for n in range(2, steps + 1) if d3s[n] > FIXED_POINT_FLOOR]
        if len(ns) >= 2:
            slope = float(
                np.polyfit(np.array(ns, dtype=float), np.log2([d3s[n] for n in ns]), 1)[0]
            )
        if d3s[0] > FIXED_POINT_FLOOR:
            violation = next((
                n for n in range(1, steps + 1)
                if d3s[n] > 2.0 ** (-n / 2.0) * d3s[0] * (1.0 + ENVELOPE_SLACK)
            ), None)
    at_fixed_point = d2s[0] <= FIXED_POINT_FLOOR
    lyapunov = tuple(
        at_fixed_point or d2s[n] - d2s[n + 1] > LYAPUNOV_MIN_DECREASE * d2s[n]
        for n in range(steps)
    )
    return FlowReport(
        steps=steps,
        distances_d3=tuple(d3s) if in_q3 else None,
        distances_d2=tuple(d2s),
        contraction_ratios=ratios,
        fitted_slope_log2=slope,
        lyapunov=lyapunov,
        envelope_violation=violation,
    )


def contraction_ratio(nu: Measure, mu: Measure, grid: GridSpec | None = None) -> BoundCheck:
    """d3(T nu, T mu) / d3(nu, mu) held against CONTRACTION_BOUND + CONTRACTION_SLACK.

    lhs is the ratio and rhs the bound with its slack (module notes).
    """
    grid = grid or GridSpec()
    require_membership(nu, 3, "the contraction ratio")
    require_membership(mu, 3, "the contraction ratio")
    base = ds_distance(nu, mu, 3, grid).value
    if base <= FIXED_POINT_FLOOR:
        raise MembershipError(
            "contraction ratio is undefined for numerically coincident laws"
        )
    stepped = ds_distance(renorm_step(nu), renorm_step(mu), 3, grid).value
    return BoundCheck.of(stepped / base, CONTRACTION_BOUND + CONTRACTION_SLACK, slack=0.0)


def clt_rate_check(
    m: Measure, n: int, grid: GridSpec | None = None
) -> BoundCheck:
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
    return BoundCheck.of(lhs, rhs)

