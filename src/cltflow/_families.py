"""The closed-form families, one row each: every rule that depends on the family.

A Parametric law is a family name and a parameter tuple p; FAMILIES maps
the name to the row of rules that measures, charfn and mc use (Family).
A cf comes as a body and a location loc, the cf being the body times
exp(i loc xi); the caller applies that phase.  The families:

gaussian (mean, var): k = (mean, var, 0, 0); D = expm1(-var xi^2 / 2) and
  phi = exp(-var xi^2 / 2) at loc = mean.  Draws are Wichura's AS241 (1988)
  inverse normal (_special.InverseNormal), about 1e-16 relative from
  u = 2^-53 to 1 - 2^-53, with buffers allocated once per block shape;
  gaussian(0, 1) skips the scale and shift.  Two gaussians add to one.
  |xi| is capped at 64 / sqrt(var), where phi is 0 and D is -1 already, so
  var xi^2 never overflows.

uniform (a, b), half = (b - a) / 2, t = half xi: k = ((a + b) / 2,
  half^2 / 3, 0, -2 half^4 / 15); D = (sin t - t) / t and phi = sin t / t at
  loc = (a + b) / 2.  The value takes t = half (xi + lo) as an exact
  two-product plus half lo: near a zero of sin its relative error is that
  of t times t / |sin t|.  Draws are a + (b - a) u.

laplace (loc, scale b), t = b xi: k = (loc, 2 b^2, 0, 12 b^4);
  D = -t^2 / (1 + t^2) and phi = 1 / (1 + t^2) at loc, D with |t| capped
  at 2^27, where it is -1 already, and phi taken as (1 / t)^2 where t^2
  overflows.  Draws are loc - b sign(v) log1p(-2 |v|), v = u - 1/2.

exponential (rate, shift), t = xi / rate: make_parametric takes the rate
  alone, shift 0; the shift serves the centred, reduced member (1, -1).
  k = (1/rate + shift, rate^-2, 2 rate^-3, 6 rate^-4); D = i t / (1 - i t)
  and phi = 1 / (1 - i t) at loc = shift.  The centred D (shift rate = -1)
  is (cos t - 1 - i (sin t - t)) / (1 - i t): the linear terms of the two
  factors cancel, so they are folded analytically to keep the O(t^3)
  imaginary part accurate after deep squaring chains.  Draws are
  shift - log1p(-u) / rate.

heavy_cubic (scale s): s X for the symmetric law X of density
  (sqrt 3 / 6) |x|^-4 on |x| >= 1/sqrt 3, which the bank builds at s = 1:
  unit variance, E|X| = sqrt 3 / 2, no finite third absolute moment, so
  k = (0, s^2, nan, inf).  Its cf at t = |s xi| / sqrt 3 is
  _special.heavy_cubic_cf.  Draws are
  sign(u - 1/2) (3 sqrt 3 (1 - |2u - 1|))^(-1/3) s, the scale applied
  last.

Every family is closed under scaling, so the law of lam X keeps the family
and only its parameters change.

The numpy kernels that the rows share with charfn live here too, so that
charfn imports them from below and no import cycle forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._special import InverseNormal, heavy_cubic_cf
from .errors import MeasureError

# atom positions, and the locations, scales and rates of the closed-form
# families (mean and standard deviation, endpoints, location and scale,
# shift, rate and 1/rate, scale), up to this size keep x^4, and the
# cumulant cross terms of up to 12 x^4, within the float range
ATOM_ABS_MAX = 1e75
_SERIES_CUT = 0.1
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)  # its square is finite


def _sin_rem(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sin(t) - t to its own O(t^3) size, into out if given: a series on t clipped
    to the cut, where t * t cannot overflow, and sin where |t| >= cut."""
    far = np.abs(t) >= _SERIES_CUT
    out = np.clip(t, -_SERIES_CUT, _SERIES_CUT, out=out)
    t2 = out * out
    p = t2 / 362880.0 - 1.0 / 5040.0
    for c in (1.0 / 120.0, -1.0 / 6.0):  # Horner in t2, in place
        p *= t2
        p += c
    out *= t2
    out *= p
    np.sin(t, out=out, where=far)
    np.subtract(out, t, out=out, where=far)
    return out


def _cos_rem(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos(t) - 1 without cancellation, (-2 s) s for s = sin(t / 2), into out if given."""
    s = np.sin(np.multiply(0.5, t, out=out), out=out)
    s *= -2.0 * s
    return s


def _phase_dev(t: np.ndarray) -> np.ndarray:
    """exp(i t) - 1, accurate for small t."""
    return _cos_rem(t) + 1j * np.sin(t)


def _combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deviation of a product of cfs from the factor deviations: a + b + a b."""
    out = a + b
    out += a * b
    return out


def _nonzero(t: np.ndarray) -> np.ndarray:
    """t with its zeros replaced by 1, a divisor that never gives 0/0."""
    return np.where(t == 0.0, 1.0, t)


def _two_prod(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as hi + lo, hi the rounded product and lo its exact error (Dekker)."""
    hi = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _split(x):
    """x as hi + lo with 26-bit halves, so products of halves are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _phase(t: np.ndarray) -> np.ndarray:
    """exp(i t)."""
    return np.cos(t) + 1j * np.sin(t)


def _gaussian_sampler(p, size):
    ndtri = InverseNormal(size)
    if p[0] == 0.0 and p[1] == 1.0:
        return ndtri
    sd = math.sqrt(p[1])

    def transform(u, out):
        ndtri(u, out)
        out *= sd
        out += p[0]

    return transform


def _uniform_cumulants(p):
    half = 0.5 * (p[1] - p[0])
    return (0.5 * (p[0] + p[1]), half * half / 3.0, 0.0, -2.0 * half**4 / 15.0)


def _uniform_deviation(p, xi):
    t = 0.5 * (p[1] - p[0]) * xi
    return _sin_rem(t) / _nonzero(t) + 0j, 0.5 * (p[0] + p[1])


def _uniform_value(p, xi, lo):
    half = 0.5 * (p[1] - p[0])
    t, tlo = _two_prod(half, xi)
    tlo = tlo + half * lo
    sinc = (np.sin(t) + tlo * np.cos(t)) / _nonzero(t)
    return np.where(t == 0.0, 1.0, sinc) + 0j, 0.5 * (p[0] + p[1])


def _exponential_deviation(p, xi):
    rate, shift = p
    if shift * rate == -1.0:  # centred (module notes)
        t = xi / rate
        return (_cos_rem(t) - 1j * _sin_rem(t)) / (1.0 - 1j * t), 0.0
    w = 1j * (xi / rate)
    return w / (1.0 - w), shift


def _rate_alone(p):
    if len(p) != 1:
        raise MeasureError("exponential takes a single rate parameter")
    return (p[0], 0.0)


def _gaussian_exponent(p, xi):
    """-var xi^2 / 2 with |xi| capped at 64 / sd: exp is 0 from -2048 on, and nothing overflows."""
    x = np.minimum(np.abs(xi), 64.0 / math.sqrt(p[1]))
    return -0.5 * p[1] * x * x


def _laplace_deviation(p, xi):
    # from |t| = 2^27 on, 1 + t^2 rounds to t^2 and D to -1, so capping |t|
    # there keeps every bit and t^2 finite
    t2 = np.minimum(np.abs(p[1] * xi), 2.0**27) ** 2
    return -t2 / (1.0 + t2) + 0j, p[0]


def _laplace_value(p, xi, lo):
    # where t^2 would overflow, 1 / (1 + t^2) is (1 / t)^2, below 6e-309
    t = np.abs(p[1] * xi)
    r = 1.0 / np.maximum(t, _SQRT_FLOAT_MAX)
    v = np.where(t > _SQRT_FLOAT_MAX, r * r, 1.0 / (1.0 + np.minimum(t, _SQRT_FLOAT_MAX) ** 2))
    return v + 0j, p[0]


def _inverse(cdf_inverse):
    """The sampler of an inverse CDF cdf_inverse(p, u) that needs no buffers."""

    def sampler(p, size):
        def transform(u, out):
            out[...] = cdf_inverse(p, u)

        return transform

    return sampler


@dataclass(frozen=True)
class Family:
    """One row of the table: a family's rules, each taking the parameters p.

    sizes(p) gives the locations, scales and rates, or None where p is no
    law; cumulants(p) gives k1..k4, inf or nan where a moment is infinite
    or not absolutely convergent, which is also how membership in P_r is
    read; deviation(p, xi) and value(p, xi, lo) give (body, loc), the cf times
    exp(-i loc xi) as a deviation and as a value at xi + lo; sampler(p, size)
    gives transform(u, out), the draws for a block of up to size uniforms.
    scaled gives the parameters of lam X; added gives those of the sum of
    independent laws p and q, or None where it leaves the family.  standard
    is the centred, reduced member.  from_public turns make_parametric's
    parameters into p.
    """

    needs: str  # the parameters and their condition, for the error message
    standard: tuple  # p has as many entries
    sizes: Callable
    cumulants: Callable
    deviation: Callable
    value: Callable
    sampler: Callable
    scaled: Callable
    public: bool = True  # built by make_parametric and measure literals
    from_public: Callable = lambda p: p
    added: Callable = lambda p, q: None


FAMILIES: dict[str, Family] = {
    "gaussian": Family(
        needs="(mean, variance) with variance > 0",
        standard=(0.0, 1.0),
        sizes=lambda p: (p[0], math.sqrt(p[1])) if p[1] > 0 else None,
        cumulants=lambda p: (p[0], p[1], 0.0, 0.0),
        deviation=lambda p, xi: (np.expm1(_gaussian_exponent(p, xi)) + 0j, p[0]),
        value=lambda p, xi, lo: (np.exp(_gaussian_exponent(p, xi)) + 0j, p[0]),
        sampler=_gaussian_sampler,
        scaled=lambda p, lam: (lam * p[0], lam * lam * p[1]),
        added=lambda p, q: (p[0] + q[0], p[1] + q[1]),
    ),
    "uniform": Family(
        needs="(a, b) with a < b",
        standard=(-math.sqrt(3.0), math.sqrt(3.0)),
        sizes=lambda p: p if p[0] < p[1] else None,
        cumulants=_uniform_cumulants,
        deviation=_uniform_deviation,
        value=_uniform_value,
        sampler=_inverse(lambda p, u: u * (p[1] - p[0]) + p[0]),
        scaled=lambda p, lam: (lam * p[0], lam * p[1]),
    ),
    "exponential": Family(
        needs="(rate, shift) with rate > 0",
        standard=(1.0, -1.0),
        sizes=lambda p: (p[1], p[0], 1.0 / p[0]) if p[0] > 0 else None,
        from_public=_rate_alone,
        cumulants=lambda p: (1.0 / p[0] + p[1], p[0] ** -2, 2.0 * p[0] ** -3, 6.0 * p[0] ** -4),
        deviation=_exponential_deviation,
        value=lambda p, xi, lo: (1.0 / (1.0 - 1j * (xi / p[0])), p[1]),
        sampler=_inverse(lambda p, u: p[1] - np.log1p(-u) / p[0]),
        scaled=lambda p, lam: (p[0] / lam, lam * p[1]),
    ),
    "laplace": Family(
        needs="(loc, scale) with scale > 0",
        standard=(0.0, math.sqrt(0.5)),
        sizes=lambda p: p if p[1] > 0 else None,
        cumulants=lambda p: (p[0], 2.0 * p[1] * p[1], 0.0, 12.0 * p[1] ** 4),
        deviation=_laplace_deviation,
        value=_laplace_value,
        sampler=_inverse(
            lambda p, u: p[0] - p[1] * np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))
        ),
        scaled=lambda p, lam: (lam * p[0], lam * p[1]),
    ),
    "heavy_cubic": Family(
        needs="(scale,) with scale > 0",
        standard=(1.0,),
        public=False,
        sizes=lambda p: p if p[0] > 0 else None,
        # third moment not absolutely convergent, fourth infinite
        cumulants=lambda p: (0.0, p[0] * p[0], math.nan, math.inf),
        deviation=lambda p, xi: (
            heavy_cubic_cf(np.abs(p[0] * xi) / math.sqrt(3.0), 1.0) + 0j, 0.0),
        value=lambda p, xi, lo: (
            heavy_cubic_cf(np.abs(p[0] * xi) / math.sqrt(3.0), 0.0) + 0j, 0.0),
        sampler=_inverse(
            lambda p, u: np.where(u < 0.5, -1.0, 1.0)
            * (3.0 * math.sqrt(3.0) * (1.0 - np.abs(2.0 * u - 1.0))) ** (-1.0 / 3.0)
            * p[0]
        ),
        scaled=lambda p, lam: (lam * p[0],),
    ),
}
PUBLIC_FAMILIES = tuple(name for name, row in FAMILIES.items() if row.public)


def row(family: str) -> Family:
    """The row of a family name; MeasureError for an unknown one."""
    try:
        return FAMILIES[family]
    except (KeyError, TypeError):
        raise MeasureError(f"unknown parametric family {family!r}") from None


def check(family: str, p: tuple) -> None:
    """Raise MeasureError unless p are parameters of a law of the family."""
    r = row(family)
    ok = len(p) == len(r.standard) and all(map(math.isfinite, p))
    sizes = r.sizes(p) if ok else None
    if sizes is None:
        raise MeasureError(f"{family} needs {r.needs}")
    if any(abs(v) > ATOM_ABS_MAX for v in sizes):
        raise MeasureError(
            f"{family} parameters {p} out of range: locations, scales and rates "
            f"must lie within ±{ATOM_ABS_MAX:g}"
        )


def closed_sum(a, b) -> tuple | None:
    """The parameters of the sum of independent laws a and b, Parametric both, or None."""
    return row(a.family).added(a.params, b.params) if a.family == b.family else None
