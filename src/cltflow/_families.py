"""The closed-form families, one row each: every rule that depends on the family.

A Parametric law is a family name and a parameter tuple p; FAMILIES maps
the name to the row of rules that measures, charfn and mc use (Family).
A cf comes as a body and a location loc, the cf being the body times
exp(i loc xi); the caller applies that phase.  The families:

gaussian (mean, var): k = (mean, var, 0, 0); D = expm1(-var xi^2 / 2) and
  phi = exp(-var xi^2 / 2) at loc = mean.  Draws are Wichura's AS241
  inverse normal (PPND16, Applied Statistics 37, 1988; InverseNormal): a
  rational function of degree 7/7 in r = 0.180625 - q^2, q = u - 1/2, for
  |q| <= 0.425, and beyond it in r = sqrt(-log min(u, 1 - u)) - 1.6 up to
  r = 5 and in r - 5 above, about 1e-16 relative from u = 2^-53 to
  1 - 2^-53, with buffers allocated once per block shape; gaussian(0, 1)
  skips the scale and shift.  Two gaussians add to one.
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

student3 (scale s): s X for X = T_3 / sqrt 3, Student's t with three
  degrees of freedom scaled to unit variance, of density
  (2 / pi) (1 + x^2)^-2, which the bank builds at s = 1.  The |x|^-4 tail
  of its density leaves the third absolute moment infinite, so
  k = (0, s^2, nan, inf).  With a = |s xi|, phi = (1 + a) e^-a, taken as
  (1 + a) e e for e = exp(-a / 2) so that phi keeps its relative accuracy
  for a in 708..715, where it is a normal float and e^-a is not.  D is the
  series sum_{k=2}^{20} (-1)^k (1 - k) a^k / k! by Horner below a = 1, and
  expm1(-a) + a exp(-a) from 1 on.  Against mpmath, D stays within 2
  epsilons relative and phi within 3 (1.8 and 2.0 at most on 25,000
  points).  Draws invert P(X <= x) = 1/2 + (theta + sin(2 theta) / 2) / pi,
  x = tan theta, by Newton: for |u - 1/2| < 1/4 in theta on
  theta + sin(2 theta) / 2 = pi (u - 1/2), from half the right side, and
  beyond in v = pi/2 - |theta| on v - sin(2 v) / 2 = y = pi min(u, 1 - u),
  from (3 y / 2)^(1/3), through that function's odd series where the root
  lies below v = 0.6, x being +-cot v.  The last step is taken on x, as
  the step times dx/d(angle), so that the angle's own rounding, which tan
  and cot magnify up to 3 times near |u - 1/2| = 1/4, does not reach x.
  Draws stay within 2 epsilons of x (1.9 at most on 6,500 points against
  mpmath) and cost about 250 ns each, against about 20 for AS241.

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



# AS241 PPND16, highest power first; each denominator ends in 1
_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_C = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_D = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def _horner(coefs, x, out):
    """sum_k coefs[k] x^(n - k), n = len(coefs) - 1, by Horner's rule into out."""
    np.multiply(coefs[0], x, out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


class InverseNormal:
    """Phi^-1(u) by AS241 for blocks of at most size uniforms in (0, 1).

    A call writes Phi^-1(u) into out and leaves u as it is.  The central
    rational function is evaluated on the whole block, and the tail ones
    overwrite it where |u - 1/2| > 0.425 (r < 0), about 15% of the draws.
    The central denominator has no zero for r >= 0.180625 - 1/4 (its
    largest real zero is near -0.0729), so the unused values it gives
    there stay finite.
    """

    def __init__(self, size: int):
        self._q = np.empty(size)
        self._r = np.empty(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self._tail = np.empty(size, dtype=bool)

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = u.size
        q, r, num, den = self._q[:n], self._r[:n], self._num[:n], self._den[:n]
        np.subtract(u, 0.5, out=q)
        np.multiply(q, q, out=r)
        np.subtract(0.180625, r, out=r)
        _horner(_A, r, num)
        _horner(_B, r, den)
        np.multiply(q, num, out=out)
        out /= den
        idx = np.flatnonzero(np.less(r, 0.0, out=self._tail[:n]))
        k = idx.size
        if k:
            r, v, w = r[:k], num[:k], den[:k]
            np.take(u, idx, out=r)
            np.subtract(1.0, r, out=v)
            np.minimum(r, v, out=r)  # 1 - u is exact where u > 1/2
            np.log(r, out=r)
            np.negative(r, out=r)
            np.sqrt(r, out=r)
            far = np.flatnonzero(r > 5.0)  # u or 1 - u below about 1.4e-11
            rf = r[far] - 5.0
            r -= 1.6
            _horner(_C, r, v)
            _horner(_D, r, w)
            v /= w
            if far.size:
                v[far] = _horner(_E, rf, np.empty_like(rf)) / _horner(_F, rf, np.empty_like(rf))
            np.copysign(v, np.take(q, idx, out=w), out=v)
            out[idx] = v
        return out


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


# D below _T3_CUT: a^2 sum_{k=2}^{20} (-1)^k (1 - k) a^(k-2) / k!, highest power first
_T3_CUT = 1.0
_T3_SERIES = tuple((-1) ** k * (1 - k) / math.factorial(k) for k in range(20, 1, -1))
# v - sin(2 v) / 2 = v^3 sum_{k=1}^{10} (-1)^(k+1) 4^k v^(2k-2) / (2k+1)!, highest
# power first, used where its root v lies below 0.6, that is y below _T3_Y_CUT
_T3_TAIL_SERIES = tuple((-1) ** (k + 1) * 4.0**k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
_T3_Y_CUT = 0.6 - 0.5 * math.sin(1.2)


def _student3_deviation(p, xi):
    a = np.abs(p[0] * xi)
    b = np.minimum(a, _T3_CUT)  # equal to a wherever the series is taken
    near = _horner(_T3_SERIES, b, np.empty_like(b))
    near *= b * b
    return np.where(a < _T3_CUT, near, np.expm1(-a) + a * np.exp(-a)) + 0j, 0.0


def _student3_value(p, xi, lo):
    a = np.abs(p[0] * xi)
    e = np.exp(-0.5 * a)
    return (1.0 + a) * e * e + 0j, 0.0


def _t3_mid_step(theta, y):
    """The Newton step of theta + sin(2 theta) / 2 = y."""
    return (theta + 0.5 * np.sin(2.0 * theta) - y) / (1.0 + np.cos(2.0 * theta))


def _t3_tail_step(v, y, series):
    """The Newton step of v - sin(2 v) / 2 = y, from the series where series is set."""
    w = v * v
    h = np.where(series, v * w * _horner(_T3_TAIL_SERIES, w, np.empty_like(w)),
                 v - 0.5 * np.sin(2.0 * v))
    s = np.sin(v)
    return (h - y) / (2.0 * s * s)


def t3_quantile(u: np.ndarray) -> np.ndarray:
    """The x with P(X <= x) = u for X = T_3 / sqrt 3 and u in (0, 1) (module notes)."""
    q = u - 0.5
    x = np.empty_like(q)
    mid = np.abs(q) < 0.25
    y = math.pi * q[mid]
    theta = 0.5 * y
    for _ in range(3):
        theta -= _t3_mid_step(theta, y)
    t = np.tan(theta)
    x[mid] = t - _t3_mid_step(theta, y) * (1.0 + t * t)
    tail = ~mid
    y = math.pi * np.minimum(u[tail], 1.0 - u[tail])  # 1 - u is exact for u > 1/2
    series = y < _T3_Y_CUT
    v = np.cbrt(1.5 * y)
    for _ in range(4):
        v -= _t3_tail_step(v, y, series)
    c = 1.0 / np.tan(v)
    x[tail] = np.copysign(c + _t3_tail_step(v, y, series) * (1.0 + c * c), q[tail])
    return x


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
    "student3": Family(
        needs="(scale,) with scale > 0",
        standard=(1.0,),
        public=False,
        sizes=lambda p: p if p[0] > 0 else None,
        # third moment not absolutely convergent, fourth infinite
        cumulants=lambda p: (0.0, p[0] * p[0], math.nan, math.inf),
        deviation=_student3_deviation,
        value=_student3_value,
        sampler=_inverse(lambda p, u: t3_quantile(u) * p[0]),
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
