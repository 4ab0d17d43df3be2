"""The closed-form families, one row each: every rule that depends on the family.

A Parametric law is a family name and a parameter tuple p; FAMILIES maps
the name to the row of rules that measures, charfn and mc use (Family).
A cf comes as a body and a location loc, the cf being the body times
exp(i loc xi); the caller applies that phase.  A row's sampler makes draw
i from mixed word i alone; u is the word's uniform (_uniform).  The
families:

gaussian (mean, var): k = (mean, var, 0, 0); D = expm1(-var xi^2 / 2) and
  phi = exp(-var xi^2 / 2) at loc = mean.  Two gaussians add to one.
  |xi| is capped at 64 / sqrt(var), where phi is 0 and D is -1 already, so
  var xi^2 never overflows.  Draws are the ziggurat of Marsaglia & Tsang
  (2000, J. Stat. Softw. 5) with N = 2^12 layers of area V under
  f(x) = exp(-x^2 / 2), exact in law, times sqrt(var) plus mean;
  gaussian(0, 1) skips the scale and shift.  Draw i is a function of word
  w = z_i alone.  Its low 12 bits are the layer i and its top 52 bits m
  the signed uniform s = (2m + 1) 2^-52 - 1, disjoint bits as in Doornik
  (2005, "An improved ziggurat method to generate normal random
  samples"); the draw is x = s X[i] where |x| < X[i + 1], about 999 words
  in 1000, each block at once.  The other words take the slow path, one
  word at a time in Python ints, floats and math (_zig_slow): in layer 0
  the draw is Marsaglia's tail beyond R, +-(R + a) for a = -log(U1) / R
  once 2 (-log U2) >= a^2; above it x is the draw if the wedge test
  f(X[i]) + U (f(X[i + 1]) - f(X[i])) < f(x) holds.  A failed wedge test
  starts the draw again from a new word, a failed tail test the tail.
  Each of those uniforms, and each new word, is mix64(w + c) of the
  word w it follows, c a constant of its own per use, so the bits depend
  on no block, block edge, counter wrap or other law of the stream.
  R = 4.3859450348713048591 and V = 3.0615410327846447769e-4 solve the
  top layer's closure X[N - 1] (1 - f(X[N - 1])) = V with
  V = R f(R) + int_R^inf f (40-digit mpmath, by bisection).  X[0] =
  V / f(R), X[1] = R, X[k + 1] = f^-1(V / X[k] + f(X[k])) and X[N] = 0,
  with f(X), are built in float64 by the first sampler made, not at
  import (_ziggurat, about 1.4 ms); the float table closes the top layer
  to 1 - 8.3e-13 of V.  On a 2-core x86 VM a block of 2^14 words costs
  about 8 ns a draw, a quarter of it in the slow path of about 19 of its
  words, where an AS241 inverse CDF of the uniforms cost about 18.

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
  mpmath) and cost about 250 ns each, against about 8 for the gaussian's.

Every family is closed under scaling, so the law of lam X keeps the family
and only its parameters change.

The numpy kernels that the rows share with charfn live here too, and the
SplitMix64 finalizer and the uniform of a word that the samplers share
with mc, so that charfn and mc import them from below and no import
cycle forms.
"""

from __future__ import annotations

import functools
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



def _horner(coefs, x, out):
    """sum_k coefs[k] x^(n - k), n = len(coefs) - 1, by Horner's rule into out."""
    np.multiply(coefs[0], x, out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


# the SplitMix64 finalizer's multipliers: mc's counter words and the
# ziggurat's derived words
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    """The SplitMix64 finalizer of the word z mod 2^64 in masked Python ints; mc._mix for arrays."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _uniform(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The uniforms in (0, 1) of the mixed words z, written into out; z is only read.

    The top 52 bits m become the float 1 + m 2^-52, which returns as
    (1 + m 2^-52) - (1 - 2^-53) = (m + 1/2) 2^-52, exact because 2m + 1 < 2^53
    makes the difference a float.
    """
    bits = out.view(np.uint64)
    np.right_shift(z, np.uint64(12), out=bits)
    bits |= np.uint64(0x3FF0000000000000)  # the exponent of [1, 2)
    out -= 1.0 - 2.0**-53
    return out


# the gaussian's ziggurat (module notes): 2^12 layers of area _ZIG_V under
# f(x) = exp(-x^2 / 2), the base layer's tail beyond _ZIG_R
_ZIG_LAYER = (1 << 12) - 1
_ZIG_R = 4.3859450348713048591
_ZIG_V = 3.0615410327846447769e-4
# the constants c of the slow path's derived words mix64(w + c), one per
# use: the first 64 bits of the fractional parts of sqrt 2, 3, 5 and 7
_WEDGE, _TAIL_X, _TAIL_Y, _AGAIN = (
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1
)


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """X and f(X) for the 2^12 layers and X[2^12] = 0 (module notes).

    Layer i is |x| < X[i] between the heights f(X[i]) and f(X[i + 1]); the
    base layer, X[0] = V / f(R), holds the tail beyond X[1] = R.  Built on
    the first call by the float64 recurrence X[k + 1] = f^-1(V / X[k] + f(X[k])).
    """
    x = [_ZIG_V / math.exp(-0.5 * _ZIG_R * _ZIG_R), _ZIG_R]
    while len(x) <= _ZIG_LAYER:
        x.append(math.sqrt(-2.0 * math.log(_ZIG_V / x[-1] + math.exp(-0.5 * x[-1] * x[-1]))))
    x = np.array(x + [0.0])
    return x, np.exp(-0.5 * x * x)


def _word_uniform(w: int) -> float:
    """The uniform of the word w, (m + 1/2) 2^-52 for its top 52 bits m, as _uniform makes it."""
    return ((w >> 12) + 0.5) * 2.0**-52


def _zig_slow(w: int, xs: memoryview, fs: memoryview) -> float:
    """The ziggurat's draw of the word w, in Python ints and floats (module notes).

    It tries the word's layer i and x = s X[i] first, as the block's fast
    path does; s = (2m + 1) 2^-52 - 1 is exact.
    """
    while True:
        i = w & _ZIG_LAYER
        x = (((w >> 12) * 2 + 1) * 2.0**-52 - 1.0) * xs[i]
        if abs(x) < xs[i + 1]:
            return x
        if i == 0:  # Marsaglia's tail beyond R, with the sign of x
            while True:
                a = -math.log(_word_uniform(_mix64_int(w + _TAIL_X))) / _ZIG_R
                b = -math.log(_word_uniform(_mix64_int(w + _TAIL_Y)))
                if b + b >= a * a:
                    return math.copysign(_ZIG_R + a, x)
                w = _mix64_int(w + _AGAIN)
        u = _word_uniform(_mix64_int(w + _WEDGE))
        if fs[i] + u * (fs[i + 1] - fs[i]) < math.exp(-0.5 * x * x):
            return x
        w = _mix64_int(w + _AGAIN)


def _gaussian_sampler(p, size):
    xs, fs = _ziggurat()
    # memoryviews hand the slow path Python floats without 0.2 MB of float lists
    width, edge, slow = 2.0 * xs[:-1], xs[1:], (memoryview(xs), memoryview(fs))
    h, e, far = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    layer = np.empty(size, dtype=np.intp)
    sd, standard = math.sqrt(p[1]), p == (0.0, 1.0)

    def transform(z, out):
        n = z.size
        s, i = h[:n], layer[:n]
        np.subtract(_uniform(z, s), 0.5, out=s)  # s / 2, exact
        np.bitwise_and(z, np.uint64(_ZIG_LAYER), out=i.view(np.uint64))
        np.take(width, i, out=out, mode="clip")
        out *= s  # (s / 2) (2 X[i]), the bits of s X[i]
        np.take(edge, i, out=e[:n], mode="clip")
        k = np.flatnonzero(np.greater_equal(np.abs(out, out=s), e[:n], out=far[:n]))
        if k.size:
            out[k] = [_zig_slow(w, *slow) for w in z[k].tolist()]
        if not standard:
            out *= sd
            out += p[0]
        return out

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
    """The sampler of an inverse CDF cdf_inverse(p, u), u the uniforms of the words (_uniform)."""

    def sampler(p, size):
        u = np.empty(size)

        def transform(z, out):
            out[...] = cdf_inverse(p, _uniform(z, u[: z.size]))

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
    gives transform(z, out), which writes into out the draws of a block of
    up to size mixed words z, one word each, and only reads z.
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
