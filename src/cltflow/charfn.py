"""Characteristic function evaluation in two forms: deviation and value.

Distances and structural checks work with the deviation D(xi) = phi(xi) - 1
rather than phi itself.  Near xi = 0 the interesting information in phi sits
many digits below 1 (the imaginary part of phi for a centred law is
O(xi^3)), and the metric layer divides differences of cf values by |xi|^s,
so plain complex evaluation would amplify representation noise by up to 1e9
on the default grid.  Deviations avoid that:

* atomic laws use  cos(t) - 1 = -2 sin^2(t/2)  and a series kernel for
  sin(t) - t, with the exact linear term split off through the stored mean;
* closed-form families use expm1-style identities;
* convolution products combine deviations via  (1+a)(1+b) - 1 = a + b + ab;
* the renormalization squaring chain iterates  d -> 2 d + d^2.

Each rule keeps errors relative to the deviation itself, so cf differences
stay accurate to ~1e-14 relative even after 40 renormalization steps.

Where phi is small, 1 + D cancels: its error is relative to 1, not to phi.
So cf values (``eval_cf``, ``eval_cf_grid``) are 1 + D wherever
|1 + D| >= 1/2 and come from the value form elsewhere:

* atomic and empirical laws sum  w exp(i xi x)  over the atoms;
* closed-form families use exp(-var xi^2 / 2), sin(t)/t, 1/(1 + t^2) and
  1/(1 - i xi/rate), each times the phase of its location;
* squaring chains carry D while |1 + D| >= 1/2 and square the value from
  the first step where it drops below 1/2;
* convolution products multiply the values of their parts, and affine
  images take the base value at the scaled argument times the shift phase.

Affine images and squaring chains scale the argument; the value form gets
the scaled argument as hi + lo, the rounded product and its error, because
near a zero of sin the uniform's sin(t)/t loses every digit to a rounded t.
The other forms take hi alone.

The value form keeps the relative error of phi within a few (1 + |ln phi|)
machine epsilons where phi -> 0.  heavy_cubic has no value form and stays
on 1 + D.  Sums over atoms run atom by atom in a fixed order, so a value at
one point never depends on which other points are evaluated with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .errors import CharFnBoundError, MeasureError, MomentUnavailableError
from .measures import (
    Affine,
    Atomic,
    CfLevel,
    ConvPower,
    ConvProduct,
    Empirical,
    Measure,
    Parametric,
    abs_moment_bound,
    cumulants,
    moment,
)

__all__ = [
    "CharFn",
    "TaylorData",
    "cf_deviation",
    "eval_cf",
    "eval_cf_grid",
    "taylor_data",
    "empirical_cf",
    "char_fn",
]

MODULUS_SLACK = 1e-12
_SERIES_CUT = 0.1
_CHUNK = 1 << 22
# samples per cache-sized block of a dense empirical cf chunk
_ROW_BLOCK = 512
# below this |phi| the cf value comes from the value form, not from 1 + D
_VALUE_CUT = 0.5


def _sin_rem(t: np.ndarray) -> np.ndarray:
    """sin(t) - t, accurate relative to its own O(t^3) size."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < _SERIES_CUT
    ts = t[small]
    t2 = ts * ts
    out[small] = ts * t2 * (
        -1.0 / 6.0 + t2 * (1.0 / 120.0 + t2 * (-1.0 / 5040.0 + t2 / 362880.0))
    )
    tl = t[~small]
    out[~small] = np.sin(tl) - tl
    return out


def _cos_rem(t: np.ndarray) -> np.ndarray:
    """cos(t) - 1 without cancellation."""
    s = np.sin(0.5 * np.asarray(t, dtype=float))
    return -2.0 * s * s


def _cexpm1(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """exp(re + i*im) - 1, accurate for small arguments."""
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    er = np.expm1(re)
    return (er * np.cos(im) + _cos_rem(im)) + 1j * ((1.0 + er) * np.sin(im))


def _combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deviation of a product of cfs from the factor deviations."""
    return a + b + a * b


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


def _atom_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * rows[j], accumulated atom by atom in order.

    The summation order depends only on the atoms, never on how many points
    a row holds; a BLAS product chooses its order by the shape.
    """
    acc = weights[0] * rows[0]
    for w, row in zip(weights[1:], rows[1:]):
        acc += w * row
    return acc


def _dev_atomic(positions, weights, mean, xi):
    t = np.multiply.outer(positions, xi)
    re = _atom_sum(weights, _cos_rem(t))
    im = xi * mean + _atom_sum(weights, _sin_rem(t))
    return re + 1j * im


def _phi_atomic(positions, weights, xi):
    t = np.multiply.outer(positions, xi)
    return _atom_sum(weights, np.cos(t)) + 1j * _atom_sum(weights, np.sin(t))


def _chunked(fn, n: int, xi: np.ndarray) -> np.ndarray:
    """fn over slices of xi, each with at most _CHUNK point-sample pairs."""
    if xi.size * n <= _CHUNK:
        return fn(xi)
    step = max(1, _CHUNK // n)
    out = np.empty(xi.shape, dtype=complex)
    for k in range(0, xi.size, step):
        out[k : k + step] = fn(xi[k : k + step])
    return out


def _dev_parametric(family: str, p: tuple, xi: np.ndarray) -> np.ndarray:
    if family == "gaussian":
        mu, var = p
        body = np.expm1(-0.5 * var * xi * xi) + 0j
        if mu == 0.0:
            return body
        return _combine(body, _cexpm1(np.zeros_like(xi), mu * xi))
    if family == "uniform":
        a, b = p
        half = 0.5 * (b - a)
        center = 0.5 * (a + b)
        t = half * xi
        body = _sin_rem(t) / _nonzero(t) + 0j
        if center == 0.0:
            return body
        return _combine(body, _cexpm1(np.zeros_like(xi), center * xi))
    if family == "laplace":
        loc, b = p
        t2 = (b * xi) ** 2
        body = -t2 / (1.0 + t2) + 0j
        if loc == 0.0:
            return body
        return _combine(body, _cexpm1(np.zeros_like(xi), loc * xi))
    if family == "exponential":
        rate, shift = p
        if shift * rate == -1.0:
            # centred case exp(-it)/(1-it) - 1: the linear terms of the two
            # factors cancel, so fold them analytically to keep the O(t^3)
            # imaginary part accurate after deep squaring chains
            t = xi / rate
            return (_cos_rem(t) - 1j * _sin_rem(t)) / (1.0 - 1j * t)
        w = 1j * (xi / rate)
        body = w / (1.0 - w)
        if shift == 0.0:
            return body
        return _combine(body, _cexpm1(np.zeros_like(xi), shift * xi))
    if family == "heavy_cubic":
        # the closed form cancels at large t and no value form is known, so
        # cf values of this law are 1 + D even where they are small
        t = np.abs(xi) / math.sqrt(3.0)
        si = sici(t)[0]
        return (
            _cos_rem(t)
            - 0.5 * t * np.sin(t)
            - 0.5 * t * t * np.cos(t)
            + 0.5 * t**3 * (0.5 * math.pi - si)
        ) + 0j
    raise MeasureError(f"unknown family {family!r}")


def _dev(m: Measure, xi: np.ndarray) -> np.ndarray:
    if isinstance(m, Atomic):
        pos, ws = m.positions, m.weights
        return _dev_atomic(pos, ws, float(np.dot(ws, pos)), xi)
    if isinstance(m, Parametric):
        return _dev_parametric(m.family, m.params, xi)
    if isinstance(m, Empirical):
        x = m.samples
        ws = np.full(x.size, 1.0 / x.size)
        mean = float(np.mean(x))
        return _chunked(lambda p: _dev_atomic(x, ws, mean, p), x.size, xi)
    if isinstance(m, CfLevel):
        d = _dev(m.base, xi * 2.0 ** (-m.count / 2.0))
        for _ in range(m.count):
            d = 2.0 * d + d * d
        return d
    if isinstance(m, ConvProduct):
        out = _dev(m.parts[0], xi)
        for part in m.parts[1:]:
            out = _combine(out, _dev(part, xi))
        return out
    if isinstance(m, ConvPower):
        base = _dev(m.base, xi)
        acc = None
        k = m.n
        while k:
            if k & 1:
                acc = base if acc is None else _combine(acc, base)
            k >>= 1
            if k:
                base = 2.0 * base + base * base
        return acc
    if isinstance(m, Affine):
        d = _dev(m.base, m.scale * xi)
        if m.shift == 0.0:
            return d
        return _combine(d, _cexpm1(np.zeros_like(xi), m.shift * xi))
    raise MeasureError(f"unsupported representation {type(m).__name__}")


def cf_deviation(m: Measure, xi) -> np.ndarray:
    """phi_m(xi) - 1 as a complex array, exact zero at xi = 0."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = _dev(m, arr)
    zero = arr == 0.0
    if np.any(zero):
        out = np.where(zero, 0.0 + 0.0j, out)
    peak = float(np.max(np.abs(1.0 + out))) if out.size else 0.0
    if peak > 1.0 + MODULUS_SLACK:
        raise CharFnBoundError(
            f"|phi| reached {peak!r} > 1 + {MODULUS_SLACK} for {type(m).__name__}"
        )
    return out


def _phi_parametric(family: str, p: tuple, xi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    if family == "gaussian":
        mu, var = p
        body, loc = np.exp(-0.5 * var * xi * xi) + 0j, mu
    elif family == "uniform":
        a, b = p
        # sin(t)/t needs t = half * (xi + lo) exactly: near a zero of sin its
        # relative error is that of t times t / |sin t|
        half = 0.5 * (b - a)
        t, tlo = _two_prod(half, xi)
        tlo = tlo + half * lo
        sinc = (np.sin(t) + tlo * np.cos(t)) / _nonzero(t)
        body, loc = np.where(t == 0.0, 1.0, sinc) + 0j, 0.5 * (a + b)
    elif family == "laplace":
        loc, b = p
        body = 1.0 / (1.0 + (b * xi) ** 2) + 0j
    elif family == "exponential":
        rate, loc = p
        body = 1.0 / (1.0 - 1j * (xi / rate))
    elif family == "heavy_cubic":
        return 1.0 + _dev_parametric(family, p, xi)
    else:
        raise MeasureError(f"unknown family {family!r}")
    return body if loc == 0.0 else body * _phase(loc * xi)


def _level_scale(count: int) -> tuple[float, float]:
    """2^(-count/2) as hi + lo: hi is the rounded value, lo its error.

    hi^2 = p + e exactly, and 2^-count - p is exact because p is that close
    to it, so lo = (2^-count - hi^2) / (2 hi) to about eps^2 relative.
    """
    hi = 2.0 ** (-count / 2.0)
    p, e = _two_prod(hi, hi)
    return hi, ((2.0**-count - p) - e) / (2.0 * hi)


def _scaled(c: float, clo: float, xi: np.ndarray, lo: np.ndarray):
    """(c + clo) * (xi + lo) as hi + lo, dropping only the product clo * lo."""
    hi, plo = _two_prod(c, xi)
    return hi, plo + (c * lo + clo * xi)


def _phi(m: Measure, xi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """phi_m(xi + lo) in value form, accurate relative to |phi| where it is small.

    xi + lo is the argument carried to double length through affine and
    level scalings; only the uniform's sin(t)/t needs lo, every other form
    takes the argument xi.
    """
    if isinstance(m, Atomic):
        return _phi_atomic(m.positions, m.weights, xi)
    if isinstance(m, Parametric):
        return _phi_parametric(m.family, m.params, xi, lo)
    if isinstance(m, Empirical):
        x = m.samples
        ws = np.full(x.size, 1.0 / x.size)
        return _chunked(lambda p: _phi_atomic(x, ws, p), x.size, xi)
    if isinstance(m, CfLevel):
        arg, arg_lo = _scaled(*_level_scale(m.count), xi, lo)
        return _pair_power(_pair(m.base, arg, arg_lo), 2**m.count)[1]
    if isinstance(m, ConvProduct):
        out = _phi(m.parts[0], xi, lo)
        for part in m.parts[1:]:
            out = out * _phi(part, xi, lo)
        return out
    if isinstance(m, ConvPower):
        return _pair_power(_pair(m.base, xi, lo), m.n)[1]
    if isinstance(m, Affine):
        out = _phi(m.base, *_scaled(m.scale, 0.0, xi, lo))
        return out if m.shift == 0.0 else out * _phase(m.shift * xi)
    raise MeasureError(f"unsupported representation {type(m).__name__}")


def _value(m: Measure, xi: np.ndarray, d: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """phi_m(xi) from its deviation d: 1 + d, or the value form where |1 + d| < 1/2."""
    v = 1.0 + d
    low = np.abs(v) < _VALUE_CUT
    if np.any(low):
        v[low] = _phi(m, xi[low], lo[low])
    return v


def _pair(m: Measure, xi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = _dev(m, xi)
    return d, _value(m, xi, d, lo)


def _pair_mul(a, b):
    """(deviation, value) of a product of cfs.

    The value is 1 + D while both factors have |phi| >= 1/2 and the product
    of the factor values once one of them drops below.
    """
    d = _combine(a[0], b[0])
    low = (np.abs(a[1]) < _VALUE_CUT) | (np.abs(b[1]) < _VALUE_CUT)
    return d, np.where(low, a[1] * b[1], 1.0 + d)


def _pair_power(pair, n: int):
    acc = None
    while n:
        if n & 1:
            acc = pair if acc is None else _pair_mul(acc, pair)
        n >>= 1
        if n:
            pair = _pair_mul(pair, pair)
    return acc


def _cf_values(m: Measure, xi) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    return _value(m, arr, cf_deviation(m, arr), np.zeros_like(arr))


def eval_cf(m: Measure, xi):
    """phi_m(xi) = E exp(i X xi); complex scalar for scalar xi.

    Accurate relative to |phi| where phi is small (see the module notes), and
    identical bit for bit to the value eval_cf_grid gives at the same point.
    """
    if np.isscalar(xi) or getattr(xi, "ndim", 1) == 0:
        return complex(_cf_values(m, [float(xi)])[0])
    return _cf_values(m, xi)


def eval_cf_grid(m: Measure, grid) -> np.ndarray:
    """Pointwise cf values over a GridSpec or an explicit array of points.

    Each value is identical bit for bit to eval_cf at that point alone.
    """
    pts = grid.points() if hasattr(grid, "points") else np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise MeasureError("cf grid must be nonempty")
    return _cf_values(m, pts)


@dataclass(frozen=True)
class CharFn:
    """An evaluable characteristic function with its source measure."""

    source: Measure
    closed_form: bool

    def __call__(self, xi):
        return eval_cf(self.source, xi)


def _is_closed_form(m: Measure) -> bool:
    if isinstance(m, (Atomic, Parametric)):
        return True
    if isinstance(m, Empirical):
        return False
    if isinstance(m, ConvProduct):
        return all(_is_closed_form(p) for p in m.parts)
    if isinstance(m, (CfLevel, ConvPower, Affine)):
        return _is_closed_form(m.base)
    return False


def char_fn(m: Measure) -> CharFn:
    return CharFn(m, _is_closed_form(m))


@dataclass(frozen=True)
class TaylorData:
    """Cubic Taylor coefficients of the cf at 0 plus a certified radius.

    remainder_radius is the largest dyadic r <= 1 such that
    |phi(xi) - (1 + i*mean*xi - m2*xi^2/2 - i*m3*xi^3/6)| <= 0.05 |xi|^3 E|X|^3
    holds on a symmetric grid of 1e-3-spaced samples up to |xi| = r.
    """

    mean: float
    variance: float
    third_signed: float
    remainder_radius: float


def taylor_data(m: Measure) -> TaylorData:
    """Certify the cubic Taylor model of the cf near zero."""
    k1, k2, _, _ = cumulants(m)
    m2 = moment(m, 2)
    m3 = moment(m, 3)
    abs3 = abs_moment_bound(m, 3)
    if not math.isfinite(abs3):
        raise MomentUnavailableError(
            "taylor data needs a finite third absolute moment"
        )
    radius = 1.0
    while radius >= 2.0**-9:
        xi = np.arange(1e-3, radius + 1e-12, 1e-3)
        xi = np.concatenate([-xi[::-1], xi])
        model = 1j * k1 * xi - 0.5 * m2 * xi**2 - 1j * m3 * xi**3 / 6.0
        err = np.abs(cf_deviation(m, xi) - model)
        if np.all(err <= 0.05 * np.abs(xi) ** 3 * abs3):
            return TaylorData(k1, k2, m3, radius)
        radius *= 0.5
    raise MeasureError("no dyadic radius >= 2^-9 certifies the cubic model")


def _dense_sums(x: np.ndarray, cols: np.ndarray, step: int):
    """Column sums of cos and sin of outer(x, cols), added chunk by chunk.

    Each chunk of step samples is reduced over its rows, and the chunk sums
    are added to the totals in order.  numpy reduces axis 0 of a C-ordered
    array with two or more columns row by row, so a chunk is computed in
    blocks of _ROW_BLOCK rows that stay in cache: the running sums of the
    blocks before sit in row 0 of the next block, and the rows are added in
    exactly the order of one pass over the whole chunk.  One column reduces
    pairwise instead, so it is computed a whole chunk at a time.
    """
    block = _ROW_BLOCK if cols.size > 1 else step
    rows = min(block, x.size)
    ph = np.empty((rows, cols.size))
    c = np.empty((rows + 1, cols.size))
    s = np.empty((rows + 1, cols.size))
    re = np.zeros(cols.size)
    im = np.zeros(cols.size)
    for k in range(0, x.size, step):
        chunk = x[k : k + step]
        for j in range(0, chunk.size, block):
            b = min(block, chunk.size - j)
            np.multiply.outer(chunk[j : j + b], cols, out=ph[:b])
            np.cos(ph[:b], out=c[1 : b + 1])
            np.sin(ph[:b], out=s[1 : b + 1])
            top = 0 if j else 1  # the first block of a chunk has no carry
            c[0] = c[top : b + 1].sum(axis=0)
            s[0] = s[top : b + 1].sum(axis=0)
        re += c[0]
        im += s[0]
    return re, im


def empirical_cf(samples, xi):
    """Sample-average cf (1/N) sum exp(i x_j xi).

    The sums run only at the distinct |xi|, and phi(-xi) = conj phi(xi)
    fills in the rest.  That is exact in floating point: x * (-xi) is
    -(x * xi), and numpy's cos and sin are even and odd bit for bit.
    Lattice-valued samples are compressed to distinct values first, which is
    an exact regrouping.  Dense samples are summed in chunks of
    _CHUNK // xi.size samples, xi.size counting every point asked for, and
    each chunk in cache-sized row blocks that add the samples in the same
    order as one pass over the chunk (see _dense_sums).  A value therefore
    has the same bits as a direct sum over the points asked for.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise MeasureError("empirical cf needs a nonempty sample")
    scalar = np.isscalar(xi) or getattr(xi, "ndim", 1) == 0
    pts = np.atleast_1d(np.asarray(xi, dtype=float))
    mag, inv = np.unique(np.abs(pts), return_inverse=True)
    vals, counts = np.unique(x, return_counts=True)
    if vals.size <= 4096:
        ph = np.multiply.outer(mag, vals)
        wts = counts.astype(float)
        re = (np.cos(ph) * wts).sum(axis=1)
        im = (np.sin(ph) * wts).sum(axis=1)
    else:
        # several points share one |xi|: keep two columns, so the chunk
        # still reduces row by row as it does over the points asked for
        cols = mag if mag.size > 1 or pts.size == 1 else np.repeat(mag, 2)
        re, im = _dense_sums(x, cols, max(1, _CHUNK // pts.size))
    re, im = re[inv], im[inv]
    np.negative(im, out=im, where=pts < 0)
    out = (re + 1j * im) / x.size
    return complex(out[0]) if scalar else out
