"""Characteristic function evaluation in two forms: deviation and value.

Distances and structural checks work with the deviation D(xi) = phi(xi) - 1
rather than phi itself.  Near xi = 0 the interesting information in phi sits
many digits below 1 (the imaginary part of phi for a centred law is
O(xi^3)), and the metric layer divides differences of cf values by |xi|^s,
so plain complex evaluation would amplify representation noise by up to 1e9
on the default grid.  Deviations avoid that:

* atomic laws use  cos(t) - 1 = -2 sin^2(t/2)  and a series kernel for
  sin(t) - t per distinct |x|, the exact linear term split off by the mean;
* closed-form families use their rows of the _families table, where each
  family's deviation and value are stated;
* convolution products combine deviations via  (1+a)(1+b) - 1 = a + b + ab;
* a normalized sum of n copies takes its base's deviation d at
  xi n^{-1/2} to the n-th power by binary powering: squarings
  d -> 2 d + d^2 and products as above, so n = 2^k, the k-th
  renormalization step, is k squarings.

Each rule keeps errors relative to the deviation itself, so cf differences
stay accurate to ~1e-14 relative after 40 renormalization steps (n = 2^40).
For an atomic base that holds only where its float mean np.dot(ws, pos) is
exact, as for the bank's laws: otherwise the rounding of the split-off
linear term is carried 2^(k/2) times through k squarings, and centred,
reduced random 2-12-atom laws reach about 1.6e-7 relative at depth 40.

Where phi is small, 1 + D cancels: its error is relative to 1, not to phi.
So cf values (``eval_cf_grid``) are 1 + D wherever |1 + D| >= 1/2 and come
from the value form elsewhere:

* atomic laws sum  w exp(i xi x)  over the atoms;
* closed-form families take the value of their row, times the phase of its
  location;
* normalized sums carry D through the binary power while |1 + D| >= 1/2
  and multiply values from the first factor where it drops below 1/2;
* convolution products multiply the values of their parts.

A normalized sum scales the argument; the value form gets the scaled
argument as hi + lo, the rounded product and its error, because near a
zero of sin the uniform's sin(t)/t loses every digit to a rounded t.  The
scale n^{-1/2} is itself carried as hi + lo (_sum_scale).  The other forms
take hi alone.

The value form keeps the relative error of phi within a few (1 + |ln phi|)
machine epsilons where phi -> 0; the Student t3 law's value (1 + a) e^-a
stays within 3 epsilons of phi wherever phi is a normal float (see _families).
Sums over atoms run atom by atom in a fixed order, so a value at one point
never depends on which other points are evaluated with it.

An atomic deviation's imaginary part, xi mean + sum w (sin t - t), cancels
terms of size |t| = |x xi|, so at the points where some atom has
|t| > _REMAINDER_T_MAX = 256 it is sum w sin t instead.  Arguments beyond
XI_ABS_MAX = 1e100, the largest grid point, and NaN are refused, and so is
a deviation with |1 + D| above 1 + MODULUS_SLACK or not finite.

Every function here is pure: the sharing of deviations within a run is
the metric layer's (metrics module notes).

EmpiricalCf is the empirical cf of samples fed to it chunk by chunk, the
Monte Carlo oracle's (mc): exact over a histogram of lattice samples,
through binned moments for dense ones.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _families
from ._families import _combine, _cos_rem, _phase, _phase_dev, _sin_rem, _two_prod
from .errors import CharFnBoundError, MeasureError
from .measures import Atomic, ConvProduct, Measure, NormalizedSum, Parametric

__all__ = [
    "cf_deviation",
    "eval_cf_grid",
    "EmpiricalCf",
]

MODULUS_SLACK = 1e-12
_CHUNK = 1 << 22
# magnitude-point cells per block of atoms in an atomic cf sum (_atom_sums)
_ROW_CELLS = 1 << 13
# samples per cache-sized block of a dense empirical cf chunk
_ROW_BLOCK = 512
# samples with at most this many distinct values are summed value by value
_LATTICE_MAX = 4096
# binned moments: series terms, bin-point cells per block, and the largest
# |x| / h that is binned
_MOMENTS = 12
_FACTORIALS = np.array([[math.factorial(p)] for p in range(_MOMENTS)], dtype=float)
_MOMENT_ROWS = 1 << 13
_BIN_SPAN_MAX = 2.0**40
# below this |phi| the cf value comes from the value form, not from 1 + D
_VALUE_CUT = 0.5
# |t| = |x xi| beyond which an atomic deviation's imaginary part is
# sum w sin t (module notes); the built-in configs on the default grid
# reach |t| = 200, so their reports keep the remainder form's bits
_REMAINDER_T_MAX = 256.0
# cf arguments are refused beyond the largest grid point, 1e100: every form
# stays finite there (xi^2 overflows near 1e154)
XI_ABS_MAX = 1e100


def _atom_sums(positions, weights, xi, even, odd) -> list[np.ndarray]:
    """sum_j weights[j] * fn(positions[j] * xi) for fn = even, odd, atom by atom in order.

    Each kernel runs once per distinct |x| in a block of atoms: even(x xi) is
    even(|x| xi), and odd(x xi) is -odd(|x| xi) where x has its sign bit set,
    to the bit, as numpy's cos and sin are (tests/test_charfn.py checks it).
    even may be None.  A block holds at most _ROW_CELLS magnitude-point
    cells: the whole law when its distinct |x| fit, else cells / points atoms.
    The summation order depends only on the atoms, not the blocks, where a
    BLAS product would choose its order by the shape.
    """
    cap = max(1, _ROW_CELLS // max(xi.size, 1))
    mags = np.abs(positions).tolist()
    step = positions.size if len(set(mags)) <= cap else cap
    signed = np.where(np.signbit(positions), -weights, weights)
    buf = np.empty_like(xi)
    sums: list = [None, None]
    for a in range(0, positions.size, step):
        rows = {m: r for r, m in enumerate(dict.fromkeys(mags[a : a + step]))}
        t = np.multiply.outer(list(rows), xi)
        vals = np.empty_like(t)
        for i, fn, ws in ((0, even, weights), (1, odd, signed)):
            if fn is None:
                continue
            fn(t, out=vals)
            for w, m in zip(ws[a : a + step], mags[a : a + step]):
                term = np.multiply(w, vals[rows[m]], out=buf)
                if sums[i] is None:
                    sums[i] = term.copy()
                else:
                    sums[i] += term
    return sums


def _dev_atomic(positions, weights, mean, span, xi):
    """Deviation of sum w exp(i xi x) with mean sum w x and span max |x|.

    The points beyond _REMAINDER_T_MAX / span take sum w sin t as the
    imaginary part (module notes), the others the remainder form; each
    point's sums are those of its form alone, whichever points share the call.
    """
    lim = _REMAINDER_T_MAX / span if span else math.inf
    if not xi.size or (xi.max() <= lim and xi.min() >= -lim):
        re, im = _atom_sums(positions, weights, xi, _cos_rem, _sin_rem)
        im += xi * mean
        return re + 1j * im
    far = np.abs(xi) > lim
    near = ~far
    dev = np.empty(xi.shape, dtype=complex)
    re, im = _atom_sums(positions, weights, xi[far], _cos_rem, np.sin)
    dev[far] = re + 1j * im
    re, im = _atom_sums(positions, weights, xi[near], _cos_rem, _sin_rem)
    im += xi[near] * mean
    dev[near] = re + 1j * im
    return dev


def _dev_parametric(family: str, p: tuple, xi: np.ndarray) -> np.ndarray:
    body, loc = _families.row(family).deviation(p, xi)
    if loc == 0.0:
        return body
    return _combine(body, _phase_dev(loc * xi))


def _square(d: np.ndarray, sq: np.ndarray | None):
    """2 d + d^2, the deviation of the squared cf, with the roundings of 2 d + d*d.

    Without scratch sq the result and d^2 are new arrays and d is left
    alone; with it, d is overwritten and sq takes d^2.  Returns (d, sq).
    """
    if sq is None:
        sq = d * d
        d = 2.0 * d
    else:
        np.multiply(d, d, out=sq)
        d *= 2.0
    d += sq
    return d, sq


def _product(devs) -> np.ndarray:
    """The deviation of a product of cfs from the deviations of its factors, in order."""
    return functools.reduce(_combine, devs)


def _dev(m: Measure, xi: np.ndarray) -> np.ndarray:
    """phi_m(xi) - 1."""
    if isinstance(m, Atomic):
        pos, ws = m.positions, m.weights
        # the positions ascend, so the largest |x| is at an end
        span = max(-pos[0], pos[-1])
        return _dev_atomic(pos, ws, float(np.dot(ws, pos)), span, xi)
    if isinstance(m, Parametric):
        return _dev_parametric(m.family, m.params, xi)
    if isinstance(m, ConvProduct):
        return _product(_dev(part, xi) for part in m.parts)
    if isinstance(m, NormalizedSum):
        base, sq = _dev(m.base, xi * m.n**-0.5), None
        acc = None
        k = m.n
        while k:
            if k & 1:
                acc = base if acc is None else _combine(acc, base)
            k >>= 1
            if k:  # square in place only once acc no longer holds base
                base, sq = _square(base, None if acc is base else sq)
        return acc
    raise MeasureError(f"unsupported representation {type(m).__name__}")


def _checked(m: Measure, dev: np.ndarray) -> np.ndarray:
    """dev, once |1 + dev| <= 1 + MODULUS_SLACK holds at every point; NaN fails."""
    peak = float(np.max(np.abs(1.0 + dev))) if dev.size else 0.0
    if not peak <= 1.0 + MODULUS_SLACK:
        raise CharFnBoundError(
            f"|phi| reached {peak!r} > 1 + {MODULUS_SLACK} for {type(m).__name__}"
        )
    return dev


def cf_deviation(m: Measure, xi) -> np.ndarray:
    """phi_m(xi) - 1 as a complex array, exact zero at xi = 0.

    Raises MeasureError for |xi| > XI_ABS_MAX and for NaN, and
    CharFnBoundError where |phi| exceeds 1 + MODULUS_SLACK or is not finite.
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.size and not (-XI_ABS_MAX <= arr.min() and arr.max() <= XI_ABS_MAX):
        raise MeasureError(f"cf arguments must lie within ±{XI_ABS_MAX:g}")
    out = _dev(m, arr)
    if not arr.all():  # some xi is zero
        out = np.where(arr == 0.0, 0.0 + 0.0j, out)
    return _checked(m, out)


def _phi_parametric(family: str, p: tuple, xi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    body, loc = _families.row(family).value(p, xi, lo)
    return body if loc == 0.0 else body * _phase(loc * xi)


def _sum_scale(n: int) -> tuple[float, float]:
    """n^(-1/2) as hi + lo: hi is the rounded value, lo its error.

    hi^2 = p + e and n p = q + f exactly, and 1 - q is exact because q is
    that close to 1, so lo = (1 - n hi^2) / (2 n hi) to about eps^2
    relative.  At n = 2^k every step is exact or scaled by a power of two,
    so the pair is that of (2^-k - p - e) / (2 hi).
    """
    hi = n**-0.5
    p, e = _two_prod(hi, hi)
    q, f = _two_prod(float(n), p)
    return hi, (((1.0 - q) - f) - n * e) / (2.0 * n * hi)


def _phi(m: Measure, xi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """phi_m(xi + lo) in value form, accurate relative to |phi| where it is small.

    xi + lo is the argument carried to double length through normalized-sum
    scalings; only the uniform's sin(t)/t needs lo, every other form takes
    the argument xi.
    """
    if isinstance(m, Atomic):
        re, im = _atom_sums(m.positions, m.weights, xi, np.cos, np.sin)
        return re + 1j * im
    if isinstance(m, Parametric):
        return _phi_parametric(m.family, m.params, xi, lo)
    if isinstance(m, ConvProduct):
        out = _phi(m.parts[0], xi, lo)
        for part in m.parts[1:]:
            out = out * _phi(part, xi, lo)
        return out
    if isinstance(m, NormalizedSum):
        # (c + clo) (xi + lo) as hi + lo, dropping only the product clo lo
        c, clo = _sum_scale(m.n)
        arg, arg_lo = _two_prod(c, xi)
        return _pair_power(_pair(m.base, arg, arg_lo + (c * lo + clo * xi)), m.n)[1]
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


def eval_cf_grid(m: Measure, xi) -> np.ndarray:
    """phi_m(xi) = E exp(i X xi) at the points xi.

    Accurate relative to |phi| where phi is small (see the module notes).
    Each value is identical bit for bit to the value at that point alone.
    """
    pts = np.atleast_1d(np.asarray(xi, dtype=float))
    if pts.size == 0:
        raise MeasureError("cf grid must be nonempty")
    return _value(m, pts, cf_deviation(m, pts), np.zeros_like(pts))


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


def _exact_dense(x, mag, npts):
    """Cos and sin sums over every sample at the distinct |xi| mag, of npts points in all.

    The chunks hold _CHUNK // npts samples, so the sums have the bits of a
    direct sum over every point.
    """
    # several points share one |xi|: keep two columns, so the chunk still
    # reduces row by row as it does over the points asked for
    cols = mag if mag.size > 1 or npts == 1 else np.repeat(mag, 2)
    re, im = _dense_sums(x, cols, max(1, _CHUNK // npts))
    return re[: mag.size], im[: mag.size]


class EmpiricalCf:
    """The empirical cf of samples added chunk by chunk, in memory that does not grow with them.

    EmpiricalCf(xi) takes an array of points xi.  add(chunk) takes the next
    samples; value() is (1/N) sum exp(i x_j xi) over the N so far;
    add_histogram(values, counts) takes samples as their histogram.  The
    sums run only at the distinct |xi|, and phi(-xi) = conj phi(xi) fills in
    the rest, exactly: x * (-xi) is -(x * xi), and numpy's cos and sin are
    even and odd bit for bit.

    Up to _LATTICE_MAX distinct values the sums run over a histogram of
    exact counts, an exact regrouping.  Past that, the histogram and each
    later chunk get binned moments, so value() pays no sum over the
    histogram's values: for x = k h + u, k = rint(x / h),
    exp(i xi x) = exp(i xi k h) sum_p (i xi u)^p / p!, and with
    h = 1 / max|xi| the series cut after _MOMENTS = 12 terms errs by at most
    (1/2)^12 / 12! < 5.1e-13 per sample (|x| / h below _BIN_SPAN_MAX moves
    that by under 1%).  The table of moments grows with the bins seen while
    no wider than the samples so far; histogram values it cannot take stay
    in the histogram.  Samples it cannot take get _exact_dense: chunks of
    _CHUNK // xi.size samples, xi.size counting every point, in cache-sized
    row blocks that add them in the order of one pass over the chunk
    (_dense_sums), so their part of a value has the bits of a direct sum
    over the points.  Dense values depend, within rounding, on the chunks.
    The points must hold one other than 0, which sets h.
    """

    def __init__(self, xi):
        self._pts = np.asarray(xi, dtype=float)
        self._mag, self._inv = np.unique(np.abs(self._pts), return_inverse=True)
        if not (self._mag.size and self._mag[-1] > 0.0):  # NaN sorts last and fails too
            raise MeasureError("empirical cf needs a point other than 0")
        self._h = 1.0 / self._mag[-1]
        self._n, self._dense = 0, False
        self._vals, self._counts = np.empty(0), np.empty(0)
        self._moments, self._k_lo, self._k_hi = np.zeros((_MOMENTS, 0)), math.inf, -math.inf
        self._exact = np.zeros((2, self._mag.size))

    def add(self, chunk) -> EmpiricalCf:
        x = np.asarray(chunk, dtype=float).ravel()
        self._n += x.size
        if not self._dense:
            # the chunk's distinct values are looked up in the histogram, which
            # is merged again only when the chunk brings a new one (a lookup
            # of every sample is slower than numpy's sort)
            v, c = np.unique(x, return_counts=True)
            at = np.searchsorted(self._vals, v)
            if (at < self._vals.size).all() and (self._vals[at] == v).all():
                self._counts[at] += c
                return self
            vals, inv = np.unique(np.concatenate((self._vals, v)), return_inverse=True)
            if vals.size <= _LATTICE_MAX:
                self._vals = vals
                self._counts = np.bincount(inv, weights=np.concatenate((self._counts, c)))
                return self
            self._dense = True
            if self._vals.size:
                # the histogram joins the moments, its counts as weights, and
                # keeps only the values no bin takes
                rest = self._bin(self._vals, self._counts.copy())
                self._vals, self._counts = self._vals[rest], self._counts[rest]
        rest = self._bin(x, np.ones(x.size))
        if rest.any():
            self._exact += _exact_dense(x[rest], self._mag, self._pts.size)
        return self

    def _bin(self, x, w):
        """Add the samples x, of weights w (overwritten), to the binned moments.

        Returns the mask of the samples no bin takes: those beyond
        _BIN_SPAN_MAX bins, and those outside the table when it may not grow.
        """
        k = x / self._h
        fit = np.abs(k) < _BIN_SPAN_MAX
        np.rint(k, out=k)
        lo = min(self._k_lo, k.min(where=fit, initial=math.inf))
        hi = max(self._k_hi, k.max(where=fit, initial=-math.inf))
        if hi - lo > self._n:  # no table wider than the samples so far
            fit &= (k >= self._k_lo) & (k <= self._k_hi)
        elif (lo, hi) != (self._k_lo, self._k_hi):
            grown = np.zeros((_MOMENTS, int(hi - lo) + 1))
            if self._moments.size:
                grown[:, int(self._k_lo - lo) : int(self._k_hi - lo) + 1] = self._moments
            self._moments, self._k_lo, self._k_hi = grown, lo, hi
        rest = ~fit
        if rest.any():
            x, k, w = x[fit], k[fit], w[fit]
        if not x.size:
            return rest
        u = x - k * self._h
        k0, k1 = k.min(), k.max()
        if k1 - k0 <= x.size:  # count over the bins the samples span
            bins = (k - k0).astype(np.intp)
            cols = slice(int(k0 - self._k_lo), int(k1 - self._k_lo) + 1)
        else:  # or over the bins they hit, when those are sparse
            ks, bins = np.unique(k, return_inverse=True)
            cols = (ks - self._k_lo).astype(np.intp)
        for row in range(_MOMENTS):
            self._moments[row, cols] += np.bincount(bins, weights=w)
            w *= u
        return rest

    def add_histogram(self, values, counts) -> EmpiricalCf:
        """add(np.repeat(values, counts)), the histogram merged as it is while the exact one holds.

        values are the samples' distinct values, counts their integer counts.
        """
        if not self._dense:
            vals, inv = np.unique(np.concatenate((self._vals, values)), return_inverse=True)
            if vals.size <= _LATTICE_MAX:
                self._vals = vals
                self._counts = np.bincount(inv, weights=np.concatenate((self._counts, counts)))
                self._n += int(np.sum(counts))
                return self
        return self.add(np.repeat(values, counts))

    def value(self) -> np.ndarray:
        """The cf at the points xi."""
        if not self._n:
            raise MeasureError("empirical cf needs a nonempty sample")
        ph = np.multiply.outer(self._mag, self._vals)
        re, im = (np.cos(ph) * self._counts).sum(axis=1), (np.sin(ph) * self._counts).sum(axis=1)
        if self._dense:  # an empty histogram's +0.0 moves no bit: _dense_sums are never -0.0
            re, im = re + self._exact[0], im + self._exact[1]
        moments = self._moments / _FACTORIALS
        xi = self._mag[:, None]
        z = -xi * xi
        step = max(1, _MOMENT_ROWS // xi.size)
        for b in range(0, moments.shape[1], step):
            m = moments[:, b : b + step]
            even = odd = 0.0  # sum_p (i xi)^p M[p] = even + i odd, by Horner in -xi^2
            for p in range(_MOMENTS - 2, -1, -2):
                even = even * z + m[p]
                odd = odd * z + m[p + 1]
            odd *= xi
            ph = xi * ((self._k_lo + b + np.arange(m.shape[1])) * self._h)
            c, s = np.cos(ph), np.sin(ph)
            re += (c * even - s * odd).sum(axis=1)
            im += (s * even + c * odd).sum(axis=1)
        re, im = re[self._inv], im[self._inv]
        np.negative(im, out=im, where=self._pts < 0)
        return (re + 1j * im) / self._n
