"""Deterministic Monte Carlo oracle.

Randomness comes from the SplitMix64 finalizer (public-domain constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB) used counter
style: draw i of stream s under seed k is

    mix64( (mix64(k) ^ mix64(s * PHI64)) + PHI64 * (i + 1) )

with pure 64-bit integer arithmetic, so batches are bit-identical across
platforms and runs (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3", for counter-based generation).  Uniforms take the top 52 bits
offset by half an ulp, landing strictly inside (0, 1); parametric laws
invert their CDFs, atomic laws draw categorically.

The generator runs in place: every SplitMix step rewrites one uint64 array,
with a single scratch array for the shifted copies, so no step allocates a
full-size temporary.  Integer arithmetic modulo 2^64 does not depend on how
the steps are grouped, so the bits are those of the formula above.  Atomic
laws with at most _COUNT_EDGES_MAX atoms find the categorical index by
counting the cumulative-weight edges at or below u, which equals the
searchsorted index because the edges never decrease.  A sampler works out
the stream key, edges and positions once, so the 2^k folds of a level-k
draw reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import MeasureError
from .measures import (
    Affine,
    Atomic,
    CfLevel,
    Empirical,
    Measure,
    Parametric,
    require_membership,
)
from .charfn import empirical_cf, eval_cf_grid
from .metrics import GridSpec

__all__ = [
    "SampleBatch",
    "sample",
    "empirical_flow_check",
    "FlowCheck",
    "MAX_SAMPLING_LEVELS",
    "ORACLE_GRID",
]

PHI64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

MAX_SAMPLING_LEVELS = 25
# atomic laws with at most this many atoms draw by counting edges
_COUNT_EDGES_MAX = 8
ORACLE_GRID = GridSpec(1e-3, 50.0, 10)


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _stream_key(seed: int, stream: int) -> int:
    return _mix64_int(seed) ^ _mix64_int((stream * PHI64) & _MASK)


def _uniforms(key: int, start: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1) from counter positions start.. of the stream with key.

    SplitMix runs in place on one uint64 array, with one scratch array for
    the shifted copies that ends up holding the float64 result.  uint64
    arithmetic wraps mod 2^64 like _mix64_int, and key + PHI64 * (start + 1 + i)
    is the same residue as (key + PHI64 * (start + 1)) + PHI64 * i, so the
    bits equal those of the formula in the module notes, counters that wrap
    past 2^64 included.
    """
    z = np.arange(count, dtype=np.uint64)
    scratch = np.empty_like(z)
    z *= np.uint64(PHI64)
    z += np.uint64((key + PHI64 * (start + 1)) & _MASK)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    z >>= np.uint64(12)
    u = scratch.view(np.float64)
    u[...] = z  # exact: z < 2^52
    u += 0.5
    u *= 2.0**-52
    return u


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A reproducible draw: regenerating with the same source/seed/size is bit-identical."""

    source: Measure
    seed: int
    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.size


def _pick(edges: np.ndarray):
    """u -> categorical index: min(searchsorted(edges, u, "right"), len - 1).

    For few atoms the index is the count of inner edges at or below u, which
    is the same number because the edges never decrease, and cheaper than a
    binary search; it fits in a uint8, and numpy gathers by a uint8 index
    faster than by an intp one.
    """
    if edges.size > _COUNT_EDGES_MAX:
        last = edges.size - 1
        return lambda u: np.minimum(np.searchsorted(edges, u, side="right"), last)

    def count(u):
        idx = np.zeros(u.shape, dtype=np.uint8)
        for e in edges[:-1]:
            idx += u >= e
        return idx

    return count


def _invert(fam: str, p: tuple, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a closed-form family at the uniforms u."""
    if fam == "gaussian":
        return p[0] + math.sqrt(p[1]) * ndtri(u)
    if fam == "uniform":
        return p[0] + (p[1] - p[0]) * u
    if fam == "laplace":
        v = u - 0.5
        return p[0] - p[1] * np.sign(v) * np.log1p(-2.0 * np.abs(v))
    if fam == "exponential":
        return p[1] - np.log1p(-u) / p[0]
    if fam == "heavy_cubic":
        sign = np.where(u < 0.5, -1.0, 1.0)
        tail = 1.0 - np.abs(2.0 * u - 1.0)
        return sign * (3.0 * math.sqrt(3.0) * tail) ** (-1.0 / 3.0)
    raise MeasureError(f"unknown family {fam!r}")


def _sampler(m: Measure, seed: int, stream: int):
    """draw(start, n): n draws of m from counter positions start.. of a stream.

    What does not depend on the counter (stream key, cumulative weights,
    positions) is worked out here once, not once per call, so the fold loop
    of a CfLevel pays for it once.
    """
    key = _stream_key(seed, stream)
    if isinstance(m, Atomic):
        pos, pick = m.positions, _pick(np.cumsum(m.weights))
        return lambda start, n: pos[pick(_uniforms(key, start, n))]
    if isinstance(m, Empirical):
        x = m.samples

        def draw(start, n):
            u = _uniforms(key, start, n)
            return x[np.minimum((u * x.size).astype(np.int64), x.size - 1)]

        return draw
    if isinstance(m, Parametric):
        return lambda start, n: _invert(m.family, m.params, _uniforms(key, start, n))
    if isinstance(m, Affine):
        base = _sampler(m.base, seed, stream)
        return lambda start, n: m.shift + m.scale * base(start, n)
    if isinstance(m, CfLevel):
        if m.count > MAX_SAMPLING_LEVELS:
            raise MeasureError(
                f"sampling refuses cf iteration depth {m.count} > "
                f"{MAX_SAMPLING_LEVELS} (2^{m.count} base draws per sample)"
            )
        base = _sampler(m.base, seed, stream)
        folds = 1 << m.count

        def draw(start, n):
            total = np.zeros(n)
            for j in range(folds):
                total += base(start + j * n, n)
            return total * 2.0 ** (-m.count / 2.0)

        return draw
    raise MeasureError(
        f"sampling supports atomic, parametric, empirical, affine and cf-level "
        f"laws, not {type(m).__name__}"
    )


def sample(m: Measure, n: int, seed: int) -> SampleBatch:
    """Draw n values of m, deterministically in (m, n, seed)."""
    if not isinstance(n, int) or n < 1:
        raise MeasureError("sample size must be a positive integer")
    if not isinstance(seed, int) or seed < 0:
        raise MeasureError("seed must be a nonnegative integer")
    return SampleBatch(m, seed, _sampler(m, seed, 0)(0, n))


@dataclass(frozen=True)
class FlowCheck:
    """Empirical-vs-analytic cf agreement along the pairwise-sum flow."""

    ok: bool
    max_deviation: float
    envelope: float
    per_level: tuple[float, ...]


def empirical_flow_check(
    m: Measure,
    levels: int,
    n: int,
    seed: int,
    grid: GridSpec | None = None,
) -> FlowCheck:
    """Compare empirical cfs of pairwise-summed samples with analytic iterates.

    For each level k = 0..levels, n samples of the k-fold pairwise-summed and
    rescaled law are drawn (2^k base draws each, from a per-level stream) and
    their empirical cf is compared on the grid against the analytic cf of the
    k-th iterate.  Passing means every deviation stays within the conservative
    envelope 4/sqrt(n).  The default grid is the coarse ORACLE_GRID; the
    envelope does not depend on grid resolution.
    """
    if not isinstance(levels, int) or not 0 <= levels <= 12:
        raise MeasureError("levels must be an integer in 0..12")
    if not isinstance(n, int) or n < 10**5:
        raise MeasureError("the flow check needs at least 1e5 samples per level")
    require_membership(m, 2, "the empirical flow check")
    grid = grid or ORACLE_GRID
    pts = grid.points()
    envelope = 4.0 / math.sqrt(n)
    devs = []
    for k in range(levels + 1):
        if k == 0:
            level_m = m
        elif isinstance(m, CfLevel):
            level_m = CfLevel(m.base, m.count + k)
        else:
            level_m = CfLevel(m, k)
        draws = _sampler(level_m, seed, k)(0, n)
        ecf = empirical_cf(draws, pts)
        acf = eval_cf_grid(level_m, pts)
        devs.append(float(np.max(np.abs(ecf - acf))))
    worst = max(devs)
    return FlowCheck(worst <= envelope, worst, envelope, tuple(devs))
