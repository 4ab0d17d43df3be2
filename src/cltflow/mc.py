"""Deterministic Monte Carlo oracle.

Randomness comes from the SplitMix64 finalizer (public-domain constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB) used counter
style: draw i of stream s under seed k is

    mix64( (mix64(k) ^ mix64(s * PHI64)) + PHI64 * (i + 1) )

with pure 64-bit integer arithmetic, so batches are bit-identical across
platforms and runs (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3", for counter-based generation).  Uniforms take the top 52 bits
offset by half an ulp, landing strictly inside (0, 1) on multiples of
2^-53; parametric laws invert their CDFs, atomic laws draw categorically.
Each closed-form family's inverse CDF is in its row of the _families table;
a row's transform is made once per block shape, with the buffers it needs.

A draw of a law takes a fixed number of counters, its width: one for an
atomic, empirical or closed-form law (and an affine image of one), and
2^k times the base's width for a level-k CfLevel.  A call for n draws from
counter start gives draw i the counters start + i + t n, t = 0..width-1:
fold j of a CfLevel whose base has width w takes the base's counters from
start + j w n on, so nested levels never draw a counter twice.  For the
flat laws the CLI builds, fold j of draw i is counter start + j n + i.

Draws are made in blocks of cols draws, cols chosen so that the block's
2^k x cols fold counters (_BLOCK_CELLS of them) stay in L2.  Row j of a
block holds fold j's words key + PHI64 (counter + 1): a base array
PHI64 (j w n + i) is built once per block shape, and each block adds one
scalar to it.  SplitMix and the uniform map then run in place on the block,
the base law's transform (categorical index, inverse CDF, empirical index,
affine map) writes the fold values into rows 1.. of a sums block, and one
axis-0 reduction adds the folds.  The bits are those of a loop that starts
from zeros(n) and adds the folds one at a time:

- uint64 arithmetic is modulo 2^64 however the terms are grouped, so the
  words, counters that wrap past 2^64 included, equal the formula above;
- every transform works element by element, so it does not matter how
  the draws are cut into blocks;
- numpy reduces axis 0 of a C-ordered array with two or more columns row
  by row (one column would reduce pairwise, so a call for one draw makes
  two and a last lone column is drawn with the one before), and row 0
  holds +0.0 or, when 2^k rows exceed a block, the running sums of the
  rows before, so each draw's folds are added in the loop's order from
  the loop's +0.0.

Atomic laws with at most _COUNT_EDGES_MAX atoms count edges (_pick).

The flow check adds the parts of a stream (_stream: whole blocks in one
reused buffer, no array of n draws) to a charfn.EmpiricalCf: empirical_cf's
sums, bit for bit, for lattice draws (at most 4096 distinct values), one
cos and sin per distinct value and point; for dense draws a sum over bins
of width 1 / max|xi| through 12 moments each, whose cut series errs by at
most (1/2)^12 / 12! < 5.1e-13 per sample, far inside the envelope
4 / sqrt(n), plus rounding, of order 1e-14 for 1e5 gaussian draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _families
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
from .charfn import EmpiricalCf, eval_cf_grid
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
# the flow check's levels 0..MAX_FLOW_LEVELS, and its fewest draws per level
MAX_FLOW_LEVELS = 12
MIN_FLOW_SAMPLES = 10**5
# counters per block, and about as many draws per part of a stream: their
# few buffers stay in L2 and serve every block and part
_BLOCK_CELLS = 1 << 14
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


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from the words z = key + PHI64 * (counter + 1), in place.

    SplitMix runs on z, with scratch, a uint64 array of z's shape, for the
    shifted copies.  The top 52 bits m become the float 1 + m 2^-52 in z's
    memory, which returns as (1 + m 2^-52) - (1 - 2^-53) = (m + 1/2) 2^-52,
    exact because 2m + 1 < 2^53 makes the difference a float.
    """
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0000000000000)  # the exponent of [1, 2)
    u = z.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def _uniforms(key: int, start: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1) from counter positions start.. of the stream with key."""
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(PHI64)
    z += np.uint64((key + PHI64 * (start + 1)) & _MASK)
    return _mix(z, np.empty_like(z))


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


def _leaf(make):
    """(width 1, prepare) for a law drawn from one uniform u.

    make(size) returns transform(u, out), which writes the draws for the
    uniforms u of a block of size into out; buffers it needs are allocated
    by make, once per block shape.
    """

    def prepare(delta, n):
        words = np.empty_like(delta)
        transform = make(delta.size)

        def run(z0, out):
            np.add(delta, np.uint64(z0), out=words)
            transform(_mix(words, out.view(np.uint64)), out)

        return run

    return 1, prepare


def _fold(prepare_base, width: int, count: int):
    """prepare for 2^count folds of a base law that takes width counters a draw.

    Fold j of the draw whose first word is z starts at z + PHI64 * j * width * n.
    The folds are drawn rows at a time into rows 1.. of a sums block whose
    row 0 holds the running total, +0.0 at first, and numpy's axis-0
    reduction adds the rows in order (module notes).
    """
    folds = 1 << count
    scale = 2.0 ** (-count / 2.0)

    def prepare(delta, n):
        step = (PHI64 * width * n) & _MASK
        rows = min(folds, max(1, _BLOCK_CELLS // (delta.size * width)))
        words = (np.arange(rows, dtype=np.uint64) * np.uint64(step))[:, None] + delta
        sums = np.empty((rows + 1, delta.size))
        runs = {r: prepare_base(words[:r].reshape(-1), n) for r in {rows, folds % rows or rows}}

        def run(z0, out):
            sums[0] = 0.0
            for j0 in range(0, folds, rows):
                r = min(rows, folds - j0)
                runs[r]((z0 + j0 * step) & _MASK, sums[1 : r + 1].reshape(-1))
                np.add.reduce(sums[: r + 1], axis=0, out=out)
                sums[0] = out
            out *= scale

        return run

    return prepare


def _drawer(m: Measure):
    """(width, prepare) for m, where each draw of m takes width counters.

    prepare(delta, n) returns run(z0, out), which writes into out the draws
    whose first words are z0 + delta (uint64, wrapping), as draws of a call
    for n of them: n sets the stride of the folds.  All that does not depend
    on z0 (fold words, buffers) is worked out by prepare.
    """
    if isinstance(m, Atomic):
        pos, pick = m.positions, _pick(np.cumsum(m.weights))
        return _leaf(lambda size: lambda u, out: np.take(pos, pick(u), out=out, mode="clip"))
    if isinstance(m, Empirical):
        x = m.samples

        def index(u, out):
            u *= x.size
            np.take(x, np.minimum(u.astype(np.int64), x.size - 1), out=out, mode="clip")

        return _leaf(lambda size: index)
    if isinstance(m, Parametric):
        return _leaf(lambda size: _families.row(m.family).sampler(m.params, size))
    if isinstance(m, Affine):
        width, prepare_base = _drawer(m.base)

        def prepare(delta, n):
            base = prepare_base(delta, n)

            def run(z0, out):
                base(z0, out)
                out *= m.scale
                out += m.shift

            return run

        return width, prepare
    if isinstance(m, CfLevel):
        if m.count > MAX_SAMPLING_LEVELS:
            raise MeasureError(
                f"sampling refuses cf iteration depth {m.count} > "
                f"{MAX_SAMPLING_LEVELS} (2^{m.count} base draws per sample)"
            )
        width, prepare_base = _drawer(m.base)
        return width << m.count, _fold(prepare_base, width, m.count)
    raise MeasureError(
        f"sampling supports atomic, parametric, empirical, affine and cf-level "
        f"laws, not {type(m).__name__}"
    )


def _stream(m: Measure, seed: int, stream: int):
    """blocks(start, n): the draws of draw(start, n), in parts.

    The draws are made in blocks of cols, as many as fill _BLOCK_CELLS
    counters with all their folds, and every block of one size reuses what
    prepare worked out for it.  A part is whole blocks in a buffer of about
    _BLOCK_CELLS draws, valid until the next part; a lone last column is
    drawn again with the one before (module notes) and handed out once.
    """
    key = _stream_key(seed, stream)
    width, prepare = _drawer(m)
    cols = max(2, _BLOCK_CELLS // width)

    def blocks(start, n):
        buf = np.empty(cols * max(1, _BLOCK_CELLS // cols))
        size = max(n, 2)  # a fold sum needs two columns (module notes)
        spans = [(b0, min(cols, size - b0)) for b0 in range(0, size, cols)]
        if spans[-1][1] == 1:  # a last column alone is drawn with the one before
            spans[-1] = (size - 2, 2)
        delta = np.arange(spans[0][1], dtype=np.uint64) * np.uint64(PHI64)
        runs = {b: prepare(delta[:b], n) for b in {b for _, b in spans}}
        c0 = 0  # the draw in buf[0]
        for b0, b in spans:
            if b0 + b - c0 > buf.size:
                yield buf[: b0 - c0]
                c0 = b0
            runs[b]((key + PHI64 * (start + 1 + b0)) & _MASK, buf[b0 - c0 : b0 - c0 + b])
        yield buf[: n - c0]

    return blocks


def _sampler(m: Measure, seed: int, stream: int):
    """draw(start, n): n draws of m from counter positions start.. of a stream."""
    blocks = _stream(m, seed, stream)

    def draw(start, n):
        out, i = np.empty(n), 0
        for part in blocks(start, n):
            out[i : i + part.size], i = part, i + part.size
        return out

    return draw


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
    envelope does not depend on grid resolution.  Each level is streamed
    through a charfn.EmpiricalCf (module notes): memory does not grow with n.
    """
    if not isinstance(levels, int) or not 0 <= levels <= MAX_FLOW_LEVELS:
        raise MeasureError(f"levels must be an integer in 0..{MAX_FLOW_LEVELS}")
    if not isinstance(n, int) or n < MIN_FLOW_SAMPLES:
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
        ecf = EmpiricalCf(pts)
        for part in _stream(level_m, seed, k)(0, n):
            ecf.add(part)
        acf = eval_cf_grid(level_m, pts)
        devs.append(float(np.max(np.abs(ecf.value() - acf))))
    worst = max(devs)
    return FlowCheck(worst <= envelope, worst, envelope, tuple(devs))
