"""Deterministic Monte Carlo oracle.

Randomness comes from the SplitMix64 finalizer (public-domain constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB) used counter
style: counter i under seed k gives the word

    mix64( mix64(k) + PHI64 * (i + 1) )

with pure 64-bit integer arithmetic, so batches are bit-identical across
platforms and runs (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3", for counter-based generation).  Uniforms take the top 52 bits
offset by half an ulp, landing strictly inside (0, 1) on multiples of
2^-53; parametric laws invert their CDFs, atomic laws draw categorically.
Each closed-form family's inverse CDF is in its row of the _families table;
a row's transform is made once per stream, with the buffers it needs.

An atomic law's index is found from the word itself: the uniform reaches
an edge e of the cumulative weights exactly when the word reaches the
integer W_e = ceil(e 2^52 - 1/2) 2^12 (_pick), so the index is the
number of thresholds at or below the word, counted for at most
_COUNT_EDGES_MAX atoms and binary-searched for more, the index of the
uniform to the bit, with no uniform made.

Words are mixed in blocks of _BLOCK_CELLS counters (_blocks), whose
buffers stay in L2 and serve every block.  A block's words key + PHI64
(counter + 1) are a base array PHI64 i, built once per stream, plus one
scalar; SplitMix then runs in place (_mix).  A law's draws are a
generator (_drawer) that reads words through a _Reader, its place in the
stream, and asks for the next block when it has read the one it holds;
the law's transform (categorical index of the word; inverse CDF of its
uniform) writes the draws into the law's own buffers.  The bits do not
depend on the blocks:

- uint64 arithmetic is modulo 2^64 however the terms are grouped, so the
  words, counters that wrap past 2^64 included, equal the formula above;
- every transform and every tree add works element by element.

One stream serves many readers.  Under one seed, counter i gives every
law the same word, so readers that start at one counter and read their
counters in order all need the same block at the same time: _read hands
each block to every reader still reading, and the words are mixed once
for all of them.  So no transform may write into the words it is given:
the next reader reads the same block.  The uniforms go to the law's own
buffer (_uniform), the categorical index only compares, and a block is
handed out read-only, so a transform that writes into it raises.

The flow check draws atomic and parametric laws only, draw i of a law
from counter i, and applies the map to one stream of 2^L n draws per
law, L the top level.  The laws of one check read the one stream of the
seed side by side, each law's levels a reader; a law alone reads the same
words, so its levels are those of a check of its own.  Row i of 2^L
consecutive draws gives draw i of every level: level k is the left node
of the row's pairwise tree at depth k, the sum of the row's first 2^k
draws, times 2^{-k/2}.  The tree halves a row y k times by the
element-wise y[:, 0::2] + y[:, 1::2] (on the flat block of rows, [0::2] +
[1::2]: the same pairs), and each node is scaled once.  One scale and not
one per step: the tree sums of a lattice law with dyadic atoms
(rademacher, skewed) are exact, so a level takes as many distinct values
as its sums, and the lattice levels stay on EmpiricalCf's exact histogram
path.  Each level has its law; the levels share draws and are dependent,
and the envelope 4 / sqrt(n) holds level by level.  Each level's cf is a
charfn.EmpiricalCf, fed on one of two routes, so no array of n draws
appears.

The float route takes every law.  The levels' values are gathered in
one reused buffer and added to the level's EmpiricalCf, a little over 4096
at a time: exact sums over the level's histogram for lattice draws (at
most 4096 distinct values), one cos and sin per distinct value and point; for
dense draws a sum over bins of width 1 / max|xi| through 12 moments each,
whose cut series errs by at most (1/2)^12 / 12! < 5.1e-13 per sample, far
inside the envelope 4 / sqrt(n), plus rounding, of order 1e-14 for 1e5
gaussian draws.  A dense level's first add already holds more than 4096
distinct values, so it leaves the histogram at once.

The lattice route takes an atomic law whose positions are
(a0 + g j_i) 2^-e for integers a0, g and codes j_i (_lattice), where, for
the top level L,

- 2^L max|a0 + g j_i| < 2^53, so every float tree sum is exact, and
- 2^L max j_i + 1 <= _LATTICE_MAX, so the float route's levels never
  leave the histogram; with at least two atoms this keeps L <= 11.

A draw is its atom's code, as uint8 where the sums stay below 2^8 and
uint16 otherwise; for rademacher and skewed the code is the index itself.
Blocks of words fill _CODE_CELLS codes at a time, which go through the
same pairwise tree, and each level's spine nodes (depth k) are counted
into an integer histogram of their sums c.  At the end, level k's values
are ((a0 2^k) + g c) 2^-e 2^{-k/2} at the sums it holds: the float
route's exact tree sums times the same scale, so EmpiricalCf.add_histogram
gets the histogram the float route's adds would build, and the cfs keep
their bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _families
from .errors import MeasureError
from .measures import Atomic, Measure, Parametric, require_membership
from .charfn import _LATTICE_MAX, EmpiricalCf, eval_cf_grid
from .flow import _iterate
from .metrics import GridSpec

__all__ = [
    "empirical_flow_check",
    "FlowCheck",
    "ORACLE_GRID",
]

PHI64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# the flow check's levels 0..MAX_FLOW_LEVELS, and its fewest draws per level
MAX_FLOW_LEVELS = 12
MIN_FLOW_SAMPLES = 10**5
# counters per block and draws per tree row at most: their few buffers
# stay in L2 and serve every block
_BLOCK_CELLS = 1 << 14
# atomic laws with at most this many atoms draw by counting edges
_COUNT_EDGES_MAX = 8
# codes per pass of the flow check's lattice route: the tree and the counts
# run once per eight blocks of words, on arrays of 128 KB (uint8) or 256 KB
# (uint16), so their calls cost per pass, not per block
_CODE_CELLS = 1 << 17
ORACLE_GRID = GridSpec(1e-3, 50.0, 10)


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of the words z = key + PHI64 * (counter + 1), in place.

    scratch, a uint64 array of z's shape, holds the shifted copies.
    """
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


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


def _pick(edges: np.ndarray):
    """z -> the categorical index of mixed word z: min(searchsorted(edges, u, "right"), len - 1).

    u = (floor(z / 2^12) + 1/2) 2^-52 is z's uniform (_uniform), and u >= e
    exactly when z >= W_e = ceil(e 2^52 - 1/2) 2^12, an integer worked out
    from e's exact ratio, so the index is found from the words, with no
    uniform made.  An edge above 1 - 2^-53, the largest uniform, has no W_e
    and counts for no word.  For few atoms the index is the count of inner
    edges at or below u, which is the same number because the edges never
    decrease, and cheaper than a binary search; it fits in a uint8, and
    numpy gathers by a uint8 index faster than by an intp one.
    """
    walls = []
    for e in edges.tolist():
        p, q = e.as_integer_ratio()
        m = max(0, -((q - (p << 53)) // (2 * q)))  # ceil((p 2^53 - q) / 2q)
        if m >> 52:  # no uniform reaches e, nor the edges after it
            break
        walls.append(m << 12)
    walls = np.array(walls, dtype=np.uint64)
    if edges.size > _COUNT_EDGES_MAX:
        last = edges.size - 1
        return lambda z: np.minimum(np.searchsorted(walls, z, side="right"), last)

    inner = walls[: edges.size - 1]
    if not inner.size:  # one atom, or no uniform reaches an inner edge
        return lambda z: np.zeros(z.shape, dtype=np.uint8)

    def index(z):
        idx = (z >= inner[0]).view(np.uint8)
        for w in inner[1:]:
            idx += z >= w
        return idx

    return index


def _blocks(seed: int, start: int, length: int):
    """The mixed words of counters start .. start + length - 1 under seed, a block at a time.

    A block is up to _BLOCK_CELLS words key + PHI64 (counter + 1), key =
    mix64(seed), put through _mix, in one reused buffer that is valid until
    the next block and read-only to its readers.
    """
    key, size = _mix64_int(seed), max(1, min(_BLOCK_CELLS, length))
    delta = np.arange(size, dtype=np.uint64) * np.uint64(PHI64)
    buf, scratch = np.empty_like(delta), np.empty_like(delta)
    for t in range(0, length, size):
        b = min(size, length - t)
        z = buf[:b]
        np.add(delta[:b], np.uint64((key + PHI64 * (start + t + 1)) & _MASK), out=z)
        z = _mix(z, scratch[:b])
        z.flags.writeable = False
        yield z


class _Reader:
    """One reader's place in a stream of word blocks."""

    def __init__(self):
        self._block, self._at = np.empty(0, dtype=np.uint64), 0

    def fill(self, out: np.ndarray, transform):
        """(generator) Write transform(z, part) into out part by part, z the part's next words.

        A part's words lie in one block; fill yields for the next block when
        it has read the one it holds.
        """
        i = 0
        while i < out.size:
            if self._at == self._block.size:
                self._block, self._at = (yield), 0
            z = self._block[self._at : self._at + out.size - i]
            self._at += z.size
            transform(z, out[i : i + z.size])
            i += z.size


def _read(readers, blocks):
    """Run the generators readers side by side, each block going to every reader still reading.

    A reader yields when it has read the block it holds and needs the next,
    and returns when it needs no more.  Readers that start together at one
    counter and each read counters in order are thus at the same block:
    every block is made once, for all of them.  Returns what each reader
    returned, in order.
    """
    done, live, z = [None] * len(readers), list(enumerate(readers)), None
    while live:
        still = []
        for i, reader in live:
            try:
                reader.send(z)
            except StopIteration as stop:
                done[i] = stop.value
            else:
                still.append((i, reader))
        live = still
        if live:
            z = next(blocks)
    return done


def _pairwise(y: np.ndarray, spare: np.ndarray, depth: int):
    """The nodes of the pairwise trees over runs of 2^depth entries of y, depth by depth.

    Depth 0 is y; depth d + 1 is depth d's [0::2] + [1::2], which adds the
    pairs of y.reshape(-1, 2^depth)[:, 0::2] + [:, 1::2] in one long loop.
    At depth d, entry i 2^(depth - d) is the sum of the first 2^d entries
    of run i.  The depths alternate between spare's memory (at least half
    of y) and y's, each valid until the one after next.
    """
    yield y
    a, b = y, spare
    for _ in range(depth):
        nodes = b[: a.size // 2]
        np.add(a[0::2], a[1::2], out=nodes)
        yield nodes
        a, b = nodes, a


def _drawer(m: Atomic | Parametric):
    """prepare for m, an atomic or parametric law, each draw made from one mixed word z.

    prepare(size, words) returns draw(out), a generator that writes into
    out, of at most size, the next out.size draws, reading their words from
    the _Reader words.  All that does not depend on the words (buffers,
    thresholds) is worked out by prepare: make(size) returns transform(z,
    out), which writes the draws of the words z into out and only reads z.
    """
    if isinstance(m, Atomic):
        pos, pick = m.positions, _pick(np.cumsum(m.weights))

        def make(size):
            return lambda z, out: np.take(pos, pick(z), out=out, mode="clip")

    else:

        def make(size):
            invert, u = _families.row(m.family).sampler(m.params, size), np.empty(size)
            return lambda z, out: invert(_uniform(z, u[: z.size]), out)

    def prepare(size, words):
        transform = make(size)
        return lambda out: words.fill(out, transform)

    return prepare


@dataclass(frozen=True)
class FlowCheck:
    """Agreement of empirical and analytic cfs along the pairwise-sum flow."""

    ok: bool
    max_deviation: float
    envelope: float
    per_level: tuple[float, ...]


def _lattice(m: Measure, depth: int):
    """(a0, g, e, codes), m's positions being (a0 + g codes) 2^-e, where the lattice route holds.

    It holds for an atomic law of at least two atoms whose tree sums of up
    to 2^depth draws are exact, 2^depth max|a| < 2^53, and take at most
    _LATTICE_MAX values, 2^depth max(codes) + 1: no more than the float
    route's level histograms hold.  A one-atom law has no step g, and a
    -0.0 atom is left to the float route, whose sums of -0.0 draws keep the
    sign.  None where the route does not hold.
    """
    if not isinstance(m, Atomic) or m.positions.size < 2:
        return None
    pos = m.positions.tolist()
    if any(x == 0.0 and math.copysign(1.0, x) < 0 for x in pos):
        return None
    ratios = [x.as_integer_ratio() for x in pos]
    e = max(q.bit_length() for _, q in ratios) - 1
    a = [p << (e - q.bit_length() + 1) for p, q in ratios]  # the integers x 2^e
    g = math.gcd(*(ai - a[0] for ai in a))
    codes = [(ai - a[0]) // g for ai in a]
    if max(map(abs, a)) << depth >= 1 << 53 or codes[-1] << depth >= _LATTICE_MAX:
        return None
    return a[0], g, e, codes


def _lattice_levels(base: Atomic, lattice, levels: int, n: int, pts):
    """A reader of the flow check's level cfs from the codes of base's draws (module notes).

    The reader is a generator for _read that reads n 2^levels words and
    returns the cfs.
    """
    a0, g, e, codes = lattice
    words = _Reader()
    dtype = np.uint8 if codes[-1] << levels <= 0xFF else np.uint16
    codes = np.array(codes, dtype=dtype)
    pick = _pick(np.cumsum(base.weights))
    if np.array_equal(codes, np.arange(codes.size)):  # the code is the index

        def code(z, part):
            part[...] = pick(z)

    else:

        def code(z, part):
            np.take(codes, pick(z), out=part, mode="clip")

    cells = max(1, _CODE_CELLS >> levels) << levels  # whole rows of 2^levels draws
    y, spare = np.empty(cells, dtype=dtype), np.empty(max(1, cells >> 1), dtype=dtype)
    hists = [np.zeros((codes[-1] << k) + 1, dtype=np.int64) for k in range(levels + 1)]
    ecfs = [EmpiricalCf(pts) for _ in hists]

    def read():
        for t in range(0, n << levels, cells):
            row = y[: min(cells, (n << levels) - t)]
            yield from words.fill(row, code)
            for k, (hist, nodes) in enumerate(zip(hists, _pairwise(row, spare, levels))):
                hist += np.bincount(nodes[:: 1 << (levels - k)], minlength=hist.size)
        for k, (ecf, hist) in enumerate(zip(ecfs, hists)):
            c = np.flatnonzero(hist)
            sums = np.ldexp(((a0 << k) + g * c).astype(float), -e)  # exact: below 2^53 times 2^-e
            ecf.add_histogram(sums * 2.0 ** (-k / 2.0), hist[c])
        return ecfs

    return read()


def _float_levels(base: Atomic | Parametric, levels: int, n: int, pts):
    """A reader of the flow check's level cfs from the float draws of base (module notes).

    The reader is a generator for _read that reads n 2^levels words and
    returns the cfs.
    """
    prepare = _drawer(base)
    rows = max(1, _BLOCK_CELLS >> levels)
    buf = np.empty(min(rows, n) << levels)
    draw = prepare(buf.size, _Reader())
    # a level's values go to its EmpiricalCf more than _LATTICE_MAX at a
    # time, whole parts' worth, so a dense level leaves the histogram at once
    vals = np.empty((levels + 1, -(-(_LATTICE_MAX + 1) // rows) * rows))
    spare = np.empty(max(1, rows << levels >> 1))
    scales = [2.0 ** (-k / 2.0) for k in range(levels + 1)]
    ecfs = [EmpiricalCf(pts) for _ in scales]

    def read():
        filled = 0
        for done in range(0, n, rows):
            r = min(rows, n - done)
            part = buf[: r << levels]
            yield from draw(part)
            for k, nodes in enumerate(_pairwise(part, spare, levels)):
                np.multiply(nodes[:: 1 << (levels - k)], scales[k],
                            out=vals[k, filled : filled + r])
            filled += r
            if filled == vals.shape[1] or done + r == n:
                for ecf, v in zip(ecfs, vals):
                    ecf.add(v[:filled])
                filled = 0
        return ecfs

    return read()


def empirical_flow_check(
    m: Measure | Sequence[Measure],
    levels: int,
    n: int,
    seed: int,
    grid: GridSpec | None = None,
) -> FlowCheck | tuple[FlowCheck, ...]:
    """Compare empirical cfs of pairwise-summed samples with analytic iterates.

    For each level k = 0..levels, n samples of the k-fold pairwise-summed and
    rescaled law are taken from one stream of 2^L n base draws, L the top
    level (module notes), and their empirical cf is compared on the grid
    against the analytic cf of the k-th iterate.  Passing means every
    deviation stays within the conservative envelope 4/sqrt(n).  The default
    grid is the coarse ORACLE_GRID; the envelope does not depend on grid
    resolution.  Each level is streamed through a charfn.EmpiricalCf: memory
    does not grow with n.

    m is one law, which gives one FlowCheck, or a sequence of laws, which
    gives a tuple of FlowChecks, one per law in order.  Every law reads the
    counter stream of seed from counter 0 on, so the laws are checked side
    by side: each block of words is mixed once and read by every law still
    drawing, and each law's check is the one it gets alone, bit for bit.
    Each law must be atomic or parametric, the laws the CLI names; any
    other raises MeasureError.  Laws are validated law by law before any
    draw, so the first invalid law in order raises.

    An atomic law whose positions are (a0 + g j) 2^-e for integers a0, g
    and codes j takes the lattice route where its tree sums are exact and
    take at most _LATTICE_MAX values (_lattice): the codes of its draws are
    summed as small integers and counted into each level's histogram, and
    each level's values are made once, from the sums it holds.  The route
    regroups exact sums only, so the cfs keep the float route's bits.  Every
    other law takes the float route (module notes).
    """
    if not isinstance(levels, int) or not 0 <= levels <= MAX_FLOW_LEVELS:
        raise MeasureError(f"levels must be an integer in 0..{MAX_FLOW_LEVELS}")
    if not isinstance(n, int) or n < MIN_FLOW_SAMPLES:
        raise MeasureError("the flow check needs at least 1e5 samples per level")
    laws = (m,) if isinstance(m, Measure) else tuple(m)
    if not laws:
        raise MeasureError("the flow check needs at least one law")
    pts = (grid or ORACLE_GRID).points()
    readers = []
    for law in laws:
        if not isinstance(law, (Atomic, Parametric)):
            raise MeasureError(
                f"the flow check samples atomic and parametric laws, not {type(law).__name__}"
            )
        require_membership(law, 2, "the empirical flow check")
        lattice = _lattice(law, levels)
        if lattice:
            readers.append(_lattice_levels(law, lattice, levels, n, pts))
        else:
            readers.append(_float_levels(law, levels, n, pts))
    envelope = 4.0 / math.sqrt(n)
    checks = []
    for law, ecfs in zip(laws, _read(readers, _blocks(seed, 0, n << levels))):
        devs = []
        for k, ecf in enumerate(ecfs):
            acf = eval_cf_grid(_iterate(law, k), pts)
            devs.append(float(np.max(np.abs(ecf.value() - acf))))
        worst = max(devs)
        checks.append(FlowCheck(worst <= envelope, worst, envelope, tuple(devs)))
    return checks[0] if isinstance(m, Measure) else tuple(checks)
