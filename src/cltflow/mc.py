"""Deterministic Monte Carlo oracle.

Randomness comes from the SplitMix64 finalizer (public-domain constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB) used counter
style: counter i under seed k gives the word

    mix64( mix64(k) + PHI64 * (i + 1) )

with pure 64-bit integer arithmetic, so batches are bit-identical across
platforms and runs (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3", for counter-based generation).  Uniforms take the top 52 bits
offset by half an ulp, landing strictly inside (0, 1) on multiples of
2^-53 (_families._uniform).  Atomic laws draw categorically; each
closed-form family's sampler is in its row of the _families table and
makes draw i from word i alone: the uniform, laplace, exponential and
student3 rows invert their CDFs at the word's uniform, and the gaussian
row runs a ziggurat on the word, whose rare slow path takes its uniforms
from words derived from that word, mix64(w + c) for a constant c per use
(_families module notes).  A row's transform is made once per stream,
with the buffers it needs.

An atomic law's index is found from the word itself: the uniform reaches
an edge e of the cumulative weights exactly when the word reaches the
integer wall W_e = ceil(e 2^52 - 1/2) 2^12 (_walls), so the index is the
number of walls at or below the word, binary-searched (_pick), the index
of the uniform to the bit, with no uniform made.

Words are mixed in blocks of _BLOCK_CELLS counters, the word stride
(_blocks), whose buffers stay in L2 and serve every block.  A block's
words key + PHI64 (counter + 1) are a base array PHI64 i, built once per
stream, plus one scalar; SplitMix then runs in place (_mix): nine ufunc
calls a block, the add included, whatever its size.  The stride is not
the float route's part of _PART_CELLS draws: a sink cuts each block into
its own parts, so the stride sets only the fixed cost per block.  The add
and SplitMix cost 2.7 ns a word at a stride of 2^14 and 2.4 at 2^15, the
fastest runs 2.6 and 2.3 (medians of 31 alternating runs on one CPU of a
shared x86-64 VM with AVX-512 and 2 MB of L2, numpy 2.4); at 2^16 the
buffers press on L2 and the oracle's CPU time rose by about 3%.  The word
buffers start on a 64-byte cache line (_aligned_words): off a 32-byte
boundary, where a plain allocation lands or not by the state of the
heap, every other vector of the SplitMix passes and the wall compares
straddles two lines.  Placement moves no bit.  The bits do not depend on
the blocks:

- uint64 arithmetic is modulo 2^64 however the terms are grouped, so the
  words, counters that wrap past 2^64 included, equal the formula above;
- every transform and every tree add works element by element, and a
  derived word depends on its own word alone.

The flow check draws atomic and parametric laws only, draw i of a law
from counter i, and applies the map to one stream of 2^L n draws per
law, L the top level.  Under one seed, counter i gives every law the
same word, so the laws of one check share the one stream of the seed:
each block is mixed once and pushed to every law's sink (_float_levels,
_lattice_levels), and a law alone gets the same words, so its levels are
those of a check of its own.  So no sink may write into the words it is
given: the next sink reads the same block.  A row's transform writes
its uniforms into its own buffers, the categorical index only compares,
and a block is handed out read-only, so a sink that writes into it raises.

Row i of 2^L consecutive draws gives draw i of every level: level k is
the left node of the row's pairwise tree at depth k, the sum of the
row's first 2^k draws, times 2^{-k/2}.  A block grows to a whole row,
max(_BLOCK_CELLS, 2^L) words, and a float part to max(_PART_CELLS, 2^L),
all powers of two, so every block and every part but a stream's last
holds the same whole rows.  The tree halves a part's rows y k times by
the element-wise y[:, 0::2] + y[:, 1::2] (on the flat part, [0::2] +
[1::2]: the same pairs), and each node is scaled once.  One scale and not
one per step: the tree sums of a lattice law with dyadic atoms
(rademacher, skewed) are exact, so a level takes as many distinct values
as its sums, and the lattice levels stay on EmpiricalCf's exact
histogram path.  Each level has its law; the levels share draws and are
dependent, and the envelope 4 / sqrt(n) holds level by level.  Each
level's cf is a charfn.EmpiricalCf, fed on one of two routes, so no
array of n draws appears.

The float route takes every law and makes each block its parts of draws,
one transform and one tree a part, so its buffers do not grow with the
stride.  The levels' values are gathered in one reused buffer and added
to the level's EmpiricalCf, a little over 4096 at a time, whole parts'
worth: exact sums over the level's histogram for lattice draws (at most
4096 distinct values), one cos and sin per distinct value and point; for
dense draws a sum over bins of width 1 / max|xi| through 12 moments
each, whose cut series errs by at most (1/2)^12 / 12! < 5.1e-13 per
sample, far inside the envelope 4 / sqrt(n), plus rounding, of order
1e-14 for 1e5 gaussian draws.  A dense level's first add already holds
more than 4096 distinct values, so it leaves the histogram at once.

The lattice route takes an atomic law of 2 to _WALLS_MAX + 1 atoms at
(a0 + g j_i) 2^-e for integers a0, g and codes 0 = j_0 < j_1 < ...
(_lattice), where, for the top level L,

- 2^L max|a0 + g j_i| < 2^53, so every float tree sum is exact, and
- 2^L max j_i + 1 <= _LATTICE_MAX, so the float route's levels never
  leave the histogram; with at least two atoms this keeps L <= 11.

A draw's code is sum_i s_i [z >= W_i] over the inner walls, s_i =
j_{i+1} - j_i, so a row's level-k sum is sum_i s_i times the popcount of
the first 2^k of its bits [z >= W_i].  Blocks are packed (np.packbits,
little bit order) into passes of _PASS_CELLS bits per wall, a block
that crosses the end of a pass split there.  A full pass is read as
'<u1' .. '<u8' words on any platform and counted masked to 2^k <= 64
bits or over 2^(k-6) words; rows under 8 draws share a byte.  The sums
add up in uint16 and go into integer histograms.  At the end, level k's
values are ((a0 2^k) + g c) 2^-e 2^{-k/2} at the sums c it holds: the
float route's exact tree sums times the same scale, so
EmpiricalCf.add_histogram gets the histogram the float route's adds
would build, and the cfs keep their bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _families
from ._families import _MASK, _MIX1, _MIX2, _mix64_int
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

# the flow check's levels 0..MAX_FLOW_LEVELS, and its fewest draws per level
MAX_FLOW_LEVELS = 12
MIN_FLOW_SAMPLES = 10**5
# the generator's key is a 64-bit word: a larger seed would alias seed mod 2^64
MAX_SEED = 2**64 - 1
# the word stride: counters per block, unless a tree row of draws is
# longer; a block's three word buffers (768 KB) stay in L2 and serve every
# block, and each block pays the fixed cost of its ufunc calls once.  A
# power of two, so a block holds whole rows and whole parts, and a multiple
# of 8, so every part the lattice route packs, but a stream's last, starts
# and ends on a byte
_BLOCK_CELLS = 1 << 15
# draws per part of the float route, unless a tree row is longer: each part
# is one transform and one pairwise tree, and a level's EmpiricalCf.add
# chunks are whole parts, so the dense levels' bits depend on this constant
# and not on the stride
_PART_CELLS = 1 << 14
# the flow check's lattice route takes atomic laws of at most this many
# inner edges: each costs it a compare and a pack of every word, where the
# float route's binary search grows with the log of the edges; the two
# routes cost about the same near 32 edges, at 3 levels and at 6
_WALLS_MAX = 32
# draws per pass of the flow check's lattice route, rows of fewer than 64
# draws counted as 64: a wall's bits for a pass take 128 KB (16 KB for rows
# of at most 8 draws), and the counts run once per pass, not per block
_PASS_CELLS = 1 << 20
ORACLE_GRID = GridSpec(1e-3, 50.0, 10)


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


def _walls(edges: np.ndarray) -> np.ndarray:
    """The walls W_e = ceil(e 2^52 - 1/2) 2^12 of the edges e, up to the first no uniform reaches.

    A mixed word z reaches W_e exactly when its uniform
    (_families._uniform) reaches e; W_e is worked out from e's exact
    ratio.  No uniform is above 1 - 2^-53.
    """
    walls = []
    for e in edges.tolist():
        p, q = e.as_integer_ratio()
        m = max(0, -((q - (p << 53)) // (2 * q)))  # ceil((p 2^53 - q) / 2q)
        if m >> 52:  # no uniform reaches e, nor the edges after it
            break
        walls.append(m << 12)
    return np.array(walls, dtype=np.uint64)


def _pick(edges: np.ndarray):
    """z -> the categorical index of mixed word z: min(searchsorted(edges, u, "right"), len - 1).

    u is z's uniform, and u >= e exactly when z reaches e's wall (_walls).
    """
    walls, last = _walls(edges), edges.size - 1
    return lambda z: np.minimum(np.searchsorted(walls, z, side="right"), last)


def _aligned_words(size: int) -> np.ndarray:
    """An uninitialized uint64 array of size words that starts on a 64-byte cache line."""
    raw = np.empty(8 * size + 64, dtype=np.uint8)
    at = -raw.ctypes.data % 64
    return raw[at : at + 8 * size].view(np.uint64)


def _blocks(seed: int, start: int, length: int, row: int = 1):
    """The mixed words of counters start .. start + length - 1 under seed, a block at a time.

    A block is max(_BLOCK_CELLS, row) words key + PHI64 (counter + 1), key
    = mix64(seed), put through _mix, the last block the rest, in one reused
    buffer that is valid until the next block and read-only to its sinks.
    For a row a power of two, every block of a stream of whole rows holds
    whole rows.  The stride sets only how many words one pass of _mix and
    one block of the sinks take: a sink cuts a block into its own parts,
    and no bit depends on it.  The word buffers start on a cache line, so
    no vector of the SplitMix passes or of a sink's compares straddles two
    lines, which costs SplitMix about 30% a word; placement moves no bit.
    """
    key, size = _mix64_int(seed), max(1, min(max(_BLOCK_CELLS, row), length))
    delta, buf, scratch = (_aligned_words(size) for _ in range(3))
    np.multiply(np.arange(size, dtype=np.uint64), np.uint64(PHI64), out=delta)
    for t in range(0, length, size):
        b = min(size, length - t)
        z = buf[:b]
        np.add(delta[:b], np.uint64((key + PHI64 * (start + t + 1)) & _MASK), out=z)
        z = _mix(z, scratch[:b])
        z.flags.writeable = False
        yield z


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


def _transform(m: Atomic | Parametric, size: int):
    """transform(z, out), which writes into out the draws of m made from the mixed words z.

    m is an atomic or parametric law; draw i is made from word i alone, by
    the categorical index or by the family row's sampler, and z, of at
    most size words, is only read.
    """
    if isinstance(m, Atomic):
        pos, pick = m.positions, _pick(np.cumsum(m.weights))
        return lambda z, out: np.take(pos, pick(z), out=out, mode="clip")
    return _families.row(m.family).sampler(m.params, size)


@dataclass(frozen=True)
class FlowCheck:
    """Agreement of empirical and analytic cfs along the pairwise-sum flow.

    per_level holds each level's largest deviation and levels_ok its verdict,
    the deviation at most the envelope; ok is every level's verdict.
    """

    envelope: float
    per_level: tuple[float, ...]

    @property
    def levels_ok(self) -> tuple[bool, ...]:
        return tuple(dev <= self.envelope for dev in self.per_level)

    @property
    def ok(self) -> bool:
        return all(self.levels_ok)


def _lattice(m: Measure, depth: int):
    """(a0, g, e, codes), m's positions being (a0 + g codes) 2^-e, where the lattice route holds.

    It holds for an atomic law of 2 to _WALLS_MAX + 1 atoms whose tree
    sums of up to 2^depth draws are exact, 2^depth max|a| < 2^53, and take
    at most _LATTICE_MAX values, 2^depth max(codes) + 1: no more than the
    float route's level histograms hold.  A one-atom law has no step g, a
    law of more atoms costs the route more than the float route, and a
    -0.0 atom is left to the float route, whose sums of -0.0 draws keep the
    sign.  None where the route does not hold.
    """
    if not isinstance(m, Atomic) or not 2 <= m.positions.size <= _WALLS_MAX + 1:
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
    """put, cfs: a sink of the flow check's level cfs from base's wall bits (module notes).

    put(z) packs the next block of words; cfs() returns the level cfs once
    all n 2^levels words are put.
    """
    a0, g, e, codes = lattice
    walls = _walls(np.cumsum(base.weights))[: len(codes) - 1]
    steps = np.diff(codes).astype(np.uint16)[: walls.size]
    # a pass's bits are read as words of 2^word bits: a row of 2^levels
    # draws is one word (levels 3..6), the first 2^(levels - 6) words (above
    # 6), or one of the per = 2^(3 - levels) rows of a byte (below 3)
    word = min(max(levels, 3), 6)
    dtype, per = np.dtype(f"<u{1 << (word - 3)}"), max(1, 8 >> levels)
    # (k, s) -> the first 2^k bits of a word's row s, for 2^k <= 64
    masks = [[dtype.type(((1 << (1 << k)) - 1) << (s << levels)) for s in range(per)]
             for k in range(min(levels, 6) + 1)]
    rows = max(1, min(n, _PASS_CELLS >> max(levels, 6)))
    hit = np.empty(min(max(_BLOCK_CELLS, 1 << levels), rows << levels), dtype=bool)
    packed = np.empty((walls.size, -(-(rows << levels) // 8)), dtype=np.uint8)
    hists = [np.zeros((codes[-1] << k) + 1, dtype=np.int64) for k in range(levels + 1)]
    ecfs = [EmpiricalCf(pts) for _ in hists]
    done = at = 0  # the rows counted, and the words packed into the pass

    def counts(row, r):
        """The popcounts of the first 2^k bits of each of the pass's r rows, level by level."""
        w = row.view(dtype).reshape(-1, 1 << max(0, levels - 6))
        out = []
        for parts in masks:
            c = [np.bitwise_count(w[:, 0] & mask) for mask in parts]
            out.append(np.stack(c, axis=1).ravel()[:r] if per > 1 else c[0])
        if levels > 6:
            full = np.cumsum(np.bitwise_count(w), axis=1, dtype=np.uint16)
            out += [full[:, (1 << (k - 6)) - 1] for k in range(7, levels + 1)]
        return out

    def put(z):
        nonlocal done, at
        while z.size:
            r = min(rows, n - done)
            # a part starts on a byte: blocks and passes hold multiples of 8 words
            part, z = z[: (r << levels) - at], z[(r << levels) - at :]
            bits = hit[: part.size]
            for wall, row in zip(walls, packed):
                np.greater_equal(part, wall, out=bits)
                row[at >> 3 : (at >> 3) + -(-part.size // 8)] = np.packbits(bits, bitorder="little")
            at += part.size
            if at < r << levels:
                return
            # each add makes a new uint16 array, so the zeros are shared
            sums = [np.zeros(r, dtype=np.uint16)] * (levels + 1)
            for step, row in zip(steps, packed[:, : -(-at // 8)]):
                sums = [s + (c if step == 1 else c * step) for s, c in zip(sums, counts(row, r))]
            for hist, s in zip(hists, sums):
                hist += np.bincount(s, minlength=hist.size)
            done, at = done + r, 0

    def cfs():
        for k, (ecf, hist) in enumerate(zip(ecfs, hists)):
            c = np.flatnonzero(hist)
            sums = np.ldexp(((a0 << k) + g * c).astype(float), -e)  # exact: below 2^53 times 2^-e
            ecf.add_histogram(sums * 2.0 ** (-k / 2.0), hist[c])
        return ecfs

    return put, cfs


def _float_levels(base: Atomic | Parametric, levels: int, n: int, pts):
    """put, cfs: a sink of the flow check's level cfs from the float draws of base (module notes).

    put(z) makes the next block of words, whole rows of 2^levels, into
    draws a part of max(_PART_CELLS, 2^levels) words at a time, the
    block's last part the rest; cfs() returns the level cfs once all
    n 2^levels words are put.
    """
    rows = max(1, _PART_CELLS >> levels)
    buf = np.empty(min(rows, n) << levels)
    transform = _transform(base, buf.size)
    # a level's values go to its EmpiricalCf more than _LATTICE_MAX at a
    # time, whole parts' worth, so a dense level leaves the histogram at once
    vals = np.empty((levels + 1, -(-(_LATTICE_MAX + 1) // rows) * rows))
    spare = np.empty(max(1, rows << levels >> 1))
    scales = [2.0 ** (-k / 2.0) for k in range(levels + 1)]
    ecfs = [EmpiricalCf(pts) for _ in scales]
    done = filled = 0  # the rows made, and those not yet added

    def put(z):
        nonlocal done, filled
        for t in range(0, z.size, buf.size):
            words = z[t : t + buf.size]
            r, part = words.size >> levels, buf[: words.size]
            transform(words, part)
            for k, nodes in enumerate(_pairwise(part, spare, levels)):
                np.multiply(nodes[:: 1 << (levels - k)], scales[k], out=vals[k, filled : filled + r])
            done, filled = done + r, filled + r
            if filled == vals.shape[1] or done == n:
                for ecf, v in zip(ecfs, vals):
                    ecf.add(v[:filled])
                filled = 0

    return put, lambda: ecfs


def empirical_flow_check(
    laws: Sequence[Measure], levels: int, n: int, seed: int
) -> tuple[FlowCheck, ...]:
    """Compare empirical cfs of pairwise-summed samples of each law with analytic iterates.

    For each law and level k = 0..levels, n samples of the k-fold
    pairwise-summed and rescaled law are taken from one stream of 2^L n
    base draws, L the top level (module notes), and their empirical cf is
    compared on ORACLE_GRID against the analytic cf of the k-th iterate.
    Passing means every deviation stays within the conservative envelope
    4/sqrt(n), which does not depend on grid resolution.  Each level is
    streamed through a charfn.EmpiricalCf: memory does not grow with n.
    levels, n and seed are ints, not bools, with seed in 0..MAX_SEED, the
    generator's 64-bit key; any other raises MeasureError.

    Returns one FlowCheck per law, in order.  Every law reads the counter
    stream of seed from counter 0 on: each block of words is mixed once
    and pushed to every law's sink, and each law's check is the one it
    gets alone, bit for bit.  Each law must be atomic or parametric, the
    laws the CLI names; any other raises MeasureError.  Laws are validated
    law by law before any draw, so the first invalid law in order raises.

    An atomic law of few atoms whose positions are (a0 + g j) 2^-e for
    integers a0, g and codes j takes the lattice route where its tree sums
    are exact and take at most _LATTICE_MAX values (_lattice): a draw is a
    bit per inner edge of the weights, a level's sums of codes are
    popcounts of these bits times the steps of the codes, and each level's
    values are made once, from its histogram of sums.  The route regroups
    exact sums only, so the cfs keep the float route's bits.  Every other
    law takes the float route (module notes).
    """
    if type(levels) is not int or not 0 <= levels <= MAX_FLOW_LEVELS:
        raise MeasureError(f"levels must be an integer in 0..{MAX_FLOW_LEVELS}")
    if type(n) is not int or n < MIN_FLOW_SAMPLES:
        raise MeasureError("the flow check needs at least 1e5 samples per level")
    if type(seed) is not int or not 0 <= seed <= MAX_SEED:
        raise MeasureError(f"the seed must be an integer in 0..{MAX_SEED}")
    laws = tuple(laws)
    if not laws:
        raise MeasureError("the flow check needs at least one law")
    pts = ORACLE_GRID.points()
    sinks = []
    for law in laws:
        if not isinstance(law, (Atomic, Parametric)):
            raise MeasureError(
                f"the flow check samples atomic and parametric laws, not {type(law).__name__}"
            )
        require_membership(law, 2, "the empirical flow check")
        lattice = _lattice(law, levels)
        if lattice:
            sinks.append(_lattice_levels(law, lattice, levels, n, pts))
        else:
            sinks.append(_float_levels(law, levels, n, pts))
    for z in _blocks(seed, 0, n << levels, 1 << levels):
        for put, _ in sinks:
            put(z)
    envelope = 4.0 / math.sqrt(n)
    checks = []
    for law, (_, cfs) in zip(laws, sinks):
        devs = []
        for k, ecf in enumerate(cfs()):
            acf = eval_cf_grid(_iterate(law, k), pts)
            devs.append(float(np.max(np.abs(ecf.value() - acf))))
        checks.append(FlowCheck(envelope, tuple(devs)))
    return tuple(checks)
