"""The oracle path keeps its bits: empirical cf, uniforms and draws.

The references below are the straightforward versions of the empirical cf,
the uniforms, the draws (all draws of a level's base law made at once and
halved pairwise, row by row, to the root) and the flow check's levels that
the mirrored, blocked and in-place versions in the library replace.  Every
comparison is bit for bit (view(np.uint64)): EmpiricalCf keeps the
reference's bits on its exact paths (lattice samples, and the dense
fall-back for samples no bin takes), and the oracle's draws keep theirs.
The library's draws come from conftest.draws, the oracle's word blocks
made draws by one law's transform, and a level's from
conftest.level_draws, the top level of the flow check's float route.  The
Student t3 reference draws through the library's own quantile, which
test_special checks against mpmath.  The gaussian reference is the
ziggurat written out word by word (ref_gaussian_word) on the library's
layer tables, which test_special also checks against mpmath; it shares
no code with the library's sampler, so the cases below that start near
the counter wrap, cut blocks short or let a row outgrow a block show
that a draw's bits depend on its own word alone.
"""

import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
from cltflow._families import _MIX1, _MIX2, _ziggurat, t3_quantile
from cltflow.cli import main as cli_main
from cltflow.errors import MeasureError, MembershipError
from cltflow.mc import ORACLE_GRID
from conftest import draws, level_draws

_CHUNK = charfn._CHUNK


def ref_empirical_cf(samples, xi):
    """Sample-average cf (1/N) sum exp(i x_j xi) at the array of points xi.

    Lattice-valued samples are compressed to distinct values first, which is
    an exact regrouping; dense samples fall back to chunked summation.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise MeasureError("empirical cf needs a nonempty sample")
    pts = np.asarray(xi, dtype=float)
    vals, counts = np.unique(x, return_counts=True)
    if vals.size <= 4096:
        ph = np.multiply.outer(pts, vals)
        wts = counts.astype(float)
        re = (np.cos(ph) * wts).sum(axis=1)
        im = (np.sin(ph) * wts).sum(axis=1)
    else:
        re = np.zeros(pts.shape)
        im = np.zeros(pts.shape)
        step = max(1, _CHUNK // pts.size)
        for k in range(0, x.size, step):
            ph = np.multiply.outer(x[k : k + step], pts)
            re += np.cos(ph).sum(axis=0)
            im += np.sin(ph).sum(axis=0)
    return (re + 1j * im) / x.size


def ref_mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each uint64 word of z."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def ref_words(seed: int, start: int, count: int) -> np.ndarray:
    """count mixed words from counter positions start.."""
    key = np.uint64(mc._mix64_int(seed))
    with np.errstate(over="ignore"):
        idx = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) % 2**64)
        return ref_mix(key + np.uint64(mc.PHI64) * idx)


def ref_uniform(z: np.ndarray) -> np.ndarray:
    """The uniform in (0, 1) of each mixed word: its top 52 bits plus one half, times 2^-52."""
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def ref_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """count uniforms in the open interval (0, 1) from counter positions start.."""
    return ref_uniform(ref_words(seed, start, count))


def ref_draw_atomic(m, n, seed, start):
    u = ref_uniforms(seed, start, n)
    edges = np.cumsum(m.weights)
    idx = np.minimum(np.searchsorted(edges, u, side="right"), len(m.atoms) - 1)
    return m.positions[idx]


def sqrt_bits(p: int) -> int:
    """The first 64 bits of the fractional part of sqrt p."""
    return math.isqrt(p << 128) % (1 << 64)


# the ziggurat's constants c of the words mix64(w + c) it derives from a
# word w: for the wedge test's uniform, the tail's two and a new try
DERIVE = {"wedge": sqrt_bits(2), "tail-x": sqrt_bits(3), "tail-y": sqrt_bits(5),
          "again": sqrt_bits(7)}


def ref_derived(w: int, use: str) -> int:
    """The word that the ziggurat derives from the word w for a use."""
    return int(ref_mix(np.array([(w + DERIVE[use]) % 2**64], dtype=np.uint64))[0])


def ref_word_uniform(w: int) -> float:
    """The uniform of the word w: its top 52 bits plus one half, times 2^-52."""
    return float(Fraction(2 * (w >> 12) + 1, 2**53))


@functools.cache
def zig_lists():
    """The library's ziggurat tables X and f(X) as lists of floats."""
    return tuple(t.tolist() for t in _ziggurat())


def ref_gaussian_word(w: int, path: list | None = None) -> float:
    """The standard gaussian draw of the word w: Marsaglia & Tsang's ziggurat of 4096 layers.

    Layer i = w mod 4096 spans |x| < X[i] between heights f(X[i]) and
    f(X[i + 1]), f(x) = exp(-x^2 / 2); s = (2m + 1) 2^-52 - 1 for the top
    52 bits m, and the try x = s X[i] is the draw where |x| < X[i + 1].
    Else in layer 0 the draw is R + a with x's sign, a = -log(U1) / R, for
    the first pair of uniforms with -2 log(U2) >= a^2; above it x is the
    draw where f(X[i]) + U (f(X[i + 1]) - f(X[i])) < f(x), and a new try
    is made from a new word where not.  Every U comes from a word derived
    from the word before it.  path, where given, collects the steps taken.
    Python's math, as the library's slow path.
    """
    xs, fs = zig_lists()
    steps = [] if path is None else path
    while True:
        i = w % 4096
        x = float(Fraction(2 * (w >> 12) + 1, 2**52) - 1) * xs[i]
        if abs(x) < xs[i + 1]:
            steps.append("fast")
            return x
        if i == 0:
            while True:
                a = -math.log(ref_word_uniform(ref_derived(w, "tail-x"))) / xs[1]
                b = -math.log(ref_word_uniform(ref_derived(w, "tail-y")))
                if 2.0 * b >= a * a:
                    steps.append("tail")
                    return math.copysign(xs[1] + a, x)
                steps.append("tail-again")
                w = ref_derived(w, "again")
        u = ref_word_uniform(ref_derived(w, "wedge"))
        if fs[i] + u * (fs[i + 1] - fs[i]) < math.exp(-0.5 * x * x):
            steps.append("wedge")
            return x
        steps.append("wedge-again")
        w = ref_derived(w, "again")


def ref_gaussian(z: np.ndarray) -> np.ndarray:
    """ref_gaussian_word of each word of z, the try x = s X[i] made for all at once."""
    xs = _ziggurat()[0]
    i = (z % np.uint64(4096)).astype(np.intp)
    x = (2.0 * ref_uniform(z) - 1.0) * xs[i]  # 2 u - 1 = (2m + 1) 2^-52 - 1, exact
    slow = ~(np.abs(x) < xs[i + 1])
    x[slow] = [ref_gaussian_word(w) for w in z[slow].tolist()]
    return x


def ref_invert(fam, p, z):
    """The draws of the family fam at parameters p from the mixed words z."""
    if fam == "gaussian":
        return p[0] + math.sqrt(p[1]) * ref_gaussian(z)
    u = ref_uniform(z)
    if fam == "uniform":
        return p[0] + (p[1] - p[0]) * u
    if fam == "laplace":
        v = u - 0.5
        return p[0] - p[1] * np.sign(v) * np.log1p(-2.0 * np.abs(v))
    if fam == "exponential":
        return p[1] - np.log1p(-u) / p[0]
    if fam == "student3":
        return t3_quantile(u) * p[0]
    raise AssertionError(fam)


def ref_tree(y):
    """The roots of the pairwise trees over the rows of y: halve each row until one column is left."""
    while y.shape[1] > 1:
        y = y[:, 0::2] + y[:, 1::2]
    return y[:, 0]


def ref_draw(m, seed, start, n):
    """n draws of the atomic or parametric law m from counter start, one counter each."""
    if isinstance(m, cf.Atomic):
        return ref_draw_atomic(m, n, seed, start)
    return ref_invert(m.family, m.params, ref_words(seed, start, n))


def ref_level(m, k, seed, start, n):
    """n draws of T^k m from counter start: all 2^k n draws of m at once, halved pairwise.

    Draw i is the tree sum of draws i 2^k .. i 2^k + 2^k - 1 of m, which
    take the counters after start in turn, scaled once.
    """
    rows = ref_draw(m, seed, start, n << k).reshape(n, 1 << k)
    return ref_tree(rows) * 2.0 ** (-k / 2.0)


def same_bits(a, b) -> bool:
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    return a.shape == b.shape and np.array_equal(
        a.view(np.float64).view(np.uint64), b.view(np.float64).view(np.uint64)
    )


# asymmetric, holds 0 and repeats |xi| both with and without a sign change
EXPLICIT = np.array([3.5, -1.0, 0.0, 0.25, 1.0, -7.0, 1.0, -3.5, 2.0, -0.25, 0.0])


@pytest.fixture
def small_chunk(monkeypatch):
    # a chunk of 2^14 point-sample pairs: a few thousand samples span several
    # chunks, each ending in a partial row block, at little memory
    monkeypatch.setattr(charfn, "_CHUNK", 1 << 14)
    monkeypatch.setitem(globals(), "_CHUNK", 1 << 14)


def lattice_sample():
    return level_draws(bank.skewed_two_atom(), 4, 20_000, 1234)


def dense_sample(n=40_000):
    return level_draws(bank.gaussian(), 2, n, 1234)


def wide_sample(n=40_000):
    """Dense samples near 1e13: no bin of width 1 / max|xi| takes one where max|xi| >= 0.11."""
    return 1e13 + 1e3 * dense_sample(n)


def fallback_cf(x, pts):
    """The cf of x fed at once, on EmpiricalCf's exact fall-back (_exact_dense) alone."""
    acc = charfn.EmpiricalCf(pts).add(x)
    assert acc._dense and not acc._moments.size  # no bin took a sample
    return acc.value()


@pytest.mark.parametrize("points", ["oracle-grid", "explicit"])
def test_empirical_cf_lattice_bits(points):
    x = lattice_sample()
    assert np.unique(x).size <= 4096  # the compressed path
    pts = ORACLE_GRID.points() if points == "oracle-grid" else EXPLICIT
    assert same_bits(charfn.EmpiricalCf(pts).add(x).value(), ref_empirical_cf(x, pts))


@pytest.mark.parametrize("points", ["oracle-grid", "explicit", "pair", "one"])
def test_empirical_cf_dense_bits(points, small_chunk):
    pts = {
        "oracle-grid": ORACLE_GRID.points(),
        "explicit": EXPLICIT,
        "pair": np.array([-1.5, 1.5]),  # two points, one distinct |xi|
        "one": np.array([-2.0]),
    }[points]
    x = wide_sample()
    step = charfn._CHUNK // pts.size
    assert x.size > step  # more than one chunk
    assert (x.size % step) % charfn._ROW_BLOCK  # the last row block is partial
    assert same_bits(fallback_cf(x, pts), ref_empirical_cf(x, pts))


@pytest.mark.parametrize("xi", [0.7, -3.25])
def test_empirical_cf_scalar_bits(xi, small_chunk):
    # one point: the dense sums reduce one column pairwise, a chunk at a time
    pts = np.array([xi])
    x = lattice_sample()
    assert same_bits(charfn.EmpiricalCf(pts).add(x).value(), ref_empirical_cf(x, pts))
    x = wide_sample()
    assert same_bits(fallback_cf(x, pts), ref_empirical_cf(x, pts))


def test_empirical_cf_dense_bits_at_full_chunk():
    # the chunk size the oracle runs with: 100 points give 41,943-sample
    # chunks, so 50,000 samples span two, the second ending mid-block
    pts = np.linspace(-40.0, 35.0, 100)
    x = wide_sample(50_000)
    assert same_bits(fallback_cf(x, pts), ref_empirical_cf(x, pts))


def uniforms(seed, start, count):
    """The generator's uniforms, as draws of the uniform law on (0, 1): u (1 - 0) + 0 is u."""
    return draws(cf.make_parametric("uniform", (0.0, 1.0)), count, seed, start)


@pytest.mark.parametrize(
    "start", [0, 12_345, 2**63 - 3, 2**64 - 7], ids=["zero", "small", "2^63", "wrap"]
)
def test_uniforms_match_the_integer_formula(start):
    seed, count = 99, 16
    key = mc._mix64_int(seed)
    got = uniforms(seed, start, count)
    want = [
        ((mc._mix64_int((key + mc.PHI64 * ((start + i + 1) % 2**64)) & mc._MASK) >> 12)
         + 0.5) * 2.0**-52
        for i in range(count)
    ]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    assert np.all((got > 0.0) & (got < 1.0))


def test_uniforms_match_reference_array():
    for start, count in ((0, 1), (1000, 100_000), (2**40, 3000)):
        got = uniforms(7, start, count)
        want = ref_uniforms(7, start, count)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def ref_pick(edges, z):
    """The categorical index of each mixed word: its uniform searched among the edges."""
    return np.minimum(np.searchsorted(edges, ref_uniform(z), side="right"), edges.size - 1)


def edge_words(edges):
    """W_e - 1, W_e and W_e + 1 for each edge a uniform reaches, W_e = ceil(e 2^52 - 1/2) 2^12.

    Checks on the way that W_e is the first word whose uniform reaches e.
    """
    out = []
    for e in edges.tolist():
        m = max(0, math.ceil(Fraction(e) * 2**52 - Fraction(1, 2)))
        if m >= 2**52:
            assert e > 1.0 - 2.0**-53  # no uniform reaches e
            continue
        w = np.array([max(0, (m << 12) - 1), m << 12, (m << 12) + 1], dtype=np.uint64)
        u = ref_uniform(w)
        assert u[1] >= e and (m == 0 or u[0] < e)
        out.append(w)
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint64)


@pytest.mark.parametrize("atoms", [1, 2, 3, 8, 9, 13])
def test_categorical_index_matches_searchsorted(atoms):
    rng = np.random.default_rng(atoms)
    ws = rng.random(atoms) + 0.01
    m = cf.measures.make_atomic(zip(np.sort(rng.normal(size=atoms)), ws / ws.sum()))
    edges = np.cumsum(m.weights)
    # the generator's words, and the words on both sides of each edge's threshold
    z = np.concatenate([ref_words(atoms, 0, 5000), edge_words(edges)])
    assert np.array_equal(mc._pick(edges)(z), ref_pick(edges, z))
    for start in (0, 777):
        got = draws(m, 3000, 11, start)
        assert np.array_equal(got, ref_draw_atomic(m, 3000, 11, start))


AWKWARD_EDGES = {
    # odd multiples of 2^-53 in [1/2, 1), each a uniform itself (a tie); the
    # largest, 1 - 2^-53, is the largest uniform
    "odd-multiples": [0.25, 0.5 + 2.0**-53, 0.75 - 2.0**-53, 1.0 - 2.0**-53, 1.0],
    # a cumsum that rounds past 1: no uniform reaches the last edge
    "unreachable-last": [0.3, 0.7, 1.0000000000000002],
    # inner edges that no uniform reaches either
    "unreachable-inner": [0.5, 1.0, 1.0, 1.0000000000000002],
    # many atoms, some edges that no uniform reaches among them
    "many-atoms": [2.0**-60, *np.linspace(0.05, 0.95, 10).tolist(), 0.5 + 2.0**-53,
                   1.0 - 2.0**-53, 1.0, 1.0000000000000002],
}


@pytest.mark.parametrize("case", sorted(AWKWARD_EDGES))
def test_word_threshold_index_matches_the_uniforms(case):
    edges = np.sort(np.array(AWKWARD_EDGES[case]))
    top = np.array([0, 2**64 - 1], dtype=np.uint64)  # the smallest and largest uniforms
    z = np.concatenate([ref_words(3, 0, 2000), edge_words(edges), top])
    assert np.array_equal(mc._pick(edges)(z), ref_pick(edges, z))


def test_cflevel_folds_add_reference_draws(skewed):
    # level-3 draw i is the tree sum of base draws 8i .. 8i + 7, scaled once
    n, seed = 1000, 21
    b = ref_draw_atomic(skewed, 8 * n, seed, 0).reshape(n, 8).T
    total = ((b[0] + b[1]) + (b[2] + b[3])) + ((b[4] + b[5]) + (b[6] + b[7]))
    got = level_draws(skewed, 3, n, seed)
    assert same_bits(got, total * 2.0**-1.5)


def random_atomic(atoms):
    rng = np.random.default_rng(atoms)
    ws = rng.random(atoms) + 0.01
    return cf.measures.make_atomic(zip(np.sort(rng.normal(size=atoms)), ws / ws.sum()))


BASES = {
    **{f"atomic-{k}": (lambda k=k: random_atomic(k)) for k in (2, 3, 9, 13)},
    # a tree sum of -0.0 draws is -0.0, and the one scale keeps its sign
    "atomic-negative-zero": lambda: cf.measures.make_atomic(
        [(-1.0, 0.25), (-0.0, 0.5), (1.0, 0.25)]),
    "gaussian": bank.gaussian,
    "uniform": bank.uniform_std,
    "laplace": bank.laplace_std,
    "exponential-std": bank.exponential_std,  # the exponential, shifted
    "heavy-cubic": bank.heavy_tail_std,
    "empirical": lambda: cf.make_atomic(
        (x, 1.0) for x in np.random.default_rng(8).standard_t(3, 777)),
}
STARTS = (0, 12_345, 2**64 - 600)  # the last one wraps past 2^64 mid-draw


def draw_sizes(k):
    """One draw, under a part's draws, one part, a last part of one draw, a ragged tail.

    A part of the float route holds the rows of 2^k draws that fill
    _PART_CELLS words, or one row where it is longer.
    """
    cols = max(1, mc._PART_CELLS >> k)
    return (1, max(1, cols - 1), cols, 2 * cols + 1, 2 * cols + 5)


def assert_sampler_bits(m, k, seed=1234, starts=STARTS, sizes=None):
    """Draws of m (k = 0) or of its level k keep the reference's bits."""
    for start in starts:
        for n in sizes or draw_sizes(k):
            got = draws(m, n, seed, start) if k == 0 else level_draws(m, k, n, seed, start)
            want = ref_level(m, k, seed, start, n)
            assert got.shape == (n,)
            assert same_bits(got, want), (start, n)


@pytest.mark.parametrize("k", [0, 1, 6])
@pytest.mark.parametrize("name", list(BASES))
def test_sampler_matches_fold_loop(name, k):
    assert_sampler_bits(BASES[name](), k)


@pytest.mark.parametrize("name", ["atomic-2", "atomic-13", "gaussian", "exponential-std"])
def test_sampler_matches_fold_loop_beyond_one_block(name):
    # a row of 2^16 draws exceeds the word stride _BLOCK_CELLS = 2^15 and
    # the part _PART_CELLS = 2^14, so a block and a part grow to the whole
    # row: the same pairs as one tree over the row
    k = 16
    assert (1 << k) > max(mc._BLOCK_CELLS, mc._PART_CELLS)
    assert_sampler_bits(BASES[name](), k, starts=(0, 2**64 - 70_000), sizes=(1, 2, 3))


@pytest.fixture
def small_block(monkeypatch):
    # 64 counters a block and 64 draws a part: for a level-7 law both grow
    # to a whole row of 128 draws, so every ragged edge shows at a small size
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(mc, "_PART_CELLS", 64)


@pytest.mark.parametrize("name", ["atomic-2", "atomic-9", "gaussian", "empirical"])
def test_sampler_matches_fold_loop_small_block(name, small_block):
    assert_sampler_bits(BASES[name](), 7)


@pytest.mark.parametrize("block", [8, 64, 1 << 14, 1 << 15])
@pytest.mark.parametrize("name", ["flat"])
def test_no_counter_is_drawn_twice(name, block, monkeypatch):
    # every word the generator mixes for a level-5 law, mapped back to its
    # counter, covers start .. start + 2^5 n - 1 once each, in order
    monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    seen = []
    mix = mc._mix

    def recording_mix(z, scratch):
        seen.append(z.copy())
        return mix(z, scratch)

    monkeypatch.setattr(mc, "_mix", recording_mix)
    seed, start, n, k = 4, 2**64 - 1000, 1000, 5
    level_draws(bank.skewed_two_atom(), k, n, seed, start)
    inv = np.uint64(pow(mc.PHI64, -1, 2**64))
    key = np.uint64(mc._mix64_int(seed))
    counters = (np.concatenate(seen) - key) * inv - np.uint64(1)
    want = (np.arange(n << k, dtype=np.uint64) + np.uint64(start % 2**64))
    assert np.array_equal(counters, want)


@pytest.mark.parametrize(
    "block, length, row",
    [
        (1 << 15, 3 * (1 << 15) + 40, 1),  # the default block, a short last block
        (1 << 14, 3 * (1 << 14) + 40, 1),
        (8, 101, 1),
        (64, 1000, 8),
        (64, 3 * 128 + 8, 128),  # a row longer than a block: a block of one row
    ],
)
def test_blocks_start_on_a_cache_line_and_are_read_only(block, length, row, monkeypatch):
    # every block, the short last one included, starts on a 64-byte line,
    # refuses writes, and holds the reference's words in counter order
    monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    seed, start, size = 9, 2**64 - 300, max(block, row)
    got = []
    for z in mc._blocks(seed, start, length, row):
        assert z.ctypes.data % 64 == 0
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[:1] = 0
        got.append(z.copy())
    assert [z.size for z in got] == [size] * (length // size) + [length % size] * (length % size > 0)
    assert np.array_equal(np.concatenate(got), ref_words(seed, start, length))


def placed(words: np.ndarray, offset: int) -> np.ndarray:
    """A copy of the uint64 words that starts offset bytes past a 64-byte line."""
    raw = np.empty(8 * words.size + 128, dtype=np.uint8)
    at = -raw.ctypes.data % 64 + offset
    out = raw[at : at + 8 * words.size].view(np.uint64)
    out[:] = words
    assert out.ctypes.data % 64 == offset
    return out


def test_mix_keeps_its_bits_at_every_offset_in_a_cache_line():
    # the same words mixed at each 16-byte offset inside a line, scratch at
    # another: placement never moves a bit
    key = np.uint64(mc._mix64_int(3))
    with np.errstate(over="ignore"):
        words = key + np.uint64(mc.PHI64) * np.arange(1, 1001, dtype=np.uint64)
    want = ref_mix(words)
    for offset in (0, 16, 32, 48):
        z = placed(words, offset)
        scratch = placed(np.zeros(words.size, dtype=np.uint64), (offset + 16) % 64)
        assert np.array_equal(mc._mix(z, scratch), want), offset


# counters whose words under seed 5 take each way through the gaussian
# ziggurat's slow path, by the steps ref_gaussian_word records
SLOW_PATHS = {
    ("wedge",): 409,
    ("wedge-again", "fast"): 529,
    ("tail",): 267_292,
    ("wedge-again", "wedge-again", "fast"): 270_626,
    ("wedge-again", "wedge"): 1_901_627,
    ("tail-again", "tail"): 2_034_175,
}


@pytest.mark.parametrize("params", [(0.0, 1.0), (0.5, 2.0)])
def test_gaussian_slow_paths_keep_their_bits(params):
    # a word of each way through the slow path, alone, together, and among
    # fast words at a block's start and end: the reference's bits each time,
    # and the words left as they were
    slow = []
    for path, counter in SLOW_PATHS.items():
        [w] = ref_words(5, counter, 1).tolist()
        steps = []
        ref_gaussian_word(w, steps)
        assert tuple(steps) == path
        slow.append(w)
    slow, fast = np.array(slow, dtype=np.uint64), ref_words(6, 0, 50)
    transform = mc._transform(cf.make_parametric("gaussian", params), 64)
    blocks = (slow[:1], slow, np.concatenate([slow[:3], fast, slow[3:]]), np.concatenate([fast, slow]))
    for z in blocks:
        keep = z.copy()
        z.flags.writeable = False
        assert same_bits(transform(z, np.empty(z.size)), ref_invert("gaussian", params, keep))
        assert np.array_equal(z, keep)


STREAM_LAWS = {
    # law, level
    "atomic": (bank.skewed_two_atom, 0),
    "gaussian": (bank.gaussian, 0),
    "gaussian-6": (bank.gaussian, 6),
}


def part_draws(m, k, seed, n):
    """n draws of level k of m from counter 0 on, and the draws of each part they were made in.

    The flow check's float route makes them (conftest.level_draws): one
    transform makes each part of a block of words its draws in one buffer,
    the last part holding the rest.
    """
    sizes, transform = [], mc._transform

    def recording(law, size):
        made = transform(law, size)

        def record(z, out):
            sizes.append(z.size >> k)
            return made(z, out)

        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_transform", recording)
        return level_draws(m, k, n, seed), sizes


@pytest.mark.parametrize("size", ["parts", "parts+1", "lone-in-part", "lone-next-part"])
@pytest.mark.parametrize("name", sorted(STREAM_LAWS))
def test_stream_parts_are_the_draws(name, size):
    # whole parts, then a last part of one draw, alone or after a whole one,
    # each made by the one transform into the one reused buffer
    law, k = STREAM_LAWS[name]
    m = law()
    cols = mc._PART_CELLS >> k
    n = {
        "parts": 2 * cols,
        "parts+1": 2 * cols + 1,
        "lone-in-part": 1,
        "lone-next-part": cols + 1,
    }[size]
    got, sizes = part_draws(m, k, 1234, n)
    assert sizes == [cols] * (n // cols) + [n % cols] * (n % cols > 0)
    if k == 0:
        assert same_bits(got, draws(m, n, 1234))
    assert same_bits(got, ref_level(m, k, 1234, 0, n))


def overflowing_law():
    # 3500 common atoms, 2000 rare ones and one beyond 2^40 bin widths:
    # parts of 2^14 draws pass _LATTICE_MAX distinct values a few parts in
    atoms = [(j / 64.0, 1.0) for j in range(3500)]
    atoms += [(-1.0 - j / 64.0, 0.02) for j in range(2000)] + [(1e12, 0.01)]
    return cf.measures.make_atomic(atoms)


def test_binned_cf_keeps_lattice_bits_until_the_stream_overflows():
    # the parts after the overflow go to the moments and the exact sums
    pts = ORACLE_GRID.points()
    acc = charfn.EmpiricalCf(pts)
    seen, distinct = [], []
    for part in np.split(draws(overflowing_law(), 6 * mc._PART_CELLS, 1234), 6):
        seen.append(part)
        acc.add(part)
        x = np.concatenate(seen)
        distinct.append(np.unique(x).size)
        got, want = acc.value(), ref_empirical_cf(x, pts)
        if distinct[-1] <= charfn._LATTICE_MAX:
            assert same_bits(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12
    assert distinct[1] <= charfn._LATTICE_MAX < distinct[-2]


def ref_histogram_add(vals, counts, x):
    """The merge EmpiricalCf.add made before it looked values up: np.unique of the part, then of both."""
    v, c = np.unique(x, return_counts=True)
    vals, inv = np.unique(np.concatenate((vals, v)), return_inverse=True)
    return vals, np.bincount(inv, weights=np.concatenate((counts, c)))


HISTOGRAM_CASES = {
    # five values, all in the first part: later parts bring none
    "no-new": (lambda n: level_draws(bank.rademacher(), 2, n, 1234), 2000),
    # 65 values, the rarest arriving part by part
    "new": (lambda n: level_draws(bank.skewed_two_atom(), 6, n, 1234), 2000),
    "overflow": (lambda n: draws(overflowing_law(), n, 1234), mc._PART_CELLS),
}


@pytest.mark.parametrize("case", sorted(HISTOGRAM_CASES))
def test_histogram_lookup_matches_the_unique_merge(case):
    sample, cols = HISTOGRAM_CASES[case]
    pts = ORACLE_GRID.points()
    acc = charfn.EmpiricalCf(pts)
    vals, counts, seen, grew = np.empty(0), np.empty(0), [], []
    for part in np.split(sample(6 * cols), 6):
        seen.append(part)
        acc.add(part)
        merged = ref_histogram_add(vals, counts, part)
        if merged[0].size > charfn._LATTICE_MAX or acc._dense:
            # the histogram joined the binned moments, but for the values no bin takes
            assert acc._dense
            kept = ~(np.abs(vals / acc._h) < charfn._BIN_SPAN_MAX)
            assert same_bits(acc._vals, vals[kept]) and same_bits(acc._counts, counts[kept])
        else:
            grew.append(merged[0].size > vals.size)
            vals, counts = merged
            assert same_bits(acc.value(), ref_empirical_cf(np.concatenate(seen), pts))
            assert same_bits(acc._vals, vals) and same_bits(acc._counts, counts)
    assert {
        "no-new": grew == [True] + [False] * 5,
        "new": grew[0] and any(grew[1:]) and not all(grew[1:]),
        "overflow": acc._dense and len(grew) > 1,
    }[case]


FLOW_LEVELS = {
    # law, levels, n, _BLOCK_CELLS: the benchmark's shape; a top level of
    # 12, where a part holds four rows and n leaves a ragged last part; rows
    # of 2^8 draws against _BLOCK_CELLS = 2^6, where a block grows to a row
    "rademacher-6": (bank.rademacher, 6, 100_000, None),
    "gaussian-12": (bank.gaussian, 12, 37, None),
    "skewed-12": (bank.skewed_two_atom, 12, 37, None),
    "deeper-than-a-block": (bank.gaussian, 8, 77, 64),
}


def ref_levels(m, levels, n, seed):
    """The flow check's levels from 2^L n reference draws of m (ref_draw).

    Level k of row i is the tree sum of the row's first 2^k draws, scaled once.
    """
    rows = ref_draw(m, seed, 0, n << levels).reshape(n, -1)
    return [ref_tree(rows[:, : 1 << k]) * 2.0 ** (-k / 2.0) for k in range(levels + 1)]


def takes_lattice_route(m, levels) -> bool:
    return mc._lattice(m, levels) is not None


def assert_fed_histogram(ecf, level):
    """ecf was fed the histogram of level's values once, bit for bit, and nothing else."""
    assert not ecf.fed and len(ecf.histograms) == 1
    [(vals, counts)] = ecf.histograms
    want_vals, want_counts = np.unique(level, return_counts=True)
    assert same_bits(vals, want_vals) and np.array_equal(counts, want_counts)


@pytest.mark.parametrize("name", sorted(FLOW_LEVELS))
def test_flow_levels_are_scaled_tree_sums_of_one_sample(name, level_cfs, monkeypatch):
    # the lattice route feeds each level its histogram, the float route its
    # values in order; skewed-12's top level may take 2^12 + 1 values, one
    # past the histogram, so it takes the float route
    law, levels, n, block = FLOW_LEVELS[name]
    monkeypatch.setattr(mc, "MIN_FLOW_SAMPLES", 1)
    if block:
        monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    m = law()
    lattice = takes_lattice_route(m, levels)
    assert lattice == (name == "rademacher-6")
    mc.empirical_flow_check([m], levels, n, 1234)
    want = ref_levels(m, levels, n, 1234)
    assert len(level_cfs) == levels + 1
    for ecf, w in zip(level_cfs, want):
        if lattice:
            assert_fed_histogram(ecf, w)
        else:
            assert not ecf.histograms and same_bits(np.concatenate(ecf.fed), w)


def centred_lattice(m):
    """The law of variance 1 on 0 and +-i h, i = 1..m, h a power of 2, the outer atoms weighted alike."""
    mean_sq = (m + 1) * (2 * m + 1) / 6  # of i^2 over i = 1..m
    h = 2.0 ** -math.floor(math.log2(math.sqrt(mean_sq)))  # mean_sq h^2 in [1, 4)
    w0 = 1.0 - 1.0 / (mean_sq * h * h)
    outer = [(s * i * h, (1.0 - w0) / (2 * m)) for i in range(1, m + 1) for s in (-1, 1)]
    return cf.measures.make_atomic([(0.0, w0), *outer])


def three_atom():
    # positions (-2 + 3 j) 2^-1 for the codes j = 0, 1, 2: two walls, steps 1
    return cf.measures.make_atomic([(-1.0, 4 / 9), (0.5, 4 / 9), (2.0, 1 / 9)])


LATTICE_LAWS = {
    # law, levels, whether the lattice route holds, mc constants to set
    "rademacher-6": (bank.rademacher, 6, True, {}),
    "skewed-6": (bank.skewed_two_atom, 6, True, {}),
    # rows of 2^10 bits, 16 words: the top levels add their words' popcounts
    "skewed-10": (bank.skewed_two_atom, 10, True, {}),
    # the top lattice level for two atoms: rows of 32 words
    "rademacher-11": (bank.rademacher, 11, True, {}),
    # rows shorter than a byte, 8, 4 and 2 to a byte
    "skewed-0": (bank.skewed_two_atom, 0, True, {}),
    "rademacher-1": (bank.rademacher, 1, True, {}),
    "three-atom-2": (three_atom, 2, True, {}),
    "three-atom-6": (three_atom, 6, True, {}),
    # positions -1 + j for the codes 0, 1, 3: walls of steps 1 and 2
    "gapped-8": (lambda: cf.measures.make_atomic(
        [(-1.0, 1 / 3), (0.0, 1 / 2), (2.0, 1 / 6)]), 8, True, {}),
    # +-i/4, i = 1..6: 11 walls; the codes 0..5 and 7..12 step by 2 once
    "twelve-atom-6": (lambda: cf.measures.make_atomic(
        [(s * i / 4, 0.1 if i == 6 else 0.08) for i in range(1, 7) for s in (-1, 1)]),
        6, True, {}),
    # _WALLS_MAX walls, and two more, which the lattice route leaves
    "walls-max-2": (lambda: centred_lattice(16), 2, True, {}),
    "walls-max-plus-two-2": (lambda: centred_lattice(17), 2, False, {}),
    # rows of 2^9 draws against _BLOCK_CELLS = 2^6: a block grows to a row
    "skewed-9-small-block": (bank.skewed_two_atom, 9, True, {"_BLOCK_CELLS": 64}),
    # passes of 4 rows of 2^7 draws, and of 8 rows of 4 draws: 1001 rows end
    # in a pass of one row, half a byte in the second
    "skewed-7-small-pass": (bank.skewed_two_atom, 7, True, {"_PASS_CELLS": 1 << 9}),
    "three-atom-2-small-pass": (three_atom, 2, True, {"_PASS_CELLS": 1 << 9}),
    # 1/3 is no dyadic: its lattice with -3 needs integers near 2^54
    "one-third-6": (lambda: cf.measures.make_atomic([(-3.0, 0.1), (1 / 3, 0.9)]), 6, False, {}),
    # the top level may take 2^12 + 1 values, one past the histogram
    "rademacher-12": (bank.rademacher, 12, False, {}),
    # the float route's sums of -0.0 draws are -0.0, a value of their own
    "negative-zero-6": (lambda: cf.measures.make_atomic(
        [(-2.0, 1 / 8), (-0.0, 3 / 4), (2.0, 1 / 8)]), 6, False, {}),
}


@pytest.mark.parametrize("name", sorted(LATTICE_LAWS))
def test_lattice_route_keeps_the_float_route_bits(name, level_cfs, monkeypatch):
    law, levels, lattice, constants = LATTICE_LAWS[name]
    monkeypatch.setattr(mc, "MIN_FLOW_SAMPLES", 1)
    for constant, value in constants.items():
        monkeypatch.setattr(mc, constant, value)
    m, n, pts = law(), 1001, ORACLE_GRID.points()
    assert takes_lattice_route(m, levels) == lattice
    (got,) = mc.empirical_flow_check([m], levels, n, 1234)
    want_levels = ref_levels(m, levels, n, 1234)
    assert len(level_cfs) == levels + 1
    for ecf, w in zip(level_cfs, want_levels):
        vals, counts = np.unique(w, return_counts=True)
        assert same_bits(ecf._vals, vals) and np.array_equal(ecf._counts, counts)
        assert same_bits(ecf.value(), ref_empirical_cf(w, pts))
        if lattice:
            assert_fed_histogram(ecf, w)
    monkeypatch.setattr(mc, "_lattice", lambda base, depth: None)
    (want,) = mc.empirical_flow_check([m], levels, n, 1234)
    assert got == want and same_bits(got.per_level, want.per_level)


@pytest.mark.parametrize("pos", [1.0, 0.0])
def test_one_atom_law_takes_no_lattice_route(pos):
    # one atom has no lattice step; the flow check refuses the law (variance
    # 0) before it picks a route
    m = cf.measures.make_atomic([(pos, 1.0)])
    assert mc._lattice(m, 6) is None
    with pytest.raises(MembershipError):
        mc.empirical_flow_check([m], 6, 100_000, 1234)


@pytest.mark.parametrize("case", ["lattice", "first-add", "overflow", "dense"])
def test_add_histogram_is_add_of_the_repeated_values(case):
    # merged into a histogram left by add, made past _LATTICE_MAX values, or
    # given to a cf that already left the histogram
    pts = ORACLE_GRID.points()
    x = level_draws(bank.skewed_two_atom(), 6, 3000, 1234)
    before = {
        "lattice": x[:1000],
        "first-add": np.empty(0),
        "overflow": np.arange(4095.0) + 0.1,  # shares no value with x
        "dense": dense_sample(5000),
    }[case]
    vals, counts = np.unique(x[1000:], return_counts=True)
    got = charfn.EmpiricalCf(pts).add(before).add_histogram(vals, counts)
    want = charfn.EmpiricalCf(pts).add(before).add(np.repeat(vals, counts))
    assert got._dense == want._dense == (case in ("overflow", "dense"))
    assert same_bits(got._vals, want._vals) and same_bits(got._counts, want._counts)
    assert same_bits(got.value(), want.value())


FLOW_DRAW_LAWS = {
    "gaussian": bank.gaussian,
    "skewed": bank.skewed_two_atom,
    "rademacher": bank.rademacher,
    "uniform": bank.uniform_std,
}


@pytest.mark.parametrize("name", [*FLOW_DRAW_LAWS, "all-four"])
def test_flow_check_draws_each_base_value_once(name, monkeypatch):
    # 2^L n draws for a top level L, each from one word.  Laws checked in
    # one call read one stream: its words are mixed once, not once per law
    if name == "all-four":
        laws = [law() for law in FLOW_DRAW_LAWS.values()]
    else:
        laws = [FLOW_DRAW_LAWS[name]()]
        assert takes_lattice_route(laws[0], 3) == (name in ("skewed", "rademacher"))
    drawn = []
    mix = mc._mix  # SplitMix, on the words of both routes

    def counting_mix(z, scratch):
        drawn.append(z.size)
        return mix(z, scratch)

    monkeypatch.setattr(mc, "_mix", counting_mix)
    levels, n = 3, 100_000
    checks = mc.empirical_flow_check(laws, levels, n, 5)
    assert all(chk.ok for chk in checks)
    assert sum(drawn) == n << levels == 800_000


def test_word_blocks_are_read_only():
    # every sink of a block reads the same words: none may write them
    blocks = list(z.copy() for z in mc._blocks(9, 2**64 - 5, 3 * mc._BLOCK_CELLS + 7))
    assert [z.size for z in blocks] == [mc._BLOCK_CELLS] * 3 + [7]
    assert np.array_equal(np.concatenate(blocks), ref_words(9, 2**64 - 5, 3 * mc._BLOCK_CELLS + 7))
    for z in mc._blocks(9, 0, 10):
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0


def test_a_block_grows_to_a_whole_row(monkeypatch):
    # _BLOCK_CELLS = 64 against rows of 2^9 draws: every block but the last
    # holds one whole row, for both routes of one check
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(mc, "MIN_FLOW_SAMPLES", 1)
    sizes, mix = [], mc._mix

    def recording_mix(z, scratch):
        sizes.append(z.size)
        return mix(z, scratch)

    monkeypatch.setattr(mc, "_mix", recording_mix)
    laws = [bank.gaussian(), bank.skewed_two_atom()]
    assert [takes_lattice_route(m, 9) for m in laws] == [False, True]
    mc.empirical_flow_check(laws, 9, 37, 1234)
    assert sizes == [512] * 37
    sizes.clear()
    assert [z.size for z in mc._blocks(9, 0, 3 * 512 + 7, 512)] == [512] * 3 + [7]
    assert sizes == [512] * 3 + [7]


def assert_same_cf(a, b):
    """EmpiricalCf a holds the numbers b holds, bit for bit, and was fed what b was fed."""
    assert (a._n, a._dense, a._k_lo, a._k_hi) == (b._n, b._dense, b._k_lo, b._k_hi)
    for x, y in ((a._vals, b._vals), (a._counts, b._counts), (a._moments, b._moments),
                 (a._exact, b._exact), (a.value(), b.value())):
        assert same_bits(x, y)
    assert len(a.fed) == len(b.fed) and all(same_bits(x, y) for x, y in zip(a.fed, b.fed))
    assert len(a.histograms) == len(b.histograms)
    for (va, ca), (vb, cb) in zip(a.histograms, b.histograms):
        assert same_bits(va, vb) and np.array_equal(ca, cb)


MANY_LAWS = {
    # laws, levels, n, _BLOCK_CELLS: two lattice laws, the benchmark's shape
    "rademacher-skewed": ((bank.rademacher, bank.skewed_two_atom), 6, 100_000, None),
    # the float route beside the lattice route
    "gaussian-rademacher-skewed": (
        (bank.gaussian, bank.rademacher, bank.skewed_two_atom), 4, 100_000, None),
    # n 2^L words end mid-block: 400,012 against blocks of 2^15
    "ragged-n": ((bank.skewed_two_atom, bank.uniform_std), 2, 100_003, None),
    # 1001 rows of 2^5 words, two to a block of 64
    "small-block": ((bank.gaussian, bank.skewed_two_atom, bank.laplace_std), 5, 1001, 64),
}


@pytest.mark.parametrize("name", sorted(MANY_LAWS))
def test_laws_checked_together_get_their_checks_alone(name, level_cfs, monkeypatch):
    # one call reads the counter stream once for all its laws: each law gets
    # the FlowCheck, and level cfs fed the same values, of a call of its own
    laws, levels, n, block = MANY_LAWS[name]
    monkeypatch.setattr(mc, "MIN_FLOW_SAMPLES", 1)
    if block:
        monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    laws = [law() for law in laws]
    routes = [takes_lattice_route(m, levels) for m in laws]
    assert (name != "gaussian-rademacher-skewed") or routes == [False, True, True]
    together = mc.empirical_flow_check(laws, levels, n, 1234)
    made = list(level_cfs)
    assert isinstance(together, tuple) and len(together) == len(laws)
    assert len(made) == len(laws) * (levels + 1)
    for i, m in enumerate(laws):
        level_cfs.clear()
        (alone,) = mc.empirical_flow_check([m], levels, n, 1234)
        assert together[i] == alone and same_bits(together[i].per_level, alone.per_level)
        assert len(level_cfs) == levels + 1
        for a, b in zip(made[i * (levels + 1) :], level_cfs):
            assert_same_cf(a, b)


@pytest.mark.parametrize("stride", [1 << 6, 1 << 14, 1 << 15, 1 << 16])
def test_flow_check_does_not_depend_on_the_word_stride(stride, level_cfs, monkeypatch):
    # the stride sets how many words a block mixes, never a bit: the float
    # route cuts each block into its parts of _PART_CELLS words, so a dense
    # level's adds take the same chunks, 4352 values at a time, at every stride
    laws, levels, n = [bank.gaussian(), bank.rademacher(), bank.skewed_two_atom()], 6, 100_000
    want = mc.empirical_flow_check(laws, levels, n, 1234)
    default = list(level_cfs)
    level_cfs.clear()
    monkeypatch.setattr(mc, "_BLOCK_CELLS", stride)
    got = mc.empirical_flow_check(laws, levels, n, 1234)
    assert got == want and all(same_bits(a.per_level, b.per_level) for a, b in zip(got, want))
    assert len(level_cfs) == len(default) == 3 * (levels + 1)
    for a, b in zip(level_cfs, default):
        assert_same_cf(a, b)
    dense = level_cfs[: levels + 1]
    assert all(ecf._dense and [v.size for v in ecf.fed] == [4352] * 22 + [4256] for ecf in dense)


def test_flow_check_of_no_laws_or_a_bad_one_raises():
    with pytest.raises(MeasureError):
        mc.empirical_flow_check([], 2, 100_000, 1)
    # the first bad law in order raises, before any draw
    composite = cf.scale_law(cf.convolve(bank.gaussian(), bank.rademacher()), 2.0**-0.5)
    with pytest.raises(MeasureError, match="not ConvProduct"):
        mc.empirical_flow_check(
            [bank.gaussian(), composite, cf.NormalizedSum(bank.gaussian(), 2**30)], 2, 100_000, 1)


COMPOSITES = {
    "normalized-sum": lambda: cf.NormalizedSum(bank.skewed_two_atom(), 4),
    # a point mass convolves with a closed-form law into a product
    "affine": lambda: cf.convolve(bank.uniform_std(), cf.make_atomic([(0.0, 1.0)])),
    "conv-product": lambda: cf.convolve(cf.scale_law(bank.uniform_std(), 0.6),
                                        cf.scale_law(bank.gaussian(), 0.8)),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_flow_check_refuses_a_composite_law(name, monkeypatch):
    # the oracle draws atomic and parametric laws only; any other is
    # refused before a word is mixed, even when it is a member of q2
    m = COMPOSITES[name]()
    assert cf.q_membership(m, 2)

    def no_words(z, scratch):
        raise AssertionError("a word was mixed")

    monkeypatch.setattr(mc, "_mix", no_words)
    with pytest.raises(MeasureError, match=f"not {type(m).__name__}"):
        mc.empirical_flow_check([m], 2, 100_000, 1)
    with pytest.raises(MeasureError, match=f"not {type(m).__name__}"):
        mc.empirical_flow_check([bank.gaussian(), m], 2, 100_000, 1)


# sha256 of the oracle CSV of FIVE_LAW_ORACLE: the lattice route
# (rademacher, skewed) and the float route beside it, by inverse CDF
# (gaussian, uniform-std) and by the counted index of a non-dyadic law
FIVE_LAW_ORACLE_SHA256 = "c0fe81652386ad9cbac296a4eeb7a8c484b18961e01438c3d3d18dfa6551491a"
FIVE_LAW_ORACLE = {
    "seed": 77,
    "measures": {"third": {"type": "atomic", "atoms": [[-3.0, 0.1], [0.3333333333333333, 0.9]]}},
    "commands": [{"command": "oracle", "levels": 4, "samples": 100_000,
                  "measures": ["gaussian", "rademacher", "skewed", "third", "uniform-std"]}],
}


def test_five_law_oracle_keeps_its_bytes(tmp_path):
    assert not mc._lattice(cf.make_atomic(FIVE_LAW_ORACLE["measures"]["third"]["atoms"]), 4)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(FIVE_LAW_ORACLE))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    blob = (tmp_path / "out" / "01_oracle.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == FIVE_LAW_ORACLE_SHA256
