"""The oracle path keeps its bits: empirical cf, uniforms and sampler draws.

The references below are the straightforward versions of empirical_cf,
_uniforms and the sampler (a loop that draws each fold in full and adds
the folds in order) that the mirrored, blocked and in-place versions in the
library replace.  Every comparison is bit for bit (view(np.uint64)),
because empirical_cf keeps its bits as the exact reference for the
oracle's binned cf, and the oracle's draws keep theirs.  The gaussian
reference draws through the library's own inverse normal: these tests
check blocking and fold order, and test_special checks the transform
against mpmath.
"""

import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
from cltflow._special import ndtri
from cltflow.errors import MeasureError
from cltflow.mc import ORACLE_GRID

_CHUNK = charfn._CHUNK


def ref_empirical_cf(samples, xi):
    """Sample-average cf (1/N) sum exp(i x_j xi).

    Lattice-valued samples are compressed to distinct values first, which is
    an exact regrouping; dense samples fall back to chunked summation.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise MeasureError("empirical cf needs a nonempty sample")
    scalar = np.isscalar(xi) or getattr(xi, "ndim", 1) == 0
    pts = np.atleast_1d(np.asarray(xi, dtype=float))
    vals, counts = np.unique(x, return_counts=True)
    if vals.size <= 4096:
        ph = np.multiply.outer(pts, vals)
        wts = counts.astype(float)
        re = (np.cos(ph) * wts).sum(axis=1)
        im = (np.sin(ph) * wts).sum(axis=1)
        out = (re + 1j * im) / x.size
    else:
        re = np.zeros(pts.shape)
        im = np.zeros(pts.shape)
        step = max(1, _CHUNK // pts.size)
        for k in range(0, x.size, step):
            ph = np.multiply.outer(x[k : k + step], pts)
            re += np.cos(ph).sum(axis=0)
            im += np.sin(ph).sum(axis=0)
        out = (re + 1j * im) / x.size
    return complex(out[0]) if scalar else out


def ref_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """count uniforms in the open interval (0, 1) from counter positions start.."""
    key = np.uint64(mc._stream_key(seed, stream))
    with np.errstate(over="ignore"):
        idx = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) % 2**64)
        z = key + np.uint64(mc.PHI64) * idx
        z = (z ^ (z >> np.uint64(30))) * np.uint64(mc._MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(mc._MIX2)
        z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def ref_draw_atomic(m, n, seed, stream, start):
    u = ref_uniforms(seed, stream, start, n)
    edges = np.cumsum(m.weights)
    idx = np.minimum(np.searchsorted(edges, u, side="right"), len(m.atoms) - 1)
    return m.positions[idx]


def ref_invert(fam, p, u):
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
    raise AssertionError(fam)


def ref_width(m) -> int:
    if isinstance(m, cf.CfLevel):
        return ref_width(m.base) << m.count
    return ref_width(m.base) if isinstance(m, cf.Affine) else 1


def ref_draw(m, seed, stream, start, n):
    """n draws of m from counter start: each fold drawn in full, added to zeros(n).

    A fold steps by the base law's width times n; the base of a flat law
    has width 1, and then this is the fold loop the blocked sampler
    replaced, line for line.
    """
    if isinstance(m, cf.CfLevel):
        total = np.zeros(n)
        width = ref_width(m.base)
        for j in range(1 << m.count):
            total += ref_draw(m.base, seed, stream, start + j * width * n, n)
        return total * 2.0 ** (-m.count / 2.0)
    if isinstance(m, cf.Affine):
        return m.shift + m.scale * ref_draw(m.base, seed, stream, start, n)
    if isinstance(m, cf.Atomic):
        return ref_draw_atomic(m, n, seed, stream, start)
    u = ref_uniforms(seed, stream, start, n)
    if isinstance(m, cf.Empirical):
        x = m.samples
        return x[np.minimum((u * x.size).astype(np.int64), x.size - 1)]
    return ref_invert(m.family, m.params, u)


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
    return mc._sampler(cf.CfLevel(bank.skewed_two_atom(), 4), 1234, 4)(0, 20_000)


def dense_sample(n=40_000):
    return mc._sampler(cf.CfLevel(bank.gaussian(), 2), 1234, 2)(0, n)


@pytest.mark.parametrize("points", ["oracle-grid", "explicit"])
def test_empirical_cf_lattice_bits(points):
    x = lattice_sample()
    assert np.unique(x).size <= 4096  # the compressed path
    pts = ORACLE_GRID.points() if points == "oracle-grid" else EXPLICIT
    assert same_bits(cf.empirical_cf(x, pts), ref_empirical_cf(x, pts))


@pytest.mark.parametrize("points", ["oracle-grid", "explicit", "pair", "one"])
def test_empirical_cf_dense_bits(points, small_chunk):
    pts = {
        "oracle-grid": ORACLE_GRID.points(),
        "explicit": EXPLICIT,
        "pair": np.array([-1.5, 1.5]),  # two points, one distinct |xi|
        "one": np.array([-2.0]),
    }[points]
    x = dense_sample()
    step = charfn._CHUNK // pts.size
    assert x.size > step  # more than one chunk
    assert (x.size % step) % charfn._ROW_BLOCK  # the last row block is partial
    assert same_bits(cf.empirical_cf(x, pts), ref_empirical_cf(x, pts))


@pytest.mark.parametrize("xi", [0.0, 0.7, -3.25])
def test_empirical_cf_scalar_bits(xi, small_chunk):
    for x in (lattice_sample(), dense_sample()):
        got, want = cf.empirical_cf(x, xi), ref_empirical_cf(x, xi)
        assert isinstance(got, complex)
        assert same_bits(got, want)


def test_empirical_cf_dense_bits_at_full_chunk():
    # the chunk size the oracle runs with: 100 points give 41,943-sample
    # chunks, so 50,000 samples span two, the second ending mid-block
    pts = np.linspace(-40.0, 35.0, 100)
    x = dense_sample(50_000)
    assert same_bits(cf.empirical_cf(x, pts), ref_empirical_cf(x, pts))


@pytest.mark.parametrize(
    "start", [0, 12_345, 2**63 - 3, 2**64 - 7], ids=["zero", "small", "2^63", "wrap"]
)
def test_uniforms_match_the_integer_formula(start):
    seed, stream, count = 99, 5, 16
    key = mc._stream_key(seed, stream)
    got = mc._uniforms(key, start, count)
    want = [
        ((mc._mix64_int((key + mc.PHI64 * ((start + i + 1) % 2**64)) & mc._MASK) >> 12)
         + 0.5) * 2.0**-52
        for i in range(count)
    ]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    assert np.all((got > 0.0) & (got < 1.0))


def test_uniforms_match_reference_array():
    key = mc._stream_key(7, 3)
    for start, count in ((0, 1), (1000, 100_000), (2**40, 3000)):
        got = mc._uniforms(key, start, count)
        want = ref_uniforms(7, 3, start, count)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("atoms", [1, 2, 3, 8, 9, 13])
def test_categorical_index_matches_searchsorted(atoms):
    rng = np.random.default_rng(atoms)
    ws = rng.random(atoms) + 0.01
    m = cf.measures.make_atomic(zip(np.sort(rng.normal(size=atoms)), ws / ws.sum()))
    edges = np.cumsum(m.weights)
    # uniforms, the edges themselves (ties) and the values just below them
    u = np.concatenate([mc._uniforms(mc._stream_key(1, atoms), 0, 5000),
                        edges, np.nextafter(edges, 0.0)])
    want = np.minimum(np.searchsorted(edges, u, side="right"), atoms - 1)
    assert np.array_equal(mc._pick(edges)(u), want)
    for start in (0, 777):
        got = mc._sampler(m, 11, 4)(start, 3000)
        assert np.array_equal(got, ref_draw_atomic(m, 3000, 11, 4, start))


def test_cflevel_folds_add_reference_draws(skewed):
    # level-3 draws are the rescaled sum of 8 consecutive base blocks
    n, seed, stream = 1000, 21, 6
    total = np.zeros(n)
    for j in range(8):
        total += ref_draw_atomic(skewed, n, seed, stream, j * n)
    got = mc._sampler(cf.CfLevel(skewed, 3), seed, stream)(0, n)
    assert np.array_equal(got, total * 2.0**-1.5)


def random_atomic(atoms):
    rng = np.random.default_rng(atoms)
    ws = rng.random(atoms) + 0.01
    return cf.measures.make_atomic(zip(np.sort(rng.normal(size=atoms)), ws / ws.sum()))


BASES = {
    **{f"atomic-{k}": (lambda k=k: random_atomic(k)) for k in (2, 3, 9, 13)},
    # a fold sum of -0.0 draws is +0.0 only when it starts from +0.0
    "atomic-negative-zero": lambda: cf.measures.make_atomic(
        [(-1.0, 0.25), (-0.0, 0.5), (1.0, 0.25)]),
    "gaussian": bank.gaussian,
    "uniform": bank.uniform_std,
    "laplace": bank.laplace_std,
    "exponential-std": bank.exponential_std,  # an Affine of the exponential
    "heavy-cubic": bank.heavy_tail_std,
    "empirical": lambda: cf.Empirical(np.random.default_rng(8).standard_t(3, 777)),
}
STARTS = (0, 12_345, 2**64 - 600)  # the last one wraps past 2^64 mid-draw


def draw_sizes(width):
    """One draw, fewer than a block's columns, exactly one block, a lone last column, a ragged tail."""
    cols = max(2, mc._BLOCK_CELLS // width)
    return (1, cols - 1, cols, 2 * cols + 1, 2 * cols + 5)


def assert_sampler_bits(m, seed=1234, stream=5, starts=STARTS, sizes=None):
    draw = mc._sampler(m, seed, stream)
    for start in starts:
        for n in sizes or draw_sizes(ref_width(m)):
            got = draw(start, n)
            want = ref_draw(m, seed, stream, start, n)
            assert got.shape == (n,)
            assert same_bits(got, want), (start, n)


@pytest.mark.parametrize("k", [0, 1, 6])
@pytest.mark.parametrize("name", list(BASES))
def test_sampler_matches_fold_loop(name, k):
    base = BASES[name]()
    assert_sampler_bits(base if k == 0 else cf.CfLevel(base, k))


@pytest.mark.parametrize("name", ["atomic-2", "atomic-13", "gaussian", "exponential-std"])
def test_sampler_matches_fold_loop_beyond_one_block(name):
    # 2^15 folds of up to three draws exceed a block's 2^14 counters, so
    # the folds are added in row blocks that carry their sums
    base, k = BASES[name](), 15
    assert (1 << k) * 2 > mc._BLOCK_CELLS
    draw = mc._sampler(cf.CfLevel(base, k), 1234, 5)
    for start in (0, 2**64 - 70_000):
        for n in (1, 2, 3):
            # ref_draw's loop, with the folds of this flat law (counters
            # start + j n ..) drawn in one call instead of 2^15
            folds = ref_draw(base, 1234, 5, start, n << k).reshape(1 << k, n)
            total = np.zeros(n)
            for fold in folds:
                total += fold
            assert same_bits(draw(start, n), total * 2.0 ** (-k / 2.0)), (start, n)


@pytest.fixture
def small_block(monkeypatch):
    # 64 counters a block: a level-7 law spans two columns and four row
    # blocks, so every carry and ragged edge shows at a small size
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 64)


NESTED = {
    "affine-cflevel": lambda: cf.CfLevel(cf.Affine(cf.CfLevel(bank.gaussian(), 1), 1.0), 1),
    "skewed-3-in-2": lambda: cf.CfLevel(
        cf.Affine(cf.CfLevel(bank.skewed_two_atom(), 3), 0.5, 0.25), 2),
    "shifted-level": lambda: cf.Affine(cf.CfLevel(bank.rademacher(), 4), 2.0, -1.0),
}


@pytest.mark.parametrize("name", ["atomic-2", "atomic-9", "gaussian", "empirical"])
def test_sampler_matches_fold_loop_small_block(name, small_block):
    assert_sampler_bits(cf.CfLevel(BASES[name](), 7))


@pytest.mark.parametrize("block", [8, 64, 1 << 14])
@pytest.mark.parametrize("name", list(NESTED))
def test_nested_sampler_matches_fold_loop(name, block, monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    assert_sampler_bits(NESTED[name]())


def test_nested_levels_have_the_law_variance():
    # the law is T applied twice to the gaussian: variance 1; with the
    # folds of the outer level stepping by n instead of 2n, fold (0, 1) and
    # fold (1, 0) were one counter block and the variance read 1.5
    vals = cf.sample(NESTED["affine-cflevel"](), 200_000, seed=3).values
    assert abs(vals.var() - 1.0) < 0.02


@pytest.mark.parametrize("block", [8, 64, 1 << 14])
@pytest.mark.parametrize("name", list(NESTED) + ["flat"])
def test_no_counter_is_drawn_twice(name, block, monkeypatch):
    # every word the generator mixes, mapped back to its counter, covers
    # start .. start + width * n - 1 once each
    monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    m = cf.CfLevel(bank.skewed_two_atom(), 5) if name == "flat" else NESTED[name]()
    seen = []
    mix = mc._mix

    def recording_mix(z, scratch):
        seen.append(z.copy())
        return mix(z, scratch)

    monkeypatch.setattr(mc, "_mix", recording_mix)
    seed, stream, start, n = 4, 2, 2**64 - 1000, 1000
    width = ref_width(m)
    assert (n % max(2, block // width)) != 1  # no lone last column drawn twice
    mc._sampler(m, seed, stream)(start, n)
    words = np.concatenate(seen)
    inv = np.uint64(pow(mc.PHI64, -1, 2**64))
    key = np.uint64(mc._stream_key(seed, stream))
    counters = (words - key) * inv - np.uint64(1)
    want = (np.arange(width * n, dtype=np.uint64) + np.uint64(start % 2**64))
    assert np.array_equal(np.sort(counters), np.sort(want))


STREAM_LAWS = {
    "atomic": bank.skewed_two_atom,
    "gaussian": bank.gaussian,
    "gaussian-6": lambda: cf.CfLevel(bank.gaussian(), 6),
    "nested": NESTED["skewed-3-in-2"],
}


@pytest.mark.parametrize("size", ["parts", "parts+1", "lone-in-part", "lone-next-part"])
@pytest.mark.parametrize("name", sorted(STREAM_LAWS))
def test_stream_parts_are_the_draws(name, size):
    # a last lone column is drawn again with the one before, inside the
    # part that holds it or as the start of a part of its own
    m = STREAM_LAWS[name]()
    cols = max(2, mc._BLOCK_CELLS // ref_width(m))
    chunk = cols * max(1, mc._BLOCK_CELLS // cols)
    n = {
        "parts": 2 * chunk,
        "parts+1": 2 * chunk + 1,
        "lone-in-part": 3 * cols + 1,
        "lone-next-part": (chunk // cols + 1) * cols + 1,
    }[size]
    parts = [p.copy() for p in mc._stream(m, 1234, 5)(0, n)]
    assert all(0 < p.size <= chunk for p in parts)
    got = np.concatenate(parts)
    assert same_bits(got, mc._sampler(m, 1234, 5)(0, n))
    assert same_bits(got, ref_draw(m, 1234, 5, 0, n))


def test_binned_cf_keeps_lattice_bits_until_the_stream_overflows():
    # 3500 common atoms, 2000 rare ones and one beyond 2^40 bin widths:
    # the distinct values pass _LATTICE_MAX a few parts into the stream,
    # and the histogram so far goes to the moments and the exact sums
    atoms = [(j / 64.0, 1.0) for j in range(3500)]
    atoms += [(-1.0 - j / 64.0, 0.02) for j in range(2000)] + [(1e12, 0.01)]
    m = cf.measures.make_atomic(atoms)
    pts = ORACLE_GRID.points()
    acc = charfn.EmpiricalCf(pts)
    seen, distinct = [], []
    for part in mc._stream(m, 1234, 5)(0, 6 * mc._BLOCK_CELLS):
        seen.append(part.copy())
        acc.add(part)
        x = np.concatenate(seen)
        distinct.append(np.unique(x).size)
        got, want = acc.value(), cf.empirical_cf(x, pts)
        if distinct[-1] <= charfn._LATTICE_MAX:
            assert same_bits(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12
    assert distinct[1] <= charfn._LATTICE_MAX < distinct[-2]
