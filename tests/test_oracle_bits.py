"""The oracle path keeps its bits: empirical cf, uniforms and draws.

The references below are the straightforward versions of the empirical cf,
the uniforms, the draws (all draws of a level's base law made at once and
halved pairwise, row by row, to the root) and the flow check's levels that
the mirrored, blocked and in-place versions in the library replace.  Every
comparison is bit for bit (view(np.uint64)): EmpiricalCf keeps the
reference's bits on its exact paths (lattice samples, and the dense
fall-back for samples no bin takes), and the oracle's draws keep theirs.
The library's draws come from conftest.draws, the oracle's draw pipeline
read by one reader, and a level's from conftest.level_draws, the top level
of the flow check's float route.  The gaussian reference draws through the
library's own inverse normal: these tests check blocking and the order of
the tree's sums, and test_special checks the transform against mpmath.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
from cltflow._special import InverseNormal
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


def ref_words(seed: int, start: int, count: int) -> np.ndarray:
    """count mixed words from counter positions start.."""
    key = np.uint64(mc._mix64_int(seed))
    with np.errstate(over="ignore"):
        idx = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) % 2**64)
        z = key + np.uint64(mc.PHI64) * idx
        z = (z ^ (z >> np.uint64(30))) * np.uint64(mc._MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(mc._MIX2)
        return z ^ (z >> np.uint64(31))


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


def ref_invert(fam, p, u):
    if fam == "gaussian":
        z = np.empty(u.size)
        InverseNormal(u.size)(u, z)
        return p[0] + math.sqrt(p[1]) * z
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


def ref_tree(y):
    """The roots of the pairwise trees over the rows of y: halve each row until one column is left."""
    while y.shape[1] > 1:
        y = y[:, 0::2] + y[:, 1::2]
    return y[:, 0]


def ref_draw(m, seed, start, n):
    """n draws of the atomic or parametric law m from counter start, one counter each."""
    if isinstance(m, cf.Atomic):
        return ref_draw_atomic(m, n, seed, start)
    return ref_invert(m.family, m.params, ref_uniforms(seed, start, n))


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
    # more than _COUNT_EDGES_MAX atoms: a binary search on the thresholds
    "many-atoms": [2.0**-60, *np.linspace(0.05, 0.95, 10).tolist(), 0.5 + 2.0**-53,
                   1.0 - 2.0**-53, 1.0, 1.0000000000000002],
}


@pytest.mark.parametrize("case", sorted(AWKWARD_EDGES))
def test_word_threshold_index_matches_the_uniforms(case):
    edges = np.sort(np.array(AWKWARD_EDGES[case]))
    top = np.array([0, 2**64 - 1], dtype=np.uint64)  # the smallest and largest uniforms
    z = np.concatenate([ref_words(3, 0, 2000), edge_words(edges), top])
    assert (case == "many-atoms") == (edges.size > mc._COUNT_EDGES_MAX)
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

    A part of the float route holds the rows of 2^k draws that fill a block.
    """
    cols = max(1, mc._BLOCK_CELLS >> k)
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
    # a row of 2^15 draws exceeds a block's 2^14, so one row reads the
    # words of two blocks: the same pairs as one tree over the row
    k = 15
    assert (1 << k) > mc._BLOCK_CELLS
    assert_sampler_bits(BASES[name](), k, starts=(0, 2**64 - 70_000), sizes=(1, 2, 3))


@pytest.fixture
def small_block(monkeypatch):
    # 64 counters a block: a level-7 law's rows of 128 draws each read the
    # words of two blocks, so every split and ragged edge shows at a small
    # size
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 64)


@pytest.mark.parametrize("name", ["atomic-2", "atomic-9", "gaussian", "empirical"])
def test_sampler_matches_fold_loop_small_block(name, small_block):
    assert_sampler_bits(BASES[name](), 7)


@pytest.mark.parametrize("block", [8, 64, 1 << 14])
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


STREAM_LAWS = {
    # law, level
    "atomic": (bank.skewed_two_atom, 0),
    "gaussian": (bank.gaussian, 0),
    "gaussian-6": (bank.gaussian, 6),
}


def part_draws(m, k, seed, n):
    """n draws of level k of m from counter 0 on, and the draws of each part they were made in.

    The flow check's float route makes them (conftest.level_draws): one
    draw generator fills each part of one buffer in turn, the last holding
    the rest, from one reader of one block stream.
    """
    sizes, drawer = [], mc._drawer

    def recording(law):
        prepare = drawer(law)

        def prepare_parts(size, words):
            draw = prepare(size, words)

            def draw_part(out):
                yield from draw(out)
                sizes.append(out.size >> k)

            return draw_part

        return prepare_parts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_drawer", recording)
        return level_draws(m, k, n, seed), sizes


@pytest.mark.parametrize("size", ["parts", "parts+1", "lone-in-part", "lone-next-part"])
@pytest.mark.parametrize("name", sorted(STREAM_LAWS))
def test_stream_parts_are_the_draws(name, size):
    # whole parts, then a last part of one draw, alone or after a whole one,
    # each made by the one generator into the one reused buffer
    law, k = STREAM_LAWS[name]
    m = law()
    cols = mc._BLOCK_CELLS >> k
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
    for part in np.split(draws(overflowing_law(), 6 * mc._BLOCK_CELLS, 1234), 6):
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
    "overflow": (lambda n: draws(overflowing_law(), n, 1234), mc._BLOCK_CELLS),
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
    # of 2^8 draws against blocks of 2^6
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
    mc.empirical_flow_check(m, levels, n, 1234)
    want = ref_levels(m, levels, n, 1234)
    assert len(level_cfs) == levels + 1
    for ecf, w in zip(level_cfs, want):
        if lattice:
            assert_fed_histogram(ecf, w)
        else:
            assert not ecf.histograms and same_bits(np.concatenate(ecf.fed), w)


LATTICE_LAWS = {
    # law, levels, whether the lattice route holds, _BLOCK_CELLS
    "rademacher-6": (bank.rademacher, 6, True, None),
    "skewed-6": (bank.skewed_two_atom, 6, True, None),
    # sums up to 2^10 are uint16 codes, copied from the uint8 index
    "skewed-10": (bank.skewed_two_atom, 10, True, None),
    # positions (-2 + 3 j) 2^-1 for the codes j = 0, 1, 2
    "three-atom-6": (lambda: cf.measures.make_atomic(
        [(-1.0, 4 / 9), (0.5, 4 / 9), (2.0, 1 / 9)]), 6, True, None),
    # positions -1 + j for the codes 0, 1, 3, gathered by index; sums up
    # to 3 2^8 are uint16 codes
    "gapped-8": (lambda: cf.measures.make_atomic(
        [(-1.0, 1 / 3), (0.0, 1 / 2), (2.0, 1 / 6)]), 8, True, None),
    # rows of 2^9 codes against blocks of 2^6: one row a block
    "skewed-9-small-block": (bank.skewed_two_atom, 9, True, 64),
    # 1/3 is no dyadic: its lattice with -3 needs integers near 2^54
    "one-third-6": (lambda: cf.measures.make_atomic([(-3.0, 0.1), (1 / 3, 0.9)]), 6, False, None),
    # the top level may take 2^12 + 1 values, one past the histogram
    "rademacher-12": (bank.rademacher, 12, False, None),
    # the float route's sums of -0.0 draws are -0.0, a value of their own
    "negative-zero-6": (lambda: cf.measures.make_atomic(
        [(-2.0, 1 / 8), (-0.0, 3 / 4), (2.0, 1 / 8)]), 6, False, None),
}


@pytest.mark.parametrize("name", sorted(LATTICE_LAWS))
def test_lattice_route_keeps_the_float_route_bits(name, level_cfs, monkeypatch):
    law, levels, lattice, block = LATTICE_LAWS[name]
    monkeypatch.setattr(mc, "MIN_FLOW_SAMPLES", 1)
    if block:
        monkeypatch.setattr(mc, "_BLOCK_CELLS", block)
    m, n, pts = law(), 1001, ORACLE_GRID.points()
    assert takes_lattice_route(m, levels) == lattice
    got = mc.empirical_flow_check(m, levels, n, 1234)
    want_levels = ref_levels(m, levels, n, 1234)
    assert len(level_cfs) == levels + 1
    for ecf, w in zip(level_cfs, want_levels):
        vals, counts = np.unique(w, return_counts=True)
        assert same_bits(ecf._vals, vals) and np.array_equal(ecf._counts, counts)
        assert same_bits(ecf.value(), ref_empirical_cf(w, pts))
        if lattice:
            assert_fed_histogram(ecf, w)
    monkeypatch.setattr(mc, "_lattice", lambda base, depth: None)
    want = mc.empirical_flow_check(m, levels, n, 1234)
    assert got == want and same_bits(got.per_level, want.per_level)


@pytest.mark.parametrize("pos", [1.0, 0.0])
def test_one_atom_law_takes_no_lattice_route(pos):
    # one atom has no lattice step; the flow check refuses the law (variance
    # 0) before it picks a route
    m = cf.measures.make_atomic([(pos, 1.0)])
    assert mc._lattice(m, 6) is None
    with pytest.raises(MembershipError):
        mc.empirical_flow_check(m, 6, 100_000, 1234)


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
        m = [law() for law in FLOW_DRAW_LAWS.values()]
    else:
        m = FLOW_DRAW_LAWS[name]()
        assert takes_lattice_route(m, 3) == (name in ("skewed", "rademacher"))
    drawn = []
    mix = mc._mix  # SplitMix, on the words of both routes

    def counting_mix(z, scratch):
        drawn.append(z.size)
        return mix(z, scratch)

    monkeypatch.setattr(mc, "_mix", counting_mix)
    levels, n = 3, 100_000
    checks = mc.empirical_flow_check(m, levels, n, 5)
    assert all(chk.ok for chk in (checks if name == "all-four" else [checks]))
    assert sum(drawn) == n << levels == 800_000


def test_word_blocks_are_read_only():
    # every reader of a block reads the same words: none may write them
    blocks = list(z.copy() for z in mc._blocks(9, 2**64 - 5, 3 * mc._BLOCK_CELLS + 7))
    assert [z.size for z in blocks] == [mc._BLOCK_CELLS] * 3 + [7]
    assert np.array_equal(np.concatenate(blocks), ref_words(9, 2**64 - 5, 3 * mc._BLOCK_CELLS + 7))
    for z in mc._blocks(9, 0, 10):
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0


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
    # n 2^L words end mid-block: 400,012 against blocks of 2^14
    "ragged-n": ((bank.skewed_two_atom, bank.uniform_std), 2, 100_003, None),
    # 1001 2^5 words against blocks of 64
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
        alone = mc.empirical_flow_check(m, levels, n, 1234)
        assert together[i] == alone and same_bits(together[i].per_level, alone.per_level)
        assert len(level_cfs) == levels + 1
        for a, b in zip(made[i * (levels + 1) :], level_cfs):
            assert_same_cf(a, b)


def test_flow_check_of_no_laws_or_a_bad_one_raises():
    with pytest.raises(MeasureError):
        mc.empirical_flow_check([], 2, 100_000, 1)
    # the first bad law in order raises, before any draw
    composite = cf.Affine(cf.convolve(bank.gaussian(), bank.rademacher()), 2.0**-0.5)
    with pytest.raises(MeasureError, match="not Affine"):
        mc.empirical_flow_check(
            [bank.gaussian(), composite, cf.NormalizedSum(bank.gaussian(), 2**30)], 2, 100_000, 1)


COMPOSITES = {
    "normalized-sum": lambda: cf.NormalizedSum(bank.skewed_two_atom(), 4),
    "affine": lambda: cf.Affine(bank.rademacher(), 1.0),
    "conv-product": lambda: cf.convolve(cf.scale_law(bank.uniform_std(), 0.6),
                                        cf.scale_law(bank.gaussian(), 0.8)),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_flow_check_refuses_a_composite_law(name, monkeypatch):
    # the oracle draws atomic and parametric laws only; any other is
    # refused before a word is mixed, even when it is a member of q2
    m = COMPOSITES[name]()
    assert cf.q_membership(m, 2).is_member

    def no_words(z, scratch):
        raise AssertionError("a word was mixed")

    monkeypatch.setattr(mc, "_mix", no_words)
    with pytest.raises(MeasureError, match=f"not {type(m).__name__}"):
        mc.empirical_flow_check(m, 2, 100_000, 1)
    with pytest.raises(MeasureError, match=f"not {type(m).__name__}"):
        mc.empirical_flow_check([bank.gaussian(), m], 2, 100_000, 1)
