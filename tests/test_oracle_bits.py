"""The oracle path keeps its bits: empirical cf, uniforms and categorical draws.

The references below are the straightforward versions of empirical_cf,
_uniforms and the atomic branch of the sampler that the mirrored, blocked
and in-place versions in the library replace.  Every comparison is bit for
bit (view(np.float64)), because the oracle CSVs must not change by a byte.
"""

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
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
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
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
