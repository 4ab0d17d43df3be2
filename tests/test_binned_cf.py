"""The oracle's binned-moment empirical cf against the exact reference.

EmpiricalCf(xi).add(x).value(), the cf of x fed as one chunk, bins dense
samples at width 1 / max|xi| and sums 12 moments per bin, so it differs
from the exact sum (test_oracle_bits.ref_empirical_cf) by at most
(1/2)^12 / 12! < 5.1e-13 of truncation plus rounding; the tests allow
1e-12.  Lattice samples, and dense ones too wide to bin, must get the
reference's bits.  The flow check streams each level through EmpiricalCf
and is held to the same, against the reference on the whole level, the
levels made from one reference sample by the reference tree.
"""

import math
import tracemalloc

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
from cltflow.metrics import GridSpec
from cltflow.mc import ORACLE_GRID

from cltflow.errors import MeasureError
from conftest import draws, level_draws
from test_oracle_bits import EXPLICIT, ref_empirical_cf, ref_levels, same_bits

TOL = 1e-12

# law, level: samples of T^k law
LAWS = {
    "gaussian-0": (bank.gaussian, 0),
    "gaussian-3": (bank.gaussian, 3),
    "gaussian-6": (bank.gaussian, 6),
    "uniform": (bank.uniform_std, 0),
    "heavy-cubic": (bank.heavy_tail_std, 0),
    "empirical-2": (lambda: cf.make_atomic(
        (x, 1.0) for x in np.random.default_rng(8).standard_t(3, 777)), 2),
}
POINTS = {
    "oracle-grid": lambda: ORACLE_GRID.points(),
    "explicit": lambda: EXPLICIT,  # asymmetric, holds 0 and repeated |xi|
    "xi-max-500": lambda: GridSpec(1e-3, 500.0, 10).points(),
    "scalar": lambda: np.array([-3.25]),  # one point
}


def sample_of(m, k=0, n=50_000):
    """n samples of T^k m."""
    return draws(m, n, 1234) if k == 0 else level_draws(m, k, n, 1234)


@pytest.mark.parametrize("points", sorted(POINTS))
@pytest.mark.parametrize("law", sorted(LAWS))
def test_binned_cf_within_the_truncation_bound(law, points, monkeypatch):
    m, k = LAWS[law]
    x = sample_of(m(), k)
    xi = POINTS[points]()
    assert np.unique(x).size > charfn._LATTICE_MAX  # dense samples
    exact = ref_empirical_cf(x, xi)

    def no_exact(*args):
        raise AssertionError("the binned cf fell back to the exact sums")

    monkeypatch.setattr(charfn, "_exact_dense", no_exact)
    got = charfn.EmpiricalCf(xi).add(x).value()
    assert np.max(np.abs(got - exact)) <= TOL


def test_binned_cf_adds_chunks_of_any_size():
    # the 10-sample chunk spans more bins than it has samples, and is
    # counted over the bins it hits
    x = sample_of(bank.gaussian())
    pts = ORACLE_GRID.points()
    acc = charfn.EmpiricalCf(pts)
    for a, b in ((0, 40_000), (40_000, 40_010), (40_010, x.size)):
        acc.add(x[a:b])
    assert np.max(np.abs(acc.value() - ref_empirical_cf(x, pts))) <= TOL


def test_binned_cf_keeps_the_bits_of_lattice_samples():
    x = sample_of(bank.skewed_two_atom(), 4, 20_000)
    assert np.unique(x).size <= charfn._LATTICE_MAX
    for xi in (ORACLE_GRID.points(), EXPLICIT, np.array([0.7])):
        assert same_bits(charfn.EmpiricalCf(xi).add(x).value(), ref_empirical_cf(x, xi))


def atoms_near(scale):
    # incommensurate offsets, so that level-6 sums rarely coincide
    return cf.make_atomic(
        [[(-1.0) ** j * scale * (1.0 - math.sqrt(j) / 100.0), 1.0] for j in range(13)]
    )


WIDE = {
    # 13 atoms near +-1e75 at level 6: more bins than samples, and far
    # beyond 2^40 bin widths from 0
    "atoms-1e75": lambda: sample_of(atoms_near(1e75), 6, 20_000),
    # more bins than samples alone
    "atoms-1e3": lambda: sample_of(atoms_near(1e3), 6, 20_000),
    # a narrow sample beyond 2^40 bin widths from 0
    "shift-1e12": lambda: sample_of(bank.gaussian(), 3, 20_000) + 1e12,
}


@pytest.mark.parametrize("law", sorted(WIDE))
def test_binned_cf_falls_back_for_a_wide_span(law):
    x = WIDE[law]()
    assert np.unique(x).size > charfn._LATTICE_MAX
    pts = ORACLE_GRID.points()
    tracemalloc.start()
    try:
        got = charfn.EmpiricalCf(pts).add(x).value()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a few sample-sized arrays, no bin table
    assert same_bits(got, ref_empirical_cf(x, pts))


def test_binned_cf_moves_an_overflowing_histogram_into_the_moments():
    # adds of 2304 gaussian values: the first stays in the histogram, the
    # second takes it past _LATTICE_MAX values, and the histogram joins the
    # binned moments, so value() pays no cos and sin per value and point
    pts, chunk = ORACLE_GRID.points(), 2304
    x = sample_of(bank.gaussian(), n=5 * chunk)
    acc = charfn.EmpiricalCf(pts)
    for i in range(0, x.size, chunk):
        acc.add(x[i : i + chunk])
        if not i:
            assert acc._vals.size == chunk and not acc._dense
    assert acc._dense and acc._vals.size == acc._counts.size == 0
    assert np.max(np.abs(acc.value() - ref_empirical_cf(x, pts))) <= TOL


@pytest.mark.parametrize("xi", [[0.0], [0.0, -0.0], [], [math.nan, 1.0]])
def test_binned_cf_refuses_points_without_a_bin_width(xi):
    # the bin width is 1 / max|xi|: points that are all 0 (or none, or NaN)
    # set none, and are refused before any sample is taken
    with pytest.raises(MeasureError, match="a point other than 0"):
        charfn.EmpiricalCf(np.array(xi))


def exact_devs(m, levels, n, seed):
    """The flow check's deviations, from the reference cf of each whole level."""
    pts = ORACLE_GRID.points()
    devs = []
    for k, x in enumerate(ref_levels(m, levels, n, seed)):
        dev = ref_empirical_cf(x, pts) - charfn.eval_cf_grid(
            cf.NormalizedSum(m, 1 << k) if k else m, pts)
        devs.append(float(np.max(np.abs(dev))))
    return devs


@pytest.mark.parametrize("name", ["rademacher", "skewed"])
def test_flow_check_keeps_the_lattice_bits(name):
    m = bank.ALIASES[name]()
    got = mc.empirical_flow_check(m, levels=6, n=100_000, seed=1234)
    want = exact_devs(m, 6, 100_000, 1234)
    assert np.array_equal(
        np.array(got.per_level).view(np.uint64), np.array(want).view(np.uint64)
    )
    assert got.max_deviation == max(want) and got.ok


def test_flow_check_gaussian_within_the_bound_of_the_exact_path():
    m = bank.gaussian()
    got = mc.empirical_flow_check(m, levels=2, n=100_000, seed=1234)
    want = exact_devs(m, 2, 100_000, 1234)
    assert max(map(abs, np.subtract(got.per_level, want))) <= TOL
    assert got.ok and got.envelope == 4.0 / math.sqrt(1e5)


@pytest.mark.parametrize("name", ["rademacher", "skewed"])
def test_flow_check_lattice_levels_never_go_dense(name, level_cfs, monkeypatch):
    # one scale per level keeps the tree sums exact: level k takes at most
    # the 2^k + 1 values of its sums, and no level leaves the histogram, on
    # the lattice route (fed histograms) and on the float route (fed values)
    m = bank.ALIASES[name]()
    lattice = mc.empirical_flow_check(m, 6, 200_000, 1234)
    monkeypatch.setattr(mc, "_lattice", lambda base, depth: None)
    assert mc.empirical_flow_check(m, 6, 200_000, 1234) == lattice and lattice.ok
    assert len(level_cfs) == 14
    for route, fed in ((level_cfs[:7], "histograms"), (level_cfs[7:], "fed")):
        assert all(getattr(ecf, fed) for ecf in route)
        assert not any(ecf._dense for ecf in route)
        assert all(ecf._vals.size <= (1 << k) + 1 for k, ecf in enumerate(route))


@pytest.mark.parametrize("name", ["rademacher", "gaussian"])
def test_flow_check_memory_does_not_grow_with_the_sample(name):
    # the level is streamed through the cf sums: no array of n draws
    m = bank.ALIASES[name]()
    peaks = []
    for n in (100_000, 800_000):
        tracemalloc.start()
        try:
            mc.empirical_flow_check(m, 2, n, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20
