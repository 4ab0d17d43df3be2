import math
import tracemalloc

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, mc
from cltflow.errors import MeasureError
from cltflow.mc import ORACLE_GRID, empirical_flow_check
from conftest import draws, level_draws


def test_sample_deterministic(rademacher):
    a = draws(rademacher, 64, 7)
    b = draws(rademacher, 64, 7)
    assert np.array_equal(a, b)
    c = draws(rademacher, 64, 8)
    assert not np.array_equal(a, c)


def test_sample_prefix_stability(skewed):
    # growing a batch preserves the earlier draws (counter-based stream)
    small = draws(skewed, 100, 3)
    big = draws(skewed, 1000, 3)
    assert np.array_equal(big[:100], small)


def test_sample_rademacher_support(rademacher):
    vals = draws(rademacher, 10_000, 11)
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs(vals.mean()) < 5.0 / math.sqrt(vals.size)


def test_sample_gaussian_variance(gauss):
    vals = draws(gauss, 1_000_000, 5)
    assert abs(vals.var() - 1.0) < 0.005
    assert abs(vals.mean()) < 5.0 / math.sqrt(vals.size)


def test_sample_moments_within_envelope(q2_bank):
    for name, m in q2_bank.items():
        vals = draws(m, 200_000, momseed(name))
        assert abs(vals.mean()) < 5.0 / math.sqrt(vals.size), name
        if name != "heavy-tail-std":
            assert abs(vals.var() - 1.0) < 5.0 * 3.0 / math.sqrt(vals.size), name


def momseed(name: str) -> int:
    return sum(map(ord, name))


def test_sample_heavy_tail_matches_cdf():
    # X = T_3 / sqrt 3: P(X <= x) = 1/2 + (atan x + x / (1 + x^2)) / pi, so
    # P(|X| > 1) = 1/2 - 1/pi and P(|X| > 10) = 1 - (2 atan 10 + 20/101) / pi
    vals = draws(bank.heavy_tail_std(), 400_000, 9)
    for x, expect in ((1.0, 0.5 - 1.0 / math.pi),
                      (10.0, 1.0 - (2.0 * math.atan(10.0) + 20.0 / 101.0) / math.pi)):
        frac = float(np.mean(np.abs(vals) > x))
        assert abs(frac - expect) < 5.0 * math.sqrt(expect / vals.size), x
    # and the law is symmetric
    assert abs(float(np.mean(vals > 0.0)) - 0.5) < 5.0 * 0.5 / math.sqrt(vals.size)


def test_sample_cflevel_pairwise_sums(rademacher):
    vals = level_draws(rademacher, 2, 50_000, 21)
    # sums of four signs over 2: lattice {-2,-1,0,1,2}
    assert set(np.round(np.unique(vals), 12)).issubset({-2.0, -1.0, 0.0, 1.0, 2.0})
    assert abs(vals.var() - 1.0) < 0.02


def test_sample_cflevel_depth_refused(rademacher):
    # the oracle samples leaf laws only, and makes its levels from their
    # draws: a cf-level law of any depth is refused as an input
    for n in (2, 1 << 26):
        with pytest.raises(MeasureError, match="not NormalizedSum"):
            empirical_flow_check([cf.NormalizedSum(rademacher, n)], 1, 100_000, 0)


def test_sample_rejects_composites(gauss):
    with pytest.raises(MeasureError, match="not ConvProduct"):
        empirical_flow_check([cf.convolve(bank.uniform_std(), gauss)], 1, 100_000, 0)


def test_empirical_cf_mc_oracle_gaussian(gauss):
    # 1e6 gaussian draws: empirical cf at xi=1 within the 3/sqrt(N) envelope
    vals = draws(gauss, 1_000_000, 123)
    (est,) = charfn.EmpiricalCf([1.0]).add(vals).value()
    assert abs(est - math.exp(-0.5)) < 3e-3


def test_empirical_flow_check_gaussian_small(gauss):
    (chk,) = empirical_flow_check([gauss], levels=2, n=100_000, seed=42)
    assert chk.ok
    assert chk.envelope == pytest.approx(4.0 / math.sqrt(100_000))
    assert len(chk.per_level) == 3


def test_empirical_flow_check_rademacher_small(rademacher):
    (chk,) = empirical_flow_check([rademacher], levels=3, n=100_000, seed=42)
    assert chk.ok


def test_empirical_flow_check_compares_the_normalized_sums(skewed, monkeypatch):
    # level k is compared with T^k skewed, the normalized sum of 2^k copies
    iterates = []
    eval_cf_grid = cf.mc.eval_cf_grid

    def recording(law, pts):
        iterates.append(law)
        return eval_cf_grid(law, pts)

    monkeypatch.setattr(cf.mc, "eval_cf_grid", recording)
    (chk,) = empirical_flow_check([skewed], levels=3, n=100_000, seed=42)
    assert iterates == [skewed] + [cf.NormalizedSum(skewed, n) for n in (2, 4, 8)]
    assert chk.ok and len(chk.per_level) == 4


def test_empirical_flow_check_fails_level_by_level(gauss, monkeypatch):
    # the analytic iterates from level 1 on swapped for those of a law 10% wider
    iterate = cf.mc._iterate
    monkeypatch.setattr(
        cf.mc, "_iterate", lambda law, k: iterate(law if k == 0 else cf.scale_law(law, 1.1), k)
    )
    (chk,) = empirical_flow_check([gauss], levels=2, n=100_000, seed=42)
    assert not chk.ok and chk.levels_ok == (True, False, False)


def oracle_z_max(law, levels, n, seed, made):
    """The largest z = |phi-hat - phi| sqrt(n) / sqrt(1 - |phi|^2) over the flow check's grid and levels.

    phi-hat is each level's empirical cf (made records them), phi the
    analytic cf of the level's iterate of law.
    """
    made.clear()
    empirical_flow_check([law], levels, n, seed)
    pts = ORACLE_GRID.points()
    z = []
    for k, ecf in enumerate(made):
        phi = charfn.eval_cf_grid(cf.mc._iterate(law, k), pts)
        z.append(np.max(np.abs(ecf.value() - phi) / np.sqrt((1.0 - np.abs(phi) ** 2) / n)))
    assert len(z) == levels + 1
    return float(max(z))


def test_oracle_within_each_points_standard_error(gauss, level_cfs, monkeypatch):
    # E|phi-hat - phi|^2 = (1 - |phi|^2) / n, and phi-hat - phi is
    # asymptotically complex gaussian, so P(z > t) is about e^(-t^2) at a
    # point: t = sqrt(ln(points levels / alpha)) bounds the largest z of 96
    # points and 7 levels at alpha = 1e-3.  Gaussian draws pass it; draws
    # scaled by 1.01, which the 4 / sqrt(n) envelope still passes, do not
    n, levels, seed = 200_000, 6, 1234
    points = ORACLE_GRID.points().size
    t = math.sqrt(math.log(points * (levels + 1) / 1e-3))
    assert points == 96 and round(t, 2) == 3.66
    assert oracle_z_max(gauss, levels, n, seed, level_cfs) < t
    transform = cf.mc._transform

    def wide(law, size):
        draw = transform(law, size)
        return lambda z, out: np.multiply(draw(z, out), 1.01, out=out)

    monkeypatch.setattr(cf.mc, "_transform", wide)
    assert oracle_z_max(gauss, levels, n, seed, level_cfs) > t


def test_empirical_flow_check_validation(gauss):
    with pytest.raises(MeasureError):
        empirical_flow_check([gauss], levels=13, n=100_000, seed=0)
    with pytest.raises(MeasureError):
        empirical_flow_check([gauss], levels=2, n=50_000, seed=0)


@pytest.mark.parametrize("levels, n, seed", [
    (1, 100_000, 2**64), (1, 100_000, -(2**64)), (1, 100_000, -1), (1, 100_000, 1.0),
    (True, 100_000, 0), (1, 100_000, True), (1, 100_000, False),
], ids=["2^64", "-2^64", "-1", "float", "bool-levels", "bool-seed", "bool-seed-0"])
def test_empirical_flow_check_refuses_seeds_that_alias(rademacher, monkeypatch, levels, n, seed):
    # the key is seed mod 2^64, so 2^64 and -2^64 ran as seed 0, and a
    # bool ran as 0 or 1: each is refused before a word is mixed
    def no_words(z, scratch):
        raise AssertionError("a word was mixed")

    monkeypatch.setattr(cf.mc, "_mix", no_words)
    with pytest.raises(MeasureError, match="seed|levels|samples"):
        empirical_flow_check([rademacher], levels, n, seed)


def test_empirical_flow_check_takes_the_largest_seed(rademacher):
    assert cf.mc.MAX_SEED == 2**64 - 1
    (a,) = empirical_flow_check([rademacher], 1, 100_000, cf.mc.MAX_SEED)
    (b,) = empirical_flow_check([rademacher], 1, 100_000, 0)
    assert a != b


def test_empirical_flow_check_deterministic(rademacher):
    (a,) = empirical_flow_check([rademacher], levels=1, n=100_000, seed=5)
    (b,) = empirical_flow_check([rademacher], levels=1, n=100_000, seed=5)
    assert a.per_level == b.per_level


def test_oracle_grid_shape():
    pts = ORACLE_GRID.points()
    assert pts[0] == -50.0 and pts[-1] == 50.0
    assert len(pts) < 120  # coarse by design; the envelope is grid-free


def second_traced_peak(laws, levels, n):
    """The peak bytes tracemalloc sees in the second of two like flow checks.

    The first call fills what every later call shares (the ziggurat table,
    the grid's iterates), so the second holds only the check's own memory.
    """
    for _ in range(2):
        tracemalloc.start()
        try:
            empirical_flow_check(laws, levels, n, 1234)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


# _blocks' three word buffers
WORD_BUFFERS = 3 * 8 * mc._BLOCK_CELLS
# the grid, the histograms and the cfs' exact sums
SMALL = 1 << 16


def test_lattice_oracle_memory_is_its_buffers():
    # the benchmark's lattice shape: each law's sink holds a block of hit
    # bools and a pass of bits for its one wall; the counts of a pass hold
    # its popcounts (uint8) and its level sums (uint16) next to the zeros
    # they start from and the masked words (uint64) they count
    levels = 6
    rows = mc._PASS_CELLS >> levels
    sinks = 2 * (mc._BLOCK_CELLS + mc._PASS_CELLS // 8)
    counts = ((levels + 1) * (1 + 2) + 2 + 8) * rows
    budget = WORD_BUFFERS + sinks + counts + SMALL
    peak = second_traced_peak([bank.rademacher(), bank.skewed_two_atom()], levels, 200_000)
    assert peak < budget, (peak, budget)


def test_dense_oracle_memory_is_its_buffers():
    # the benchmark's dense shape: the float sink holds a part of draws, the
    # tree's spare half and the levels' values, one add's chunk a level; the
    # ziggurat two float buffers of a part, its layers and its flags; each
    # level's binned moments span |x| < 6 in bins of 1 / max|xi|; an add
    # makes about 12 temporaries of its chunk (np.unique's passes on the
    # first, then the binning's)
    levels, part = 6, mc._PART_CELLS
    chunk = -(-(charfn._LATTICE_MAX + 1) // (part >> levels)) * (part >> levels)
    sink = 8 * part + 4 * part + 8 * (levels + 1) * chunk
    ziggurat = (8 + 8 + 8 + 1) * part
    bins = 2 * 6 * int(ORACLE_GRID.xi_max) + 1
    moments = (levels + 1) * charfn._MOMENTS * 8 * bins
    budget = WORD_BUFFERS + sink + ziggurat + moments + 12 * 8 * chunk + SMALL
    peak = second_traced_peak([bank.gaussian()], levels, 100_000)
    assert peak < budget, (peak, budget)
