import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn
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
    vals = draws(bank.heavy_tail_std(), 400_000, 9)
    x0 = 1.0 / math.sqrt(3.0)
    assert np.all(np.abs(vals) >= x0 - 1e-12)
    # P(|X| > 1) = 1/(3 sqrt(3))
    frac = float(np.mean(np.abs(vals) > 1.0))
    expect = 1.0 / (3.0 * math.sqrt(3.0))
    assert abs(frac - expect) < 5.0 / math.sqrt(vals.size)


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
            empirical_flow_check(cf.NormalizedSum(rademacher, n), 1, 100_000, 0)


def test_sample_rejects_composites(gauss):
    with pytest.raises(MeasureError, match="not ConvProduct"):
        empirical_flow_check(cf.convolve(bank.uniform_std(), gauss), 1, 100_000, 0)


def test_empirical_cf_mc_oracle_gaussian(gauss):
    # 1e6 gaussian draws: empirical cf at xi=1 within the 3/sqrt(N) envelope
    vals = draws(gauss, 1_000_000, 123)
    (est,) = charfn.EmpiricalCf([1.0]).add(vals).value()
    assert abs(est - math.exp(-0.5)) < 3e-3


def test_empirical_flow_check_gaussian_small(gauss):
    chk = empirical_flow_check(gauss, levels=2, n=100_000, seed=42)
    assert chk.ok
    assert chk.envelope == pytest.approx(4.0 / math.sqrt(100_000))
    assert len(chk.per_level) == 3
    assert chk.max_deviation == max(chk.per_level)


def test_empirical_flow_check_rademacher_small(rademacher):
    chk = empirical_flow_check(rademacher, levels=3, n=100_000, seed=42)
    assert chk.ok


def test_empirical_flow_check_compares_the_normalized_sums(skewed, monkeypatch):
    # level k is compared with T^k skewed, the normalized sum of 2^k copies
    iterates = []
    eval_cf_grid = cf.mc.eval_cf_grid

    def recording(law, pts):
        iterates.append(law)
        return eval_cf_grid(law, pts)

    monkeypatch.setattr(cf.mc, "eval_cf_grid", recording)
    chk = empirical_flow_check(skewed, levels=3, n=100_000, seed=42)
    assert iterates == [skewed] + [cf.NormalizedSum(skewed, n) for n in (2, 4, 8)]
    assert chk.ok and len(chk.per_level) == 4


def test_empirical_flow_check_validation(gauss):
    with pytest.raises(MeasureError):
        empirical_flow_check(gauss, levels=13, n=100_000, seed=0)
    with pytest.raises(MeasureError):
        empirical_flow_check(gauss, levels=2, n=50_000, seed=0)


def test_empirical_flow_check_deterministic(rademacher):
    a = empirical_flow_check(rademacher, levels=1, n=100_000, seed=5)
    b = empirical_flow_check(rademacher, levels=1, n=100_000, seed=5)
    assert a.per_level == b.per_level


def test_oracle_grid_shape():
    pts = ORACLE_GRID.points()
    assert pts[0] == -50.0 and pts[-1] == 50.0
    assert len(pts) < 120  # coarse by design; the envelope is grid-free
