import itertools
import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank
from cltflow.errors import MeasureError, MembershipError
from cltflow.flow import CONTRACTION_BOUND

SQRT2 = math.sqrt(2.0)

# regression pins from the first verified run (dense-grid oracle in
# test_metrics brackets the underlying distances)
PINNED_RATIOS = {
    ("rademacher", "skewed"): 0.7071067811865478,
    ("rademacher", "uniform-std"): 0.3419009854174441,
    ("rademacher", "laplace-std"): 0.48717098930032926,
    ("rademacher", "exponential-std"): 0.7071067811865477,
    ("skewed", "uniform-std"): 0.7071067811865478,
    ("skewed", "laplace-std"): 0.7071067811865478,
    ("skewed", "exponential-std"): 0.6563200065596279,
    ("uniform-std", "laplace-std"): 0.5170538861715125,
    ("uniform-std", "exponential-std"): 0.7071067811865477,
    ("laplace-std", "exponential-std"): 0.7071067811865477,
}


# ---------------------------------------------------------------------------
# renorm_step
# ---------------------------------------------------------------------------


def test_step_rademacher_exact(rademacher):
    stepped = cf.renorm_step(rademacher)
    assert stepped.atoms == (
        (-SQRT2, 0.25),
        (0.0, 0.5),
        (SQRT2, 0.25),
    )


def test_step_gaussian_is_fixed_point(gauss):
    stepped = cf.renorm_step(gauss)
    assert isinstance(stepped, cf.Parametric) and stepped.family == "gaussian"
    assert stepped.params[0] == 0.0
    assert stepped.params[1] == pytest.approx(1.0, abs=1e-15)


def test_step_skewed_third_moment_scaling(skewed):
    stepped = cf.renorm_step(skewed)
    assert isinstance(stepped, cf.Atomic) and len(stepped.atoms) == 3
    assert cf.moment(stepped, 3) == pytest.approx(1.5 / SQRT2, rel=1e-14)
    assert cf.moment(stepped, 2) == pytest.approx(1.0, abs=1e-14)


def test_step_parametric_becomes_cflevel():
    m = bank.uniform_std()
    stepped = cf.renorm_step(m)
    assert stepped == cf.NormalizedSum(m, 2)
    assert cf.renorm_step(stepped) == cf.NormalizedSum(m, 4)


def test_step_rejects_non_standardized():
    with pytest.raises(MembershipError):
        cf.renorm_step(cf.make_parametric("uniform", (0.0, 1.0)))


def test_step_preserves_membership(q3_bank):
    for m in q3_bank.values():
        assert cf.q_membership(cf.renorm_step(m), 3).is_member


def test_variance_invariance_along_iterates(q2_bank):
    for m in q2_bank.values():
        for n in (1, 7, 25):
            assert cf.moment(cf.NormalizedSum(m, 1 << n), 2) == pytest.approx(1.0, abs=1e-12)


def test_atomic_and_cflevel_iterates_agree(rademacher, skewed, grid):
    # exact atomic iteration against the cf-level chain, low depth
    xi = grid.points()
    for base in (rademacher, skewed):
        atomic = base
        for n in range(1, 7):
            atomic = cf.renorm_step(atomic)
            chain = cf.NormalizedSum(base, 1 << n)
            diff = np.abs(cf.eval_cf_grid(atomic, xi) - cf.eval_cf_grid(chain, xi))
            assert float(diff.max()) <= 1e-10, n


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_trajectory_gaussian_fixed_point(gauss, coarse_grid):
    rep = cf.renorm_trajectory(gauss, 5, coarse_grid)
    assert all(d <= 1e-10 for d in rep.distances_d3)
    assert all(d <= 1e-10 for d in rep.distances_d2)
    assert rep.fitted_slope_log2 is None
    assert rep.lyapunov_monotone


def test_trajectory_skewed_decay_and_slope(skewed):
    rep = cf.renorm_trajectory(skewed, 12)
    d3 = rep.distances_d3
    assert d3[0] == 0.25
    for n in range(13):
        assert d3[n] <= 2.0 ** (-n / 2.0) * d3[0] * (1.0 + 1e-6)
        assert d3[n] >= 2.0 ** (-n / 2.0) * 0.25 * (1.0 - 1e-6)
    assert rep.fitted_slope_log2 == pytest.approx(-0.5, abs=0.02)
    assert rep.lyapunov_monotone
    ratios = rep.contraction_ratios
    assert all(r == pytest.approx(2.0**-0.5, rel=1e-9) for r in ratios)


def test_trajectory_heavy_tail_d2_only():
    rep = cf.renorm_trajectory(bank.heavy_tail_std(), 10)
    assert rep.distances_d3 is None
    assert rep.contraction_ratios is None
    assert rep.lyapunov_monotone
    d2 = rep.distances_d2
    assert all(d2[n + 1] < d2[n] - 1e-10 for n in range(10))


def test_trajectory_report_invariants(skewed):
    steps = 8
    rep = cf.renorm_trajectory(skewed, steps)
    assert len(rep.distances_d3) == steps + 1
    assert len(rep.distances_d2) == steps + 1
    assert len(rep.contraction_ratios) == steps
    for n in range(steps):
        if rep.distances_d3[n] > 1e-14:
            assert rep.contraction_ratios[n] == pytest.approx(
                rep.distances_d3[n + 1] / rep.distances_d3[n], rel=1e-12
            )


def test_trajectory_validation(gauss):
    with pytest.raises(MeasureError):
        cf.renorm_trajectory(gauss, 0)
    with pytest.raises(MeasureError):
        cf.renorm_trajectory(gauss, 41)
    with pytest.raises(MembershipError):
        cf.renorm_trajectory(cf.make_parametric("uniform", (0.0, 1.0)), 3)


def test_trajectory_csv_rows(skewed):
    rep = cf.renorm_trajectory(skewed, 3)
    rows = rep.to_csv_rows()
    assert len(rows) == 5  # steps+1 rows plus the slope summary
    assert rows[0].startswith("0,0.25,")
    assert rows[-1].startswith("slope,")


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contraction_all_bank_pairs(q3_bank, grid):
    for (na, ma), (nb, mb) in itertools.combinations(q3_bank.items(), 2):
        ratio = cf.contraction_ratio(ma, mb, grid)
        assert ratio <= CONTRACTION_BOUND + 1e-6, (na, nb)
        assert ratio == pytest.approx(PINNED_RATIOS[(na, nb)], rel=1e-12)


def test_contraction_rejects_coincident(gauss):
    with pytest.raises(MembershipError):
        cf.contraction_ratio(gauss, gauss)


def test_contraction_rejects_non_q3(gauss):
    with pytest.raises(MembershipError):
        cf.contraction_ratio(bank.heavy_tail_std(), gauss)


# ---------------------------------------------------------------------------
# clt rate
# ---------------------------------------------------------------------------


def test_clt_rate_n1_is_equality(skewed):
    chk = cf.clt_rate_check(skewed, 1)
    assert chk.ok
    assert chk.lhs == chk.rhs


def test_clt_rate_small_n(skewed, rademacher):
    for n in (2, 3, 5, 7):
        assert cf.clt_rate_check(skewed, n).ok
        assert cf.clt_rate_check(rademacher, n).ok


def test_clt_rate_skewed_lhs_is_the_exact_rate(skewed):
    # d3(S_n / sqrt(n), gauss) of the skewed law is its zero limit
    # |k3| / (6 sqrt(n)) = 1 / (4 sqrt(n)); k3 n^{-1/2} rounds once, where
    # (n^{-1/2})^3 (n k3) rounded four times and reached 2.5 ulp
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n in range(2, 65):
            chk = cf.clt_rate_check(skewed, n)
            want = 1 / (4 * mp.sqrt(n))
            assert abs(chk.lhs - want) <= 1.5 * math.ulp(float(want)), (n, chk.lhs)
            assert chk.ok


def test_clt_rate_requires_q3():
    with pytest.raises(MembershipError):
        cf.clt_rate_check(bank.heavy_tail_std(), 4)
    with pytest.raises(MeasureError):
        cf.clt_rate_check(bank.rademacher(), 0)


# ---------------------------------------------------------------------------
# lyapunov
# ---------------------------------------------------------------------------


# the Lyapunov value of a law is its d2 to the gaussian fixed point


def test_lyapunov_value_gaussian_zero(gauss):
    assert cf.ds_distance(gauss, gauss, 2).value == 0.0


def test_lyapunov_value_positive_on_bank(q2_bank, gauss):
    for name, m in q2_bank.items():
        assert cf.ds_distance(m, gauss, 2).value > 1e-3, name


def test_lyapunov_decrease_bank(q2_bank, gauss):
    # d2 to the gaussian falls strictly under one step of T
    for name, m in q2_bank.items():
        before = cf.ds_distance(m, gauss, 2).value
        after = cf.ds_distance(cf.renorm_step(m), gauss, 2).value
        assert before - after > 1e-10, name
