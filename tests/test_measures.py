import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cltflow as cf
from cltflow import bank
from cltflow.errors import (
    DegenerateMeasureError,
    MeasureError,
    MembershipError,
    MomentUnavailableError,
)
from conftest import draws

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_atomic_rademacher_moments(rademacher):
    assert cf.moment(rademacher, 1) == 0.0
    assert cf.moment(rademacher, 2) == 1.0
    assert cf.moment(rademacher, 3) == 0.0


def test_make_atomic_renormalizes_weights():
    m = cf.make_atomic([(0.0, 2.0), (1.0, 6.0)])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.atoms == ((0.0, 0.25), (1.0, 0.75))


def test_make_atomic_merges_coincident_atoms():
    m = cf.make_atomic([(0.0, 0.3), (0.0, 0.7)])
    assert m.atoms == ((0.0, 1.0),)


def test_make_atomic_sorts_positions():
    m = cf.make_atomic([(2.0, 0.5), (-1.0, 0.5)])
    assert m.positions.tolist() == [-1.0, 2.0]


def test_make_atomic_rejects_bad_input():
    with pytest.raises(MeasureError):
        cf.make_atomic([])
    with pytest.raises(MeasureError):
        cf.make_atomic([(0.0, 0.0)])
    with pytest.raises(MeasureError):
        cf.make_atomic([(0.0, -1.0)])


def test_skewed_two_atom_closed_form_and_mc_oracle(skewed):
    # closed-form arithmetic: 0.2*8 + 0.8*(-0.125) = 1.5
    assert cf.moment(skewed, 1) == 0.0
    assert cf.moment(skewed, 2) == 1.0
    assert cf.moment(skewed, 3) == 1.5
    x = draws(skewed, 400_000, 2024)
    est = float(np.mean(x**3))
    # CLT error bar: sd(X^3) / sqrt(N), generously widened
    sd = float(np.std(x**3))
    assert abs(est - 1.5) < 5.0 * sd / math.sqrt(x.size)


def test_make_parametric_gaussian_moments(gauss):
    assert cf.moment(gauss, 1) == 0.0
    assert cf.moment(gauss, 2) == 1.0
    # half-normal third absolute moment, with a quadrature oracle
    closed = 2.0 * math.sqrt(2.0 / math.pi)
    oracle, _ = quad(
        lambda x: abs(x) ** 3 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
    )
    assert cf.moment(gauss, 3, absolute=True) == pytest.approx(closed, rel=1e-14)
    assert closed == pytest.approx(oracle, rel=1e-10)


def test_make_parametric_uniform_variance():
    m = cf.make_parametric("uniform", (-SQRT3, SQRT3))
    assert cf.moment(m, 1) == 0.0
    assert cf.moment(m, 2) == pytest.approx(1.0, abs=1e-15)


def test_make_parametric_rejects_invalid():
    with pytest.raises(MeasureError):
        cf.make_parametric("gaussian", (0.0, -1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("cauchy", (0.0, 1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("uniform", (1.0, 1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("exponential", (-2.0,))


def test_exponential_std_abs_third_moment():
    m = bank.exponential_std()
    closed = 12.0 / math.e - 2.0
    oracle, _ = quad(lambda x: abs(x) ** 3 * math.exp(-(x + 1.0)), -1.0, np.inf)
    assert cf.moment(m, 3, absolute=True) == pytest.approx(closed, rel=1e-13)
    assert closed == pytest.approx(oracle, rel=1e-10)


def test_heavy_tail_moment_markers():
    m = bank.heavy_tail_std()
    assert cf.moment(m, 2) == 1.0
    assert math.isinf(cf.moment(m, 3, absolute=True))
    assert math.isnan(cf.moment(m, 3))
    assert math.isinf(cf.moment(m, 4))
    assert cf.moment(m, 1, absolute=True) == pytest.approx(SQRT3 / 2.0, rel=1e-14)


def test_moment_rejects_bad_order(gauss):
    with pytest.raises(MeasureError):
        cf.moment(gauss, 5)
    with pytest.raises(MeasureError):
        cf.moment(gauss, 0)


def test_cf_composite_abs_odd_moment_unavailable(rademacher, gauss):
    m = cf.NormalizedSum(rademacher, 8)
    with pytest.raises(MomentUnavailableError):
        cf.moment(m, 3, absolute=True)
    assert math.isfinite(cf.abs_moment_bound(m, 3))
    prod = cf.convolve(bank.uniform_std(), gauss)
    with pytest.raises(MomentUnavailableError):
        cf.moment(prod, 1, absolute=True)
    assert math.isfinite(cf.abs_moment_bound(prod, 3))


# ---------------------------------------------------------------------------
# standardize / scale / convolve
# ---------------------------------------------------------------------------


def test_standardize_uniform_01():
    m = cf.standardize(cf.make_parametric("uniform", (0.0, 1.0)))
    assert cf.moment(m, 1) == pytest.approx(0.0, abs=1e-15)
    assert cf.moment(m, 2) == pytest.approx(1.0, abs=1e-12)
    assert m.params[0] == pytest.approx(-SQRT3, rel=1e-14)


def test_standardize_gaussian_identity(gauss):
    assert cf.standardize(gauss) == gauss


def test_standardize_idempotent(skewed):
    shifted = cf.make_atomic([(5.0, 0.2), (2.5, 0.8)])
    once = cf.standardize(shifted)
    twice = cf.standardize(once)
    for k in (1, 2, 3):
        assert cf.moment(twice, k) == pytest.approx(cf.moment(once, k), abs=1e-10)


def test_standardize_degenerate_rejected():
    with pytest.raises(DegenerateMeasureError):
        cf.standardize(cf.make_atomic([(5.0, 1.0)]))


def test_scale_law_identity_and_atoms(rademacher):
    assert cf.scale_law(rademacher, 1.0) is rademacher
    doubled = cf.scale_law(rademacher, 2.0)
    assert doubled.positions.tolist() == [-2.0, 2.0]
    with pytest.raises(MeasureError):
        cf.scale_law(rademacher, 0.0)
    with pytest.raises(MeasureError):
        cf.scale_law(rademacher, -1.0)


def test_gaussian_stability_under_scaled_convolution(gauss):
    half = cf.scale_law(gauss, 2.0**-0.5)
    back = cf.convolve(half, half)
    assert isinstance(back, cf.Parametric) and back.family == "gaussian"
    assert back.params[0] == 0.0
    assert back.params[1] == pytest.approx(1.0, abs=1e-15)


def test_convolve_rademacher_pair(rademacher):
    m = cf.convolve(rademacher, rademacher)
    assert m.atoms == ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))


def test_convolve_gaussians(gauss):
    m = cf.convolve(gauss, gauss)
    assert m == cf.Parametric("gaussian", (0.0, 2.0))


def test_convolve_with_point_mass_is_identity(skewed, gauss):
    delta0 = cf.make_atomic([(0.0, 1.0)])
    assert cf.convolve(skewed, delta0) == skewed
    assert cf.convolve(delta0, gauss) == gauss


def test_convolve_generic_becomes_product(gauss):
    m = cf.convolve(bank.uniform_std(), gauss)
    assert isinstance(m, cf.ConvProduct)
    assert cf.moment(m, 2) == pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_q_membership_gaussian(gauss):
    qm = cf.q_membership(gauss, 3)
    assert qm.is_member
    assert qm.mean == 0.0 and qm.variance == 1.0


def test_q_membership_uniform01_not_centred():
    qm = cf.q_membership(cf.make_parametric("uniform", (0.0, 1.0)), 3)
    assert not qm.is_member
    assert qm.mean == pytest.approx(0.5)


def test_q_membership_skewed_abs_moment(skewed):
    qm = cf.q_membership(skewed, 3)
    assert qm.is_member
    # 0.2*8 + 0.8*0.125 = 1.7
    assert qm.abs_moment_r == pytest.approx(1.7, rel=1e-14)


def test_q_membership_heavy_tail_split():
    m = bank.heavy_tail_std()
    assert cf.q_membership(m, 2).is_member
    assert not cf.q_membership(m, 3).is_member


def test_q_membership_rejects_unsupported_r(gauss):
    with pytest.raises(MembershipError):
        cf.q_membership(gauss, 4)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def test_literal_atomic_roundtrip():
    m = cf.measure_from_literal({"type": "atomic", "atoms": [[-1, 0.5], [1, 0.5]]})
    assert m == bank.rademacher()


def test_literal_parametric():
    m = cf.measure_from_literal(
        {"type": "parametric", "family": "gaussian", "params": [0, 1]}
    )
    assert m == bank.gaussian()


def test_literal_rejects_unknown_fields():
    with pytest.raises(MeasureError):
        cf.measure_from_literal({"type": "atomic", "atoms": [[0, 1]], "extra": 1})
    with pytest.raises(MeasureError):
        cf.measure_from_literal({"type": "density", "grid": []})


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False
)
weights = st.floats(min_value=1e-3, max_value=10.0)
atom_lists = st.lists(st.tuples(finite, weights), min_size=1, max_size=8)


@given(atom_lists)
@settings(max_examples=80, deadline=None)
def test_atomic_weights_always_normalized(atoms):
    m = cf.make_atomic(atoms)
    assert abs(float(m.weights.sum()) - 1.0) <= 1e-12
    assert np.all(np.diff(m.positions) > 0)


@given(atom_lists, st.floats(min_value=0.1, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_scale_law_moment_scaling(atoms, lam):
    m = cf.make_atomic(atoms)
    scaled = cf.scale_law(m, lam)
    for k in (1, 2, 3):
        expected = lam**k * cf.moment(m, k)
        assert cf.moment(scaled, k) == pytest.approx(expected, rel=1e-10, abs=1e-12)


@given(atom_lists, atom_lists)
@settings(max_examples=60, deadline=None)
def test_convolve_moment_additivity(aa, bb):
    a, b = cf.make_atomic(aa), cf.make_atomic(bb)
    s = cf.convolve(a, b)
    assert cf.moment(s, 1) == pytest.approx(
        cf.moment(a, 1) + cf.moment(b, 1), rel=1e-10, abs=1e-10
    )
    var = cf.cumulants(s)[1]
    assert var == pytest.approx(
        cf.cumulants(a)[1] + cf.cumulants(b)[1], rel=1e-9, abs=1e-9
    )


@given(atom_lists, atom_lists)
@settings(max_examples=40, deadline=None)
def test_centered_third_moments_add(aa, bb):
    # center both inputs explicitly; signed third moments then add
    ca = cf.make_atomic(aa)
    cb = cf.make_atomic(bb)
    ca = cf.convolve(ca, cf.make_atomic([(-cf.moment(ca, 1), 1.0)]))
    cb = cf.convolve(cb, cf.make_atomic([(-cf.moment(cb, 1), 1.0)]))
    s = cf.convolve(ca, cb)
    assert cf.moment(s, 3) == pytest.approx(
        cf.moment(ca, 3) + cf.moment(cb, 3), rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("scale, shift", [
    (1e80, 0.0), (1e300, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.0, 0.0), (-1.0, 0.0),
    (1.0, 1e76), (1.0, -1e300), (1.0, math.inf), (1.0, math.nan),
])
def test_affine_scale_and_shift_are_bounded(scale, shift):
    # cumulants(Affine(uniform_std, 1e80)) raised OverflowError from s**4,
    # and Affine(uniform_std, 1e300) gave NaN cf values at xi = 1e10
    with pytest.raises(MeasureError, match="affine"):
        cf.Affine(bank.uniform_std(), scale, shift)


def test_affine_at_the_bound_has_finite_moments():
    m = cf.Affine(bank.uniform_std(), cf.measures.ATOM_ABS_MAX, -cf.measures.ATOM_ABS_MAX)
    assert all(map(math.isfinite, cf.cumulants(m)))
    assert math.isfinite(cf.abs_moment_bound(m, 3))


def test_moment_summaries_are_shared_inside_a_scope(skewed):
    law = cf.NormalizedSum(skewed, 8)
    assert cf.cumulants(law) is not cf.cumulants(law)
    with cf.metrics.shared_deviations():
        assert cf.cumulants(law) is cf.cumulants(law)
        assert cf.q_membership(law, 3) is cf.q_membership(law, 3)
        assert cf.moment(law, 3) == cf.moment(law, 3)
        with pytest.raises(MeasureError):  # not the summary of moment(law, 3)
            cf.moment(law, 3.0)
    assert cf.cumulants(law) == cf.cumulants(law)
    assert cf.cumulants(law) is not cf.cumulants(law)


def test_third_absolute_moment_growth_under_step(q3_bank):
    # exact atomic arithmetic obeys the convolution growth factor 16/2^{3/2}
    from cltflow.flow import renorm_step

    bound = 16.0 / 2.0**1.5
    for m in q3_bank.values():
        if not isinstance(m, cf.Atomic):
            continue
        stepped = renorm_step(m)
        assert cf.moment(stepped, 3, absolute=True) <= bound * cf.moment(
            m, 3, absolute=True
        ) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# normalized sums
# ---------------------------------------------------------------------------

SUM_LENGTHS = [*range(2, 1025), *(1 << k for k in range(11, 41))]


@pytest.mark.parametrize("base", ["off-centre", "exponential-std"])
def test_normalized_sum_cumulants_against_mpmath(base):
    # S_n / sqrt(n) has cumulants n k_j n^{-j/2}: each one rounding of a
    # power of n and one of a product or quotient, within 1.5 ulp
    mp = pytest.importorskip("mpmath")
    m = {
        "off-centre": lambda: cf.make_atomic([(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)]),
        "exponential-std": bank.exponential_std,
    }[base]()
    ks = cf.cumulants(m)
    b3 = cf.abs_moment_bound(m, 3)
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for n in SUM_LENGTHS:
            summed = cf.NormalizedSum(m, n)
            root = mp.sqrt(n)
            want = (ks[0] * root, mp.mpf(ks[1]), ks[2] / root, mp.mpf(ks[3]) / n, root**3 * b3)
            got = (*cf.cumulants(summed), cf.abs_moment_bound(summed, 3))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1.5 * eps * abs(w), (n, got, want)


def test_normalized_sum_cumulants_keep_the_flow_levels_bits(skewed):
    # at n = 2^k, those of k renormalization steps, written as such
    ks = cf.cumulants(skewed)
    for k in range(1, 41):
        want = (ks[0] * 2.0 ** (k / 2.0), ks[1], ks[2] * 2.0 ** (-k / 2.0),
                ks[3] * 2.0 ** (-float(k)))
        assert cf.cumulants(cf.NormalizedSum(skewed, 1 << k)) == want


@pytest.mark.parametrize("n", [1, 0, -2, 2.0, "2"])
def test_normalized_sum_needs_an_integer_n_of_at_least_2(skewed, n):
    with pytest.raises(MeasureError, match="n >= 2"):
        cf.NormalizedSum(skewed, n)


def test_normalized_sums_do_not_nest(skewed):
    with pytest.raises(MeasureError, match="must not itself be a NormalizedSum"):
        cf.NormalizedSum(cf.NormalizedSum(skewed, 2), 2)
    # T applied to T^2 skewed is T^3 skewed, one sum of 2^3 copies
    assert cf.renorm_step(cf.NormalizedSum(skewed, 4)) == cf.NormalizedSum(skewed, 8)
