import cmath
import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank
from cltflow.errors import MeasureError, MomentUnavailableError

XIS = np.array([-7.3, -2.0, -0.4, -1e-3, 1e-3, 0.17, 1.0, 3.5, 24.0])


def test_rademacher_cf_is_cosine(rademacher):
    for xi in XIS:
        assert cf.eval_cf(rademacher, xi) == pytest.approx(math.cos(xi), abs=1e-15)


def test_gaussian_cf_closed_form(gauss):
    for xi in XIS:
        assert cf.eval_cf(gauss, xi) == pytest.approx(
            math.exp(-0.5 * xi * xi), rel=1e-15, abs=1e-300
        )


def test_cf_at_zero_is_exactly_one(q2_bank):
    for m in q2_bank.values():
        assert cf.eval_cf(m, 0.0) == 1.0 + 0.0j


def test_cflevel_single_step_closed_form(rademacher):
    stepped = cf.CfLevel(rademacher, 1)
    for xi in XIS:
        expected = math.cos(xi / math.sqrt(2.0)) ** 2
        assert cf.eval_cf(stepped, xi) == pytest.approx(expected, abs=1e-14)


def test_uniform_and_laplace_and_exponential_closed_forms():
    s3 = math.sqrt(3.0)
    unif = bank.uniform_std()
    lap = bank.laplace_std()
    exp = bank.exponential_std()
    for xi in XIS:
        assert cf.eval_cf(unif, xi) == pytest.approx(
            math.sin(s3 * xi) / (s3 * xi), abs=1e-15
        )
        assert cf.eval_cf(lap, xi) == pytest.approx(1.0 / (1.0 + 0.5 * xi * xi), rel=1e-14)
        expected = cmath.exp(-1j * xi) / (1.0 - 1j * xi)
        assert cf.eval_cf(exp, xi) == pytest.approx(expected, rel=1e-14)


def test_eval_cf_grid_matches_pointwise(gauss, skewed):
    spec = cf.GridSpec(1e-2, 10.0, 20)
    pts = spec.points()
    for m in (gauss, skewed):
        grid_vals = cf.eval_cf_grid(m, spec)
        assert grid_vals.shape == pts.shape
        for i in (0, len(pts) // 2, len(pts) - 1):
            assert grid_vals[i] == cf.eval_cf(m, pts[i])


def test_eval_cf_grid_explicit_points(gauss, rademacher):
    vals = cf.eval_cf_grid(gauss, [-1.0, 0.0, 1.0])
    assert vals[1] == 1.0
    assert vals[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert vals[2] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert cf.eval_cf_grid(rademacher, [math.pi])[0] == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(MeasureError):
        cf.eval_cf_grid(gauss, [])


def test_modulus_bounded_everywhere(q2_bank, grid):
    xi = grid.points()
    for m in q2_bank.values():
        vals = np.abs(1.0 + cf.cf_deviation(m, xi))
        assert float(vals.max()) <= 1.0 + 1e-12


def test_hermitian_symmetry(q2_bank):
    xi = np.array([1e-3, 0.3, 1.7, 9.0, 42.0])
    for m in q2_bank.values():
        plus = cf.eval_cf_grid(m, xi)
        minus = cf.eval_cf_grid(m, -xi)
        assert np.max(np.abs(minus - np.conj(plus))) <= 1e-14


def test_cf_of_convolution_is_product(q3_bank, grid):
    xi = grid.points()[::37]
    items = list(q3_bank.values())
    for a, b in zip(items, items[1:]):
        conv = cf.convolve(a, b)
        lhs = cf.eval_cf_grid(conv, xi)
        rhs = cf.eval_cf_grid(a, xi) * cf.eval_cf_grid(b, xi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_cf_of_scaled_law_is_rescaled_argument(q3_bank):
    xi = np.array([-2.2, 0.04, 0.9, 13.0])
    for m in q3_bank.values():
        scaled = cf.scale_law(m, 0.35)
        assert np.max(
            np.abs(cf.eval_cf_grid(scaled, xi) - cf.eval_cf_grid(m, 0.35 * xi))
        ) <= 1e-14


def test_second_order_taylor_envelope_shrinks(q2_bank):
    # |phi(xi) - 1 + xi^2/2| / xi^2 must decrease towards zero
    for m in q2_bank.values():
        env = [
            abs(cf.eval_cf(m, xi) - 1.0 + 0.5 * xi * xi) / (xi * xi)
            for xi in (1e-1, 1e-2, 1e-3)
        ]
        assert env[0] > env[1] > env[2]


def test_taylor_data_gaussian(gauss):
    td = cf.taylor_data(gauss)
    assert td.mean == 0.0
    assert td.variance == 1.0
    assert td.third_signed == 0.0
    assert td.remainder_radius == 0.5


def test_taylor_data_bank_values(rademacher, skewed):
    td = cf.taylor_data(rademacher)
    assert td.third_signed == 0.0
    assert td.remainder_radius == 1.0
    td = cf.taylor_data(skewed)
    assert td.third_signed == 1.5
    assert td.remainder_radius == 0.5
    # cross-check the cubic coefficient by finite differences of the cf
    h = 1e-2
    xs = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    vals = cf.eval_cf_grid(skewed, xs).imag
    third_fd = (vals[0] - 2.0 * vals[1] + 2.0 * vals[2] - vals[3]) / (2.0 * h**3)
    assert third_fd == pytest.approx(1.5, rel=5e-4)


def test_taylor_data_certifies_its_radius(skewed):
    td = cf.taylor_data(skewed)
    abs3 = cf.moment(skewed, 3, absolute=True)
    xi = np.arange(1e-3, td.remainder_radius + 1e-12, 1e-3)
    model = 1.0 - 0.5 * xi**2 - 1j * td.third_signed * xi**3 / 6.0
    err = np.abs(cf.eval_cf_grid(skewed, xi) - model)
    assert np.all(err <= 0.05 * xi**3 * abs3)


def test_taylor_data_requires_third_moment():
    with pytest.raises(MomentUnavailableError):
        cf.taylor_data(bank.heavy_tail_std())


def test_empirical_cf_two_points():
    for xi in (0.3, 2.0, -4.4):
        assert cf.empirical_cf([1.0, -1.0], xi) == pytest.approx(
            math.cos(xi), abs=1e-15
        )
    assert cf.empirical_cf(np.zeros(17), 3.3) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(MeasureError):
        cf.empirical_cf([], 1.0)


def test_empirical_cf_dense_path_matches_compressed():
    rng_vals = np.linspace(-2.0, 2.0, 5000)  # 5000 distinct values, compressed path
    xi = np.array([0.2, 1.1, 7.0])
    direct = np.array([np.mean(np.exp(1j * x * rng_vals)) for x in xi])
    assert np.max(np.abs(cf.empirical_cf(rng_vals, xi) - direct)) <= 1e-12


def test_empirical_measure_cf(rademacher):
    emp = cf.Empirical(np.array([-1.0, -1.0, 1.0, 1.0]))
    for xi in (0.5, 2.0):
        assert cf.eval_cf(emp, xi) == pytest.approx(math.cos(xi), abs=1e-14)


def test_char_fn_wrapper(gauss):
    fn = cf.char_fn(gauss)
    assert fn.closed_form
    assert fn.source is gauss
    assert fn(1.0) == cf.eval_cf(gauss, 1.0)
    emp = cf.Empirical(np.array([0.0, 1.0]))
    assert not cf.char_fn(emp).closed_form
    assert not cf.char_fn(cf.CfLevel(emp, 2)).closed_form
    assert cf.char_fn(cf.CfLevel(bank.rademacher(), 2)).closed_form


EPS = np.finfo(float).eps


def _relative_accuracy_cases():
    g = bank.gaussian()
    lap = bank.laplace_std()
    expo = bank.exponential_std()
    half = math.sqrt(3.0)  # the uniform_std half-width as stored
    wide = np.concatenate([np.linspace(-300.0, 300.0, 121) + 0.01,
                           [-1e6 + 0.3, 1e5 + 0.1, 1e8 + 0.2]])
    mid = np.linspace(-37.0, 37.0, 149)
    return {
        "cflevel-1": (cf.CfLevel(g, 1), lambda x, mp: mp.exp(-x * x / 2), mid),
        "cflevel-7": (cf.CfLevel(g, 7), lambda x, mp: mp.exp(-x * x / 2), mid),
        "cflevel-40": (cf.CfLevel(g, 40), lambda x, mp: mp.exp(-x * x / 2), mid),
        "affine": (
            cf.Affine(g, 0.7, 0.3),
            lambda x, mp: mp.exp(-(0.7**2) * x * x / 2 + 1j * mp.mpf(0.3) * x),
            mid,
        ),
        "conv-product": (
            cf.ConvProduct((g, lap, expo)),
            lambda x, mp: mp.exp(-x * x / 2 - 1j * x) / ((1 + x * x / 2) * (1 - 1j * x)),
            mid,
        ),
        "uniform": (
            bank.uniform_std(),
            lambda x, mp: mp.sin(mp.mpf(half) * x) / (mp.mpf(half) * x),
            wide,
        ),
        "laplace": (lap, lambda x, mp: 1 / (1 + x * x / 2), wide),
        "exponential": (expo, lambda x, mp: mp.exp(-1j * x) / (1 - 1j * x), wide),
        # the scaled argument of the uniform is carried as hi + lo: near the
        # zeros of sin a rounded argument alone costs every digit
        "affine-uniform": (
            cf.Affine(bank.uniform_std(), 0.7),
            lambda x, mp: _sinc(mp.mpf(half) * mp.mpf(0.7) * x, mp),
            _near_sinc_zeros(half * 0.7),
        ),
        "cflevel-uniform-3": (
            cf.CfLevel(bank.uniform_std(), 3),
            lambda x, mp: _sinc(mp.mpf(half) * x / mp.mpf(2) ** 1.5, mp) ** 8,
            _near_sinc_zeros(half * 2.0**-1.5),
        ),
    }


def _sinc(t, mp):
    return mp.sin(t) / t


def _near_sinc_zeros(rate):
    """A grid over |xi| <= 300 plus the doubles nearest the zeros of sin(rate xi)."""
    k = np.arange(1, int(300.0 * rate / math.pi) + 1)
    zeros = k * math.pi / rate
    return np.concatenate([np.linspace(-300.0, 300.0, 121) + 0.01, zeros, -zeros[::3]])


@pytest.mark.parametrize("name", sorted(_relative_accuracy_cases()))
def test_cf_value_relative_accuracy_where_small(name):
    # 1 + D loses every digit once |phi| << 1; the value form keeps the
    # error relative to phi itself, growing at most like |ln phi|
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    m, ref, xs = _relative_accuracy_cases()[name]
    vals = cf.eval_cf_grid(m, xs)
    worst = 0.0
    for x, v in zip(xs, vals):
        r = ref(mp.mpf(float(x)), mp)
        err = abs(mp.mpc(v.real, v.imag) - r) / abs(r)
        worst = max(worst, float(err) / ((1.0 + abs(float(mp.log(abs(r))))) * EPS))
    assert worst <= 8.0
    assert float(np.min(np.abs(vals))) < 1e-6  # the cases do reach small phi


def test_cf_value_is_one_plus_deviation_where_large(q2_bank, grid):
    xi = grid.points()
    for m in q2_bank.values():
        d = cf.cf_deviation(m, xi)
        vals = cf.eval_cf_grid(m, xi)
        large = np.abs(1.0 + d) >= 0.5
        assert np.array_equal(vals[large], 1.0 + d[large])


def _nine_plus_atoms():
    rng = np.random.default_rng(17)
    pos = np.sort(rng.normal(size=12))
    ws = rng.random(12)
    return cf.measures.make_atomic(zip(pos, ws / ws.sum()))


@pytest.mark.parametrize("which", ["atomic-12", "empirical", "cflevel-skewed"])
def test_grid_values_equal_pointwise_bit_for_bit(which):
    rng = np.random.default_rng(3)
    m = {
        "atomic-12": _nine_plus_atoms,
        # 5000 samples over the grid exceed one chunk of point-sample pairs
        "empirical": lambda: cf.Empirical(rng.normal(size=5000)),
        "cflevel-skewed": lambda: cf.CfLevel(bank.skewed_two_atom(), 6),
    }[which]()
    pts = cf.GridSpec(1e-3, 50.0, 200).points()
    vals = cf.eval_cf_grid(m, pts)
    idx = np.linspace(0, pts.size - 1, 25).astype(int)
    for i in idx:
        assert vals[i] == cf.eval_cf(m, pts[i])
    assert np.array_equal(cf.eval_cf_grid(m, pts[idx]), vals[idx])
    assert np.array_equal(cf.cf_deviation(m, pts[idx]), cf.cf_deviation(m, pts)[idx])


def test_uniform_deviation_at_zero_has_no_zero_division():
    # runs under error::RuntimeWarning, so a masked 0/0 would fail here
    unif = cf.Affine(bank.uniform_std(), 1.0, 0.25)
    d = cf.cf_deviation(unif, [-1.0, 0.0, 1.0])
    assert d[1] == 0.0
