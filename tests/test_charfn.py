import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cltflow as cf
from cltflow import bank, charfn, metrics
from cltflow.errors import CharFnBoundError, MeasureError

XIS = np.array([-7.3, -2.0, -0.4, -1e-3, 1e-3, 0.17, 1.0, 3.5, 24.0])


def cf_at(m, xi) -> complex:
    """phi_m at the point xi alone."""
    return complex(cf.eval_cf_grid(m, [xi])[0])


def test_rademacher_cf_is_cosine(rademacher):
    for xi in XIS:
        assert cf_at(rademacher, xi) == pytest.approx(math.cos(xi), abs=1e-15)


def test_gaussian_cf_closed_form(gauss):
    for xi in XIS:
        assert cf_at(gauss, xi) == pytest.approx(
            math.exp(-0.5 * xi * xi), rel=1e-15, abs=1e-300
        )


def test_cf_at_zero_is_exactly_one(q2_bank):
    for m in q2_bank.values():
        assert cf_at(m, 0.0) == 1.0 + 0.0j


def test_cflevel_single_step_closed_form(rademacher):
    stepped = cf.NormalizedSum(rademacher, 2)
    for xi in XIS:
        expected = math.cos(xi / math.sqrt(2.0)) ** 2
        assert cf_at(stepped, xi) == pytest.approx(expected, abs=1e-14)


def test_uniform_and_laplace_and_exponential_closed_forms():
    s3 = math.sqrt(3.0)
    unif = bank.uniform_std()
    lap = bank.laplace_std()
    exp = bank.exponential_std()
    for xi in XIS:
        assert cf_at(unif, xi) == pytest.approx(
            math.sin(s3 * xi) / (s3 * xi), abs=1e-15
        )
        assert cf_at(lap, xi) == pytest.approx(1.0 / (1.0 + 0.5 * xi * xi), rel=1e-14)
        expected = cmath.exp(-1j * xi) / (1.0 - 1j * xi)
        assert cf_at(exp, xi) == pytest.approx(expected, rel=1e-14)


def test_eval_cf_grid_matches_pointwise(gauss, skewed):
    spec = cf.GridSpec(1e-2, 10.0, 20)
    pts = spec.points()
    for m in (gauss, skewed):
        grid_vals = cf.eval_cf_grid(m, spec)
        assert grid_vals.shape == pts.shape
        for i in (0, len(pts) // 2, len(pts) - 1):
            assert grid_vals[i] == cf_at(m, pts[i])


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
            abs(cf_at(m, xi) - 1.0 + 0.5 * xi * xi) / (xi * xi)
            for xi in (1e-1, 1e-2, 1e-3)
        ]
        assert env[0] > env[1] > env[2]


def empirical_cf(samples, xi):
    return cf.EmpiricalCf(xi).add(samples).value()


def test_empirical_cf_two_points():
    xi = np.array([0.3, 2.0, -4.4])
    np.testing.assert_allclose(empirical_cf([1.0, -1.0], xi), np.cos(xi), rtol=0, atol=1e-15)
    assert empirical_cf(np.zeros(17), [3.3])[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(MeasureError):
        empirical_cf([], [1.0])


def test_empirical_cf_dense_path_matches_compressed():
    # 5000 distinct values: past the histogram, summed through binned moments
    rng_vals = np.linspace(-2.0, 2.0, 5000)
    xi = np.array([0.2, 1.1, 7.0])
    direct = np.array([np.mean(np.exp(1j * x * rng_vals)) for x in xi])
    assert np.max(np.abs(empirical_cf(rng_vals, xi) - direct)) <= 1e-12


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
        # the cf-level iterates T^k g, normalized sums of 2^k copies
        "cflevel-1": (cf.NormalizedSum(g, 2), lambda x, mp: mp.exp(-x * x / 2), mid),
        "cflevel-7": (cf.NormalizedSum(g, 1 << 7), lambda x, mp: mp.exp(-x * x / 2), mid),
        "cflevel-40": (cf.NormalizedSum(g, 1 << 40), lambda x, mp: mp.exp(-x * x / 2), mid),
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
            cf.NormalizedSum(bank.uniform_std(), 8),
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
        "empirical": lambda: cf.make_atomic((x, 1.0) for x in rng.normal(size=5000)),
        "cflevel-skewed": lambda: cf.NormalizedSum(bank.skewed_two_atom(), 1 << 6),
    }[which]()
    pts = cf.GridSpec(1e-3, 50.0, 200).points()
    vals = cf.eval_cf_grid(m, pts)
    idx = np.linspace(0, pts.size - 1, 25).astype(int)
    for i in idx:
        assert vals[i] == cf_at(m, pts[i])
    assert np.array_equal(cf.eval_cf_grid(m, pts[idx]), vals[idx])
    assert np.array_equal(cf.cf_deviation(m, pts[idx]), cf.cf_deviation(m, pts)[idx])


def test_uniform_deviation_at_zero_has_no_zero_division():
    # runs under error::RuntimeWarning, so a masked 0/0 would fail here
    unif = cf.Affine(bank.uniform_std(), 1.0, 0.25)
    d = cf.cf_deviation(unif, [-1.0, 0.0, 1.0])
    assert d[1] == 0.0


@pytest.mark.parametrize("name, xi", [
    ("uniform-std", 1e305), ("gaussian", 1e200), ("rademacher", -1e101), ("heavy-tail-std", 2e100),
    ("skewed", math.nan),
])
def test_cf_arguments_beyond_the_largest_grid_point_are_refused(name, xi):
    # these overflowed inside the cf forms (uniform: the Dekker split;
    # gaussian: xi^2) and warned before any result; NaN gave NaN
    m = bank.ALIASES[name]()
    with pytest.raises(MeasureError, match="within"):
        cf_at(m, xi)
    with pytest.raises(MeasureError, match="within"):
        cf.eval_cf_grid(m, [0.5, xi])
    with pytest.raises(MeasureError, match="within"):
        cf.cf_deviation(m, np.array([xi, 1.0]))


def test_cf_at_the_largest_grid_point(q2_bank):
    # runs under error::RuntimeWarning: nothing overflows at |xi| = 1e100
    xi = np.array([-1e100, -3e99, 1e99, 1e100])
    for m in [bank.gaussian(), *q2_bank.values()]:
        assert np.all(np.abs(cf.eval_cf_grid(m, xi)) <= 1.0 + 1e-12)
        assert np.all(np.abs(1.0 + cf.cf_deviation(m, xi)) <= 1.0 + 1e-12)


@pytest.mark.parametrize("name", ["skewed", "rademacher"])
def test_atomic_deviation_keeps_its_digits_at_large_xi(name):
    # xi mean + sum w (sin t - t) cancels terms of size |t|; beyond
    # |t| = 256 the imaginary part is sum w sin t, as accurate as the value
    mp = pytest.importorskip("mpmath")
    m = bank.ALIASES[name]()
    xi = np.concatenate([np.geomspace(1.0, 1e14, 57), [127.9, 128.1]])
    d = cf.cf_deviation(m, xi)
    assert np.max(np.abs(1.0 + d)) <= 1.0 + 1e-12
    span = float(np.max(np.abs(m.positions)))
    with mp.workdps(50):
        for x, dev in zip(xi, d):
            atoms = zip(m.positions, m.weights)
            want = mp.fsum(w * mp.expj(mp.mpf(p) * mp.mpf(x)) for p, w in atoms) - 1
            tol = 4 * EPS if x * span > 256.0 else 256.0 * x * span * EPS
            assert abs(mp.mpc(dev.real, dev.imag) - want) <= tol, (x, dev)


@st.composite
def centred_dyadic_laws(draw):
    """2 to 12 atoms at multiples of 1/8 with weights in 1/1024, mean exactly 0.

    The last atom, of weight 1/2, balances the others, so the mean the
    deviation splits off is exact and the reference below is the law itself.
    """
    k = draw(st.integers(1, 11))
    xs = draw(st.lists(st.integers(-32, 32), min_size=k, max_size=k))
    cuts = sorted(draw(st.lists(st.integers(1, 511), min_size=k - 1, max_size=k - 1)))
    ws = np.diff([0, *cuts, 512]) / 1024.0
    atoms = [(x / 8.0, w) for x, w in zip(xs, ws) if w > 0]
    atoms.append((-2.0 * math.fsum(x * w for x, w in atoms), 0.5))
    return cf.make_atomic(atoms)


@given(
    centred_dyadic_laws(),
    st.integers(0, 40),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_atomic_level_deviation_against_mpmath(law, depth, exponents):
    # D = phi(xi 2^{-n/2})^{2^n} - 1 to 80 digits.  The double keeps it to a
    # few epsilons of |D|, plus what rounding the phases t = x xi 2^{-n/2}
    # costs: eps |t| per atom where |t| is large, eps t^2 where it is small,
    # both carried 2^n times by the squarings
    mp = pytest.importorskip("mpmath")
    xi = np.array([math.copysign(10.0 ** abs(e), e) for e in exponents])
    m = law if depth == 0 else cf.NormalizedSum(law, 1 << depth)
    got = cf.cf_deviation(m, xi)
    with mp.workdps(80):
        scale = mp.mpf(2) ** (-mp.mpf(depth) / 2)
        for x, dev in zip(xi, got):
            ts = [mp.mpf(float(p)) * mp.mpf(float(x)) * scale for p in law.positions]
            ws = [mp.mpf(float(w)) for w in law.weights]
            want = mp.fsum(w * (mp.expj(t) - 1) for t, w in zip(ts, ws))
            phases = mp.fsum(w * abs(t) * min(abs(t), 2) for t, w in zip(ts, ws))
            for _ in range(depth):
                want = 2 * want + want * want
            err = abs(mp.mpc(dev.real, dev.imag) - want)
            assert err <= 4 * EPS * (abs(want) + 2**depth * phases), (x, dev, want)


@given(
    centred_dyadic_laws(),
    st.integers(2, 1024),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_atomic_normalized_sum_deviation_against_mpmath(law, n, exponents):
    # D = phi(xi n^{-1/2})^n - 1 to 80 digits for any n, not only powers of
    # two: the binary power's squarings and products keep it to a few
    # epsilons of |D|, plus the rounding of the phases carried n times
    mp = pytest.importorskip("mpmath")
    xi = np.array([math.copysign(10.0 ** abs(e), e) for e in exponents])
    got = cf.cf_deviation(cf.NormalizedSum(law, n), xi)
    with mp.workdps(80):
        scale = 1 / mp.sqrt(n)
        for x, dev in zip(xi, got):
            ts = [mp.mpf(float(p)) * mp.mpf(float(x)) * scale for p in law.positions]
            ws = [mp.mpf(float(w)) for w in law.weights]
            want = (1 + mp.fsum(w * (mp.expj(t) - 1) for t, w in zip(ts, ws))) ** n - 1
            phases = mp.fsum(w * abs(t) * min(abs(t), 2) for t, w in zip(ts, ws))
            err = abs(mp.mpc(dev.real, dev.imag) - want)
            assert err <= 4 * EPS * (abs(want) + n * phases), (x, dev, want)


def _level_scale(count):
    """2^(-count/2) as hi + lo, as the renormalization levels scaled their argument."""
    hi = 2.0 ** (-count / 2.0)
    p, e = charfn._two_prod(hi, hi)
    return hi, ((2.0**-count - p) - e) / (2.0 * hi)


def test_sum_scale_is_n_to_the_minus_half_to_double_length():
    # n (hi + lo)^2 = 1 to about eps^2, and hi is n^{-1/2} rounded; at
    # n = 2^k the pair is the one the levels used, bit for bit
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for n in [*range(2, 1025), *(1 << k for k in range(11, 41)), 10**6 + 7, 2**40 - 1]:
            hi, lo = charfn._sum_scale(n)
            assert hi == float(1 / mp.sqrt(n)) and abs(lo) <= 0.5 * math.ulp(hi), n
            assert abs(n * (mp.mpf(hi) + mp.mpf(lo)) ** 2 - 1) <= 2 * EPS**2, n
    for k in range(1, 41):
        assert charfn._sum_scale(1 << k) == _level_scale(k)


def _outer_dev_atomic(positions, weights, mean, span, xi):
    """The atomic deviation over the whole atoms-by-points outer product."""
    t = np.multiply.outer(positions, xi)

    def atom_sum(rows):
        acc = weights[0] * rows[0]
        for w, row in zip(weights[1:], rows[1:]):
            acc += w * row
        return acc

    re = atom_sum(charfn._cos_rem(t))
    im = xi * mean + atom_sum(charfn._sin_rem(t))
    lim = charfn._REMAINDER_T_MAX / span
    far = np.abs(xi) > lim
    if far.any():
        im[far] = atom_sum(np.sin(t[:, far]))
    return re + 1j * im


@pytest.mark.parametrize("atoms, points", [
    (2, 7521), (12, 941), (700, 941), (700, 5), (5000, 1), (5000, 7),
])
def test_atomic_rows_keep_the_outer_product_bits(atoms, points):
    # the rows are summed one at a time on a grid, in blocks of rows on few
    # points; each point adds the same terms in the same atom order either way
    rng = np.random.default_rng(atoms * 7 + points)
    pos = np.sort(rng.normal(scale=3.0, size=atoms))
    ws = rng.random(atoms)
    ws /= ws.sum()
    xi = np.sort(rng.choice([-1.0, 1.0], points) * 10.0 ** rng.uniform(-3.0, 2.5, points))
    mean, span = float(np.dot(ws, pos)), float(np.max(np.abs(pos)))
    want = _outer_dev_atomic(pos, ws, mean, span, xi)
    assert np.array_equal(charfn._dev_atomic(pos, ws, mean, span, xi), want)
    t = np.multiply.outer(pos, xi)
    re = ws[0] * np.cos(t[0])
    im = ws[0] * np.sin(t[0])
    for w, c, s in zip(ws[1:], np.cos(t[1:]), np.sin(t[1:])):
        re += w * c
        im += w * s
    assert np.array_equal(charfn._phi_atomic(pos, ws, xi), re + 1j * im)


def test_non_finite_deviations_are_refused(monkeypatch, gauss, grid):
    # NaN fails every comparison, so a check `peak > bound` let it through
    m = bank.uniform_std()
    for _ in range(4):  # scale 1e300: xi = 1e10 overflows to inf, sin(inf) is NaN
        m = cf.Affine(m, 1e75)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CharFnBoundError, match="nan"):
            cf.cf_deviation(m, [1.0, 1e10])
        with pytest.raises(CharFnBoundError, match="nan"):
            cf_at(m, 1e10)
    # inside a scope a leaf first evaluated as a part is checked on its own,
    # before the product it enters is
    monkeypatch.setattr(
        charfn, "_dev_parametric", lambda family, p, xi: np.full(xi.shape, np.nan + 0j)
    )
    with metrics.shared_deviations():
        with pytest.raises(CharFnBoundError, match="nan"):
            charfn._dev(cf.ConvProduct((bank.rademacher(), gauss)), grid.positive_points(), grid)
