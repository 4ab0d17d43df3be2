import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cltflow as cf
from cltflow import bank
from cltflow.errors import MeasureError, MembershipError
from conftest import abs_third_moment, draws

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_atomic_rademacher_moments(rademacher):
    assert cf.cumulants(rademacher)[:3] == (0.0, 1.0, 0.0)


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
    assert cf.cumulants(skewed)[:3] == (0.0, 1.0, 1.5)
    x = draws(skewed, 400_000, 2024)
    est = float(np.mean(x**3))
    # CLT error bar: sd(X^3) / sqrt(N), generously widened
    sd = float(np.std(x**3))
    assert abs(est - 1.5) < 5.0 * sd / math.sqrt(x.size)


def test_make_parametric_gaussian_moments(gauss):
    k1, k2, k3, k4 = cf.cumulants(gauss)
    assert (k1, k2, k3) == (0.0, 1.0, 0.0)
    assert k4 + 3.0 * k2 * k2 == 3.0  # E X^4 of a centred law


def test_make_parametric_uniform_variance():
    m = cf.make_parametric("uniform", (-SQRT3, SQRT3))
    assert cf.cumulants(m)[0] == 0.0
    assert cf.cumulants(m)[1] == pytest.approx(1.0, abs=1e-15)


def test_make_parametric_rejects_invalid():
    with pytest.raises(MeasureError):
        cf.make_parametric("gaussian", (0.0, -1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("cauchy", (0.0, 1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("uniform", (1.0, 1.0))
    with pytest.raises(MeasureError):
        cf.make_parametric("exponential", (-2.0,))


def test_heavy_tail_moment_markers():
    _, k2, k3, k4 = cf.cumulants(bank.heavy_tail_std())
    assert k2 == 1.0
    assert math.isnan(k3)
    assert math.isinf(k4 + 3.0 * k2 * k2)  # E X^4 of a centred law


# ---------------------------------------------------------------------------
# scale / convolve
# ---------------------------------------------------------------------------


def test_scale_law_identity_and_atoms(rademacher):
    assert cf.scale_law(rademacher, 1.0) is rademacher
    doubled = cf.scale_law(rademacher, 2.0)
    assert doubled.positions.tolist() == [-2.0, 2.0]
    with pytest.raises(MeasureError):
        cf.scale_law(rademacher, 0.0)
    with pytest.raises(MeasureError):
        cf.scale_law(rademacher, -1.0)


def test_scale_law_keeps_each_of_the_four_types(skewed, gauss):
    mp = pytest.importorskip("mpmath")
    lam, heavy, lap = 0.7, bank.heavy_tail_std(), bank.laplace_std()
    total = cf.NormalizedSum(lap, 8)
    product = cf.convolve(lap, bank.exponential_std())
    for m in (skewed, gauss, heavy, total, product):
        scaled = cf.scale_law(m, lam)
        assert type(scaled) is type(m)
        k = np.array(cf.cumulants(m))
        np.testing.assert_allclose(cf.cumulants(scaled), k * lam ** np.arange(1, 5),
                                   rtol=1e-14, atol=1e-15)
    assert cf.scale_law(heavy, lam) == cf.Parametric("student3", (lam,))
    xi = np.geomspace(1e-3, 1e4, 71)
    assert np.array_equal(cf.cf_deviation(cf.scale_law(heavy, lam), xi),
                          cf.cf_deviation(heavy, lam * xi))
    # the law of lam X, each scaled part evaluated at 80 digits, within the
    # 1e-14 of |D| the charfn module states
    refs = [
        (total, lambda t: (1 + t * t / 16) ** -8),
        (product, lambda t: mp.expj(-t) / ((1 + t * t / 2) * (1 - 1j * t))),
    ]
    xi = np.concatenate([-xi[::7], xi[xi <= 40.0]])
    with mp.workdps(80):
        for m, phi in refs:
            got = cf.cf_deviation(cf.scale_law(m, lam), xi)
            for x, dev in zip(xi, got):
                want = phi(mp.mpf(lam) * mp.mpf(float(x))) - 1
                assert abs(mp.mpc(dev.real, dev.imag) - want) <= 1e-14 * abs(want), (m, x)


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
    # atomic pairs convolve exactly; any other pair is a product, the same law
    delta0 = cf.make_atomic([(0.0, 1.0)])
    assert cf.convolve(skewed, delta0) == skewed
    both = cf.convolve(delta0, gauss)
    assert both == cf.ConvProduct((delta0, gauss))
    assert cf.cumulants(both) == cf.cumulants(gauss)
    xi = np.geomspace(1e-3, 50.0, 60)
    assert np.array_equal(cf.cf_deviation(both, xi), cf.cf_deviation(gauss, xi))


def test_point_mass_cumulants_are_exactly_zero(gauss):
    # moments about the mean; from raw moments k3 was 3.6e-15 and k4 1.4e-14
    assert cf.cumulants(cf.make_atomic([(-2.1, 1.0)])) == (-2.1, 0.0, 0.0, 0.0)
    shifted = cf.scale_law(cf.convolve(gauss, cf.make_atomic([(-3.0, 1.0)])), 0.7)
    assert cf.cumulants(shifted)[2:] == (0.0, 0.0)


def test_convolve_generic_becomes_product(gauss):
    m = cf.convolve(bank.uniform_std(), gauss)
    assert isinstance(m, cf.ConvProduct)
    assert cf.cumulants(m)[1] == pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_q_membership_gaussian(gauss):
    assert cf.q_membership(gauss, 3) is True
    assert cf.cumulants(gauss)[:2] == (0.0, 1.0)


def test_q_membership_uniform01_not_centred():
    m = cf.make_parametric("uniform", (0.0, 1.0))
    assert cf.q_membership(m, 3) is False
    assert cf.cumulants(m)[0] == pytest.approx(0.5)
    with pytest.raises(MembershipError, match="got mean 0.5, variance 0.0833333"):
        cf.measures.require_membership(m, 3)


def test_q_membership_skewed_abs_moment(skewed):
    assert cf.q_membership(skewed, 3) is True
    assert cf.cumulants(skewed)[:2] == (0.0, 1.0)


def test_q_membership_heavy_tail_split():
    m = bank.heavy_tail_std()
    assert cf.q_membership(m, 2)
    assert not cf.q_membership(m, 3)


def test_q_membership_rejects_unsupported_r(gauss):
    with pytest.raises(MembershipError):
        cf.q_membership(gauss, 4)


def _point(c):
    return cf.make_atomic([(c, 1.0)])


def _verdict_laws():
    """(id, law, member at r = 2, member at r = 3) for the verdict table."""
    heavy, gauss, uni = bank.heavy_tail_std(), bank.gaussian(), bank.uniform_std()
    half = 2.0**-0.5
    big = cf.measures.ATOM_ABS_MAX
    for name, make in bank.ALIASES.items():
        yield name, make(), True, name != "heavy-tail-std"
    yield from [
        # off centre, one per public family; a location of 1e-11 is within
        # the membership tolerance of 1e-10
        ("gaussian-moved", cf.make_parametric("gaussian", (0.5, 1.0)), False, False),
        ("uniform-moved", cf.make_parametric("uniform", (-1.0, 2.0)), False, False),
        ("exponential-moved", cf.make_parametric("exponential", (2.0,)), False, False),
        ("laplace-loc-1e-11", cf.make_parametric("laplace", (1e-11, half)), True, True),
        ("laplace-loc-minus-1e-11", cf.make_parametric("laplace", (-1e-11, half)), True, True),
        ("exponential-shift-1e-11", cf.Parametric("exponential", (1.0, -1.0 + 1e-11)),
         True, True),
        ("one-atom", cf.make_atomic([(0.0, 1.0)]), False, False),
        ("far-atoms", cf.make_atomic([(-1e75, 0.5e-150), (1e75, 0.5e-150),
                                      (0.0, 1.0 - 1e-150)]), True, True),
        ("sum-skewed-8", cf.NormalizedSum(bank.skewed_two_atom(), 8), True, True),
        ("sum-heavy-4", cf.NormalizedSum(heavy, 4), True, False),
        ("conv-uniform-gauss", cf.convolve(uni, gauss), False, False),
        ("conv-uniform-gauss-scaled", cf.scale_law(cf.convolve(uni, gauss), half), True, True),
        ("conv-heavy-gauss-scaled", cf.scale_law(cf.convolve(heavy, gauss), half), True, False),
        ("conv-heavy-heavy-scaled", cf.scale_law(cf.convolve(heavy, heavy), half), True, False),
        ("sum-of-conv-4", cf.NormalizedSum(cf.scale_law(cf.convolve(uni, gauss), half), 4),
         True, True),
        # shift + scale X: the scaled law convolved with a point mass
        ("affine-uniform-shift-1e-11", cf.convolve(uni, _point(1e-11)), True, True),
        ("affine-heavy-shift-1e-11", cf.convolve(heavy, _point(1e-11)), True, False),
        ("affine-heavy-moved", cf.convolve(cf.scale_law(heavy, 2.0), _point(1.0)), False, False),
        ("affine-at-the-bound", cf.convolve(cf.scale_law(heavy, big), _point(-big)),
         False, False),
        ("affine-at-the-bound-reduced", cf.scale_law(cf.scale_law(uni, 1.0 / big), big),
         True, True),
    ]


@pytest.mark.parametrize("law, member2, member3",
                         [pytest.param(*v[1:], id=v[0]) for v in _verdict_laws()])
def test_q_membership_verdict_table(law, member2, member3):
    # centred, reduced laws whose verdict turns on a finite E|X|^r, and
    # laws that fail on the mean or the variance
    assert cf.q_membership(law, 2) == member2
    assert cf.q_membership(law, 3) == member3


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
        expected = lam**k * cf.cumulants(m)[k - 1]
        assert cf.cumulants(scaled)[k - 1] == pytest.approx(expected, rel=1e-10, abs=1e-12)


@given(atom_lists, atom_lists)
@settings(max_examples=60, deadline=None)
def test_convolve_moment_additivity(aa, bb):
    a, b = cf.make_atomic(aa), cf.make_atomic(bb)
    s = cf.convolve(a, b)
    assert cf.cumulants(s)[0] == pytest.approx(
        cf.cumulants(a)[0] + cf.cumulants(b)[0], rel=1e-10, abs=1e-10
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
    ca = cf.convolve(ca, cf.make_atomic([(-cf.cumulants(ca)[0], 1.0)]))
    cb = cf.convolve(cb, cf.make_atomic([(-cf.cumulants(cb)[0], 1.0)]))
    s = cf.convolve(ca, cb)
    assert cf.cumulants(s)[2] == pytest.approx(
        cf.cumulants(ca)[2] + cf.cumulants(cb)[2], rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("scale, shift", [
    (1e80, 0.0), (1e300, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.0, 0.0), (-1.0, 0.0),
    (1.0, 1e76), (1.0, -1e300), (1.0, math.inf), (1.0, math.nan),
])
def test_affine_scale_and_shift_are_bounded(scale, shift):
    # shift + scale X is the scaled law convolved with a point mass: a
    # scale beyond ATOM_ABS_MAX would overflow the cumulants' s^4, and the
    # heavy-tail law's scale, like an atom's position, is refused beyond it
    with pytest.raises(MeasureError):
        cf.convolve(cf.scale_law(bank.heavy_tail_std(), scale), _point(shift))


def test_affine_at_the_bound_has_finite_moments():
    big = cf.measures.ATOM_ABS_MAX
    m = cf.convolve(cf.scale_law(bank.laplace_std(), big), _point(-big))
    assert all(map(math.isfinite, cf.cumulants(m)))


def test_cumulants_are_computed_once_per_law_object(skewed, gauss, monkeypatch):
    rule, seen = cf.measures._atomic_cumulants, []
    monkeypatch.setattr(cf.measures, "_atomic_cumulants", lambda m: seen.append(m) or rule(m))
    law = cf.make_atomic(skewed.atoms)
    assert cf.cumulants(law) is cf.cumulants(law)
    assert cf.q_membership(law, 3) and seen == [law]
    with cf.metrics.shared_deviations():
        twin = cf.make_atomic(skewed.atoms)
        assert cf.cumulants(twin) is cf.cumulants(twin)
        assert cf.cumulants(twin) == cf.cumulants(law)
        # a composite reads its parts' cumulants from them
        cf.cumulants(cf.NormalizedSum(twin, 8))
        cf.cumulants(cf.ConvProduct((twin, gauss)))
        assert len(seen) == 2 and seen[1] is twin
    cf.cumulants(law)
    assert len(seen) == 2
    # the cache is no field: a law whose cumulants were read equals, hashes
    # and prints like a fresh one, and keys the scope's distance table alike
    fresh = cf.make_atomic(skewed.atoms)
    assert "_cumulants" in vars(law) and "_cumulants" not in vars(fresh)
    assert law == fresh and hash(law) == hash(fresh) and repr(law) == repr(fresh)
    with cf.metrics.shared_deviations() as scope:
        first = cf.ds_distance(law, gauss, 3)
        assert cf.ds_distance(fresh, gauss, 3) is first
        assert list(scope.distances) == [(law, gauss, 3, cf.GridSpec())]


def test_third_absolute_moment_growth_under_step(q3_bank):
    # exact atomic arithmetic obeys the convolution growth factor 16/2^{3/2}
    from cltflow.flow import renorm_step

    bound = 16.0 / 2.0**1.5
    for m in q3_bank.values():
        if not isinstance(m, cf.Atomic):
            continue
        stepped = renorm_step(m)
        assert abs_third_moment(stepped) <= bound * abs_third_moment(m) * (1.0 + 1e-12)


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
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for n in SUM_LENGTHS:
            summed = cf.NormalizedSum(m, n)
            root = mp.sqrt(n)
            want = (ks[0] * root, mp.mpf(ks[1]), ks[2] / root, mp.mpf(ks[3]) / n)
            got = cf.cumulants(summed)
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


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

# the package's modules from the bottom up; the package's __init__ only
# gathers them
_LAYERS = ("errors", "_families", "measures", "bank", "charfn", "metrics", "flow", "mc", "cli")
_SRC = Path(cf.__file__).parent


def _package_imports(source):
    """(line, module) of each cltflow module that source imports, anywhere in it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("cltflow."):
                    yield node.lineno, a.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cltflow" if node.level else None, node.module]))
            if base == "cltflow":  # from . import a, b
                yield from ((node.lineno, a.name) for a in node.names)
            elif base.startswith("cltflow."):
                yield node.lineno, base.split(".")[1]


@pytest.mark.parametrize("module", _LAYERS)
def test_no_module_imports_a_module_above_it(module):
    # each layer stands on the ones below it alone: laws need no cf, the cf
    # no metric and no memo, the metrics no flow; read from the source
    # without importing it
    below = _LAYERS[: _LAYERS.index(module)]
    found = [f"{module}.py:{line} imports {name}"
             for line, name in _package_imports((_SRC / f"{module}.py").read_text())
             if name not in below]
    assert not found, "; ".join(found)


def test_the_layer_order_names_every_module():
    assert sorted(p.stem for p in _SRC.glob("*.py")) == sorted(("__init__", *_LAYERS))
    # the import reader sees each form of import the layers keep out
    probe = ("from . import bank, errors\nfrom .metrics import ds_distance\n"
             "import cltflow.flow\nfrom cltflow.mc import draw\nfrom cltflow import cli\n"
             "def f():\n    from .charfn import cf_deviation\n")
    assert sorted(_package_imports(probe)) == [
        (1, "bank"), (1, "errors"), (2, "metrics"), (3, "flow"), (4, "mc"), (5, "cli"),
        (7, "charfn")]
