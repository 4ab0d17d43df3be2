import itertools
import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import _scope, bank, metrics
from cltflow.errors import MeasureError, MembershipError

SQRT2 = math.sqrt(2.0)

# regression pins, established by the dense-grid oracle below at 10x resolution
PINNED_D3 = {
    "rademacher": 0.07523920775801167,
    "skewed": 0.25,
    "uniform-std": 0.038475510818724155,
    "laplace-std": 0.06157411898858605,
    "exponential-std": 0.3333333333333333,
}
PINNED_D2 = {
    "rademacher": 0.13996279854495156,
    "skewed": 0.23152992547217285,
    "uniform-std": 0.05874845318285324,
    "laplace-std": 0.0665562540290772,
    "exponential-std": 0.17323324748305527,
    "heavy-tail-std": 0.057805561599287486,
}


# closed-form cfs written out independently of the library
ORACLE_CFS = {
    "gaussian": lambda xi: np.exp(-0.5 * xi**2) + 0j,
    "rademacher": lambda xi: np.cos(xi) + 0j,
    "skewed": lambda xi: 0.2 * np.exp(2j * xi) + 0.8 * np.exp(-0.5j * xi),
    "uniform-std": lambda xi: np.sin(math.sqrt(3.0) * xi) / (math.sqrt(3.0) * xi) + 0j,
    "laplace-std": lambda xi: 1.0 / (1.0 + 0.5 * xi**2) + 0j,
    "exponential-std": lambda xi: np.exp(-1j * xi) / (1.0 - 1j * xi),
}


def brute_force_ratio_sup(name_a, name_b, s, xi_min=1e-3, xi_max=50.0, ppd=2000):
    """Independent oracle: direct cf subtraction on its own dense log grid."""
    n = int(math.log10(xi_max / xi_min) * ppd) + 1
    pos = np.geomspace(xi_min, xi_max, n)
    xi = np.concatenate([-pos[::-1], pos])
    phi_a = ORACLE_CFS[name_a](xi)
    phi_b = ORACLE_CFS[name_b](xi)
    return float(np.max(np.abs(phi_a - phi_b) / np.abs(xi) ** s))


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------


def test_gridspec_defaults_and_points(grid):
    assert grid.xi_min == 1e-3 and grid.xi_max == 50.0
    pts = grid.points()
    assert pts[0] == -50.0 and pts[-1] == 50.0
    assert np.all(np.diff(pts) > 0)
    assert 0.0 not in pts
    pos = grid.positive_points()
    assert pos[0] == 1e-3 and pos[-1] == 50.0


def test_gridspec_doubling_is_superset():
    base = cf.GridSpec(1e-3, 50.0, 100)
    fine = cf.GridSpec(1e-3, 50.0, 200)
    assert set(base.positive_points()).issubset(set(fine.positive_points()))


def test_gridspec_validation():
    with pytest.raises(MeasureError):
        cf.GridSpec(xi_min=0.0)
    with pytest.raises(MeasureError):
        cf.GridSpec(xi_min=10.0, xi_max=1.0)
    with pytest.raises(MeasureError):
        cf.GridSpec(points_per_decade=0)
    # the smallest point keeps the deviations' rounding over xi^3 far below
    # d3; the largest is the largest the cf takes
    for xi_min, xi_max in ((1e-3, 1e305), (1e-300, 1e300), (1e-120, 1e20),
                           (1e-100, 1.0), (9.9e-7, 1.0), (1.0, 1.1e100)):
        with pytest.raises(MeasureError, match="1e-06 <= xi_min and xi_max <= 1e\\+100"):
            cf.GridSpec(xi_min, xi_max, 10)


def test_gridspec_extreme_endpoints_give_a_finite_distance(gauss, skewed):
    grid = cf.GridSpec(metrics.GRID_XI_MIN, 1e100, 2)
    res = cf.ds_distance(bank.uniform_std(), gauss, 3, grid)
    assert math.isfinite(res.grid_sup) and res.grid_argmax > 0
    assert res.tail_bound == 2e-300
    # the floor keeps the deviations' rounding over xi^3 out of d3 (from
    # 1e-100 it reads 7.25e83)
    assert abs(cf.ds_distance(skewed, gauss, 3, grid).value - 0.25) <= 1e-9


# ---------------------------------------------------------------------------
# ds_distance
# ---------------------------------------------------------------------------


def test_distance_of_identical_measures_is_zero(gauss, q3_bank):
    for m in list(q3_bank.values()) + [gauss]:
        res = cf.ds_distance(m, m, 3)
        assert res.value == 0.0
        assert res.grid_sup == 0.0
        assert res.zero_limit == 0.0


def test_distance_result_invariants(q3_bank, gauss):
    for m in q3_bank.values():
        res = cf.ds_distance(m, gauss, 3)
        assert res.value == max(res.grid_sup, res.zero_limit)
        assert res.certified == (res.tail_bound <= res.value + 1e-9)
        assert res.tail_bound == pytest.approx(2.0 / 50.0**3, rel=1e-12)


def test_pinned_d3_values(q3_bank, gauss):
    for name, m in q3_bank.items():
        assert cf.ds_distance(m, gauss, 3).value == pytest.approx(
            PINNED_D3[name], rel=1e-12
        )


def test_pinned_d2_values(q2_bank, gauss):
    for name, m in q2_bank.items():
        assert cf.ds_distance(m, gauss, 2).value == pytest.approx(
            PINNED_D2[name], rel=1e-12
        )


def test_dense_grid_oracle_brackets_pinned_values(q3_bank):
    # 10x points per decade; the oracle may only refine the sup upward and by
    # less than 1 percent; third-moment limits are recomputed by hand here
    hand_zero_limits = {
        "rademacher": 0.0,
        "skewed": (0.2 * 8.0 - 0.8 * 0.125) / 6.0,
        "uniform-std": 0.0,
        "laplace-std": 0.0,
        "exponential-std": 2.0 / 6.0,
    }
    for name in q3_bank:
        oracle = max(
            brute_force_ratio_sup(name, "gaussian", 3), hand_zero_limits[name]
        )
        assert oracle >= PINNED_D3[name] * (1.0 - 1e-6)
        assert oracle <= PINNED_D3[name] * 1.01


def test_dense_grid_oracle_brackets_pinned_d2(q3_bank):
    for name in q3_bank:
        oracle = brute_force_ratio_sup(name, "gaussian", 2)
        assert PINNED_D2[name] * (1.0 - 1e-6) <= oracle <= PINNED_D2[name] * 1.01


def test_skewed_distance_equals_zero_limit(skewed, gauss):
    res = cf.ds_distance(skewed, gauss, 3)
    assert res.value == res.zero_limit == 0.25
    assert res.grid_sup < 0.25


def test_zero_limit_values(skewed, rademacher, gauss, coarse_grid):
    assert cf.ds_distance(skewed, gauss, 3, coarse_grid).zero_limit == pytest.approx(
        0.25, rel=1e-14)
    assert cf.ds_distance(rademacher, gauss, 3, coarse_grid).zero_limit == 0.0
    assert cf.ds_distance(skewed, rademacher, 2, coarse_grid).zero_limit == 0.0


def test_zero_limit_requires_membership(gauss):
    raw = cf.make_parametric("uniform", (0.0, 1.0))
    with pytest.raises(MembershipError):
        cf.ds_distance(raw, gauss, 3)
    with pytest.raises(MembershipError):
        cf.ds_distance(raw, gauss, 2)


def test_zero_limit_needs_third_moment_for_s3(gauss):
    heavy = bank.heavy_tail_std()
    with pytest.raises(MembershipError):
        cf.ds_distance(heavy, gauss, 3)


def test_unsupported_exponent(gauss, rademacher):
    with pytest.raises(MeasureError):
        cf.ds_distance(rademacher, gauss, 2.5)


def test_symmetry(q3_bank, gauss, coarse_grid):
    for m in q3_bank.values():
        ab = cf.ds_distance(m, gauss, 3, coarse_grid)
        ba = cf.ds_distance(gauss, m, 3, coarse_grid)
        assert ab.value == ba.value
        assert ab.grid_argmax == ba.grid_argmax


def test_separation_on_bank(q3_bank, gauss):
    items = list(q3_bank.items()) + [("gaussian", gauss)]
    for (na, ma), (nb, mb) in itertools.combinations(items, 2):
        res = cf.ds_distance(ma, mb, 3)
        assert res.value > 1e-6, (na, nb)


def test_finiteness_and_certification(q3_bank, q2_bank, gauss):
    for a, b in itertools.combinations(list(q3_bank.values()) + [gauss], 2):
        res = cf.ds_distance(a, b, 3)
        assert math.isfinite(res.value) and res.certified
    for a, b in itertools.combinations(list(q2_bank.values()) + [gauss], 2):
        res = cf.ds_distance(a, b, 2)
        assert math.isfinite(res.value) and res.certified


def test_grid_refinement_monotone(q3_bank, gauss):
    base = cf.GridSpec(1e-3, 50.0, 200)
    fine = cf.GridSpec(1e-3, 50.0, 400)
    for m in q3_bank.values():
        lo = cf.ds_distance(m, gauss, 3, base)
        hi = cf.ds_distance(m, gauss, 3, fine)
        assert hi.grid_sup >= lo.grid_sup
        assert hi.value <= lo.value * 1.01


def test_argmax_tiebreak_prefers_small_positive_xi(skewed, gauss):
    res = cf.ds_distance(skewed, gauss, 3)
    # the ratio is maximal towards xi -> 0; the reported argmax must sit at
    # the smallest grid magnitude, positive side
    assert res.grid_argmax == 1e-3


def test_uncertified_when_tail_dominates(gauss):
    tiny = cf.GridSpec(1e-3, 2.0, 50)
    near = cf.Parametric("gaussian", (0.0, 1.0))
    res = cf.ds_distance(near, gauss, 3, tiny)
    assert res.value == 0.0
    assert res.tail_bound == pytest.approx(0.25)
    assert not res.certified


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_subadditivity_trivial_and_bank(gauss, rademacher, skewed, coarse_grid):
    chk = cf.check_convolution_subadditivity(gauss, gauss, gauss, gauss, 3, coarse_grid)
    assert chk.ok and chk.lhs == 0.0
    chk = cf.check_convolution_subadditivity(
        rademacher, rademacher, gauss, gauss, 3, coarse_grid
    )
    assert chk.ok and chk.margin >= 0.0
    chk = cf.check_convolution_subadditivity(
        skewed, rademacher, gauss, gauss, 3, coarse_grid
    )
    assert chk.ok


def test_scaling_ideality_identity(rademacher, gauss, coarse_grid):
    chk = cf.check_scaling_ideality(rademacher, gauss, 1.0, 3, coarse_grid)
    assert chk.ok and chk.ratio == 1.0


def test_scaling_ideality_bank(rademacher, skewed, gauss, coarse_grid):
    chk = cf.check_scaling_ideality(rademacher, gauss, 2.0**-0.5, 3, coarse_grid)
    assert chk.ok
    assert chk.ratio == pytest.approx(1.0, abs=1e-6)
    chk = cf.check_scaling_ideality(skewed, gauss, 2.0, 2, coarse_grid)
    assert chk.ok
    assert chk.ratio == pytest.approx(1.0, abs=1e-6)


def test_scaling_rejects_nonpositive_lambda(rademacher, gauss):
    with pytest.raises(MeasureError):
        cf.check_scaling_ideality(rademacher, gauss, 0.0, 3)


def test_convolution_invariance(rademacher, skewed, gauss, coarse_grid):
    delta0 = cf.make_atomic([(0.0, 1.0)])
    chk = cf.check_convolution_invariance(rademacher, gauss, delta0, 3, coarse_grid)
    assert chk.ok and chk.lhs == chk.rhs
    chk = cf.check_convolution_invariance(rademacher, gauss, gauss, 3, coarse_grid)
    assert chk.ok and chk.margin > 0.0
    chk = cf.check_convolution_invariance(skewed, skewed, gauss, 3, coarse_grid)
    assert chk.ok and chk.lhs == 0.0


def test_triangle(q3_bank, gauss, rademacher, skewed, coarse_grid):
    def d3(a, b):
        return cf.ds_distance(a, b, 3, coarse_grid).value

    laws = list(q3_bank.values())
    triples = [(gauss, gauss, gauss), (rademacher, skewed, gauss),
               (rademacher, skewed, rademacher), *itertools.permutations(laws[:4], 3)]
    for a, b, c in triples:
        assert d3(a, c) <= d3(a, b) + d3(b, c) + metrics.SUP_SLACK


def test_generic_doubling_bound(q3_bank, q2_bank, gauss, coarse_grid):
    for s, bank_s in ((2, q2_bank), (3, q3_bank)):
        items = list(bank_s.values()) + [gauss]
        for a, b in itertools.combinations(items, 2):
            lhs = cf.ds_distance(
                cf.convolve(a, a), cf.convolve(b, b), s, coarse_grid,
                require_class_membership=False,
            ).value
            rhs = cf.ds_distance(a, b, s, coarse_grid).value
            assert lhs <= 2.0 * rhs + 1e-8


def test_csv_row_format(gauss, rademacher):
    res = cf.ds_distance(rademacher, gauss, 3)
    row = res.to_csv_row()
    fields = row.split(",")
    assert len(fields) == 9
    assert fields[0] == "3"
    assert fields[-1] == "true"
    assert float(fields[7]) == res.value


# ---------------------------------------------------------------------------
# shared deviations
# ---------------------------------------------------------------------------


def test_memo_exists_only_inside_a_scope(skewed, gauss, grid):
    assert _scope.active is None
    with metrics.shared_deviations():
        cf.ds_distance(skewed, gauss, 3, grid)
        scope = _scope.active
        assert set(scope.leaves) == {(skewed, grid), (gauss, grid)}
        assert not scope.composites
        with metrics.shared_deviations():  # a nested scope shares the outer one
            assert _scope.active is scope
        assert len(scope.leaves) == 2
    assert _scope.active is None
    with pytest.raises(MembershipError):
        with metrics.shared_deviations():
            cf.ds_distance(skewed, gauss, 3, cf.GridSpec(1e-3, 50.0, 10))
            cf.ds_distance(cf.Affine(skewed, 1.0, 1.0), gauss, 3, grid)
    assert _scope.active is None


def test_scope_keeps_twelve_recent_leaves_and_the_last_two_composites(gauss, coarse_grid):
    # symmetric two-atom laws of growing variance: leaves, with finite d2
    leaves = [cf.make_atomic([(-x, 0.5), (x, 0.5)]) for x in np.linspace(0.5, 1.5, 20)]
    levels = [cf.NormalizedSum(bank.skewed_two_atom(), 1 << n) for n in range(1, 6)]
    with metrics.shared_deviations():
        scope = _scope.active
        for m in leaves:
            cf.ds_distance(m, gauss, 2, coarse_grid, require_class_membership=False)
            assert len(scope.leaves) <= _scope._LEAVES == 12
        recent = {(m, coarse_grid) for m in leaves[-11:]} | {(gauss, coarse_grid)}
        assert set(scope.leaves) == recent
        for m in levels:
            cf.ds_distance(m, gauss, 3, coarse_grid)
            assert len(scope.composites) <= _scope._COMPOSITES == 2
        # a level's base is evaluated at scaled points, never stored by grid
        assert set(scope.leaves) == recent
        assert set(scope.composites) == {(m, coarse_grid) for m in levels[-2:]}
        # the parts of a product on the grid are leaves, looked up and stored
        product = cf.ConvProduct((leaves[0], leaves[-1]))
        cf.ds_distance(product, product, 2, coarse_grid, require_class_membership=False)
        assert list(scope.leaves)[-2:] == [(leaves[0], coarse_grid), (leaves[-1], coarse_grid)]
        assert (leaves[-11], coarse_grid) not in scope.leaves
        assert (product, coarse_grid) == list(scope.composites)[-1]
        tables = [*scope.leaves.values(), *scope.composites.values()]
        assert all(not dev.flags.writeable for dev in tables)
        assert scope.summaries
    assert _scope.active is None
