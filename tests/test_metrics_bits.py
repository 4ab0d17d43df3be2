"""ds_distance keeps its bits: positive half of the grid and shared deviations.

The reference below is the straightforward ds_distance that evaluates both
laws on the whole mirrored grid, takes the ratio at every point and breaks
ties towards the smallest |xi|, then the positive sign.  The library
evaluates the positive points only and, inside shared_deviations(), reuses
deviations and finished distances; every DistanceResult field must agree
bit for bit either way.
"""

import dataclasses
import math

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank, charfn, metrics
from cltflow.bank import Q2_BANK_NAMES, resolve_alias
from cltflow.measures import cumulants, make_atomic, make_parametric
from cltflow.metrics import DistanceResult, GridSpec, ds_distance, shared_deviations


def ref_ds_distance(a, b, s, grid, *, require_class_membership=True, diff=None):
    """The mirrored-grid ds_distance; diff, |phi_a - phi_b| on grid.points(),
    may be passed in to share it between exponents."""
    s = metrics._validate_s(s)
    if require_class_membership:
        cf.measures.require_membership(a, s, f"d_{s}")
        cf.measures.require_membership(b, s, f"d_{s}")
    zl = metrics._zero_limit_relaxed(a, b, s)
    xi = grid.points()
    if diff is None:
        diff = np.abs(charfn.cf_deviation(a, xi) - charfn.cf_deviation(b, xi))
    ratio = diff / np.abs(xi) ** s
    grid_sup = float(np.max(ratio))
    peak = np.flatnonzero(ratio == grid_sup)
    argmax = min((abs(xi[i]), 0.0 if xi[i] >= 0 else 1.0, xi[i]) for i in peak)[2]
    tail = 2.0 / grid.xi_max**s
    value = max(grid_sup, zl)
    return DistanceResult(
        s=float(s),
        xi_min=grid.xi_min,
        xi_max=grid.xi_max,
        value=value,
        grid_sup=grid_sup,
        grid_argmax=float(argmax),
        zero_limit=zl,
        tail_bound=tail,
        certified=tail <= value + 1e-9,
    )


def same_result(got, want) -> bool:
    for f in dataclasses.fields(DistanceResult):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(y, bool):
            if x is not y:
                return False
        elif np.float64(x).view(np.uint64) != np.float64(y).view(np.uint64):
            return False
    return True


def matched_gaussian(m):
    k = cumulants(m)
    return make_parametric("gaussian", (k[0], k[1]))


def _laws():
    gauss = bank.gaussian()
    skewed = bank.skewed_two_atom()
    rng = np.random.default_rng(12)
    ws = rng.random(12) + 0.05
    twelve = make_atomic(zip(rng.normal(size=12), ws / ws.sum()))
    built = {
        # the cf-level iterates T^k, normalized sums of 2^k copies
        "cflevel-1": cf.NormalizedSum(skewed, 2),
        "cflevel-7": cf.NormalizedSum(skewed, 1 << 7),
        "cflevel-40": cf.NormalizedSum(bank.exponential_std(), 1 << 40),
        # convolution powers, normalized: sums of n copies over sqrt(n)
        "convpower-3": cf.NormalizedSum(skewed, 3),
        "convpower-64": cf.NormalizedSum(bank.uniform_std(), 64),
        # 0.3 + 0.7 (X_1 + X_2) / sqrt 2: a scaled sum and a point mass
        "affine-shift": cf.convolve(cf.scale_law(cf.NormalizedSum(skewed, 2), 0.7),
                                    make_atomic([(0.3, 1.0)])),
        "convproduct": cf.ConvProduct((skewed, bank.laplace_std(), bank.uniform_std())),
        "atoms-12": twelve,
        "empirical-3000": make_atomic((x, 1.0) for x in rng.gamma(2.0, size=3000)),
    }
    laws = {name: (resolve_alias(name), gauss, True) for name in Q2_BANK_NAMES}
    laws.update({name: (m, matched_gaussian(m), False) for name, m in built.items()})
    return laws


LAWS = _laws()
GRIDS = {
    "default": GridSpec(),
    "ppd-1600": GridSpec(1e-3, 50.0, 1600),
    "scaled-1/0.37": GridSpec().scaled(1.0 / 0.37),
    "scaled-1/2.5": GridSpec().scaled(1.0 / 2.5),
    "wide-300": GridSpec(1e-3, 1e4, 300),
}


def exponents(m):
    return (2,) if m == bank.heavy_tail_std() else (2, 3)


@pytest.mark.parametrize("grid_id", list(GRIDS))
@pytest.mark.parametrize("law", list(LAWS))
def test_ds_distance_matches_mirrored_grid_reference(law, grid_id):
    a, b, member = LAWS[law]
    grid = GRIDS[grid_id]
    xi = grid.points()
    dev_a, dev_b = charfn.cf_deviation(a, xi), charfn.cf_deviation(b, xi)
    # D(-xi) = conj D(xi) as values: the sign of a zero may differ
    # (rademacher's imaginary part), which no modulus sees
    half = xi.size // 2
    for dev in (dev_a, dev_b):
        assert np.array_equal(dev[:half][::-1], np.conj(dev[half:]))
    diff = np.abs(dev_a - dev_b)
    want = {
        s: ref_ds_distance(a, b, s, grid, require_class_membership=member, diff=diff)
        for s in exponents(a)
    }
    for s in want:
        assert want[s].grid_argmax > 0
        fresh = ds_distance(a, b, s, grid, require_class_membership=member)
        assert same_result(fresh, want[s]), (s, fresh, want[s])
    with shared_deviations() as scope:
        # computed, read back from the distance table, then computed again
        # from the deviations read back from the scope
        for table in ("computed", "distances", "deviations"):
            if table == "deviations":
                scope.distances.clear()
            for s in want:
                shared = ds_distance(a, b, s, grid, require_class_membership=member)
                assert same_result(shared, want[s]), (table, s, shared, want[s])


def test_ties_go_to_the_smallest_positive_point():
    # equal laws: the ratio is 0 everywhere, so every point ties
    m = bank.skewed_two_atom()
    for grid in GRIDS.values():
        got = ds_distance(m, m, 3, grid)
        assert got.grid_sup == 0.0
        assert got.grid_argmax == grid.positive_points()[0]
        assert same_result(got, ref_ds_distance(m, m, 3, grid))
        assert not math.isnan(got.value)
