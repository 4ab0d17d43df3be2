"""Each row of the closed-form family table, and the table as the one place of family rules."""

import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import cltflow as cf
from cltflow import charfn
from cltflow._families import FAMILIES
from conftest import draws

EPS = np.finfo(float).eps
XIS = np.array([-2.5, -0.37, 1e-3, 0.05, 0.8, 3.1])


def _mp_heavy_cubic(p, xi):
    # 3 int_1^inf cos(t v) v^-4 dv at t = |xi| / sqrt 3, through the sine
    # integral's auxiliary functions (A&S 5.2.6-7)
    t = abs(xi) / mp.sqrt(3)
    ci, si = mp.ci(t), mp.si(t) - mp.pi / 2
    f = ci * mp.sin(t) - si * mp.cos(t)
    g = -ci * mp.cos(t) - si * mp.sin(t)
    return mp.cos(t) * (1 - t**2 / 2 + t**3 * f / 2) + mp.sin(t) * (t**3 * g / 2 - t / 2)


def _mp_uniform(p, xi):
    a, b = map(mp.mpf, p)
    t = (b - a) / 2 * xi
    return mp.expj((a + b) / 2 * xi) * mp.sin(t) / t


# each family's cf in closed form, at parameters p and argument xi (mpf)
MP_CF = {
    "gaussian": lambda p, xi: mp.exp(1j * p[0] * xi - mp.mpf(p[1]) * xi**2 / 2),
    "uniform": _mp_uniform,
    "laplace": lambda p, xi: mp.expj(p[0] * xi) / (1 + (p[1] * xi) ** 2),
    "exponential": lambda p, xi: mp.expj(p[1] * xi) / (1 - 1j * xi / p[0]),
    "heavy_cubic": _mp_heavy_cubic,
}


def _mp_cf(m, xi):
    if isinstance(m, cf.Affine):
        return _mp_cf(m.base, m.scale * xi) * mp.expj(m.shift * xi)
    return MP_CF[m.family](m.params, xi)


def _point(c):
    return cf.make_atomic([(c, 1.0)])


def _laws():
    for name, row in FAMILIES.items():
        bank = cf.Parametric(name, row.standard)
        yield pytest.param(bank, id=f"{name}-bank")
        # off centre far enough that a uniform lies below 0 and a laplace
        # and an exponential reach their negative-location moment rules
        moved = cf.scale_law(cf.convolve(bank, _point(-3.0)), 0.7)
        yield pytest.param(moved, id=f"{name}-moved")


@pytest.mark.parametrize("name", FAMILIES)
def test_standard_member_is_centred_and_reduced(name):
    k = cf.cumulants(cf.Parametric(name, FAMILIES[name].standard))
    assert abs(k[0]) <= 1e-15 and abs(k[1] - 1.0) <= 4 * EPS


@pytest.mark.parametrize("m", _laws())
def test_deviation_and_value_agree_where_phi_is_large(m):
    xi = np.geomspace(1e-3, 60.0, 800)
    xi = np.concatenate([-xi[::-1], xi])
    d = charfn.cf_deviation(m, xi)
    v = charfn._phi(m, xi, np.zeros_like(xi))
    large = np.abs(v) >= 0.5
    assert large.sum() > 100
    assert np.max(np.abs(1.0 + d[large] - v[large])) <= 4 * EPS


@pytest.mark.parametrize("m", _laws())
def test_deviation_against_mpmath(m):
    d = charfn.cf_deviation(m, XIS)
    with mp.workdps(80):
        for x, got in zip(XIS, d):
            want = _mp_cf(m, mp.mpf(float(x))) - 1
            err = abs(mp.mpc(got.real, got.imag) - want)
            assert err <= 8 * EPS * abs(want), (x, got, complex(want))


@pytest.mark.parametrize("m", _laws())
def test_shift_scale_and_standardize_scale_the_cumulants(m):
    k = np.array(cf.cumulants(m))
    c, lam = -1.25, 1.7
    shifted = np.array(cf.cumulants(cf.convolve(m, _point(c))))
    np.testing.assert_allclose(shifted, k + [c, 0.0, 0.0, 0.0], rtol=1e-13, atol=1e-15)
    scaled = np.array(cf.cumulants(cf.scale_law(m, lam)))
    np.testing.assert_allclose(scaled, k * lam ** np.arange(1, 5), rtol=1e-13, atol=1e-15)
    std = cf.cumulants(cf.standardize(m))
    sd = math.sqrt(k[1])
    assert abs(std[0]) <= 1e-14 and abs(std[1] - 1.0) <= 1e-14
    np.testing.assert_allclose(std[2:], k[2:] / sd ** np.arange(3, 5), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("m", _laws())
def test_draws_match_the_cumulants(m):
    # the oracle draws closed-form laws; an affine image (a family with no
    # rule for the move) maps its base's draws
    n = 100_000
    if isinstance(m, cf.Affine):
        x = draws(m.base, n, 11) * m.scale + m.shift
    else:
        x = draws(m, n, 11)
    k1, k2, _, k4 = cf.cumulants(m)
    assert abs(np.mean(x) - k1) <= 5.0 * math.sqrt(k2 / n)
    if math.isfinite(k4):
        assert abs(np.var(x) - k2) <= 5.0 * math.sqrt((k4 + 2.0 * k2 * k2) / n)
    if isinstance(m, cf.Parametric):  # E|X| has an exact rule
        assert abs(np.mean(np.abs(x)) - cf.moment(m, 1, absolute=True)) <= 5.0 * math.sqrt(
            cf.moment(m, 2) / n
        )


def _family_comparisons(source):
    """(line, name) of each comparison against a family-name constant in source."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            seq = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            consts = operand.elts if seq else [operand]
            for c in consts:
                if isinstance(c, ast.Constant) and c.value in FAMILIES:
                    yield node.lineno, c.value


def test_family_rules_live_only_in_the_table():
    found = [
        f"{path.name}:{line} compares against {name!r}"
        for path in sorted(Path(cf.__file__).parent.glob("*.py"))
        if path.name != "_families.py"
        for line, name in _family_comparisons(path.read_text())
    ]
    assert not found, "family rules belong in _families: " + "; ".join(found)
    # the check sees the comparisons it is there to keep out
    probe = 'if fam == "gaussian" or m.family in ("uniform", "laplace"):\n    pass\n'
    assert list(_family_comparisons(probe)) == [(1, "gaussian"), (1, "uniform"), (1, "laplace")]
