"""The numpy special functions against high-precision mpmath, and scipy where it is installed.

The library draws gaussians through AS241 and evaluates the heavy-tail
law, Student's t3 scaled to unit variance, through a power series and the
closed form of its cf and through a Newton solve of its CDF.  Each is
checked here against an independent high-precision reference across every
switch point of its evaluation.
"""

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import cltflow
from cltflow import bank, charfn
from cltflow._families import FAMILIES, InverseNormal, t3_quantile

EPS = 2.0**-52
SQRT3 = math.sqrt(3.0)


def ndtri(u) -> np.ndarray:
    """Phi^-1(u) for a 1-d array of u, from a fresh InverseNormal of u's size."""
    out = np.empty(u.size)
    InverseNormal(u.size)(u, out)
    return out


def mp_ndtri(u: float):
    """Phi^-1(u) to 80 digits: the root of Phi(x) = u, from the double's guess."""
    with mp.workdps(80):
        guess = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1)
        return mp.findroot(lambda x: mp.ncdf(x) - mp.mpf(u), guess)


def mp_student3(a: float):
    """phi(a) = (1 + a) e^-a of the t3 law and D = phi - 1, each to 40 digits.

    D ~ -a^2 / 2 cancels against 1, so the working precision grows as a falls.
    """
    with mp.workdps(40 + max(0, int(-2 * math.log10(a)))):
        a = mp.mpf(a)
        phi = (1 + a) * mp.exp(-a)
        return phi, phi - 1


def mp_t3_quantile(u: float, guess: float):
    """The root x of P(X <= x) = u for X = T_3 / sqrt 3, to 40 digits.

    P(|X| > y) = I_{1 / (1 + y^2)}(3/2, 1/2), the regularized incomplete beta
    function of Student's t, and half of it is the tail mass min(u, 1 - u).
    """
    with mp.workdps(40):
        tail = min(mp.mpf(u), 1 - mp.mpf(u))
        y = mp.findroot(
            lambda y: mp.betainc(1.5, 0.5, 0, 1 / (1 + y * y), regularized=True) / 2 - tail,
            mp.mpf(abs(guess)))
        return y if u > 0.5 else -y


def near(x: float, k: int) -> list[float]:
    """x, its two neighbouring doubles and x (1 -+ k eps)."""
    return [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), x * (1 - k * EPS), x * (1 + k * EPS)]


# ---------------------------------------------------------------------------
# inverse normal
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(20230324)
INVERSE_NORMAL_U = np.unique(np.concatenate([
    _RNG.uniform(0.0, 1.0, 120),
    # both sides of |u - 1/2| = 0.425 and of r = sqrt(-log u) = 5
    *[near(x, 1000) for x in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))],
    # the tails down to the smallest uniform the generator gives
    2.0 ** -_RNG.uniform(1.0, 53.0, 60),
    1.0 - 2.0 ** -_RNG.uniform(1.0, 53.0, 30),
    [2.0**-53, 3 * 2.0**-53, 1.0 - 2.0**-53],
]))


def test_inverse_normal_against_mpmath():
    got = ndtri(INVERSE_NORMAL_U)
    for u, x in zip(INVERSE_NORMAL_U, got):
        want = mp_ndtri(u)
        assert abs(x - want) <= 4 * EPS * abs(want), (u, x, want)


def test_inverse_normal_is_odd_and_ordered():
    # multiples of 2^-53, as the generator's uniforms are: 1 - u is exact
    u = np.ldexp(np.floor(np.ldexp(np.linspace(1e-6, 0.5 - 1e-6, 4001), 53)), -53)
    lo, hi = ndtri(u), ndtri(1.0 - u)
    assert np.all(np.abs(lo + hi) <= 4 * EPS * np.abs(hi))
    assert np.all(np.diff(ndtri(np.linspace(2.0**-53, 1.0 - 2.0**-53, 10001))) > 0)


def test_inverse_normal_block_buffers():
    # one object serves blocks of any size up to its own, leaves u alone and
    # gives the bits of a fresh evaluation
    u = INVERSE_NORMAL_U.copy()
    inv = InverseNormal(u.size + 17)
    out = np.empty(u.size)
    for n in (u.size, 5, 1):
        keep = u[:n].copy()
        inv(u[:n], out[:n])
        assert np.array_equal(u[:n], keep)
        assert np.array_equal(out[:n], ndtri(keep))


# ---------------------------------------------------------------------------
# heavy-cubic: the bank's heavy-tail-std, Student t3 scaled to unit variance,
# whose tail mass falls as |x|^-3; its cf and its quantile
# ---------------------------------------------------------------------------

STUDENT3 = FAMILIES["student3"]
# both sides of the series / expm1 cut at a = 1, the band 708..715 where phi
# is a normal float and e^-a is not, and a from 1e-150 to 1e100
STUDENT3_A = np.unique(np.concatenate([
    near(1.0, 4),
    np.exp(_RNG.uniform(math.log(1e-150), math.log(1e100), 200)),
    np.exp(_RNG.uniform(math.log(0.3), math.log(3.0), 100)),
    _RNG.uniform(700.0, 720.0, 40),
    [1e-150, 0.5, 2.0, 745.0, 1e100],
]))
TINY = np.finfo(float).tiny


def test_heavy_cubic_against_mpmath():
    # within 3 epsilons of D and of phi wherever each is a normal float
    dev = STUDENT3.deviation((1.0,), STUDENT3_A)[0]
    val = STUDENT3.value((1.0,), STUDENT3_A, None)[0]
    assert np.all(dev.imag == 0.0) and np.all(val.imag == 0.0)
    for a, d, v in zip(STUDENT3_A, dev.real, val.real):
        phi, want = mp_student3(a)
        if abs(want) >= TINY:
            assert abs(d - want) <= 3 * EPS * abs(want), (a, d)
        if phi >= TINY:
            assert abs(v - phi) <= 3 * EPS * phi, (a, v)


@pytest.mark.parametrize("xi_max", [50.0, 1e6, 1e14, 1e100])
def test_heavy_cubic_cf_through_the_library(xi_max):
    # cf_deviation and eval_cf_grid, at a = |xi| for the bank's scale 1
    xi = np.geomspace(1e-3, xi_max, 300)
    xi = np.concatenate([-xi, xi])
    law = bank.heavy_tail_std()
    dev = charfn.cf_deviation(law, xi)
    val = charfn.eval_cf_grid(law, xi)
    assert np.all(dev.imag == 0.0) and np.all(val.imag == 0.0)
    assert np.max(np.abs(1.0 + dev)) <= 1.0
    for x, d, v in zip(xi[::7], dev[::7], val[::7]):
        phi, want = mp_student3(abs(x))
        assert abs(d.real - want) <= 3 * EPS * abs(want), (x, d)
        if phi >= TINY:
            assert abs(v.real - phi) <= 3 * EPS * phi, (x, v)
        else:
            assert v.real <= 2 * TINY, (x, v)


def _t3_quantile_points():
    cut = (0.6 - 0.5 * math.sin(1.2)) / math.pi  # the tail where v = 0.6
    ulps = 2.0**-53 * np.arange(-4, 5)  # steps of 2^-53: exact near 1/4 and 3/4
    return np.unique(np.concatenate([
        [2.0**-53, 3 * 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53],
        0.25 + ulps, 0.75 + ulps,
        cut * (1.0 + 4 * EPS * np.arange(-4, 5)), 1.0 - cut * (1.0 + 4 * EPS * np.arange(-4, 5)),
        _RNG.uniform(0.0, 1.0, 120),
        _RNG.uniform(0.2, 0.3, 30), _RNG.uniform(0.7, 0.8, 30),
        2.0 ** -_RNG.uniform(1.0, 53.0, 40), 1.0 - 2.0 ** -_RNG.uniform(1.0, 53.0, 20),
    ]))


def test_t3_quantile_against_mpmath():
    u = _t3_quantile_points()
    assert u.size >= 200
    got = t3_quantile(u)
    for ui, x in zip(u, got):
        want = mp_t3_quantile(ui, x)
        assert abs(x - want) <= 2 * EPS * abs(want), (ui, x, want)


def test_t3_quantile_is_odd_and_ordered():
    u = np.ldexp(np.floor(np.ldexp(np.linspace(1e-6, 0.5 - 1e-6, 4001), 53)), -53)
    lo, hi = t3_quantile(u), t3_quantile(1.0 - u)
    assert np.all(np.abs(lo + hi) <= 4 * EPS * np.abs(hi))
    assert np.all(np.diff(t3_quantile(np.linspace(2.0**-53, 1.0 - 2.0**-53, 10001))) > 0)
    assert t3_quantile(np.array([0.5]))[0] == 0.0


# ---------------------------------------------------------------------------
# scipy, where installed: the functions these replace
# ---------------------------------------------------------------------------


def test_against_scipy():
    special = pytest.importorskip("scipy.special")
    u = np.concatenate([_RNG.uniform(0.0, 1.0, 20000), INVERSE_NORMAL_U])
    want = special.ndtri(u)
    assert np.all(np.abs(ndtri(u) - want) <= 8 * EPS * np.abs(want))
    # scipy's Student t: its ppf is accurate to about 1e-12, its cdf and sf to
    # a few epsilons of the tail mass
    t3 = pytest.importorskip("scipy.stats").t(3)
    x = t3_quantile(u)
    assert np.all(np.abs(x - t3.ppf(u) / SQRT3) <= 1e-11 * np.abs(x))
    tail = np.where(u < 0.5, t3.cdf(SQRT3 * x), t3.sf(SQRT3 * x))
    assert np.all(np.abs(tail - np.minimum(u, 1.0 - u)) <= 32 * EPS * np.minimum(u, 1.0 - u))


def test_cli_runs_without_scipy(tmp_path):
    # importing the CLI and running the oracle, the heavy-tail cf and the
    # memberships of verify-contraction loads no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cltflow.__file__)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"commands": [
        {"command": "oracle", "levels": 1, "samples": 100_000},
        {"command": "distance", "a": "heavy-tail-std", "b": "gaussian", "s": 2},
        {"command": "verify-contraction"},
    ]}))
    code = (
        "import sys, cltflow.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'\n"
        f"rc = cltflow.cli.main(['run', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"
