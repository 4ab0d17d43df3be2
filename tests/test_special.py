"""The numpy special functions against 80-digit mpmath, and scipy where it is installed.

The library draws gaussians through AS241 and evaluates the heavy-cubic cf
through a power series and fitted remainders of the sine integral's
auxiliary functions.  Each is checked here against an independent
high-precision reference across every switch point of its evaluation.
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
from cltflow._special import InverseNormal, heavy_cubic_cf

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


def mp_phi(t: float):
    """The heavy-cubic cf 3 int_1^inf cos(t v) v^-4 dv at the double t, to 80 digits.

    Up to t = 1e3 from Ci and Si, with digits to spare for phi - 1 ~ -3 t^2 / 2
    at small t; beyond, from the asymptotic series of the auxiliary functions
    f and g, whose forty terms err by under 1e-100 there.
    """
    t = mp.mpf(t)
    if t <= 1000:
        with mp.workdps(90 + max(0, int(-2 * mp.log10(t)))):
            ci, si = mp.ci(t), mp.si(t) - mp.pi / 2
            f = ci * mp.sin(t) - si * mp.cos(t)
            g = -ci * mp.cos(t) - si * mp.sin(t)
            return +(mp.cos(t) * (1 - t**2 / 2 + t**3 * f / 2)
                     + mp.sin(t) * (t**3 * g / 2 - t / 2))
    with mp.workdps(80):
        y = 1 / t**2
        rf = mp.fsum((-1) ** k * mp.factorial(2 * k) / 24 * y ** (k - 2) for k in range(2, 40))
        rg = mp.fsum((-1) ** k * mp.factorial(2 * k + 1) / 120 * y ** (k - 2)
                     for k in range(2, 40))
        return +(12 * rf * mp.cos(t) * y - 3 * mp.sin(t) / t + 60 * rg * mp.sin(t) * y / t)


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
# heavy-cubic cf
# ---------------------------------------------------------------------------

# the series / value switch and every piece edge of the fitted remainders
SWITCHES = [2.0, 2.0 * math.sqrt(2.0), 4.0, 4.0 * math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0),
            16.0, 32.0]
HEAVY_T = np.unique(np.concatenate([
    *[near(x, 4) for x in SWITCHES],
    np.exp(_RNG.uniform(math.log(1e-6), math.log(2.0), 80)),
    np.exp(_RNG.uniform(math.log(2.0), math.log(1e3), 120)),
    np.exp(_RNG.uniform(math.log(1e3), math.log(1e100 / SQRT3), 40)),
    [1e-150, 0.1, 1.0, 1.5, 1e100 / SQRT3],
]))


def test_heavy_cubic_against_mpmath():
    dev = heavy_cubic_cf(HEAVY_T, 1.0)
    val = heavy_cubic_cf(HEAVY_T, 0.0)
    for t, d, v in zip(HEAVY_T, dev, val):
        phi = mp_phi(t)
        if t < 2.0:
            # the series keeps the deviation accurate relative to itself
            assert abs(d - (phi - 1)) <= 4 * EPS * abs(phi - 1), (t, d)
            assert abs(v - phi) <= 8 * EPS, (t, v)
        else:
            # the value form is accurate relative to the envelope 3 / t of
            # phi, and to phi itself away from its zeros
            assert abs(v - phi) <= 6 * EPS * max(abs(phi), 1.0 / t), (t, v)
            assert abs(d - (phi - 1)) <= 4 * EPS, (t, d)


@pytest.mark.parametrize("xi_max", [50.0, 1e6, 1e14, 1e100])
def test_heavy_cubic_cf_through_the_library(xi_max):
    # cf_deviation and eval_cf_grid go through t = |xi| / sqrt 3 in double
    xi = np.geomspace(1e-3, xi_max, 300)
    xi = np.concatenate([-xi, xi])
    law = bank.heavy_tail_std()
    dev = charfn.cf_deviation(law, xi)
    val = charfn.eval_cf_grid(law, xi)
    assert np.all(dev.imag == 0.0) and np.all(val.imag == 0.0)
    assert np.max(np.abs(1.0 + dev)) <= 1.0 + 1e-12
    for x, d, v in zip(xi[::7], dev[::7], val[::7]):
        t = float(np.abs(np.float64(x)) / SQRT3)
        phi = mp_phi(t)
        assert abs(d.real - (phi - 1)) <= 4 * EPS * max(abs(phi - 1), 1.0), (x, d)
        assert abs(v.real - phi) <= 8 * EPS * max(abs(phi), 1.0 / t, 1.0 if t < 2 else 0.0)


# ---------------------------------------------------------------------------
# scipy, where installed: the functions these replace
# ---------------------------------------------------------------------------


def test_against_scipy():
    special = pytest.importorskip("scipy.special")
    u = np.concatenate([_RNG.uniform(0.0, 1.0, 20000), INVERSE_NORMAL_U])
    want = special.ndtri(u)
    assert np.all(np.abs(ndtri(u) - want) <= 8 * EPS * np.abs(want))
    # the closed form with scipy's Si, accurate to about 3e-14 below t = 4
    t = np.geomspace(1e-3, 4.0, 2000)
    si = special.sici(t)[0]
    closed = (np.cos(t) - 1 - 0.5 * t * np.sin(t) - 0.5 * t * t * np.cos(t)
              + 0.5 * t**3 * (0.5 * math.pi - si))
    assert np.all(np.abs(heavy_cubic_cf(t, 1.0) - closed) <= 5e-14)


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
