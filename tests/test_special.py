"""The gaussian ziggurat and the numpy special functions against high-precision mpmath.

The library draws gaussians by a ziggurat of 4096 layers, and evaluates
the heavy-tail law, Student's t3 scaled to unit variance, through a power
series and the closed form of its cf and through a Newton solve of its
CDF.  The ziggurat's constants and layer table are derived again here in
mpmath, and the law of its draws is tested on a fixed seed against
mpmath's normal tail; each of the others is checked against an
independent high-precision reference across every switch point of its
evaluation, and against scipy where it is installed.
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
from cltflow import bank, charfn, mc
from cltflow._families import _ZIG_R, _ZIG_V, FAMILIES, _ziggurat, t3_quantile
from conftest import draws

EPS = 2.0**-52
SQRT3 = math.sqrt(3.0)


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


_RNG = np.random.default_rng(20230324)
# uniforms across (0, 1) and down to the generator's smallest, for scipy
SCIPY_U = np.unique(np.concatenate([
    _RNG.uniform(0.0, 1.0, 120),
    2.0 ** -_RNG.uniform(1.0, 53.0, 60),
    1.0 - 2.0 ** -_RNG.uniform(1.0, 53.0, 30),
    [2.0**-53, 3 * 2.0**-53, 1.0 - 2.0**-53],
]))


# ---------------------------------------------------------------------------
# the gaussian ziggurat: its constants, its layer table and the law it draws
# ---------------------------------------------------------------------------

ZIG_N = 4096
ZIG_R = "4.3859450348713048591"
ZIG_V = "3.0615410327846447769e-4"


def mp_layers(r, v):
    """x_0 .. x_{N-1} at the working precision, f(x) = exp(-x^2 / 2).

    x_0 = v / f(r), x_1 = r and x_{k+1} = f^-1(v / x_k + f(x_k)).
    """
    x = [v / mp.exp(-r * r / 2), r]
    while len(x) < ZIG_N:
        x.append(mp.sqrt(-2 * mp.log(v / x[-1] + mp.exp(-x[-1] ** 2 / 2))))
    return x


def test_ziggurat_constants_against_mpmath():
    # V is the base layer's area, R f(R) plus the tail beyond R, and the
    # recurrence from R closes the top layer: x_{N-1} (1 - f(x_{N-1})) = V
    with mp.workdps(40):
        r, v = mp.mpf(ZIG_R), mp.mpf(ZIG_V)
        assert (float(r), float(v)) == (_ZIG_R, _ZIG_V)
        tail = mp.sqrt(mp.pi / 2) * mp.erfc(r / mp.sqrt(2))
        assert abs(r * mp.exp(-r * r / 2) + tail - v) <= 1e-18 * v
        top = mp_layers(r, v)[-1]
        assert abs(top * (1 - mp.exp(-top * top / 2)) - v) <= 1e-12 * v


def test_ziggurat_table_against_mpmath():
    # the float table against a 30-digit one: f(X) within 1e-13 relative,
    # X within 4e-13, its top entries the worst (the forward recurrence
    # magnifies a step's rounding up to about 1500 times on the way to the
    # top layer); every layer's area V within 1e-12, the top one closed
    xs, fs = _ziggurat()
    assert xs.shape == fs.shape == (ZIG_N + 1,)
    assert xs[1] == _ZIG_R and xs[ZIG_N] == 0.0 and fs[ZIG_N] == 1.0
    assert np.all(np.diff(xs) < 0)
    with mp.workdps(30):
        want = mp_layers(mp.mpf(ZIG_R), mp.mpf(ZIG_V))
        for x, f, w in zip(xs.tolist(), fs.tolist(), want):
            assert abs(x - w) <= 4e-13 * w, (x, w)
            fw = mp.exp(-w * w / 2)
            assert abs(f - fw) <= 1e-13 * fw, (f, fw)
    areas = xs[1:-1] * np.diff(fs[1:])  # layers 1 .. N - 1; layer 0 holds the tail
    assert np.all(np.abs(areas - _ZIG_V) <= 1e-12 * _ZIG_V)
    assert abs(xs[0] * fs[1] - _ZIG_V) <= 1e-15 * _ZIG_V


def normal_quantiles(k: int) -> np.ndarray:
    """The k - 1 inner edges of k equiprobable bins of the standard normal.

    Newton in floats, from 0, on the lower tail Phi(x) = erfc(-x / sqrt 2) / 2
    = j / k for j <= k / 2, where erfc keeps its relative accuracy; the upper
    edges are their mirror images.
    """
    lower = []
    for j in range(1, k // 2 + 1):
        x = 0.0
        for _ in range(60):
            step = (0.5 * math.erfc(-x / math.sqrt(2.0)) - j / k) / math.exp(-0.5 * x * x)
            x -= step * math.sqrt(2.0 * math.pi)
            if abs(step) < 1e-17:
                break
        lower.append(x)
    upper = [-x for x in reversed(lower[: (k - 1) // 2])]
    return np.array(lower + upper)


def test_ziggurat_law_on_a_fixed_seed():
    # 2^23 draws at seed 99, a chunk at a time: the counts beyond 3, R (the
    # slow path's tail), 4, 4.5 and 5 within |z| <= 4 of n 2 Phi-bar(t) from
    # mpmath, and chi^2 of the first 2^21 over 1000 equiprobable bins within
    # 4 standard deviations of its mean
    n, chunk, binned, bins = 1 << 23, 1 << 20, 1 << 21, 1000
    edges, cuts = normal_quantiles(bins), [3.0, _ZIG_R, 4.0, 4.5, 5.0]
    counts, beyond = np.zeros(bins, dtype=np.int64), np.zeros(len(cuts), dtype=np.int64)
    for start in range(0, n, chunk):
        x = draws(bank.gaussian(), chunk, 99, start)
        if start < binned:
            counts += np.bincount(np.searchsorted(edges, x), minlength=bins)
        ax = np.abs(x)
        beyond += [np.count_nonzero(ax > t) for t in cuts]
    expected = binned / bins
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    assert abs(chi2 - (bins - 1)) <= 4 * math.sqrt(2 * (bins - 1)), chi2
    for t, k in zip(cuts, beyond.tolist()):
        p = float(mp.erfc(mp.mpf(t) / mp.sqrt(2)))
        assert abs(k - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (t, k, n * p)


def test_ziggurat_tables_are_built_on_first_use():
    # importing the CLI, which every command pays for, builds no table; the
    # first gaussian sampler builds it, and later ones share it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cltflow.__file__)))
    code = (
        "import cltflow.cli\n"
        "from cltflow import _families, bank, mc\n"
        "print(_families._ziggurat.cache_info().currsize)\n"
        "mc._transform(bank.gaussian(), 16)\n"
        "mc._transform(cltflow.make_parametric('gaussian', (1.0, 4.0)), 16)\n"
        "info = _families._ziggurat.cache_info()\n"
        "print(info.currsize, info.misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "1"]


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
    u = np.concatenate([_RNG.uniform(0.0, 1.0, 20000), SCIPY_U])
    # the bin edges of the ziggurat's law test
    want = special.ndtri(np.arange(1, 1000) / 1000)
    assert np.all(np.abs(normal_quantiles(1000) - want) <= 4 * EPS * np.maximum(np.abs(want), 1.0))
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
