"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here exactly as stated; runtime limits are
asserted where the criterion carries one.
"""

import hashlib
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import cltflow as cf
from cltflow import bank
from cltflow.cli import main as cli_main
from conftest import draws

SQRT2 = math.sqrt(2.0)
GAUSS = bank.gaussian()
Q3 = {name: bank.resolve_alias(name) for name in bank.Q3_BANK_NAMES}
Q2 = {name: bank.resolve_alias(name) for name in bank.Q2_BANK_NAMES}
GRID = cf.GridSpec()


def _announce(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gaussian_fixed_point():
    t0 = time.perf_counter()
    stepped = cf.renorm_step(GAUSS)
    d_closed = cf.ds_distance(stepped, GAUSS, 3, GRID).value
    # the cf-iteration route must agree, not just the closed-form step
    d_chain = cf.ds_distance(
        cf.NormalizedSum(GAUSS, 2), GAUSS, 3, GRID, require_class_membership=False
    ).value
    elapsed = time.perf_counter() - t0
    ok = d_closed <= 1e-10 and d_chain <= 1e-10 and elapsed < 1.0
    _announce(
        1,
        ok,
        f"d3(T gauss, gauss) = {d_closed:.3e} (cf chain {d_chain:.3e}), "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_2_contraction_constant():
    t0 = time.perf_counter()
    bound = 2.0**-0.5 + 1e-6
    worst = 0.0
    for (na, ma), (nb, mb) in itertools.combinations(Q3.items(), 2):
        ratio = cf.contraction_ratio(ma, mb, GRID)
        worst = max(worst, ratio)
        assert ratio <= bound, (na, nb, ratio)
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and elapsed < 10.0
    _announce(
        2,
        ok,
        f"10 bank pairs, worst ratio {worst:.15f} <= 2^-1/2 + 1e-6, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_3_geometric_decay():
    t0 = time.perf_counter()
    worst_excess = -math.inf
    for name, m in Q3.items():
        rep = cf.renorm_trajectory(m, 20, GRID)
        d3 = rep.distances_d3
        for n in range(1, 21):
            excess = d3[n] / (2.0 ** (-n / 2.0) * d3[0]) - 1.0
            worst_excess = max(worst_excess, excess)
            assert d3[n] <= 2.0 ** (-n / 2.0) * d3[0] * (1.0 + 1e-6), (name, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _announce(
        3,
        ok,
        f"decay envelope over n=1..20 for 5 measures, worst relative excess "
        f"{worst_excess:.2e} <= 1e-6, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_exact_rate_skewed():
    skewed = Q3["skewed"]
    rep = cf.renorm_trajectory(skewed, 12, GRID)
    d3 = rep.distances_d3
    ns = np.arange(2, 13)
    slope = float(np.polyfit(ns, np.log2([d3[n] for n in ns]), 1)[0])
    lower_ok = all(
        d3[n] >= 2.0 ** (-n / 2.0) * 0.25 * (1.0 - 1e-6) for n in range(13)
    )
    # independent oracle at n in {6, 10}: dense grid at 10x resolution plus
    # the hand-derived zero limit 2^{-n/2} * 1.5 / 6
    oracle_ok = True
    pos = np.geomspace(1e-2, 50.0, int(2000 * math.log10(50.0 / 1e-2)) + 1)
    xi = np.concatenate([-pos[::-1], pos])
    phi_gauss = np.exp(-0.5 * xi**2)
    for n in (6, 10):
        phi_base = 0.2 * np.exp(2j * xi * 2.0 ** (-n / 2.0)) + 0.8 * np.exp(
            -0.5j * xi * 2.0 ** (-n / 2.0)
        )
        ratio = np.abs(phi_base ** (2**n) - phi_gauss) / np.abs(xi) ** 3
        oracle = max(float(ratio.max()), 2.0 ** (-n / 2.0) * 1.5 / 6.0)
        if not math.isclose(oracle, d3[n], rel_tol=1e-5):
            oracle_ok = False
    ok = abs(slope + 0.5) <= 0.02 and lower_ok and oracle_ok
    _announce(
        4,
        ok,
        f"fitted log2 slope {slope:.6f} within -0.5 +- 0.02, zero-limit lower "
        f"bound holds, dense-grid oracle agrees at n in {{6, 10}}",
    )


def test_criterion_5_sqrt_n_clt_rate():
    t0 = time.perf_counter()
    worst_margin = math.inf
    for name in ("rademacher", "skewed"):
        m = Q3[name]
        for n in range(2, 65):
            chk = cf.clt_rate_check(m, n, GRID)
            worst_margin = min(worst_margin, chk.margin)
            assert chk.ok, (name, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _announce(
        5,
        ok,
        f"scaled n-fold sums for all n=2..64, worst margin {worst_margin:.2e} "
        f">= -1e-8, {elapsed:.2f}s < 60s",
    )


def test_criterion_6_ideal_metric_suite():
    lambdas = (0.5, 2.0**-0.5, 1.0, 2.0)
    checks = 0
    for s in (2, 3):
        bank_s = Q3 if s == 3 else Q2
        for (na, ma), (nb, mb) in itertools.combinations_with_replacement(
            bank_s.items(), 2
        ):
            sub = cf.check_convolution_subadditivity(ma, mb, GAUSS, GAUSS, s, GRID)
            assert sub.ok, ("subadditivity", s, na, nb)
            checks += 1
        for (na, ma), (nb, mb) in itertools.combinations(bank_s.items(), 2):
            inv = cf.check_convolution_invariance(ma, mb, GAUSS, s, GRID)
            assert inv.ok, ("invariance", s, na, nb)
            checks += 1
            for lam in lambdas:
                sc = cf.check_scaling_ideality(ma, mb, lam, s, GRID)
                assert sc.ok, ("scaling", s, na, nb, lam)
                assert abs(sc.ratio - 1.0) <= 1e-6, (s, na, nb, lam, sc.ratio)
                assert sc.ratio <= 1.0 + 1e-8
                checks += 1
    _announce(
        6,
        True,
        f"{checks} subadditivity/invariance/scaling checks hold for "
        f"s in {{2,3}}, lambda in {{1/2, 1/sqrt2, 1, 2}}",
    )


def test_criterion_7_lyapunov_decrease():
    worst = math.inf
    for name, m in Q2.items():
        rep = cf.renorm_trajectory(m, 10, GRID)
        d2 = rep.distances_d2
        for n in range(10):
            margin = d2[n] - d2[n + 1]
            worst = min(worst, margin)
            assert margin > 1e-10, (name, n)
    heavy_abs3 = cf.moment(bank.heavy_tail_std(), 3, absolute=True)
    ok = math.isinf(heavy_abs3)
    _announce(
        7,
        ok,
        f"strict d2 decrease along 10 steps for all 6 non-gaussian bank "
        f"measures (incl. one with E|X|^3 = inf), worst margin {worst:.2e}",
    )


def test_criterion_8_third_moment_stability_bound():
    factor = 16.0 / 2.0**1.5
    details = []
    for name in ("rademacher", "skewed"):
        m = Q3[name]
        before = cf.moment(m, 3, absolute=True)
        after = cf.moment(cf.renorm_step(m), 3, absolute=True)
        assert after <= factor * before * (1.0 + 1e-12), name
        details.append(f"{name}: {after:.6f} <= {factor * before:.6f}")
    _announce(8, True, "; ".join(details))


def test_criterion_9_doubling_bound():
    for s in (2, 3):
        bank_s = Q3 if s == 3 else Q2
        items = list(bank_s.items()) + [("gaussian", GAUSS)]
        for (na, ma), (nb, mb) in itertools.combinations(items, 2):
            lhs = cf.ds_distance(
                cf.convolve(ma, ma), cf.convolve(mb, mb), s, GRID,
                require_class_membership=False,
            ).value
            rhs = cf.ds_distance(ma, mb, s, GRID).value
            assert lhs <= 2.0 * rhs + 1e-8, (s, na, nb)
    _announce(9, True, "d_s(nu*nu, mu*mu) <= 2 d_s(nu, mu) + 1e-8 across the bank")


def test_criterion_10_oracle_agreement():
    t0 = time.perf_counter()
    devs = {}
    names = ("gaussian", "rademacher", "skewed")
    checks = cf.empirical_flow_check(
        [bank.ALIASES[name]() for name in names], levels=6, n=1_000_000, seed=1234
    )
    for name, chk in zip(names, checks):
        assert chk.ok, name
        devs[name] = chk.max_deviation
    # derived pinned constants bracketed by their oracles:
    # exact moment arithmetic for the skewed law against monte carlo
    vals = draws(Q3["skewed"], 400_000, 77)
    for k, pinned in ((2, 1.0), (3, 1.5)):
        est = float(np.mean(vals**k))
        sd = float(np.std(vals**k))
        assert abs(est - pinned) < 5.0 * sd / math.sqrt(vals.size)
    est_abs3 = float(np.mean(np.abs(vals) ** 3))
    assert abs(est_abs3 - 1.7) < 5.0 * float(np.std(np.abs(vals) ** 3)) / math.sqrt(
        vals.size
    )
    # dense-grid oracle for the pinned base distance of the rademacher law
    pos = np.geomspace(1e-3, 50.0, int(2000 * math.log10(50e3)) + 1)
    xi = np.concatenate([-pos[::-1], pos])
    oracle = float(np.max(np.abs(np.cos(xi) - np.exp(-0.5 * xi**2)) / np.abs(xi) ** 3))
    lib = cf.ds_distance(Q3["rademacher"], GAUSS, 3, GRID).value
    assert lib * (1.0 - 1e-6) <= oracle <= lib * 1.01
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    _announce(
        10,
        ok,
        f"empirical flow within 4/sqrt(n) for gaussian/rademacher/skewed at "
        f"levels<=6, n=1e6 (max devs {devs}); pinned constants bracketed; "
        f"{elapsed:.1f}s < 300s",
    )


# sha256 of each CSV the criterion-11 config writes at seed 1234: a change
# that moves a byte must update this table and say why in CHANGES.md
CRITERION_11_SHA256 = {
    "01_distance.csv": "af2fbe446cb730fe65e8d332ab1316546545c5f946bdd52c091c84af8bd5a25c",
    "02_distance.csv": "3db157d2c642006a524d9b2db70be853ac050eb733cba8875ac9c7e3605ea53a",
    "03_flow.csv": "dc916369f477e118fb5d0d60de35eaea0f6aed29f4df1457c407db9c9a14c92b",
    "04_verify-contraction.csv": "28cda6625fe2fd42595d6d7b8537475e78c6c5b6bf9827e05ca7ad324ed040c1",
    "05_verify-ideal.csv": "9661d966a459c9d30fad06b13b100172a50805e503d5c5b394174efd38c26e96",
    "06_verify-lyapunov.csv": "2944c77b87dcfaf2bb5a59a9a358b4566141b2df07a53acadc0bb1b2e068a480",
    "07_verify-clt-rate.csv": "0ddeed810f5fd9d276a2ef7e7cbefe6391c3d8320e4fe889cc150249e5b1183d",
    "08_oracle.csv": "f18d53ea8e4645b226703f4e26ce1347a76b36e06bcffd21513d7e5bfdb17605",
}


def test_criterion_11_byte_identical_runs(tmp_path):
    config = {
        "seed": 1234,
        "commands": [
            {"command": "distance", "a": "skewed", "b": "gaussian", "s": 3},
            {"command": "distance", "a": "rademacher", "b": "gaussian", "s": 2},
            {"command": "flow", "measure": "skewed", "steps": 8},
            {"command": "verify-contraction"},
            {"command": "verify-ideal"},
            {"command": "verify-lyapunov", "steps": 5},
            {"command": "verify-clt-rate", "n_max": 16},
            {"command": "oracle", "levels": 3, "samples": 200000},
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        blobs.append(
            {n: (out / n).read_bytes() for n in sorted(os.listdir(out))}
        )
    digests = {n: hashlib.sha256(blob).hexdigest() for n, blob in blobs[0].items()}
    moved = sorted(n for n in CRITERION_11_SHA256 if digests.get(n) != CRITERION_11_SHA256[n])
    identical = blobs[0] == blobs[1] and set(digests) == set(CRITERION_11_SHA256) and not moved
    _announce(
        11,
        identical,
        f"two full-suite runs wrote {len(blobs[0])} byte-identical CSV reports, "
        f"digests moved: {moved or 'none'}",
    )
