import math

import numpy as np
import pytest

from cltflow import GridSpec, bank, charfn, mc
from cltflow.bank import Q2_BANK_NAMES, Q3_BANK_NAMES, resolve_alias


@pytest.fixture(scope="session")
def gauss():
    return bank.gaussian()


@pytest.fixture(scope="session")
def rademacher():
    return bank.rademacher()


@pytest.fixture(scope="session")
def skewed():
    return bank.skewed_two_atom()


@pytest.fixture(scope="session")
def q3_bank():
    return {name: resolve_alias(name) for name in Q3_BANK_NAMES}


@pytest.fixture(scope="session")
def q2_bank():
    return {name: resolve_alias(name) for name in Q2_BANK_NAMES}


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def coarse_grid():
    # enough resolution for structural checks, fast enough for sweeps
    return GridSpec(1e-3, 50.0, 40)


def abs_third_moment(m):
    """E|X|^3 of the atomic law m, summed with one rounding."""
    return math.fsum(w * abs(x) ** 3 for x, w in m.atoms)


def draws(m, n, seed, start=0):
    """n draws of the atomic or parametric law m from counter start on under seed.

    They come through the oracle's draw pipeline: the law's transform
    (mc._transform) makes each block of words (mc._blocks) its draws in
    one call, where a flow check's float route makes them a part at a time.
    """
    out, transform, i = np.empty(n), mc._transform(m, min(n, mc._BLOCK_CELLS)), 0
    for z in mc._blocks(seed, start, n):
        transform(z, out[i : i + z.size])
        i += z.size
    return out


def level_draws(m, k, n, seed, start=0):
    """n draws of T^k m from counter start on: the top level of a flow check's float route.

    Draw i is the root of the pairwise tree over the row of 2^k draws of m
    from counter start + i 2^k on, scaled once by 2^{-k/2}; the sink of
    mc._float_levels makes it from the blocks of whole rows it is put, and
    its level cfs are replaced by recorders of what they are fed.
    """
    made = []

    class Recording:
        def __init__(self, xi):
            self.fed = []
            made.append(self)

        def add(self, chunk):
            self.fed.append(np.array(chunk))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "EmpiricalCf", Recording)
        put, _ = mc._float_levels(m, k, n, None)
        for z in mc._blocks(seed, start, n << k, 1 << k):
            put(z)
    return np.concatenate(made[-1].fed)


@pytest.fixture
def level_cfs(monkeypatch):
    """The flow checks' EmpiricalCf of each level, in order, each with what it was fed.

    fed holds the chunks of values given to add, histograms the (values,
    counts) given to add_histogram.
    """
    made = []

    class Recording(charfn.EmpiricalCf):
        def __init__(self, xi):
            super().__init__(xi)
            self.fed, self.histograms = [], []
            made.append(self)

        def add(self, chunk):
            self.fed.append(np.array(chunk))
            return super().add(chunk)

        def add_histogram(self, values, counts):
            self.histograms.append((np.array(values), np.array(counts)))
            return super().add_histogram(values, counts)

    monkeypatch.setattr(mc, "EmpiricalCf", Recording)
    return made
