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


def draws(m, n, seed, start=0):
    """n draws of the atomic or parametric law m from counter start on under seed.

    They come through the oracle's draw pipeline: one reader takes the words
    of the blocks it reads (mc._drawer, mc._Reader, mc._read and mc._blocks),
    as each law of a flow check does.
    """
    out = np.empty(n)
    mc._read([mc._drawer(m)(n, mc._Reader())(out)], mc._blocks(seed, start, n))
    return out


def level_draws(m, k, n, seed, start=0):
    """n draws of T^k m from counter start on: the top level of a flow check's float route.

    Draw i is the root of the pairwise tree over the row of 2^k draws of m
    from counter start + i 2^k on, scaled once by 2^{-k/2}; mc._float_levels
    makes it, and its level cfs are replaced by recorders of what they are fed.
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
        mc._read([mc._float_levels(m, k, n, None)], mc._blocks(seed, start, n << k))
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
