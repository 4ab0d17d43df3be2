import numpy as np
import pytest

from cltflow import GridSpec, bank, charfn, mc


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
    return bank.q3_bank()


@pytest.fixture(scope="session")
def q2_bank():
    return bank.q2_bank()


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def coarse_grid():
    # enough resolution for structural checks, fast enough for sweeps
    return GridSpec(1e-3, 50.0, 40)


def draws(m, n, seed, start=0):
    """n draws of m from counter start on under seed, through the oracle's draw pipeline.

    One reader takes the words of the blocks it reads (mc._drawer, mc._Reader,
    mc._read and mc._blocks), as each law of a flow check does.
    """
    width, prepare = mc._drawer(m)
    out = np.empty(n)
    mc._read([prepare(n, mc._Reader())(out)], mc._blocks(seed, start, n * width))
    return out


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
