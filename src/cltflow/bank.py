"""Built-in test measures and their CLI aliases."""

from __future__ import annotations

import math

from ._families import FAMILIES
from .measures import Measure, Parametric, make_atomic, make_parametric

__all__ = [
    "gaussian",
    "rademacher",
    "skewed_two_atom",
    "uniform_std",
    "laplace_std",
    "exponential_std",
    "heavy_tail_std",
    "ALIASES",
    "resolve_alias",
]


def gaussian() -> Measure:
    return make_parametric("gaussian", (0.0, 1.0))


def rademacher() -> Measure:
    return make_atomic([(-1.0, 0.5), (1.0, 0.5)])


def skewed_two_atom() -> Measure:
    # mean 0, variance 1, third moment 1.5
    return make_atomic([(2.0, 0.2), (-0.5, 0.8)])


def uniform_std() -> Measure:
    r = math.sqrt(3.0)
    return make_parametric("uniform", (-r, r))


def laplace_std() -> Measure:
    return make_parametric("laplace", (0.0, math.sqrt(0.5)))


def exponential_std() -> Measure:
    return Parametric("exponential", FAMILIES["exponential"].standard)


def heavy_tail_std() -> Measure:
    # Student's t3 scaled to unit variance: in P_2, not in P_3 (E|X|^3 = inf)
    return Parametric("student3", FAMILIES["student3"].standard)


ALIASES = {
    "gaussian": gaussian,
    "rademacher": rademacher,
    "skewed": skewed_two_atom,
    "uniform-std": uniform_std,
    "laplace-std": laplace_std,
    "exponential-std": exponential_std,
    "heavy-tail-std": heavy_tail_std,
}

Q3_BANK_NAMES = ("rademacher", "skewed", "uniform-std", "laplace-std", "exponential-std")
Q2_BANK_NAMES = Q3_BANK_NAMES + ("heavy-tail-std",)


def resolve_alias(name: str) -> Measure:
    try:
        return ALIASES[name]()
    except KeyError:
        raise KeyError(
            f"unknown measure alias {name!r}; known: {sorted(ALIASES)}"
        ) from None
