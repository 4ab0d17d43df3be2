"""Probability measures on the real line and their exact moment algebra.

A measure is represented by one of four immutable value types:

* ``Atomic``        finite support, positive weights summing to one
* ``Parametric``    closed-form family (gaussian, uniform, exponential, laplace,
                    plus the internal Student t3 of the bank's heavy-tail-std),
                    each with its rules in one row of the _families table
* ``NormalizedSum`` the law of (X_1 + ... + X_n)/sqrt(n) for independent
                    X_i of one base law; n = 2^k is k steps of the
                    renormalization map
* ``ConvProduct``   convolution of independent component laws

Each is closed under scaling (scale_law), the one affine map the library
uses: every law in P_r is centred, so none needs a shift.

The first-through-fourth cumulants are the one moment summary: exact per
representation, with ``inf`` and ``nan`` markers where a moment is infinite
or not absolutely convergent, and all the metric layer reads of a law for
its zero-frequency limits.  Each law object computes them once, on first
use, and keeps them for its lifetime: they depend on the law's fields
alone, and the cache sits outside the fields, so ==, hash and repr never
see it.  Every value is frozen and compares by value; operations return
new measures.  A finite sample's empirical law is the equal-weight atomic
law make_atomic((x, 1.0) for x in sample).  Membership in P_r reads the
cumulants' markers: a law is in it when k1 = 0, k2 = 1 and k_r is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _families
from ._families import ATOM_ABS_MAX, PUBLIC_FAMILIES
from .errors import MeasureError, MembershipError

__all__ = [
    "Measure",
    "Atomic",
    "Parametric",
    "NormalizedSum",
    "ConvProduct",
    "make_atomic",
    "make_parametric",
    "scale_law",
    "convolve",
    "q_membership",
    "measure_from_literal",
    "cumulants",
]

ATOM_MERGE_TOL = 1e-12
_MEMBER_TOL = 1e-10


@dataclass(frozen=True)
class Measure:
    """Base class for all measure representations."""

    @cached_property
    def _cumulants(self) -> tuple[float, float, float, float]:
        """k1..k4 by the representation's rule, once per law object (module notes)."""
        if isinstance(self, Atomic):
            return _atomic_cumulants(self)
        if isinstance(self, Parametric):
            return _families.row(self.family).cumulants(self.params)
        if isinstance(self, NormalizedSum):
            k1, k2, k3, k4 = cumulants(self.base)
            n = self.n
            # n k_j scaled by n^{-j/2}: each power of n rounded once
            return (k1 * n**0.5, k2, k3 * n**-0.5, k4 / n)
        if isinstance(self, ConvProduct):
            ks = [cumulants(p) for p in self.parts]
            return tuple(map(math.fsum, zip(*ks)))  # type: ignore[return-value]
        raise MeasureError(f"unsupported representation {type(self).__name__}")


@dataclass(frozen=True)
class Atomic(Measure):
    """Finite discrete law: sorted positions with positive weights summing to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise MeasureError("atomic measure needs at least one atom")
        pos = [a[0] for a in self.atoms]
        if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
            raise MeasureError("atomic positions must be strictly increasing")
        if any(w <= 0 for _, w in self.atoms):
            raise MeasureError("atomic weights must be strictly positive")

    @property
    def positions(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms])


@dataclass(frozen=True)
class Parametric(Measure):
    """Closed-form family; params are family specific (see _families)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        _families.check(self.family, self.params)


@dataclass(frozen=True)
class NormalizedSum(Measure):
    """The law of (X_1 + ... + X_n)/sqrt(n), X_i independent ~ base, for n >= 2."""

    base: Measure
    n: int

    def __post_init__(self):
        if isinstance(self.base, NormalizedSum):
            raise MeasureError("NormalizedSum base must not itself be a NormalizedSum")
        if not isinstance(self.n, int) or self.n < 2:
            raise MeasureError("NormalizedSum needs an integer n >= 2")


@dataclass(frozen=True)
class ConvProduct(Measure):
    """Convolution of independent component laws (cf is the pointwise product)."""

    parts: tuple[Measure, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise MeasureError("convolution product needs at least two parts")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def make_atomic(atoms) -> Atomic:
    """Build an atomic measure: sort, merge positions closer than 1e-12, renormalize."""
    try:
        pairs = [(float(x), float(w)) for x, w in atoms]
    except OverflowError:  # an integer beyond the float range
        raise MeasureError("atom positions and weights must be finite") from None
    if not pairs:
        raise MeasureError("atomic measure needs at least one atom")
    for x, w in pairs:
        if not (math.isfinite(x) and math.isfinite(w)):
            raise MeasureError("atom positions and weights must be finite")
        if abs(x) > ATOM_ABS_MAX:
            raise MeasureError(f"atom positions must lie within ±{ATOM_ABS_MAX:g}, got {x}")
        if w <= 0:
            raise MeasureError(f"atom weight must be positive, got {w}")
    pairs.sort()
    merged: list[list[float]] = []
    for x, w in pairs:
        if merged and x - merged[-1][0] <= ATOM_MERGE_TOL:
            merged[-1][1] += w
        else:
            merged.append([x, w])
    try:
        total = math.fsum(w for _, w in merged)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise MeasureError("atom weights must have a finite sum")
    return Atomic(tuple((x, w / total) for x, w in merged))


def make_parametric(family: str, params) -> Parametric:
    """Build one of the four public closed-form families."""
    if family not in PUBLIC_FAMILIES:
        raise MeasureError(
            f"unknown family {family!r}; expected one of {PUBLIC_FAMILIES}"
        )
    try:
        p = tuple(float(v) for v in params)
    except OverflowError:  # an integer beyond the float range
        raise MeasureError(f"{family} parameters must be finite") from None
    return Parametric(family, _families.row(family).from_public(p))


def _is_number(v) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def measure_from_literal(obj) -> Measure:
    """Parse a JSON-style measure literal.

    Accepted forms (field names fixed):
      {"type": "atomic", "atoms": [[x, w], ...]}
      {"type": "parametric", "family": "gaussian", "params": [0, 1]}
    """
    if not isinstance(obj, dict):
        raise MeasureError("measure literal must be an object")
    kind = obj.get("type")
    if kind == "atomic":
        extra = set(obj) - {"type", "atoms"}
        if extra:
            raise MeasureError(f"unknown keys in atomic literal: {sorted(extra)}")
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_is_number, a))
            for a in atoms
        ):
            raise MeasureError("atomic literal needs atoms: [[x, w], ...] of numbers")
        return make_atomic(atoms)
    if kind == "parametric":
        extra = set(obj) - {"type", "family", "params"}
        if extra:
            raise MeasureError(f"unknown keys in parametric literal: {sorted(extra)}")
        family = obj.get("family")
        params = obj.get("params")
        if (not isinstance(family, str) or not isinstance(params, list)
                or not all(map(_is_number, params))):
            raise MeasureError("parametric literal needs family and params (numbers)")
        return make_parametric(family, params)
    raise MeasureError(f"unknown measure literal type {kind!r}")


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------


def _atomic_cumulants(m: Atomic):
    """k1..k4 from the moments about the mean, so a point mass has k2 = k3 = k4 = 0."""
    xs, ws = m.positions, m.weights
    mean = float(np.dot(ws, xs))
    c2, c3, c4 = (float(np.dot(ws, (xs - mean) ** k)) for k in (2, 3, 4))
    return (mean, c2, c3, c4 - 3.0 * c2 * c2)


def cumulants(m: Measure) -> tuple[float, float, float, float]:
    """First through fourth cumulants, exact per representation, computed once per law object.

    Entries are inf when the moment is infinite and nan when not absolutely
    convergent.  Cumulants are additive under convolution and scale as
    lambda^k, which makes every composite exact.
    """
    return m._cumulants


# ---------------------------------------------------------------------------
# measure algebra
# ---------------------------------------------------------------------------


def scale_law(m: Measure, lam: float) -> Measure:
    """The law of lam * X for lam > 0, in the representation of m."""
    lam = float(lam)
    if not lam > 0 or not math.isfinite(lam):
        raise MeasureError(f"scale factor must be positive and finite, got {lam}")
    if lam == 1.0:
        return m
    if isinstance(m, Atomic):
        return make_atomic(zip(m.positions * lam, m.weights))
    if isinstance(m, Parametric):
        return Parametric(m.family, _families.row(m.family).scaled(m.params, lam))
    if isinstance(m, NormalizedSum):
        return NormalizedSum(scale_law(m.base, lam), m.n)
    if isinstance(m, ConvProduct):
        return ConvProduct(tuple(scale_law(part, lam) for part in m.parts))
    raise MeasureError(f"unsupported representation {type(m).__name__}")


def convolve(a: Measure, b: Measure) -> Measure:
    """The law of X + Y for independent X ~ a, Y ~ b.

    Atomic pairs convolve exactly (with position merging); pairs of one
    family that is closed under convolution (the gaussian) stay in it;
    everything else becomes a cf-product representation.
    """
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        pos = np.add.outer(a.positions, b.positions).ravel()
        ws = np.multiply.outer(a.weights, b.weights).ravel()
        return make_atomic(zip(pos, ws))
    if isinstance(a, Parametric) and isinstance(b, Parametric):
        p = _families.closed_sum(a, b)
        if p is not None:
            return Parametric(a.family, p)
    parts: list[Measure] = []
    for m in (a, b):
        parts.extend(m.parts if isinstance(m, ConvProduct) else (m,))
    return ConvProduct(tuple(parts))


def q_membership(m: Measure, r) -> bool:
    """Whether m has mean 0, variance 1 and a finite r-th absolute moment.

    E|X|^r is finite exactly when the cumulant k_r is: the representations
    mark an infinite moment inf and one that is not absolutely convergent
    nan (module notes).
    """
    if r not in (2, 3, 2.0, 3.0):
        raise MembershipError(f"membership is defined for r in {{2, 3}}, got {r}")
    ks = cumulants(m)
    return (abs(ks[0]) <= _MEMBER_TOL and abs(ks[1] - 1.0) <= _MEMBER_TOL
            and math.isfinite(ks[int(r) - 1]))


def require_membership(m: Measure, r, what: str = "operation") -> None:
    """Raise MembershipError unless m is centred, reduced, with finite r-th moment."""
    if not q_membership(m, r):
        k = cumulants(m)
        raise MembershipError(
            f"{what} requires a centred, reduced law with finite absolute moment "
            f"of order {r}: got mean {k[0]:.3g}, variance {k[1]:.6g}, "
            f"E|X|^{r} {'finite' if math.isfinite(k[int(r) - 1]) else 'infinite'}"
        )


# The former name of the flow's iterates, still imported by bench/spans.py
# to read the depth of an oracle input; it goes with spans.py when the
# library counts its own work (ROADMAP item 13).  It is not part of the API.
CfLevel = NormalizedSum
