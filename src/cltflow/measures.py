"""Probability measures on the real line and their exact moment algebra.

A measure is represented by one of a small set of immutable value types:

* ``Atomic``        finite support, positive weights summing to one
* ``Parametric``    closed-form family (gaussian, uniform, exponential, laplace,
                    plus the internal heavy-tail family used by the test bank),
                    each with its rules in one row of the _families table
* ``NormalizedSum`` the law of (X_1 + ... + X_n)/sqrt(n) for independent
                    X_i of one base law; n = 2^k is k steps of the
                    renormalization map
* ``ConvProduct``   convolution of independent component laws
* ``Affine``        the law of shift + scale * X

All representations carry exact first-through-fourth cumulants (with ``inf``
and ``nan`` markers where a moment is infinite or not absolutely convergent),
which is what the metric layer needs for its zero-frequency limits.  Every
value is frozen and compares by value; operations return new measures.  A
finite sample's empirical law is the equal-weight atomic law
make_atomic((x, 1.0) for x in sample).  Inside a
metrics.shared_deviations() scope, cumulants, moment, abs_moment_bound and
q_membership are computed once per law and arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _families
from ._families import ATOM_ABS_MAX, PUBLIC_FAMILIES
from ._scope import summary
from .errors import (
    DegenerateMeasureError,
    MeasureError,
    MembershipError,
    MomentUnavailableError,
)

__all__ = [
    "Measure",
    "Atomic",
    "Parametric",
    "NormalizedSum",
    "ConvProduct",
    "Affine",
    "QMembership",
    "make_atomic",
    "make_parametric",
    "moment",
    "abs_moment_bound",
    "standardize",
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


@dataclass(frozen=True)
class Affine(Measure):
    """The law of shift + scale * X with scale > 0."""

    base: Measure
    scale: float
    shift: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.scale <= ATOM_ABS_MAX:
            raise MeasureError(f"affine scale must lie in (0, {ATOM_ABS_MAX:g}]")
        if not abs(self.shift) <= ATOM_ABS_MAX:
            raise MeasureError(f"affine shift must lie within ±{ATOM_ABS_MAX:g}")


@dataclass(frozen=True)
class QMembership:
    """Verdict on membership in the centred, reduced, finite-r-th-moment class.

    ``abs_moment_r`` is the exact r-th absolute moment when one is exactly
    computable; for cf-composed representations it is a finite certified upper
    bound instead (finite iff the moment itself is finite, which is all the
    verdict needs).
    """

    r: float
    is_member: bool
    mean: float
    variance: float
    abs_moment_r: float


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
# cumulants and moments
# ---------------------------------------------------------------------------


def _raw_to_cumulants(m1, m2, m3, m4):
    k1 = m1
    k2 = m2 - m1 * m1
    k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    k4 = m4 - 4.0 * m1 * m3 - 3.0 * m2 * m2 + 12.0 * m1 * m1 * m2 - 6.0 * m1**4
    return (k1, k2, k3, k4)


def _cumulants_to_raw(k1, k2, k3, k4):
    # cross terms vanish identically for centred laws even when the higher
    # cumulant carries an inf/nan marker, so 0 * marker must stay 0
    def prod(a, b):
        return 0.0 if a == 0.0 or b == 0.0 else a * b

    m1 = k1
    m2 = k2 + k1 * k1
    m3 = k3 + prod(3.0 * k2, k1) + k1**3
    m4 = k4 + prod(4.0 * k3, k1) + 3.0 * k2 * k2 + 6.0 * k2 * k1 * k1 + k1**4
    return (m1, m2, m3, m4)


def _atomic_raw(atoms):
    xs = np.array([a[0] for a in atoms])
    ws = np.array([a[1] for a in atoms])
    return tuple(float(np.dot(ws, xs**k)) for k in (1, 2, 3, 4))


@summary
def cumulants(m: Measure) -> tuple[float, float, float, float]:
    """First through fourth cumulants, exact per representation.

    Entries are inf when the moment is infinite and nan when not absolutely
    convergent.  Cumulants are additive under convolution and scale as
    lambda^k, which makes every composite exact.
    """
    if isinstance(m, Atomic):
        return _raw_to_cumulants(*_atomic_raw(m.atoms))
    if isinstance(m, Parametric):
        return _families.row(m.family).cumulants(m.params)
    if isinstance(m, NormalizedSum):
        k1, k2, k3, k4 = cumulants(m.base)
        n = m.n
        # n k_j scaled by n^{-j/2}: each power of n rounded once
        return (k1 * n**0.5, k2, k3 * n**-0.5, k4 / n)
    if isinstance(m, ConvProduct):
        ks = [cumulants(p) for p in m.parts]
        return tuple(math.fsum(k[i] for k in ks) for i in range(4))  # type: ignore[return-value]
    if isinstance(m, Affine):
        k1, k2, k3, k4 = cumulants(m.base)
        s = m.scale
        return (m.shift + s * k1, s * s * k2, s**3 * k3, s**4 * k4)
    raise MeasureError(f"unsupported representation {type(m).__name__}")


def _validate_order(k):
    if not isinstance(k, int) or not 1 <= k <= 4:
        raise MeasureError("moment order must be an integer in 1..4")


@summary
def moment(m: Measure, k: int, absolute: bool = False) -> float:
    """E(X^k) or E(|X|^k) for k <= 4.

    Returns inf when the moment is infinite and nan when a signed moment is
    not absolutely convergent.  Raises MomentUnavailableError for absolute
    odd moments of cf-composed representations, which have no exact rule
    (use abs_moment_bound for a finiteness certificate instead).
    """
    _validate_order(k)
    if not absolute or k % 2 == 0:
        if isinstance(m, Atomic):
            return _atomic_raw(m.atoms)[k - 1]
        return _cumulants_to_raw(*cumulants(m))[k - 1]
    return _abs_moment_odd(m, k)


def _abs_moment_odd(m: Measure, k: int) -> float:
    if isinstance(m, Atomic):
        xs, ws = m.positions, m.weights
        return float(np.dot(ws, np.abs(xs) ** k))
    if isinstance(m, Parametric):
        return _families.row(m.family).abs_odd(m.params, k)
    if isinstance(m, Affine) and m.shift == 0.0:
        return m.scale**k * _abs_moment_odd(m.base, k)
    raise MomentUnavailableError(
        f"absolute moment of order {k} has no exact rule for "
        f"{type(m).__name__}; use abs_moment_bound for a certificate"
    )


@summary
def abs_moment_bound(m: Measure, k: int) -> float:
    """A finite upper bound on E|X|^k whenever the moment is finite.

    Exact values are returned where available; cf-composed representations
    fall back to Minkowski-inequality propagation, so the bound is finite if
    and only if the underlying moment is.
    """
    _validate_order(k)
    if k % 2 == 0:
        return moment(m, k, absolute=True)
    try:
        return _abs_moment_odd(m, k)
    except MomentUnavailableError:
        pass
    if isinstance(m, NormalizedSum):
        return m.n ** (k / 2) * abs_moment_bound(m.base, k)
    if isinstance(m, ConvProduct):
        norms = [abs_moment_bound(p, k) ** (1.0 / k) for p in m.parts]
        return math.fsum(norms) ** k
    if isinstance(m, Affine):
        return (m.scale * abs_moment_bound(m.base, k) ** (1.0 / k) + abs(m.shift)) ** k
    raise MeasureError(f"unsupported representation {type(m).__name__}")


# ---------------------------------------------------------------------------
# measure algebra
# ---------------------------------------------------------------------------


def standardize(m: Measure) -> Measure:
    """Affine image (X - mean)/stddev; exact per representation."""
    k1, k2, _, _ = cumulants(m)
    if not math.isfinite(k2) or k2 <= 0.0:
        raise DegenerateMeasureError(
            f"cannot standardize a measure with variance {k2}"
        )
    mean, sd = k1, math.sqrt(k2)
    if isinstance(m, Atomic):
        xs = (m.positions - mean) / sd
        ws = m.weights
        xs = xs - float(np.dot(ws, xs))  # second pass kills rounding in the mean
        return make_atomic(zip(xs, ws))
    if isinstance(m, Parametric):
        return Parametric(m.family, _families.row(m.family).standardize(m.params, mean, sd))
    if abs(mean) <= 1e-12 and abs(k2 - 1.0) <= 1e-14:
        return m
    return scale_law(_shift(m, -mean), 1.0 / sd)


def _shift(m: Measure, c: float) -> Measure:
    if c == 0.0:
        return m
    if isinstance(m, Atomic):
        return make_atomic(zip(m.positions + c, m.weights))
    if isinstance(m, Parametric):
        p = _families.row(m.family).shifted(m.params, c)
        if p is not None:
            return Parametric(m.family, p)
    if isinstance(m, Affine):
        return Affine(m.base, m.scale, m.shift + c)
    return Affine(m, 1.0, c)


def scale_law(m: Measure, lam: float) -> Measure:
    """The law of lam * X for lam > 0."""
    lam = float(lam)
    if not lam > 0 or not math.isfinite(lam):
        raise MeasureError(f"scale factor must be positive and finite, got {lam}")
    if lam == 1.0:
        return m
    if isinstance(m, Atomic):
        return make_atomic(zip(m.positions * lam, m.weights))
    if isinstance(m, Parametric):
        p = _families.row(m.family).scaled(m.params, lam)
        if p is not None:
            return Parametric(m.family, p)
    if isinstance(m, Affine):
        return Affine(m.base, lam * m.scale, lam * m.shift)
    return Affine(m, lam, 0.0)


def convolve(a: Measure, b: Measure) -> Measure:
    """The law of X + Y for independent X ~ a, Y ~ b.

    Atomic pairs convolve exactly (with position merging); pairs of one
    family that is closed under convolution (the gaussian) stay in it; point
    masses act as shifts; everything else becomes a cf-product
    representation.
    """
    for m in (a, b):
        if not math.isfinite(cumulants(m)[1]):
            raise MeasureError("convolution requires finite second moments")
    if isinstance(a, Atomic) and len(a.atoms) == 1:
        return _shift(b, a.atoms[0][0])
    if isinstance(b, Atomic) and len(b.atoms) == 1:
        return _shift(a, b.atoms[0][0])
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


@summary
def q_membership(m: Measure, r) -> QMembership:
    """Check mean 0, variance 1, and finiteness of the r-th absolute moment."""
    if r not in (2, 3, 2.0, 3.0):
        raise MembershipError(f"membership is defined for r in {{2, 3}}, got {r}")
    r = int(r)
    k1, k2, _, _ = cumulants(m)
    if r == 2:
        abs_r = moment(m, 2, absolute=True)
    else:
        abs_r = abs_moment_bound(m, 3)
    ok = (
        abs(k1) <= _MEMBER_TOL
        and abs(k2 - 1.0) <= _MEMBER_TOL
        and math.isfinite(abs_r)
    )
    return QMembership(float(r), ok, k1, k2, abs_r)


def require_membership(m: Measure, r, what: str = "operation") -> QMembership:
    """Raise MembershipError unless m is centred, reduced, with finite r-th moment."""
    qm = q_membership(m, r)
    if not qm.is_member:
        raise MembershipError(
            f"{what} requires a centred, reduced law with finite absolute moment "
            f"of order {r}: got mean {qm.mean:.3g}, variance {qm.variance:.6g}, "
            f"abs moment {qm.abs_moment_r:.3g}"
        )
    return qm


# The former name of the flow's iterates, still imported by bench/spans.py
# to read the depth of an oracle input; it goes when the benchmark's tracing
# is brought up to date (ROADMAP item 1).  It is not part of the API.
CfLevel = NormalizedSum
