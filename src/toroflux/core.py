"""Geometry, derived quantities and existence rules for hollow-toroid stray flux tubes.

The flux tubes modelled here are axisymmetric half or quarter hollow tori
wrapped around a cylindrical pole of radius ``R``; the tube cross section is
the half/quarter annulus between the radii ``r_i`` and ``r_o``.  Everything
is SI: radii in meters, permeance in henry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum, IntEnum

MU0 = 4.0e-7 * math.pi
"""Vacuum permeability [H/m]."""

ETA_UNIT_WINDOW = 1.0e-6
"""Half-width of the closed eta band [1-w, 1+w] evaluated with the eta=1 forms."""

_ETA_HUGE = 1.0e150
"""Above this eta, sqrt(eta^2 - 1) is taken as eta, to which it rounds; eta^2 overflows at ~1.3e154."""


class DomainError(ValueError):
    """An input lies outside the physical or numerical domain of an operation."""


class UsageError(ValueError):
    """An operation was invoked with an unsupported combination of arguments."""


def _real(name: str, value: object) -> float:
    """``value`` as a float, an int too large for one as +-inf; :class:`DomainError` unless real."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite_real(name: str, value: object) -> float:
    """``value`` as a float, or :class:`DomainError` unless it is a finite real (not a bool)."""
    if type(value) is not float:
        value = _real(name, value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def finite_positive(name: str, value: object, allow_zero: bool = False) -> float:
    """:func:`finite_real`, and :class:`DomainError` unless > 0 (or 0 with ``allow_zero``).

    Each failure has one message whatever the type of ``value``.
    """
    if type(value) is not float:
        value = _real(name, value)
    if not (math.isfinite(value) and (value > 0.0 or (allow_zero and value == 0.0))):
        bound = "non-negative" if allow_zero else "positive"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")
    return value


class FluxTubeKind(Enum):
    """The five axisymmetric stray-tube geometries.

    ``INNER_*`` tubes wrap toward the rotation axis, ``OUTER_*`` tubes wrap
    away from it, and ``LOWER_HALF`` is the series composition of an inner
    and an outer quarter below the pole face.
    """

    INNER_HALF = "inner-half"
    LOWER_HALF = "lower-half"
    OUTER_HALF = "outer-half"
    INNER_QUARTER = "inner-quarter"
    OUTER_QUARTER = "outer-quarter"

    # Members are singletons compared by identity, so the C-level identity hash
    # serves every dict and set lookup; Enum's own __hash__ runs in Python.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # Plain attributes, read on every kernel call: a property costs a Python call.
        # Inner tubes lie on the axis side of the pole and require r_o <= R.
        self.is_inner = value.startswith("inner")
        self.is_outer = value.startswith("outer")
        self.is_quarter = value.endswith("quarter")


class BranchCase(IntEnum):
    """Which antiderivative branch of the reluctance integral applies.

    Ordered by eta: SUB (eta below the unit window) < UNIT < SUPER.
    """

    SUB = 0
    UNIT = 1
    SUPER = 2


# The kernel compares against module globals: an ``Enum.X`` lookup runs in Python.
_SUB, _UNIT, _SUPER = BranchCase


@dataclass(frozen=True, slots=True)
class TorusGeometry:
    """Defining radii of a hollow-toroid flux tube, all in meters.

    ``r_o < r_i`` is representable (a sweep may drive a tube out of
    existence); use :func:`validate` to test whether a tube exists.  The radii
    are stored as Python floats.
    """

    R: float
    r_i: float
    r_o: float

    def __post_init__(self) -> None:
        R, r_i, r_o = self.R, self.r_i, self.r_o
        if (type(R) is float and type(r_i) is float and type(r_o) is float
                and 0.0 < R < math.inf and 0.0 < r_i < math.inf and 0.0 < r_o < math.inf):
            return
        for name in ("R", "r_i", "r_o"):
            object.__setattr__(self, name, finite_positive(name, getattr(self, name)))

    def scaled(self, c: float) -> "TorusGeometry":
        return TorusGeometry(c * self.R, c * self.r_i, c * self.r_o)


@dataclass(frozen=True)
class DerivedQuantities:
    """The closed forms' intermediate quantities for a :class:`TorusGeometry`.

    :func:`derive` gives them to explain a value; ``permeance`` and ``force``
    compute the same numbers from the radii without building this record.

    ``alpha_plus``/``alpha_minus`` are populated only on the SUPER branch,
    ``lam`` only on the SUB branch.  For a degenerate tube (``r_o == r_i``)
    ``eta`` carries its analytic limit R/r_i and ``gm0`` is zero.
    """

    t: float
    g: float
    eta: float
    gm0: float
    branch: BranchCase
    alpha_plus: float | None = None
    alpha_minus: float | None = None
    lam: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class ExistenceReport:
    """Whether a (kind, geometry) pair describes an existing flux tube."""

    exists: bool
    reason: str | None = None


# validate runs on every permeance and force call; its three possible reports
# are shared immutable instances rather than built per call.
_EXISTS = ExistenceReport(True)
_VANISHED = ExistenceReport(False, "vanished: r_o <= r_i")
_SELF_INTERSECTING = ExistenceReport(False, "inner tube would self-intersect: r_o > R")


def classify_branch(eta: float) -> BranchCase:
    """Classify eta against the closed unit window [1-w, 1+w], w = 1e-6.

    The window is reserved for the solution strictly correct at eta = 1;
    all formulas dispatch through this single classification.
    """
    if type(eta) is not float:
        eta = _real("eta", eta)
    if not 0.0 < eta < math.inf:
        bound = "positive" if math.isfinite(eta) else "finite"
        raise DomainError(f"eta must be {bound}, got {eta!r}")
    if eta > 1.0 + ETA_UNIT_WINDOW:
        return _SUPER
    if eta < 1.0 - ETA_UNIT_WINDOW:
        return _SUB
    return _UNIT


def _eta(R: float, r_i: float, t: float) -> float:
    # eta = (R/t) ln(r_o/r_i) written as (R/r_i) * log1p(u)/u with u = t/r_i.
    # The ratio log1p(u)/u is insensitive to cancellation in t, so eta stays
    # accurate (and scale invariant) even for nearly degenerate tubes.
    u = t / r_i
    if u == 0.0:
        return R / r_i
    return (R / r_i) * (math.log1p(u) / u)


def derive(geom: TorusGeometry) -> DerivedQuantities:
    """Compute thickness, gap, eta, reference permeance and branch symbols.

    Raises :class:`DomainError` for a negative-thickness geometry; the
    degenerate ``r_o == r_i`` tube is representable and flagged instead,
    because sweeps pass through it.
    """
    t = geom.r_o - geom.r_i
    if t < 0.0:
        raise DomainError(
            f"r_o must be >= r_i, got r_o={geom.r_o!r} < r_i={geom.r_i!r}"
        )
    g = 2.0 * geom.r_i
    eta = _eta(geom.R, geom.r_i, t)
    gm0 = math.pi * MU0 * t
    branch = classify_branch(eta)
    alpha_plus = alpha_minus = lam = None
    if branch is _SUPER:
        x = _x(eta)
        # arccot(x) = atan(1/x) = pi/2 - atan(x) for x > 0; the atan(x) forms
        # avoid cancellation in alpha_minus as x -> 0.
        alpha_minus = math.atan(x)
        alpha_plus = math.pi - math.atan(x)
    elif branch is _SUB:
        lam = _lambda(eta)
    return DerivedQuantities(
        t=t,
        g=g,
        eta=eta,
        gm0=gm0,
        branch=branch,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        lam=lam,
        degenerate=(t == 0.0),
    )


def _x(eta: float) -> float:
    """x = sqrt(eta^2 - 1) for eta >= 1, clamped to 0 just below; eta itself above _ETA_HUGE."""
    v = eta * eta - 1.0  # 0.0 if v < 0.0 is max(v, 0.0) without the call, NaN kept
    return eta if eta > _ETA_HUGE else (0.0 if v < 0.0 else math.sqrt(v))


def _lambda(eta: float) -> float:
    # lambda = ln((1+y)/(1-y)) with y = sqrt(1-eta^2).  For small eta the
    # direct 1-y suffers cancellation; rewrite via 1-y = eta^2/(1+y).
    y = math.sqrt((1.0 - eta) * (1.0 + eta))
    if y < 0.5:
        return 2.0 * math.atanh(y)
    return 2.0 * math.log((1.0 + y) / eta)


def arccot(x: float) -> float:
    """Principal arccot for x > 0, defined as atan(1/x)."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"arccot defined here for finite x > 0, got {x!r}")
    return math.atan(1.0 / x)


def validate(kind: FluxTubeKind, geom: TorusGeometry) -> ExistenceReport:
    """Existence report for a (kind, geometry) pair.

    A tube ceases to exist when ``r_o <= r_i``; inner-side tubes additionally
    cease to exist when ``r_o > R`` (they would intersect the axis side).
    Nonexistence is a normal state, not an error: force sweeps pass through it.
    An existing inner tube has eta > 1 analytically; the permeance shape
    table raises :class:`DomainError` should one ever be classified SUB.
    """
    if geom.r_o <= geom.r_i:
        return _VANISHED
    if kind.is_inner and geom.r_o > geom.R:
        return _SELF_INTERSECTING
    return _EXISTS
