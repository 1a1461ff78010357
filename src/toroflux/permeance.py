"""Closed-form permeance of hollow-toroid flux tubes plus the legacy approximations.

The permeance of each tube is G_m = G_m0 f(eta), with G_m0 = pi mu0 t and a
dimensionless shape factor f of eta = (R/t) ln(r_o/r_i).  One private table,
``_shape``, gives f and f' = df/deta per kind and branch; the force gradients
of :mod:`toroflux.force` are a chain rule on the same pair.  With
x = sqrt(eta^2-1), y = sqrt(1-eta^2), lambda = ln((1+y)/(1-y)),
alpha_minus = atan(x) and alpha_plus = pi - atan(x):

==========  ===========  ===========================================
kind        branch       f;  f'
==========  ===========  ===========================================
inner half  eta > 1      x/alpha_plus;  (eta/x + 1/(eta alpha_plus)) / alpha_plus
inner half  eta < 1      (cannot occur)
outer half  eta > 1      x/alpha_minus;  (eta/x - 1/(eta alpha_minus)) / alpha_minus
outer half  eta = 1      1;  2/3
outer half  eta < 1      2y/lambda;  (2/lambda) (2/(eta lambda) - eta/y)
lower half  eta > 1      x/(pi/2);  (eta/x) / (pi/2)
lower half  eta < 1      (tube does not exist: DomainError)
quarters    any          twice the (f, f') of the matching half
==========  ===========  ===========================================

The outer branches merge continuously at eta = 1 where both tend to G_m0
(evaluating either branch there is 0/0, hence the reserved unit window).
Inner-side tubes reach eta -> 1 only as r_i -> r_o with r_o -> R, where the
tube itself vanishes; inside the unit window they are evaluated with the
single eta > 1 form and a clamped sqrt(max(eta^2-1, 0)), and (f, f') = (0, 0)
where that clamp gives x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    _ETA_HUGE,
    MU0,
    BranchCase,
    DerivedQuantities,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    derive,
    finite_positive,
    validate,
)


@dataclass(frozen=True)
class Permeance:
    """A permeance value [H]; ``exists`` is False for a vanished tube (value 0)."""

    value: float
    exists: bool = True


@dataclass(frozen=True)
class LegacyCylinderSpec:
    """Half hollow cylinder with circumferential flux: depth w, thickness t, inner radius r_i."""

    w: float
    t: float
    r_i: float

    def __post_init__(self) -> None:
        for name, allow_zero in (("w", False), ("t", True), ("r_i", False)):
            value = finite_positive(name, getattr(self, name), allow_zero)
            object.__setattr__(self, name, value)


_HALF_OF = {
    FluxTubeKind.INNER_QUARTER: FluxTubeKind.INNER_HALF,
    FluxTubeKind.OUTER_QUARTER: FluxTubeKind.OUTER_HALF,
}


def _shape(kind: FluxTubeKind, d: DerivedQuantities) -> tuple[float, float]:
    """(f, f') of the tube on d's branch: G_m = G_m0 f(eta) and f' = df/deta.

    A quarter has twice the (f, f') of its half.  An inner-side or lower-half
    tube on the SUB branch raises :class:`DomainError`.
    """
    half = _HALF_OF.get(kind)
    if half is not None:
        f, fp = _shape(half, d)
        return 2.0 * f, 2.0 * fp
    eta = d.eta
    if kind is FluxTubeKind.OUTER_HALF:
        if d.branch is BranchCase.SUPER:
            x = eta if eta > _ETA_HUGE else math.sqrt(eta * eta - 1.0)
            return x / d.alpha_minus, (eta / x - 1.0 / (eta * d.alpha_minus)) / d.alpha_minus
        if d.branch is BranchCase.UNIT:
            return 1.0, 2.0 / 3.0
        y = math.sqrt((1.0 - eta) * (1.0 + eta))
        return 2.0 * y / d.lam, (2.0 / d.lam) * (2.0 / (eta * d.lam) - eta / y)
    if d.branch is BranchCase.SUB:
        raise DomainError(
            f"{kind.value} tube requires eta > 1, got eta={eta!r} "
            "(the inner quarter constituent does not exist below eta = 1)"
        )
    # SUPER or UNIT; within the unit window the tube is nearly degenerate and
    # the single closed form stays numerically safe (no cancelling denominator).
    x = eta if eta > _ETA_HUGE else math.sqrt(max(eta * eta - 1.0, 0.0))
    if x == 0.0:
        # Thickness at rounding level: f' diverges like 1/x, but G_m0 f' -> 0.
        return 0.0, 0.0
    if kind is FluxTubeKind.LOWER_HALF:
        return x / (0.5 * math.pi), eta / x / (0.5 * math.pi)
    alpha_plus = d.alpha_plus if d.alpha_plus is not None else math.pi - math.atan(x)
    return x / alpha_plus, (eta / x + 1.0 / (eta * alpha_plus)) / alpha_plus


def permeance(kind: FluxTubeKind, geom: TorusGeometry) -> Permeance:
    """Exact permeance [H] of the flux tube.

    A nonexistent tube (see :func:`toroflux.core.validate`) yields the
    degenerate ``Permeance(0.0, exists=False)`` rather than an error, so that
    sweeps remain total.  A lower-half tube evaluated on the SUB branch raises
    :class:`DomainError`: its inner quarter constituent only exists for eta > 1.
    """
    if not validate(kind, geom).exists:
        return Permeance(0.0, exists=False)
    d = derive(geom)
    return Permeance(d.gm0 * _shape(kind, d)[0])


def reluctance(kind: FluxTubeKind, geom: TorusGeometry) -> float:
    """Reluctance 1/G_m [1/H]; ``math.inf`` signals a vanished (zero-permeance) tube."""
    value = permeance(kind, geom).value
    if value == 0.0:
        return math.inf
    return 1.0 / value


def legacy_half_hollow_cylinder(spec: LegacyCylinderSpec) -> Permeance:
    """Permeance of a straight half hollow cylinder with circumferential flux.

    G_m = mu0 w / pi * ln(1 + t/r_i).  With w = 2 pi R this is the customary
    wrapped-around-a-cylinder approximation of a half hollow torus, exact only
    in the limit (R/t) ln(r_o/r_i) -> infinity.
    """
    return Permeance(MU0 * spec.w / math.pi * math.log1p(spec.t / spec.r_i))
