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
    MU0,
    BranchCase,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    _SUB,
    _SUPER,
    _UNIT,
    _eta,
    _lambda,
    _x,
    classify_branch,
    finite_positive,
    validate,
)


@dataclass(frozen=True, slots=True)
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
        w, t, r_i = self.w, self.t, self.r_i
        if (type(w) is float and type(t) is float and type(r_i) is float
                and 0.0 < w < math.inf and 0.0 <= t < math.inf and 0.0 < r_i < math.inf):
            return
        for name, allow_zero in (("w", False), ("t", True), ("r_i", False)):
            value = finite_positive(name, getattr(self, name), allow_zero)
            object.__setattr__(self, name, value)


def _shape(kind: FluxTubeKind, eta: float, branch: BranchCase) -> tuple[float, float]:
    """(f, f') of the tube at eta on its branch: G_m = G_m0 f(eta) and f' = df/deta.

    A quarter has twice the (f, f') of its half: both are multiplied by p = 2
    (quarter) or 1 (half), exactly.  An inner-side or lower-half tube on the
    SUB branch raises :class:`DomainError`.
    """
    p = 2.0 if kind.is_quarter else 1.0
    if kind.is_outer:
        if branch is _SUPER:
            x = _x(eta)
            alpha_minus = math.atan(x)
            return p * (x / alpha_minus), p * ((eta / x - 1.0 / (eta * alpha_minus)) / alpha_minus)
        if branch is _UNIT:
            return p, p * (2.0 / 3.0)
        y = math.sqrt((1.0 - eta) * (1.0 + eta))
        lam = _lambda(eta)
        return p * (2.0 * y / lam), p * ((2.0 / lam) * (2.0 / (eta * lam) - eta / y))
    if branch is _SUB:
        raise DomainError(
            f"{kind.value} tube requires eta > 1, got eta={eta!r} "
            "(the inner quarter constituent does not exist below eta = 1)"
        )
    # SUPER or UNIT; within the unit window the tube is nearly degenerate and
    # the single closed form stays numerically safe (no cancelling denominator).
    x = _x(eta)
    if x == 0.0:
        # Thickness at rounding level: f' diverges like 1/x, but G_m0 f' -> 0.
        return 0.0, 0.0
    if not kind.is_inner:  # the lower half
        return x / (0.5 * math.pi), eta / x / (0.5 * math.pi)
    alpha_plus = math.pi - math.atan(x)
    return p * (x / alpha_plus), p * ((eta / x + 1.0 / (eta * alpha_plus)) / alpha_plus)


def permeance(kind: FluxTubeKind, geom: TorusGeometry) -> Permeance:
    """Exact permeance [H] of the flux tube.

    A nonexistent tube (see :func:`toroflux.core.validate`) yields the
    degenerate ``Permeance(0.0, exists=False)`` rather than an error, so that
    sweeps remain total.  A lower-half tube evaluated on the SUB branch raises
    :class:`DomainError`: its inner quarter constituent only exists for eta > 1.
    """
    if not validate(kind, geom).exists:
        return Permeance(0.0, exists=False)
    r_i = geom.r_i
    t = geom.r_o - r_i
    eta = _eta(geom.R, r_i, t)
    return Permeance(math.pi * MU0 * t * _shape(kind, eta, classify_branch(eta))[0])


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
    u = spec.t / spec.r_i
    # Once t/r_i overflows, r_o = r_i + t rounds to t, so ln(r_o/r_i) = ln t - ln r_i.
    log_ratio = math.log1p(u) if u < math.inf else math.log(spec.t) - math.log(spec.r_i)
    return Permeance(MU0 * spec.w / math.pi * log_ratio)
