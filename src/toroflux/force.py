"""Analytic permeance gradients and reluctance forces for deforming flux tubes.

The force on a tube deformed by armature motion is F = 1/2 V_m^2 dG_m/dg
(Roters), so all the physics sits in the gradient of the permeance with
respect to the motion coordinate.  Which gradient applies depends on the
drive mode, i.e. which geometric quantity the surrounding magnetic circuit
holds constant:

* ``CONST_OUTER_RADIUS`` - r_o fixed, r_i = g/2 follows the gap,
* ``CONST_THICKNESS``    - t fixed, r_i = g/2 follows the gap,
* ``CONST_INNER_RADIUS`` - r_i fixed, r_o = s follows the stroke
  (quarter tubes only; e.g. a plunger entering a cylindrical hole).

With G_m = G_m0 f(eta) and G_m0 = pi mu0 t, every gradient is one chain rule
on the (f, f') pair of :mod:`toroflux.permeance`, for the motion coordinate v:

    dG_m/dv = G_m0 [(dt/dv)/t f + f' deta/dv]

with the partials of each mode:

============  =========  ========================
mode          dt/dv      deta/dv
============  =========  ========================
const-ro (g)  -1/2       (eta - R/r_i) / (2t)
const-t (g)   0          -R / (2 r_i r_o)
const-ri (s)  1          (R/r_o - eta) / t
============  =========  ========================

A quarter has twice the (f, f') of its half, so its permeance and its stroke
gradient are twice the half's.  Driven in a gap mode it develops quadruple
the half-tube force: twice the magnetic field strength acts on twice the
distortion per stroke, so the gap gradient is doubled once more.  Inside the
unit window the outer tubes take everything at eta = 1: (f, f') = (1, 2/3),
the partials at eta = 1, and for the gap modes the documented closed forms
-G_m0 (1 + 2R/r_i) / (6t) (const-ro) and -G_m0 R / (3 r_i r_o) (const-t).
Lower-half tubes do not generate force in axisymmetric motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    MU0,
    BranchCase,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    UsageError,
    derive,
    finite_positive,
    validate,
)
from .permeance import LegacyCylinderSpec, _shape, legacy_half_hollow_cylinder
from .permeance import permeance as _closed_permeance

GM_FLOOR = 1.0e-15
"""Permeance floor [H] reported for vanished tubes on the force pathway.

Downstream network solvers invert G_m, so a vanished tube must report an
arbitrarily small permeance rather than zero.
"""


class DriveMode(Enum):
    """Which geometric quantity stays constant while the armature moves."""

    CONST_OUTER_RADIUS = "const-ro"
    CONST_THICKNESS = "const-t"
    CONST_INNER_RADIUS = "const-ri"


_GAP_MODES = (DriveMode.CONST_OUTER_RADIUS, DriveMode.CONST_THICKNESS)

_ALLOWED_MODES: dict[FluxTubeKind, frozenset[DriveMode]] = {
    FluxTubeKind.INNER_HALF: frozenset(_GAP_MODES),
    FluxTubeKind.OUTER_HALF: frozenset(_GAP_MODES),
    FluxTubeKind.INNER_QUARTER: frozenset(DriveMode),
    FluxTubeKind.OUTER_QUARTER: frozenset(DriveMode),
    FluxTubeKind.LOWER_HALF: frozenset(),
}

_FIXED_BY_MODE = {
    DriveMode.CONST_OUTER_RADIUS: "r_o",
    DriveMode.CONST_THICKNESS: "t",
    DriveMode.CONST_INNER_RADIUS: "r_i",
}
"""The ActuatorSweepSpec field each drive mode holds constant."""


def allowed_modes(kind: FluxTubeKind) -> frozenset[DriveMode]:
    return _ALLOWED_MODES[kind]


@dataclass(frozen=True)
class ForceResult:
    """Force [N], the gradient [H/m] and permeance [H] it came from, and existence."""

    F: float
    dGm: float
    Gm: float
    exists: bool


@dataclass(frozen=True)
class ActuatorSweepSpec:
    """A force-vs-stroke sweep of one flux tube against the legacy model.

    The swept variable runs linearly from ``start`` to ``stop`` [m] and is the
    gap g = 2 r_i for the gap modes, or the stroke s = r_o for
    ``CONST_INNER_RADIUS``.  Exactly the fixed parameter matching ``mode``
    must be given (r_o, t or r_i).  ``legacy_width`` defaults to 2 pi R, the
    constant-width choice used for the wrapped-cylinder comparison.
    """

    kind: FluxTubeKind
    mode: DriveMode
    R: float
    start: float
    stop: float
    samples: int = 200
    theta: float = 1.0
    r_o: float | None = None
    t: float | None = None
    r_i: float | None = None
    legacy_width: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in allowed_modes(self.kind):
            raise UsageError(f"mode {self.mode.value} not allowed for kind {self.kind.value}")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise UsageError(f"R must be finite and positive, got {self.R!r}")
        if not (0.0 < self.start < self.stop) or not math.isfinite(self.stop):
            raise UsageError(
                f"sweep range must satisfy 0 < start < stop, got [{self.start!r}, {self.stop!r}]"
            )
        if self.samples < 2:
            raise UsageError(f"samples must be >= 2, got {self.samples!r}")
        if not math.isfinite(self.theta):
            raise UsageError(f"theta must be finite, got {self.theta!r}")
        needed = _FIXED_BY_MODE[self.mode]
        fixed = getattr(self, needed)
        if fixed is None or not (math.isfinite(fixed) and fixed > 0.0):
            raise UsageError(f"mode {self.mode.value} requires positive fixed {needed}")
        if self.legacy_width is not None and not (
            math.isfinite(self.legacy_width) and self.legacy_width > 0.0
        ):
            raise UsageError(f"legacy width must be positive, got {self.legacy_width!r}")

    def geometry_at(self, value: float) -> TorusGeometry:
        """Geometry at one sample of the swept variable (gap or stroke)."""
        return _geometry_at(self.mode, self.R, getattr(self, _FIXED_BY_MODE[self.mode]), value)


def _geometry_at(mode: DriveMode, R: float, fixed: float, value: float) -> TorusGeometry:
    """Geometry at ``value`` of the swept variable: the gap g = 2 r_i or the stroke s = r_o.

    ``fixed`` is the quantity ``mode`` holds constant: r_o, t or r_i.
    """
    if mode is DriveMode.CONST_OUTER_RADIUS:
        return TorusGeometry(R, value / 2.0, fixed)
    if mode is DriveMode.CONST_THICKNESS:
        return TorusGeometry(R, value / 2.0, value / 2.0 + fixed)
    return TorusGeometry(R, fixed, value)


@dataclass(frozen=True)
class ForceSweepRow:
    """One sweep sample.

    ``rel_dev_percent`` is None where the deviation is undefined (zero exact
    force, or the stroke mode).  ``force_legacy`` is None in the stroke mode,
    for which the legacy model defines no force.
    """

    g: float
    gm: float
    force: float
    gm_legacy: float
    force_legacy: float | None
    rel_dev_percent: float | None
    exists: bool


def _closed_forms(kind: FluxTubeKind, mode: DriveMode, geom: TorusGeometry) -> tuple[float, float]:
    """(G_m, dG_m/dv) of an existing tube from one derive and one (f, f') lookup.

    The chain rule of the module docstring, factored as
    (G_m0/t) [dt/dv f + f' t deta/dv]; a gap-driven quarter doubles it once more.
    """
    d = derive(geom)
    f, fp = _shape(kind, d)
    gm, t, eta = d.gm0 * f, d.t, d.eta
    R, r_i, r_o = geom.R, geom.r_i, geom.r_o
    scale = 2.0 if kind.is_quarter and mode in _GAP_MODES else 1.0
    if kind.is_outer and d.branch is BranchCase.UNIT:
        # The partials are taken at eta = 1, like (f, f').  The gap modes keep
        # the documented eta = 1 forms verbatim, which the chain rule
        # reproduces only to rounding; f is 1 (half) or 2 (quarter).
        eta = 1.0
        if mode is DriveMode.CONST_OUTER_RADIUS:
            return gm, scale * f * (-(d.gm0 / (2.0 * t)) * (1.0 + 2.0 * R / r_i) / 3.0)
        if mode is DriveMode.CONST_THICKNESS:
            return gm, scale * f * (-(d.gm0 * R) / (3.0 * r_i * r_o))
    # The mode's partials (dt/dv, t deta/dv).
    if mode is DriveMode.CONST_OUTER_RADIUS:
        dt, t_deta = -0.5, 0.5 * (eta - R / r_i)
    elif mode is DriveMode.CONST_THICKNESS:
        dt, t_deta = 0.0, -t * R / (2.0 * r_i * r_o)
    else:
        dt, t_deta = 1.0, R / r_o - eta
    return gm, scale * (d.gm0 / t) * (dt * f + fp * t_deta)


def permeance_gradient(kind: FluxTubeKind, mode: DriveMode, geom: TorusGeometry) -> float:
    """Analytic dG_m/dg (gap modes) or dG_m/ds (stroke mode) in H/m.

    A vanished tube (r_o <= r_i, or an inner tube with r_o > R) has zero
    gradient.  An inner quarter driven past s = R keeps the permeance of
    r_o = R but produces no force, so its gradient is zero as well.
    Quarter tubes in a gap mode return four times the half-tube gradient.
    """
    if mode not in allowed_modes(kind):
        raise UsageError(f"mode {mode.value} not allowed for kind {kind.value}")
    if not validate(kind, geom).exists:
        return 0.0
    return _closed_forms(kind, mode, geom)[1]


def force(vm: float, kind: FluxTubeKind, mode: DriveMode, geom: TorusGeometry) -> ForceResult:
    """Reluctance force F = 1/2 vm^2 dG_m/dg on the tube, with bookkeeping.

    ``vm`` is the magnetic tension across the tube in amperes.  For vanished
    tubes the result carries zero force/gradient and the floored permeance;
    an inner quarter past s = R reports the frozen permeance of r_o = R.
    """
    if mode not in allowed_modes(kind):
        raise UsageError(f"mode {mode.value} not allowed for kind {kind.value}")
    if not math.isfinite(vm):
        raise DomainError(f"magnetic tension must be finite, got {vm!r}")
    if kind.is_inner and mode is DriveMode.CONST_INNER_RADIUS and geom.r_o > geom.R:
        if geom.R <= geom.r_i:
            return ForceResult(F=0.0, dGm=0.0, Gm=GM_FLOOR, exists=False)
        frozen = TorusGeometry(geom.R, geom.r_i, geom.R)
        gm = _closed_permeance(kind, frozen).value
        return ForceResult(F=0.0, dGm=0.0, Gm=max(gm, GM_FLOOR), exists=True)
    if not validate(kind, geom).exists:
        return ForceResult(F=0.0, dGm=0.0, Gm=GM_FLOOR, exists=False)
    gm, dgm = _closed_forms(kind, mode, geom)
    return ForceResult(F=0.5 * vm * vm * dgm, dGm=dgm, Gm=max(gm, GM_FLOOR), exists=True)


def legacy_gradient(w: float, t: float, g: float) -> float:
    """d/dg of the wrapped-cylinder permeance with the width held constant.

    G_m = mu0 w / pi * ln(1 + 2t/g) gives
    dG_m/dg = -(mu0 w / pi) * 2t / (g (g + 2t)), negative for all valid inputs.
    The constant width is the legacy model's systematic neglect of the tube
    widening with the gap.
    """
    w, t, g = finite_positive("w", w), finite_positive("t", t), finite_positive("g", g)
    return -(MU0 * w / math.pi) * 2.0 * t / (g * (g + 2.0 * t))


def sweep_force(spec: ActuatorSweepSpec) -> list[ForceSweepRow]:
    """Evaluate exact and legacy force over the sweep, row per sample.

    Rows are ordered by sample index (each is independent of the others).
    Existence transitions emit ``exists=False`` rows with zero force and the
    floored permeance instead of truncating the table.  The relative
    deviation is 100 |F_legacy - F| / |F|, left undefined (None) when the
    exact force is zero or in the stroke mode, for which there is no legacy
    force model.
    """
    w = spec.legacy_width if spec.legacy_width is not None else 2.0 * math.pi * spec.R
    step = (spec.stop - spec.start) / (spec.samples - 1)
    rows: list[ForceSweepRow] = []
    for i in range(spec.samples):
        v = spec.stop if i == spec.samples - 1 else spec.start + i * step
        geom = spec.geometry_at(v)
        res = force(spec.theta, spec.kind, spec.mode, geom)
        t_cur = geom.r_o - geom.r_i
        if t_cur > 0.0:
            gm_legacy = legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t_cur, geom.r_i)).value
        else:
            gm_legacy = 0.0
        if spec.mode is DriveMode.CONST_INNER_RADIUS:
            f_legacy = None
            rel_dev = None
        elif t_cur <= 0.0:
            f_legacy = 0.0
            rel_dev = None
        else:
            f_legacy = 0.5 * spec.theta * spec.theta * legacy_gradient(w, t_cur, 2.0 * geom.r_i)
            rel_dev = (
                100.0 * abs(f_legacy - res.F) / abs(res.F) if res.F != 0.0 else None
            )
        rows.append(
            ForceSweepRow(
                g=v,
                gm=res.Gm,
                force=res.F,
                gm_legacy=gm_legacy,
                force_legacy=f_legacy,
                rel_dev_percent=rel_dev,
                exists=res.exists,
            )
        )
    return rows
