"""Analytic permeance gradients and reluctance forces for deforming flux tubes.

The force on a tube deformed by armature motion is F = 1/2 V_m^2 dG_m/dg
(Roters), so all the physics sits in the gradient of the permeance with
respect to the motion coordinate.  Which gradient applies depends on the
drive mode, i.e. which geometric quantity the surrounding magnetic circuit
holds constant while the motion coordinate v moves the radii at the rates
(a_i, a_o) = (dr_i/dv, dr_o/dv) of one private table, ``_MOTION``.  v is the
gap g = 2 r_i, or for ``CONST_INNER_RADIUS`` the stroke s = r_o (quarter
tubes only; e.g. a plunger entering a cylindrical hole):

============  ===  ===  ====
mode          a_i  a_o  held
============  ===  ===  ====
const-ro (g)  1/2  0    r_o
const-t (g)   1/2  1/2  t
const-ri (s)  0    1    r_i
============  ===  ===  ====

With G_m = G_m0 f(eta), G_m0 = pi mu0 t and eta = (R/t) ln(r_o/r_i), every
gradient is one chain rule on the (f, f') pair of :mod:`toroflux.permeance`:

    dG_m/dv = G_m0 [(dt/dv)/t f + f' deta/dv],   dt/dv = a_o - a_i,
    t deta/dv = (dt/dv) (R/r_o - eta) - a_i t R / (r_i r_o).

A quarter has twice the (f, f') of its half, so its permeance and its stroke
gradient are twice the half's.  Driven in a gap mode it develops quadruple the
half-tube force: twice the magnetic field strength acts on twice the
distortion per stroke, so the gap gradient is doubled once more.  The legacy
cylinder G_L = (mu0 w/pi) ln(r_o/r_i) follows the same path with the same
quarter factors, dG_L/dv = (mu0 w/pi) [(dt/dv)/r_o - a_i t/(r_i r_o)].  Inside
the unit window the outer tubes take everything at eta = 1: (f, f') =
(1, 2/3), the partials at eta = 1, and for the gap modes the documented closed
forms -G_m0 (1 + 2R/r_i) / (6t) (const-ro) and -G_m0 R / (3 r_i r_o)
(const-t).  Lower-half tubes do not generate force in axisymmetric motion.
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
    finite_real,
    validate,
)
from .permeance import LegacyCylinderSpec, _shape, legacy_half_hollow_cylinder

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

_MOTION: dict[DriveMode, tuple[str, float, float]] = {
    DriveMode.CONST_OUTER_RADIUS: ("r_o", 0.5, 0.0),
    DriveMode.CONST_THICKNESS: ("t", 0.5, 0.5),
    DriveMode.CONST_INNER_RADIUS: ("r_i", 0.0, 1.0),
}
"""Each mode's path: the ActuatorSweepSpec field it holds, and (a_i, a_o) = (dr_i/dv, dr_o/dv)."""


def allowed_modes(kind: FluxTubeKind) -> frozenset[DriveMode]:
    return _ALLOWED_MODES[kind]


def _check_mode(kind: FluxTubeKind, mode: DriveMode) -> None:
    """Raise :class:`UsageError` unless ``mode`` can move a tube of ``kind``."""
    if mode not in _ALLOWED_MODES[kind]:
        raise UsageError(f"mode {mode.value} not allowed for kind {kind.value}")


def _quarter_factors(kind: FluxTubeKind, mode: DriveMode) -> tuple[float, float]:
    """(p, q): permeance and force gradient as multiples of the half's, exact and legacy alike."""
    if kind.is_quarter:
        return 2.0, (4.0 if mode in _GAP_MODES else 2.0)
    return 1.0, 1.0


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
    ``CONST_INNER_RADIUS``.  Only the fixed parameter matching ``mode`` (r_o,
    t or r_i) is read and must be given; the other two are ignored.  ``samples``
    is stored as an int, and every other number read as a float.
    ``legacy_width`` defaults to 2 pi R, the constant-width choice used for
    the wrapped-cylinder comparison.
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
        _check_mode(self.kind, self.mode)
        needed = _MOTION[self.mode][0]
        if getattr(self, needed) is None:
            raise UsageError(f"mode {self.mode.value} requires positive fixed {needed}")
        # An int or numpy integer: a float, even 3.0, has no __index__ (and a bool's is < 2).
        samples = getattr(self.samples, "__index__", lambda: 0)()
        if samples < 2:
            raise UsageError(f"samples must be an integer >= 2, got {self.samples!r}")
        object.__setattr__(self, "samples", samples)
        try:
            object.__setattr__(self, "theta", finite_real("theta", self.theta))
            for name in ("R", needed, "start", "stop") + (
                    () if self.legacy_width is None else ("legacy_width",)):
                object.__setattr__(self, name, finite_positive(name, getattr(self, name)))
        except DomainError as exc:
            raise UsageError(str(exc)) from None
        if not self.start < self.stop:
            raise UsageError(f"sweep range needs start < stop, got [{self.start!r}, {self.stop!r}]")

    def geometry_at(self, value: float) -> TorusGeometry:
        """Geometry at one sample of the swept variable (gap or stroke)."""
        return _geometry_at(self.mode, self.R, getattr(self, _MOTION[self.mode][0]), value)


def _geometry_at(mode: DriveMode, R: float, fixed: float, value: float) -> TorusGeometry:
    """Geometry at ``value`` of the gap or stroke; ``fixed`` is the r_o, t or r_i ``mode`` holds."""
    held, a_i, a_o = _MOTION[mode]
    if held == "r_i":
        return TorusGeometry(R, a_i * value + fixed, a_o * value)
    return TorusGeometry(R, a_i * value, a_o * value + fixed)


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
    p, q = _quarter_factors(kind, mode)
    scale = q / p  # (f, f') already carry p
    if kind.is_outer and d.branch is BranchCase.UNIT:
        # The partials are taken at eta = 1, like (f, f').  The gap modes keep
        # the documented eta = 1 forms verbatim, which the chain rule
        # reproduces only to rounding; f is 1 (half) or 2 (quarter).
        eta = 1.0
        if mode is DriveMode.CONST_OUTER_RADIUS:
            return gm, scale * f * (-(d.gm0 / (2.0 * t)) * (1.0 + 2.0 * R / r_i) / 3.0)
        if mode is DriveMode.CONST_THICKNESS:
            return gm, scale * f * (-(d.gm0 * R) / (3.0 * r_i * r_o))
    # t deta/dv keeps the a_i term apart: R (a_o/r_o - a_i/r_i) cancels on thin tubes.
    _, a_i, a_o = _MOTION[mode]
    dt = a_o - a_i
    t_deta = dt * (R / r_o - eta) - a_i * t * R / (r_i * r_o)
    return gm, scale * (d.gm0 / t) * (dt * f + fp * t_deta)


def permeance_gradient(kind: FluxTubeKind, mode: DriveMode, geom: TorusGeometry) -> float:
    """Analytic dG_m/dg (gap modes) or dG_m/ds (stroke mode) in H/m: ``force(...).dGm``.

    A vanished tube (r_o <= r_i, or an inner tube with r_o > R) has zero
    gradient.  An inner quarter driven past s = R keeps the permeance of
    r_o = R but produces no force, so its gradient is zero as well.
    Quarter tubes in a gap mode return four times the half-tube gradient.
    """
    return force(0.0, kind, mode, geom).dGm


def force(vm: float, kind: FluxTubeKind, mode: DriveMode, geom: TorusGeometry) -> ForceResult:
    """Reluctance force F = 1/2 vm^2 dG_m/dg on the tube, with bookkeeping.

    ``vm`` is the magnetic tension across the tube in amperes.  This is the
    one guarded evaluation of a (kind, mode) pair: it refuses a mode that
    cannot move the tube, gives a vanished tube zero force/gradient and the
    floored permeance, and freezes an inner quarter driven past s = R at the
    permeance of r_o = R with zero gradient.
    """
    _check_mode(kind, mode)
    if not math.isfinite(vm):
        raise DomainError(f"magnetic tension must be finite, got {vm!r}")
    frozen = kind.is_inner and mode is DriveMode.CONST_INNER_RADIUS and geom.r_o > geom.R
    if frozen:
        geom = TorusGeometry(geom.R, geom.r_i, geom.R)
    if not validate(kind, geom).exists:
        return ForceResult(F=0.0, dGm=0.0, Gm=GM_FLOOR, exists=False)
    gm, dgm = _closed_forms(kind, mode, geom)
    if frozen:
        return ForceResult(F=0.0, dGm=0.0, Gm=max(gm, GM_FLOOR), exists=True)
    return ForceResult(F=0.5 * vm * vm * dgm, dGm=dgm, Gm=max(gm, GM_FLOOR), exists=True)


def _legacy_cylinder(kind: FluxTubeKind, mode: DriveMode, R: float, w: float | None,
                     r_i: float, r_o: float, t: float, scale: float = 1.0) -> tuple[float, float]:
    """(G_L, scale dG_L/dv) of the depth-w cylinder on the tube's path (module docstring).

    w defaults to 2 pi R, the only use of R; (0, 0) once t <= 0.  t comes with
    the radii, so that a caller holding it exactly keeps it exact.  scale (1/2
    theta^2 for a force) goes in first, keeping F_L's rounding order.
    """
    if t <= 0.0:
        return 0.0, 0.0
    w = w if w is not None else 2.0 * math.pi * R
    _, a_i, a_o = _MOTION[mode]
    p, q = _quarter_factors(kind, mode)
    gl = legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t, r_i)).value
    return p * gl, scale * q * MU0 * w / math.pi * ((a_o - a_i) / r_o - a_i * t / (r_i * r_o))


def legacy_gradient(w: float, t: float, g: float) -> float:
    """d/dg of the wrapped-cylinder permeance with the width held constant (const-t).

    G_m = mu0 w / pi * ln(1 + 2t/g) gives
    dG_m/dg = -(mu0 w / pi) * 2t / (g (g + 2t)), negative for all valid inputs.
    The constant width is the legacy model's systematic neglect of the tube
    widening with the gap.
    """
    w, t, g = finite_positive("w", w), finite_positive("t", t), finite_positive("g", g)
    return _legacy_cylinder(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, math.nan, w,
                            0.5 * g, 0.5 * g + t, t)[1]


def sweep_force(spec: ActuatorSweepSpec) -> list[ForceSweepRow]:
    """Evaluate exact and legacy force over the sweep, row per sample.

    Rows are ordered by sample index (each is independent of the others).
    Existence transitions emit ``exists=False`` rows with zero force and the
    floored permeance instead of truncating the table.  The legacy cylinder
    follows the mode's path and takes the tube's quarter factors (module
    docstring).  The relative deviation is 100 |F_legacy - F| / |F|, left
    undefined (None) when the exact force is zero or in the stroke mode, for
    which there is no legacy force model.
    """
    step = (spec.stop - spec.start) / (spec.samples - 1)
    rows: list[ForceSweepRow] = []
    for i in range(spec.samples):
        v = spec.stop if i == spec.samples - 1 else spec.start + i * step
        geom = spec.geometry_at(v)
        res = force(spec.theta, spec.kind, spec.mode, geom)
        gm_legacy, f_legacy = _legacy_cylinder(spec.kind, spec.mode, spec.R, spec.legacy_width,
                                               geom.r_i, geom.r_o, geom.r_o - geom.r_i,
                                               0.5 * spec.theta * spec.theta)
        rel_dev = None
        if spec.mode not in _GAP_MODES:
            f_legacy = None
        elif res.F != 0.0:
            rel_dev = 100.0 * abs(f_legacy - res.F) / abs(res.F)
        rows.append(ForceSweepRow(v, res.Gm, res.F, gm_legacy, f_legacy, rel_dev, res.exists))
    return rows
