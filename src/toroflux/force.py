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
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .core import (
    MU0,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    UsageError,
    _UNIT,
    _eta,
    classify_branch,
    finite_positive,
    finite_real,
)
from .permeance import LegacyCylinderSpec, _shape, legacy_half_hollow_cylinder, permeance

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

    __hash__ = object.__hash__  # as FluxTubeKind's: members are singletons


_CONST_RO, _CONST_T, _CONST_RI = DriveMode  # module globals for the kernel, as core's _SUB etc.
_GAP_MODES = (_CONST_RO, _CONST_T)

_ALLOWED_MODES: dict[FluxTubeKind, frozenset[DriveMode]] = {
    FluxTubeKind.INNER_HALF: frozenset(_GAP_MODES),
    FluxTubeKind.OUTER_HALF: frozenset(_GAP_MODES),
    FluxTubeKind.INNER_QUARTER: frozenset(DriveMode),
    FluxTubeKind.OUTER_QUARTER: frozenset(DriveMode),
    FluxTubeKind.LOWER_HALF: frozenset(),
}

_MOTION: dict[DriveMode, tuple[str, float, float]] = {
    _CONST_RO: ("r_o", 0.5, 0.0),
    _CONST_T: ("t", 0.5, 0.5),
    _CONST_RI: ("r_i", 0.0, 1.0),
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


@dataclass(frozen=True, slots=True)
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
        a_i, b_i, a_o, b_o = _path(self.mode, getattr(self, _MOTION[self.mode][0]))
        return TorusGeometry(self.R, a_i * value + b_i, a_o * value + b_o)


def _path(mode: DriveMode, fixed: float) -> tuple[float, float, float, float]:
    """(a_i, b_i, a_o, b_o): r_i = a_i v + b_i and r_o = a_o v + b_o along ``mode``'s path.

    ``fixed`` is the r_o, t or r_i the mode holds.  The radius it does not
    offset gets b = -0.0, the exact additive identity, so it is a v bit for bit.
    """
    held, a_i, a_o = _MOTION[mode]
    if held == "r_i":
        return a_i, fixed, a_o, -0.0
    return a_i, -0.0, a_o, fixed


@dataclass(frozen=True, slots=True)
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


def _guarded(half_vm2: float, kind: FluxTubeKind, mode: DriveMode, R: float, r_i: float,
             r_o: float, scale: float, a_i: float, a_o: float) -> tuple[float, float, float, bool]:
    """(F, dG_m/dv, G_m, exists) under the rules of :func:`force`, from the three radii.

    ``half_vm2`` is 1/2 vm^2; ``scale`` = q/p and the rates (a_i, a_o) belong
    to (kind, mode), so a sweep reads them once.  A vanished tube gives
    (0, 0, GM_FLOOR, False); an inner quarter driven past s = R gives zero
    force and gradient with the floored permeance of r_o = R.  Otherwise
    dG_m/dv is the module docstring's chain rule (G_m0/t) [dt/dv f + f' t deta/dv]
    times ``scale``: a gap-driven quarter doubles it once more.
    """
    inner = kind.is_inner
    frozen = inner and r_o > R and mode is _CONST_RI
    if frozen:
        r_o = R
    if r_o <= r_i or (inner and r_o > R):
        return 0.0, 0.0, GM_FLOOR, False
    t = r_o - r_i
    eta = _eta(R, r_i, t)
    branch = classify_branch(eta)
    f, fp = _shape(kind, eta, branch)
    gm0 = math.pi * MU0 * t
    gm = gm0 * f
    if gm < GM_FLOOR:  # max(gm, GM_FLOOR) without the call; NaN stays NaN
        gm = GM_FLOOR
    if frozen:
        return 0.0, 0.0, gm, True
    unit = branch is _UNIT and kind.is_outer
    if unit and mode is _CONST_RO:
        # The gap modes keep the documented eta = 1 forms verbatim, which the
        # chain rule reproduces only to rounding; f is 1 (half) or 2 (quarter).
        dgm = scale * f * (-(gm0 / (2.0 * t)) * (1.0 + 2.0 * R / r_i) / 3.0)
    elif unit and mode is _CONST_T:
        dgm = scale * f * (-(gm0 * R) / (3.0 * r_i * r_o))
    else:
        # t deta/dv keeps the a_i term apart: R (a_o/r_o - a_i/r_i) cancels on thin tubes.
        # In the unit window the partials are taken at eta = 1, like (f, f').
        dt = a_o - a_i
        t_deta = dt * (R / r_o - (1.0 if unit else eta)) - a_i * t * R / (r_i * r_o)
        dgm = scale * (gm0 / t) * (dt * f + fp * t_deta)
    return half_vm2 * dgm, dgm, gm, True


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
    if type(vm) is not float or not math.isfinite(vm):
        vm = finite_real("magnetic tension", vm)
    p, q = _quarter_factors(kind, mode)
    _, a_i, a_o = _MOTION[mode]
    return ForceResult(*_guarded(0.5 * vm * vm, kind, mode, geom.R, geom.r_i, geom.r_o,
                                 q / p, a_i, a_o))


def _legacy_slope(c: float, a_i: float, a_o: float, r_i: float, r_o: float, t: float) -> float:
    """c [(a_o - a_i)/r_o - a_i t/(r_i r_o)]: dG_L/dv of the legacy cylinder when c = mu0 w/pi.

    A sweep folds 1/2 theta^2 and the quarter factor q into c, ahead of
    mu0 w/pi, so F_L keeps its rounding order (module docstring).
    """
    return c * ((a_o - a_i) / r_o - a_i * t / (r_i * r_o))


def _legacy_width(R: float, width: float | None) -> float:
    """``width``, else the wrapped-cylinder default 2 pi R; :class:`DomainError` if that overflows."""
    w = 2.0 * math.pi * R if width is None else width
    if w == math.inf:  # a given width is already checked finite
        raise DomainError(f"the default legacy width 2*pi*R overflows at R={R!r}; "
                          "give a legacy width")
    return w


def legacy_gradient(w: float, t: float, g: float) -> float:
    """d/dg of the wrapped-cylinder permeance with the width held constant (const-t).

    G_m = mu0 w / pi * ln(1 + 2t/g) gives
    dG_m/dg = -(mu0 w / pi) * 2t / (g (g + 2t)), negative for all valid inputs.
    The constant width is the legacy model's systematic neglect of the tube
    widening with the gap.
    """
    w, t, g = finite_positive("w", w), finite_positive("t", t), finite_positive("g", g)
    r_i = finite_positive("r_i", 0.5 * g)  # the cylinder's inner radius; g/2 may underflow
    _, a_i, a_o = _MOTION[_CONST_T]
    return _legacy_slope(MU0 * w / math.pi, a_i, a_o, r_i, r_i + t, t)


def _ramp(start: float, stop: float, samples: int) -> list[float]:
    """``samples`` floats from ``start`` to ``stop``: numpy's evenly spaced values, bit for bit."""
    n = samples - 1
    delta = stop - start
    step = delta / n
    if step == 0.0:  # underflowed: numpy then scales i/n instead
        return [(i / n) * delta + start for i in range(n)] + [stop]
    return [i * step + start for i in range(n)] + [stop]


def sweep_force(spec: ActuatorSweepSpec) -> list[ForceSweepRow]:
    """Evaluate exact and legacy force over the sweep, row per sample.

    Rows are ordered by sample index (each is independent of the others).
    Existence transitions emit ``exists=False`` rows with zero force and the
    floored permeance instead of truncating the table.  The legacy cylinder
    follows the mode's path and takes the tube's quarter factors (module
    docstring).  The relative deviation is 100 |F_legacy - F| / |F|, left
    undefined (None) when the exact force is zero or in the stroke mode, for
    which there is no legacy force model.  Without a legacy width, an R whose
    2 pi R overflows raises :class:`DomainError` before the first row.
    """
    kind, mode, R = spec.kind, spec.mode, spec.R
    a_i, b_i, a_o, b_o = _path(mode, getattr(spec, _MOTION[mode][0]))
    p, q = _quarter_factors(kind, mode)
    scale = q / p
    half_theta2 = 0.5 * spec.theta * spec.theta
    w = _legacy_width(R, spec.legacy_width)
    c_legacy = half_theta2 * q * MU0 * w / math.pi
    gap = mode in _GAP_MODES
    rows: list[ForceSweepRow] = []
    for v in _ramp(spec.start, spec.stop, spec.samples):
        r_i = a_i * v + b_i
        r_o = a_o * v + b_o
        if not (r_i > 0.0 and r_o < math.inf):
            TorusGeometry(R, r_i, r_o)  # raises the DomainError of a radius out of range
        f, _, gm, exists = _guarded(half_theta2, kind, mode, R, r_i, r_o, scale, a_i, a_o)
        t = r_o - r_i
        gm_legacy = f_legacy = 0.0
        if t > 0.0:
            gm_legacy = p * legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t, r_i)).value
            if gap:
                f_legacy = _legacy_slope(c_legacy, a_i, a_o, r_i, r_o, t)
        rel_dev = None
        if not gap:
            f_legacy = None
        elif f != 0.0:
            rel_dev = 100.0 * abs(f_legacy - f) / abs(f)
        rows.append(ForceSweepRow(v, gm, f, gm_legacy, f_legacy, rel_dev, exists))
    return rows


def _permeance_rows(kind: FluxTubeKind, mode: DriveMode, R: float, fixed: float, swept: list[float],
                    w: float) -> Iterator[tuple[float, float, float | None, bool]]:
    """(G_m, G_L, rel_dev, exists) of ``sweep-permeance`` at each radius in ``swept``.

    The swept radius is r_i, at v = g = 2 r_i, in the gap modes and r_o = v in
    the stroke mode; G_L takes the depth ``w`` and the quarter factor p.
    """
    a_i, b_i, a_o, b_o = _path(mode, fixed)
    p = _quarter_factors(kind, mode)[0]
    gap = mode in _GAP_MODES
    for value in swept:
        v = 2.0 * value if gap else value
        r_i, r_o = a_i * v + b_i, a_o * v + b_o
        result = permeance(kind, TorusGeometry(R, r_i, r_o))
        gm, t = result.value, r_o - r_i
        legacy = (p * legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t, r_i)).value
                  if t > 0.0 else 0.0)
        yield gm, legacy, (legacy - gm) / gm if gm != 0.0 else None, result.exists
