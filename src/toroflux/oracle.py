"""Independent numerical verification of the closed forms.

The reluctance of a half torus is, up to the prefactor 1/(2 pi mu0 t), the
integral of 1/(eta +- sin theta) over theta in [0, pi] (plus sign for outer
tubes, minus for inner ones); a quarter torus integrates over its quarter
range, and the lower half composes the two quarter reluctances in series.
This module evaluates that integral by adaptive Simpson quadrature from the
raw radii (sharing no derived quantities with the code under test) and
provides Richardson-extrapolated central differences as the gradient oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .core import (
    MU0,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    UsageError,
    validate,
)
from .force import DriveMode, _check_mode, _geometry_at
from .permeance import permeance as _closed_permeance

# numpy is imported inside the functions that compute with arrays, so that
# importing the package (and the scalar CLI commands) does not load it.
if TYPE_CHECKING:
    import numpy as np


class BoundaryError(ValueError):
    """A finite-difference stencil would straddle an existence boundary."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive Simpson settings: relative tolerance and recursion cap."""

    rel_tol: float = 1.0e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0e-3):
            raise UsageError(f"rel_tol must be in (0, 1e-3), got {self.rel_tol!r}")
        if self.max_depth < 10:
            raise UsageError(f"max_depth must be >= 10, got {self.max_depth!r}")


@dataclass(frozen=True)
class OracleReport:
    """Closed form vs quadrature for one tube, with the relative error between them."""

    closed_form: float
    quadrature: float
    rel_error: float
    converged: bool


@functools.cache
def _flags_type() -> type:
    # Per-column convergence flags whose truth value, like the scalar flag's,
    # says whether the whole integral converged, so callers that test
    # ``not converged`` keep working (a plain array of several flags refuses
    # a truth value).  Built on first use: numpy is only imported where
    # arrays are computed.
    import numpy as np

    class ConvergedFlags(np.ndarray):
        def __bool__(self) -> bool:
            return bool(np.asarray(self).all())

    return ConvergedFlags


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1.0e-12,
    max_depth: int = 60,
) -> tuple[float, bool] | tuple[np.ndarray, np.ndarray]:
    """Adaptive Simpson integration of a vectorized integrand on [a, b].

    Args:
        f: Integrand mapping an array of m abscissae to an array of m values,
            or to an (m, n) array of n integrands sampled at those abscissae.
        a: Lower bound.
        b: Upper bound (must exceed ``a``).
        rel_tol: Target error relative to a coarse estimate of the integral,
            per column for an (m, n) integrand.
        max_depth: Subdivision levels allowed below the 16-panel seed grid.

    Returns:
        Tuple of (integral, converged): a float and a bool, or for an (m, n)
        integrand an array of n integrals and an array of n flags, whose
        truth value is True only when every column converged.  A flag is
        False when some subinterval hit ``max_depth`` before meeting that
        column's error share; the best available estimate is still returned,
        never silently dropped.

    Each pending subinterval carries a Richardson error estimate
    (S_halves - S_whole)/15 per column, against a budget of rel_tol |coarse|
    / 16 per seed panel that halves per split.  An interval is split while
    any column misses its share, so the columns share one mesh, and every
    interval pending at a level has the same width and budget.  All pending
    subintervals are refined together as numpy arrays.
    """
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise UsageError(f"bad integration bounds [{a!r}, {b!r}]")
    import numpy as np

    n0 = 16
    x = np.linspace(a, b, 2 * n0 + 1)
    fx = f(x)
    left = x[0:-1:2]
    width = (b - a) / n0
    fa, fm, fb = fx[0:-1:2], fx[1::2], fx[2::2]
    S = width / 6.0 * (fa + 4.0 * fm + fb)
    rough = S.sum(axis=0)
    tol = rel_tol * np.maximum(np.abs(rough), np.finfo(float).tiny) / n0

    total = 0.0
    converged = np.ones(fx.shape[1:], dtype=bool)
    for depth in range(max_depth):
        half = 0.5 * width
        fml = f(left + 0.25 * width)
        fmr = f(left + 0.75 * width)
        S_l = half / 6.0 * (fa + 4.0 * fml + fm)
        S_r = half / 6.0 * (fm + 4.0 * fmr + fb)
        S2 = S_l + S_r
        err = (S2 - S) / 15.0
        met = np.abs(err) <= tol
        if depth == max_depth - 1:
            accept = np.ones(len(err), dtype=bool)
            converged = met.all(axis=0)
        else:
            accept = met if met.ndim == 1 else met.all(axis=1)
        total = total + (S2[accept] + err[accept]).sum(axis=0)
        keep = ~accept
        if not keep.any():
            break
        left = np.concatenate([left[keep], left[keep] + half])
        width = half
        fa, fb = np.concatenate([fa[keep], fm[keep]]), np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([fml[keep], fmr[keep]])
        S = np.concatenate([S_l[keep], S_r[keep]])
        tol = 0.5 * tol
    if fx.ndim == 1:
        return float(total), bool(converged)
    return total, converged.view(_flags_type())


_QUARTER_RANGES = {
    FluxTubeKind.INNER_HALF: (-1.0, 0.0, math.pi),
    FluxTubeKind.OUTER_HALF: (+1.0, 0.0, math.pi),
    FluxTubeKind.INNER_QUARTER: (-1.0, 0.0, 0.5 * math.pi),
    FluxTubeKind.OUTER_QUARTER: (+1.0, 0.5 * math.pi, math.pi),
}

_BATCH = 32
"""Geometries integrated in one adaptive pass.  The common mesh grows with the
batch's hardest member, so bounding the batch bounds the memory it holds."""


def _reluctance_quadrature(
    geoms: Sequence[TorusGeometry], sign: float, a: float, b: float, cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    # Independent of derive(): eta from raw radii, plain log.
    t = np.array([g.r_o - g.r_i for g in geoms])
    eta = np.array([(g.R / (g.r_o - g.r_i)) * math.log(g.r_o / g.r_i) for g in geoms])

    def integrand(theta: np.ndarray) -> np.ndarray:
        return 1.0 / (eta + sign * np.sin(theta)[:, None])

    integral, ok = adaptive_simpson(integrand, a, b, cfg.rel_tol, cfg.max_depth)
    return integral / (2.0 * math.pi * MU0 * t), ok


def _batch_reports(
    kind: FluxTubeKind, geoms: Sequence[TorusGeometry], cfg: QuadratureConfig
) -> list[OracleReport]:
    if kind is FluxTubeKind.LOWER_HALF:
        r_in, ok_in = _reluctance_quadrature(geoms, -1.0, 0.0, 0.5 * math.pi, cfg)
        r_out, ok_out = _reluctance_quadrature(geoms, +1.0, 0.5 * math.pi, math.pi, cfg)
        quad = 1.0 / (r_in + r_out)
        ok = ok_in & ok_out
    else:
        sign, a, b = _QUARTER_RANGES[kind]
        rm, ok = _reluctance_quadrature(geoms, sign, a, b, cfg)
        quad = 1.0 / rm
    reports = []
    for geom, q, converged in zip(geoms, quad.tolist(), ok.tolist()):
        closed = _closed_permeance(kind, geom).value
        reports.append(OracleReport(closed_form=closed, quadrature=q,
                                    rel_error=abs(closed - q) / abs(q), converged=converged))
    return reports


def permeance_quadrature(
    kind: FluxTubeKind,
    geom: TorusGeometry | Sequence[TorusGeometry],
    cfg: QuadratureConfig | None = None,
) -> OracleReport | list[OracleReport]:
    """Quadrature permeance of the tube, compared against the closed form.

    Given a sequence of geometries, returns one report per geometry, in
    order.  They are integrated in batches on a common mesh, refined until
    every member meets its own tolerance, and each report carries its own
    ``converged`` flag.  A single geometry is a batch of one.

    The degenerate/vanished tube has an undefined integrand, so a
    nonexistent (kind, geometry) pair is a usage error here, unlike in the
    closed-form module; one in a sequence fails the whole call.
    """
    cfg = cfg or QuadratureConfig()
    single = isinstance(geom, TorusGeometry)
    geoms = [geom] if single else list(geom)
    for g in geoms:
        rep = validate(kind, g)
        if not rep.exists:
            raise UsageError(f"quadrature needs an existing tube: {rep.reason}")
    reports: list[OracleReport] = []
    for i in range(0, len(geoms), _BATCH):
        reports += _batch_reports(kind, geoms[i:i + _BATCH], cfg)
    return reports[0] if single else reports


def slice_permeance_quadrature(geom: TorusGeometry, theta: float, sign: int) -> float:
    """Permeance density [H/rad] of one polar slice, by radial quadrature.

    Integrates 2 pi mu0 (R/r + sign sin theta) dr over [r_i, r_o] with
    composite Gauss-Legendre on geometrically spaced panels, validating the
    radial antiderivative 2 pi mu0 (R ln(r_o/r_i) + sign t sin theta)
    independently of the polar integration step.
    """
    if not (math.isfinite(theta) and 0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if geom.r_o <= geom.r_i:
        raise DomainError("slice quadrature needs r_o > r_i")
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.geomspace(geom.r_i, geom.r_o, 13)
    total = 0.0
    s = math.sin(theta)
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        vals = geom.R / r + sign * s
        total += 0.5 * (hi - lo) * float(np.dot(weights, vals))
    return 2.0 * math.pi * MU0 * total


def _fixed_and_driving(mode: DriveMode, geom: TorusGeometry) -> tuple[float, float]:
    # The quantity the mode holds constant, and the swept gap or stroke.
    if mode is DriveMode.CONST_INNER_RADIUS:
        return geom.r_i, geom.r_o
    fixed = geom.r_o if mode is DriveMode.CONST_OUTER_RADIUS else geom.r_o - geom.r_i
    return fixed, 2.0 * geom.r_i


def central_difference(
    fn: Callable[[float], float], v: float, h: float
) -> float:
    """Plain order-2 central difference (f(v+h) - f(v-h)) / (2h)."""
    return (fn(v + h) - fn(v - h)) / (2.0 * h)


def gradient_fd(
    kind: FluxTubeKind,
    mode: DriveMode,
    geom: TorusGeometry,
    h: float | None = None,
    permeance_fn: Callable[[FluxTubeKind, TorusGeometry], float] | None = None,
) -> float:
    """Finite-difference estimate of the same quantity as ``permeance_gradient``.

    One Richardson level over central differences, (4 D(h/2) - D(h)) / 3,
    lifting the plain stencil's observed order-2 convergence to order 4.
    The default step is 1e-6 of the driving variable v (gap or stroke): a
    fixed fraction, with no floor in metres, so the stencil scales with the
    tube and balances truncation against cancellation at every size.

    For quarter tubes in a gap mode the differenced quarter permeance yields
    twice the half-tube gradient, while the force-effective gradient is four
    times it; the result is doubled to account for that stroke-vs-gap
    bookkeeping.  ``permeance_fn`` may replace the closed-form permeance,
    e.g. with the quadrature permeance for a double-oracle comparison.

    Raises :class:`BoundaryError` when any stencil point would cross an
    existence boundary relative to the base geometry.
    """
    _check_mode(kind, mode)
    if permeance_fn is None:
        permeance_fn = lambda k, g: _closed_permeance(k, g).value
    fixed, v = _fixed_and_driving(mode, geom)
    if h is None:
        h = 1.0e-6 * v
    base_exists = validate(kind, geom).exists
    for dv in (-h, -0.5 * h, 0.5 * h, h):
        probe = _geometry_at(mode, geom.R, fixed, v + dv)
        if validate(kind, probe).exists != base_exists:
            raise BoundaryError(
                f"stencil straddles an existence boundary at {mode.value} value {v + dv!r}"
            )

    def perm_at(value: float) -> float:
        return permeance_fn(kind, _geometry_at(mode, geom.R, fixed, value))

    d_h = central_difference(perm_at, v, h)
    d_h2 = central_difference(perm_at, v, 0.5 * h)
    estimate = (4.0 * d_h2 - d_h) / 3.0
    if kind.is_quarter and mode is not DriveMode.CONST_INNER_RADIUS:
        estimate *= 2.0
    return estimate
