"""Tests of the quadrature and finite-difference oracles themselves."""

import math

import numpy as np
import pytest

from conftest import sample_geometries, solve_ro_for_eta
import toroflux.oracle
from toroflux import (
    MU0,
    BoundaryError,
    DriveMode,
    FluxTubeKind,
    Permeance,
    QuadratureConfig,
    TorusGeometry,
    UsageError,
    adaptive_simpson,
    allowed_modes,
    gradient_fd,
    permeance,
    permeance_gradient,
    permeance_quadrature,
    slice_permeance_quadrature,
)
from toroflux.oracle import central_difference


def closed_slice(geom, theta, sign):
    t = geom.r_o - geom.r_i
    return 2.0 * math.pi * MU0 * (geom.R * math.log(geom.r_o / geom.r_i) + sign * t * math.sin(theta))


GEOM = TorusGeometry(1.0, 0.2, 0.8)


def test_slice_at_theta_zero_is_sign_independent():
    plus = slice_permeance_quadrature(GEOM, 0.0, +1)
    minus = slice_permeance_quadrature(GEOM, 0.0, -1)
    expected = 2.0 * math.pi * MU0 * GEOM.R * math.log(GEOM.r_o / GEOM.r_i)
    assert plus == pytest.approx(expected, rel=1e-12)
    assert minus == pytest.approx(expected, rel=1e-12)


def test_slice_at_right_angle():
    value = slice_permeance_quadrature(GEOM, math.pi / 2, +1)
    t = GEOM.r_o - GEOM.r_i
    expected = 2.0 * math.pi * MU0 * (GEOM.R * math.log(GEOM.r_o / GEOM.r_i) + t)
    assert value == pytest.approx(expected, rel=1e-12)


def test_slice_sign_difference_is_four_pi_mu0_t():
    t = GEOM.r_o - GEOM.r_i
    diff = slice_permeance_quadrature(GEOM, math.pi / 2, +1) - slice_permeance_quadrature(
        GEOM, math.pi / 2, -1
    )
    assert diff == pytest.approx(4.0 * math.pi * MU0 * t, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, math.pi / 2, 2.5, math.pi])
@pytest.mark.parametrize("sign", [+1, -1])
def test_slice_matches_radial_antiderivative(theta, sign):
    # Validates the radial antiderivative over wide radius ratios.
    for geom in (GEOM, TorusGeometry(0.01, 1e-6, 9e-3), TorusGeometry(0.5, 0.3, 4.0)):
        value = slice_permeance_quadrature(geom, theta, sign)
        assert abs(value - closed_slice(geom, theta, sign)) / abs(closed_slice(geom, theta, sign)) <= 1e-10


def test_slice_domain_errors():
    from toroflux import DomainError

    with pytest.raises(DomainError):
        slice_permeance_quadrature(GEOM, -0.1, +1)
    with pytest.raises(DomainError):
        slice_permeance_quadrature(GEOM, 4.0, +1)
    with pytest.raises(DomainError):
        slice_permeance_quadrature(GEOM, 1.0, 2)
    with pytest.raises(DomainError):
        slice_permeance_quadrature(TorusGeometry(1.0, 0.3, 0.3), 1.0, +1)


def test_adaptive_simpson_known_integrals():
    value, ok = adaptive_simpson(np.sin, 0.0, math.pi, rel_tol=1e-13)
    assert ok and value == pytest.approx(2.0, rel=1e-12)
    # int_0^pi dtheta / (2 + sin theta) = 2 pi / (3 sqrt(3)) by the eta > 1 primitive
    value, ok = adaptive_simpson(lambda th: 1.0 / (2.0 + np.sin(th)), 0.0, math.pi, rel_tol=1e-13)
    assert ok and value == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-12)


def test_adaptive_simpson_tolerance_self_consistency():
    f = lambda th: 1.0 / (1.01 - np.sin(th))
    for tol in (1e-6, 1e-8, 1e-10):
        coarse, ok1 = adaptive_simpson(f, 0.0, math.pi, rel_tol=tol)
        fine, ok2 = adaptive_simpson(f, 0.0, math.pi, rel_tol=tol / 2)
        assert ok1 and ok2
        assert abs(coarse - fine) <= tol * abs(fine)


def test_adaptive_simpson_reports_nonconvergence():
    f = lambda x: 1.0 / (1e-7 + (x - 0.5) ** 2)
    value, ok = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-12, max_depth=10)
    assert not ok
    assert math.isfinite(value)  # best effort value, never silently dropped


def test_adaptive_simpson_vector_integrand_per_column():
    etas = np.array([1.01, 2.0, 50.0])
    values, ok = adaptive_simpson(lambda th: 1.0 / (etas + np.sin(th)[:, None]), 0.0, math.pi)
    assert values.shape == (3,) and list(ok) == [True, True, True]
    for eta, value in zip(etas, values):
        root = math.sqrt(eta * eta - 1.0)
        assert value == pytest.approx(2.0 * math.atan(root) / root, rel=1e-12)


def test_adaptive_simpson_flags_only_the_column_that_fails():
    def f(x):
        return np.stack([np.sin(x), 1.0 / (1e-7 + (x - 0.5) ** 2), x * x], axis=1)

    values, ok = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-12, max_depth=10)
    assert list(ok) == [True, False, True]
    assert not ok  # the batch as a whole did not converge
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)
    assert values[2] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_adaptive_simpson_scalar_integrand_returns_float_and_bool():
    value, ok = adaptive_simpson(np.sin, 0.0, math.pi)
    assert type(value) is float and type(ok) is bool


def test_adaptive_simpson_bad_bounds():
    with pytest.raises(UsageError):
        adaptive_simpson(np.sin, 1.0, 1.0)


def test_quadrature_config_validation():
    with pytest.raises(UsageError):
        QuadratureConfig(rel_tol=0.1)
    with pytest.raises(UsageError):
        QuadratureConfig(max_depth=5)


def test_quadrature_rejects_nonexistent_tube():
    with pytest.raises(UsageError):
        permeance_quadrature(FluxTubeKind.INNER_HALF, TorusGeometry(1.0, 0.3, 0.3))
    with pytest.raises(UsageError):
        permeance_quadrature(FluxTubeKind.INNER_HALF, TorusGeometry(1.0, 0.3, 1.2))


@pytest.mark.parametrize("kind", list(FluxTubeKind))
def test_quadrature_batch_matches_single_geometry_calls(kind):
    geoms = sample_geometries(kind, 40, seed=505)  # more than one internal batch
    batch = permeance_quadrature(kind, geoms)
    assert len(batch) == len(geoms)
    for geom, report in zip(geoms, batch):
        single = permeance_quadrature(kind, geom)
        assert report.closed_form == single.closed_form
        assert report.converged and single.converged
        assert abs(report.quadrature - single.quadrature) <= 1e-12 * single.quadrature


def test_quadrature_batch_with_a_nonexistent_tube_is_usage_error():
    geoms = [TorusGeometry(1.0, 0.2, 0.8), TorusGeometry(1.0, 0.3, 1.2)]
    with pytest.raises(UsageError):
        permeance_quadrature(FluxTubeKind.INNER_HALF, geoms)


def test_quadrature_empty_batch():
    assert permeance_quadrature(FluxTubeKind.OUTER_HALF, []) == []


@pytest.mark.parametrize("kind", list(FluxTubeKind))
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9])
def test_quadrature_rel_error_is_scale_free(monkeypatch, kind, scale):
    real = toroflux.oracle._closed_permeance

    def perturbed(k, g):
        result = real(k, g)
        return Permeance(result.value * (1.0 + 1e-6), result.exists)

    monkeypatch.setattr(toroflux.oracle, "_closed_permeance", perturbed)
    report = permeance_quadrature(kind, TorusGeometry(1e-2, 2e-3, 5e-3).scaled(scale))
    assert report.rel_error == pytest.approx(1e-6, rel=1e-6)


def test_quadrature_near_unit_window_outer():
    # The quadrature is branch-free: just outside the window on both sides it
    # still matches the closed form tightly while the branch switches.
    R, r_i = 2.0, 1.0
    for target in (1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 2e-6, 1.0 - 2e-6):
        geom = TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, target))
        report = permeance_quadrature(FluxTubeKind.OUTER_HALF, geom)
        assert report.converged
        assert report.rel_error <= 1e-8


def test_quadrature_quarter_series_composition():
    for geom in sample_geometries(FluxTubeKind.LOWER_HALF, 20, seed=303):
        r_iq = 1.0 / permeance_quadrature(FluxTubeKind.INNER_QUARTER, geom).quadrature
        r_oq = 1.0 / permeance_quadrature(FluxTubeKind.OUTER_QUARTER, geom).quadrature
        r_lh = 1.0 / permeance_quadrature(FluxTubeKind.LOWER_HALF, geom).quadrature
        assert r_lh == pytest.approx(r_iq + r_oq, rel=1e-10)


@pytest.mark.parametrize("kind", [FluxTubeKind.INNER_HALF, FluxTubeKind.OUTER_HALF])
def test_planar_limit_approached_monotonically(kind):
    # As R/t grows the wrapped-cylinder value is approached from below for the
    # inner tube and from above for the outer one (the -+arccot term).
    r_i, r_o = 1e-3, 1e-2
    t = r_o - r_i
    ratios = []
    for over_t in (10.0, 1e2, 1e3, 1e4, 1e5):
        R = over_t * t
        geom = TorusGeometry(R, r_i, r_o)
        exact = permeance(kind, geom).value
        legacy = MU0 * 2.0 * R * math.log(r_o / r_i)  # w = 2 pi R form
        ratios.append(exact / legacy)
    if kind is FluxTubeKind.INNER_HALF:
        assert all(r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
    else:
        assert all(r > 1.0 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) < 1e-4


def test_central_difference_is_second_order():
    geom = TorusGeometry(1.0, 0.2, 0.8)

    def perm_at_gap(g):
        return permeance(FluxTubeKind.INNER_HALF, TorusGeometry(1.0, g / 2.0, 0.8)).value

    g0 = 2.0 * geom.r_i
    truth = gradient_fd(FluxTubeKind.INNER_HALF, DriveMode.CONST_OUTER_RADIUS, geom, h=1e-6 * g0)
    errors = [abs(central_difference(perm_at_gap, g0, h) - truth) for h in (4e-3, 2e-3, 1e-3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_gradient_fd_matches_analytic_on_random_geometries():
    for kind, mode in [
        (FluxTubeKind.INNER_HALF, DriveMode.CONST_OUTER_RADIUS),
        (FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS),
        (FluxTubeKind.OUTER_QUARTER, DriveMode.CONST_INNER_RADIUS),
    ]:
        for geom in sample_geometries(kind, 25, seed=404):
            analytic = permeance_gradient(kind, mode, geom)
            fd = gradient_fd(kind, mode, geom)
            assert abs(analytic - fd) / abs(fd) <= 1e-6


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_gradient_fd_default_step_is_scale_free(scale):
    geom = TorusGeometry(1e-2, 2e-3, 5e-3).scaled(scale)
    for kind in FluxTubeKind:
        for mode in allowed_modes(kind):
            analytic = permeance_gradient(kind, mode, geom)
            fd = gradient_fd(kind, mode, geom)
            assert abs(analytic - fd) / abs(fd) <= 1e-6, (kind, mode)


def test_gradient_fd_double_oracle_near_window():
    # FD of the branch formulas vs FD of the (branch-free) quadrature
    # permeance, just outside the unit window.
    R, r_i = 2.0, 1.0
    cfg = QuadratureConfig()

    def quad_perm(kind, geom):
        return permeance_quadrature(kind, geom, cfg).quadrature

    for target in (1.0 + 1e-4, 1.0 - 1e-4):
        geom = TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, target))
        h = 1e-4 * 2.0 * geom.r_i
        fd_closed = gradient_fd(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom, h=h)
        fd_quad = gradient_fd(
            FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom, h=h, permeance_fn=quad_perm
        )
        assert abs(fd_closed - fd_quad) / abs(fd_quad) <= 1e-6


def test_gradient_fd_refuses_existence_straddle():
    geom = TorusGeometry(1.0, 0.8 * (1.0 - 1e-8), 0.8)
    with pytest.raises(BoundaryError):
        gradient_fd(FluxTubeKind.INNER_HALF, DriveMode.CONST_OUTER_RADIUS, geom)


def test_gradient_fd_quadruple_convention_for_quarters():
    geom = TorusGeometry(1.0, 0.2, 0.8)
    half_fd = gradient_fd(FluxTubeKind.INNER_HALF, DriveMode.CONST_THICKNESS, geom)
    quarter_fd = gradient_fd(FluxTubeKind.INNER_QUARTER, DriveMode.CONST_THICKNESS, geom)
    assert quarter_fd == pytest.approx(4.0 * half_fd, rel=1e-9)
