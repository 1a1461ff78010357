"""Tests for the closed-form permeances and the legacy approximations."""

import math

import pytest
from hypothesis import given, settings

from conftest import HALF_KINDS, QUARTER_OF, geometry_strategy, sample_geometries, solve_ro_for_eta
from toroflux import (
    MU0,
    BranchCase,
    DomainError,
    FluxTubeKind,
    LegacyCylinderSpec,
    TorusGeometry,
    allowed_modes,
    derive,
    force,
    legacy_half_hollow_cylinder,
    permeance,
    permeance_quadrature,
    reluctance,
)


@pytest.mark.parametrize("half", HALF_KINDS)
def test_quarter_is_exactly_twice_half(half):
    quarter = QUARTER_OF[half]
    for geom in sample_geometries(half, 50, seed=101):
        assert permeance(quarter, geom).value == 2.0 * permeance(half, geom).value


def test_outer_half_unit_branch_returns_gm0():
    # Geometry with eta = 1, found by bisection on eta(r_o) - 1.
    R, r_i = 2.0, 1.0
    r_o = solve_ro_for_eta(R, r_i, 1.0)
    assert 3.51 < r_o < 3.52
    geom = TorusGeometry(R, r_i, r_o)
    d = derive(geom)
    assert d.branch is BranchCase.UNIT
    assert permeance(FluxTubeKind.OUTER_HALF, geom).value == d.gm0
    assert permeance(FluxTubeKind.OUTER_QUARTER, geom).value == 2.0 * d.gm0


def test_inner_tube_vanishes_as_radii_merge():
    R, r_o = 1.0, 0.8
    values = []
    for k in range(2, 9):
        geom = TorusGeometry(R, r_o * (1.0 - 10.0**-k), r_o)
        values.append(permeance(FluxTubeKind.INNER_HALF, geom).value)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12
    degenerate = permeance(FluxTubeKind.INNER_HALF, TorusGeometry(R, r_o, r_o))
    assert degenerate.value == 0.0 and not degenerate.exists
    assert reluctance(FluxTubeKind.INNER_HALF, TorusGeometry(R, r_o, r_o)) == math.inf


def test_nonexistent_tube_degenerate_result():
    inner_too_wide = permeance(FluxTubeKind.INNER_HALF, TorusGeometry(1.0, 0.2, 1.1))
    assert inner_too_wide.value == 0.0 and not inner_too_wide.exists
    swept_past = permeance(FluxTubeKind.OUTER_HALF, TorusGeometry(1.0, 0.4, 0.3))
    assert swept_past.value == 0.0 and not swept_past.exists


def test_inner_half_agrees_with_quadrature_spec_point():
    geom = TorusGeometry(1e-3, 1e-5, 8e-4)
    assert permeance_quadrature(FluxTubeKind.INNER_HALF, geom).rel_error <= 1e-9


def test_lower_half_requires_eta_above_one():
    with pytest.raises(DomainError):
        permeance(FluxTubeKind.LOWER_HALF, TorusGeometry(1.0, 1.0, 2.0))


def test_lower_half_super_value():
    geom = TorusGeometry(1.0, 0.2, 0.8)
    d = derive(geom)
    expected = d.gm0 * math.sqrt(d.eta**2 - 1.0) / (math.pi / 2)
    assert permeance(FluxTubeKind.LOWER_HALF, geom).value == pytest.approx(expected, rel=1e-15)


def test_reluctance_reciprocal_and_series():
    geom = TorusGeometry(1.0, 0.2, 0.8)
    g_lh = permeance(FluxTubeKind.LOWER_HALF, geom).value
    assert reluctance(FluxTubeKind.LOWER_HALF, geom) == pytest.approx(1.0 / g_lh, rel=1e-15)
    for geom in sample_geometries(FluxTubeKind.LOWER_HALF, 100, seed=202):
        series = reluctance(FluxTubeKind.INNER_QUARTER, geom) + reluctance(
            FluxTubeKind.OUTER_QUARTER, geom
        )
        assert reluctance(FluxTubeKind.LOWER_HALF, geom) == pytest.approx(series, rel=1e-12)


def test_reluctance_plain_reciprocal_example():
    # G_m = 2e-9 H corresponds to 5e8 1/H
    assert 1.0 / 2e-9 == pytest.approx(5e8, rel=1e-15)


@pytest.mark.parametrize("kind,factor", [
    (FluxTubeKind.OUTER_HALF, 1.0),
    (FluxTubeKind.OUTER_QUARTER, 2.0),
])
@pytest.mark.parametrize("delta", [1e-3, 1e-4])
def test_branch_continuity_of_permeance(kind, factor, delta):
    # Either branch evaluated at eta = 1 +- delta stays within ~2*delta of the
    # unit value G_m0 (Taylor residual eps^2/3 with eps^2 ~ 2 delta).
    R, r_i = 0.02, 0.01
    for sign in (+1.0, -1.0):
        r_o = solve_ro_for_eta(R, r_i, 1.0 + sign * delta)
        geom = TorusGeometry(R, r_i, r_o)
        d = derive(geom)
        assert d.branch is (BranchCase.SUPER if sign > 0 else BranchCase.SUB)
        unit_value = factor * d.gm0
        dev = abs(permeance(kind, geom).value - unit_value) / unit_value
        assert dev <= 2.0 * delta * 1.1


@pytest.mark.parametrize("kind", [
    FluxTubeKind.INNER_HALF,
    FluxTubeKind.OUTER_HALF,
    FluxTubeKind.LOWER_HALF,
])
def test_permeance_monotone_in_outer_radius(kind, n=40):
    R, r_i = 1.0, 0.05
    r_max = 0.999 if not kind.is_outer else 5.0
    values = []
    for i in range(n):
        r_o = r_i + (r_max - r_i) * (i + 1) / n
        values.append(permeance(kind, TorusGeometry(R, r_i, r_o)).value)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_legacy_example_value():
    spec = LegacyCylinderSpec(w=0.01, t=0.005, r_i=0.005)
    value = legacy_half_hollow_cylinder(spec).value
    assert value == pytest.approx(MU0 * 0.01 * math.log(2.0) / math.pi, rel=1e-15)
    assert value == pytest.approx(2.772e-9, rel=5e-4)


@settings(max_examples=50)
@given(geom=geometry_strategy(FluxTubeKind.OUTER_HALF))
def test_legacy_with_pole_circumference_equals_normalized_form(geom):
    # mu0 (2 pi R) / pi * ln(1 + t/r_i) is G_m0 * eta / (pi/2) of the torus.
    d = derive(geom)
    legacy = legacy_half_hollow_cylinder(
        LegacyCylinderSpec(2.0 * math.pi * geom.R, d.t, geom.r_i)
    ).value
    assert legacy == pytest.approx(d.gm0 * d.eta / (math.pi / 2), rel=1e-13)


def test_legacy_vanishing_thickness():
    assert legacy_half_hollow_cylinder(LegacyCylinderSpec(0.01, 0.0, 0.005)).value == 0.0


@pytest.mark.parametrize("w,t,r_i", [(-1.0, 0.1, 0.1), (0.0, 0.1, 0.1),
                                     (1.0, -0.1, 0.1), (1.0, 0.1, 0.0),
                                     (math.nan, 0.1, 0.1)])
def test_legacy_rejects_bad_spec(w, t, r_i):
    with pytest.raises(DomainError):
        LegacyCylinderSpec(w, t, r_i)


@pytest.mark.parametrize("kind", HALF_KINDS)
def test_legacy_asymptote_at_large_eta(kind):
    # R/t = 1e4 with r_o/r_i = 10: the wrapped-cylinder formula agrees to 1e-4.
    r_i, r_o = 1e-3, 1e-2
    R = 1e4 * (r_o - r_i)
    geom = TorusGeometry(R, r_i, r_o)
    exact = permeance(kind, geom).value
    legacy = legacy_half_hollow_cylinder(
        LegacyCylinderSpec(2.0 * math.pi * R, r_o - r_i, r_i)
    ).value
    assert abs(exact - legacy) / exact <= 1e-4


@settings(max_examples=50)
@given(geom=geometry_strategy(FluxTubeKind.OUTER_HALF))
def test_permeance_nonnegative_and_flagged(geom):
    result = permeance(FluxTubeKind.OUTER_HALF, geom)
    assert result.exists and result.value > 0.0


@pytest.mark.parametrize("geom", [TorusGeometry(1.0, 1e-160, 2e-160),
                                  TorusGeometry(1e300, 1.0, 2.0)])
@pytest.mark.parametrize("kind", list(FluxTubeKind))
def test_huge_eta_stays_finite(geom, kind):
    # eta = 6.9e159 and 6.9e299: eta^2 overflows, yet the tube is its legacy
    # limit, p 2 mu0 R ln(r_o/r_i), and every force stays finite.
    p = 2.0 if kind.is_quarter else 1.0
    expected = p * 2.0 * MU0 * geom.R * math.log(geom.r_o / geom.r_i)
    value = permeance(kind, geom).value
    assert math.isfinite(value)
    assert abs(value - expected) <= 1e-15 * expected
    for mode in allowed_modes(kind):
        assert math.isfinite(force(1.0, kind, mode, geom).F)
