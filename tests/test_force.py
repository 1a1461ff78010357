"""Tests for the analytic gradients, the force law, and the sweep harness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HALF_KINDS, QUARTER_OF, geometry_strategy, sample_geometries, solve_ro_for_eta
from toroflux import (
    GM_FLOOR,
    ActuatorSweepSpec,
    BranchCase,
    DomainError,
    DriveMode,
    FluxTubeKind,
    TorusGeometry,
    UsageError,
    allowed_modes,
    derive,
    force,
    gradient_fd,
    legacy_gradient,
    permeance,
    permeance_gradient,
    sweep_force,
    validate,
)
from toroflux.oracle import _fixed_and_driving

GAP_MODES = (DriveMode.CONST_OUTER_RADIUS, DriveMode.CONST_THICKNESS)
GAP_KINDS = [FluxTubeKind.INNER_HALF, FluxTubeKind.OUTER_HALF, FluxTubeKind.INNER_QUARTER,
             FluxTubeKind.OUTER_QUARTER]


def test_allowed_mode_table():
    assert allowed_modes(FluxTubeKind.INNER_HALF) == frozenset(GAP_MODES)
    assert allowed_modes(FluxTubeKind.OUTER_HALF) == frozenset(GAP_MODES)
    assert allowed_modes(FluxTubeKind.INNER_QUARTER) == frozenset(DriveMode)
    assert allowed_modes(FluxTubeKind.OUTER_QUARTER) == frozenset(DriveMode)
    assert allowed_modes(FluxTubeKind.LOWER_HALF) == frozenset()


def test_disallowed_pairs_raise():
    geom = TorusGeometry(1.0, 0.2, 0.8)
    for mode in DriveMode:
        with pytest.raises(UsageError):
            permeance_gradient(FluxTubeKind.LOWER_HALF, mode, geom)
        with pytest.raises(UsageError):
            force(1.0, FluxTubeKind.LOWER_HALF, mode, geom)
    for kind in HALF_KINDS:
        with pytest.raises(UsageError):
            permeance_gradient(kind, DriveMode.CONST_INNER_RADIUS, geom)


def _unit_geometry(R=0.02, r_i=0.01):
    return TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0))


def test_unit_limit_outer_half_const_thickness():
    geom = _unit_geometry()
    d = derive(geom)
    assert d.branch is BranchCase.UNIT
    expected = -d.gm0 * geom.R / (3.0 * geom.r_i * geom.r_o)
    assert permeance_gradient(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom) == expected


def test_unit_limit_outer_half_const_outer_radius():
    geom = _unit_geometry()
    d = derive(geom)
    expected = -(d.gm0 / (2.0 * d.t)) * (1.0 + 2.0 * geom.R / geom.r_i) / 3.0
    assert permeance_gradient(FluxTubeKind.OUTER_HALF, DriveMode.CONST_OUTER_RADIUS, geom) == expected


def test_unit_limit_outer_quarter_const_inner_radius():
    geom = _unit_geometry()
    d = derive(geom)
    expected = (2.0 * d.gm0 / d.t) * (1.0 + (2.0 / 3.0) * (geom.R / geom.r_o - 1.0))
    assert permeance_gradient(FluxTubeKind.OUTER_QUARTER, DriveMode.CONST_INNER_RADIUS, geom) == expected


@settings(max_examples=60, deadline=None)
@given(geom=geometry_strategy(FluxTubeKind.INNER_QUARTER))
def test_inner_quarter_stroke_gradient_is_positive(geom):
    # Pushing the plunger in grows the tube: this flux tube by itself pushes out.
    assert permeance_gradient(FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS, geom) > 0.0


@pytest.mark.parametrize("kind", [FluxTubeKind.INNER_HALF, FluxTubeKind.OUTER_HALF,
                                  FluxTubeKind.INNER_QUARTER, FluxTubeKind.OUTER_QUARTER])
@pytest.mark.parametrize("mode", GAP_MODES)
def test_gap_mode_gradients_nonpositive(kind, mode):
    for geom in sample_geometries(kind, 60, seed=505):
        assert permeance_gradient(kind, mode, geom) <= 0.0


@pytest.mark.parametrize("kind", [FluxTubeKind.INNER_QUARTER, FluxTubeKind.OUTER_QUARTER])
def test_stroke_gradients_nonnegative(kind):
    for geom in sample_geometries(kind, 60, seed=506):
        assert permeance_gradient(kind, DriveMode.CONST_INNER_RADIUS, geom) >= 0.0


@pytest.mark.parametrize("half", HALF_KINDS)
@pytest.mark.parametrize("mode", GAP_MODES)
def test_quadruple_rule_is_exact(half, mode):
    quarter = QUARTER_OF[half]
    for geom in sample_geometries(half, 40, seed=507):
        assert permeance_gradient(quarter, mode, geom) == 4.0 * permeance_gradient(half, mode, geom)


def _assert_quarter_is_an_exact_multiple(half, geom):
    quarter = QUARTER_OF[half]
    assert permeance(quarter, geom).value == 2.0 * permeance(half, geom).value
    for mode in GAP_MODES:
        assert permeance_gradient(quarter, mode, geom) == 4.0 * permeance_gradient(half, mode, geom)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("half", HALF_KINDS)
def test_quarter_is_bitwise_twice_its_half_and_gap_gradient_four_times(half, data):
    _assert_quarter_is_an_exact_multiple(half, data.draw(geometry_strategy(half)))


@pytest.mark.parametrize("delta", [-9e-7, -3e-7, 0.0, 2e-7, 9e-7])
@pytest.mark.parametrize("R, r_i", [(0.02, 0.01), (1.0, 0.3), (3e-4, 1e-4)])
def test_quarter_multiples_are_bitwise_in_the_unit_window(delta, R, r_i):
    geom = TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0 + delta))
    assert derive(geom).branch is BranchCase.UNIT
    _assert_quarter_is_an_exact_multiple(FluxTubeKind.OUTER_HALF, geom)
    # An inner tube reaches the window only as a thin shell just inside r_o = R.
    inner = TorusGeometry(R, R * (1.0 - 1e-7 - abs(delta)), R)
    assert derive(inner).branch is BranchCase.UNIT
    _assert_quarter_is_an_exact_multiple(FluxTubeKind.INNER_HALF, inner)


def test_vanished_tube_zero_gradient():
    vanished = TorusGeometry(1.0, 0.5, 0.4)
    degenerate = TorusGeometry(1.0, 0.5, 0.5)
    beyond_pole = TorusGeometry(1.0, 0.2, 1.5)
    for kind in (FluxTubeKind.OUTER_HALF, FluxTubeKind.OUTER_QUARTER):
        for mode in allowed_modes(kind):
            assert permeance_gradient(kind, mode, vanished) == 0.0
            assert permeance_gradient(kind, mode, degenerate) == 0.0
    for mode in allowed_modes(FluxTubeKind.INNER_HALF):
        assert permeance_gradient(FluxTubeKind.INNER_HALF, mode, beyond_pole) == 0.0


def test_vanished_tube_force_is_floored():
    res = force(2.0, FluxTubeKind.OUTER_HALF, DriveMode.CONST_OUTER_RADIUS,
                TorusGeometry(1.0, 0.5, 0.4))
    assert res.F == 0.0 and res.dGm == 0.0 and res.Gm == GM_FLOOR and not res.exists


def test_no_force_rows_stay_zero_when_half_tension_squared_overflows():
    # 1/2 vm^2 is inf at vm = 1e200, so a zero gradient must not be scaled into NaN.
    iq, stroke = FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS
    vanished = force(1e200, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS,
                     TorusGeometry(1.0, 0.5, 0.4))
    frozen = force(1e200, iq, stroke, TorusGeometry(1.0, 0.2, 1.3))
    assert (vanished.F, vanished.exists, frozen.F, frozen.exists) == (0.0, False, 0.0, True)
    spec = ActuatorSweepSpec(kind=iq, mode=stroke, R=0.01, r_i=0.004, start=0.001, stop=0.02,
                             samples=20, theta=1e200)
    rows = sweep_force(spec)
    assert all(r.force == 0.0 for r in rows if not r.exists or r.g > spec.R)
    assert any(not r.exists for r in rows) and any(r.exists and r.g > spec.R for r in rows)


def test_inner_quarter_freeze_past_pole_radius():
    geom = TorusGeometry(1.0, 0.2, 1.3)  # stroke s = r_o beyond R
    assert permeance_gradient(FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS, geom) == 0.0
    res = force(1.0, FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS, geom)
    frozen = permeance(FluxTubeKind.INNER_QUARTER, TorusGeometry(1.0, 0.2, 1.0)).value
    assert res.exists and res.F == 0.0 and res.dGm == 0.0
    assert res.Gm == frozen
    # fully vanished even at the frozen radius
    res2 = force(1.0, FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS,
                 TorusGeometry(0.1, 0.2, 0.3))
    assert not res2.exists and res2.Gm == GM_FLOOR


def test_force_agrees_bitwise_with_permeance_and_gradient():
    R, r_i = 0.02, 0.01
    geoms = [
        TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0 + 1e-3)),  # SUPER
        TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0 + 5e-7)),  # UNIT
        TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0 - 5e-7)),  # UNIT
        TorusGeometry(R, r_i, solve_ro_for_eta(R, r_i, 1.0 - 1e-3)),  # SUB
        TorusGeometry(1.0, 0.5, 0.4),  # vanished
        TorusGeometry(1.0, 0.5, 0.5),  # degenerate
        TorusGeometry(1.0, 0.2, 1.3),  # inner tubes past r_o = R; inner quarter frozen
        TorusGeometry(0.1, 0.2, 0.3),  # frozen inner quarter vanished too
    ]
    assert {derive(g).branch for g in geoms[:4]} == set(BranchCase)
    for kind in FluxTubeKind:
        for mode in allowed_modes(kind):
            for geom in geoms + sample_geometries(kind, 20, seed=508):
                res = force(1.5, kind, mode, geom)
                if kind.is_inner and mode is DriveMode.CONST_INNER_RADIUS and geom.r_o > geom.R:
                    frozen = TorusGeometry(geom.R, geom.r_i, geom.R)
                    expected_gm = permeance(kind, frozen).value if geom.R > geom.r_i else 0.0
                else:
                    expected_gm = permeance(kind, geom).value
                assert res.Gm == max(expected_gm, GM_FLOOR)
                assert res.dGm == permeance_gradient(kind, mode, geom)


@settings(max_examples=40, deadline=None)
@given(geom=geometry_strategy(FluxTubeKind.OUTER_HALF),
       vm=st.floats(min_value=0.0, max_value=1e3))
def test_force_law_identities(geom, vm):
    res = force(vm, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom)
    assert res.F == 0.5 * vm * vm * res.dGm
    mirrored = force(-vm, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom)
    assert mirrored.F == res.F
    if vm == 0.0:
        assert res.F == 0.0


def test_force_example_matches_fd_oracle():
    geom = TorusGeometry(0.01, 0.001, 0.011)  # t = R = 10 mm at g = 2 mm
    res = force(1.0, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom)
    fd = gradient_fd(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom)
    assert res.F == pytest.approx(0.5 * fd, rel=1e-6)


def test_legacy_gradient_against_fd():
    w, t = 0.05, 0.004
    for g in (0.001, 0.01, 0.1):
        h = 1e-7 * g
        from toroflux import LegacyCylinderSpec, legacy_half_hollow_cylinder

        def legacy_at(gap):
            return legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t, gap / 2.0)).value

        fd = (legacy_at(g + h) - legacy_at(g - h)) / (2.0 * h)
        fd2 = (legacy_at(g + h / 2) - legacy_at(g - h / 2)) / h
        richardson = (4.0 * fd2 - fd) / 3.0
        assert legacy_gradient(w, t, g) == pytest.approx(richardson, rel=1e-8)


def test_legacy_gradient_sign_and_limits():
    magnitudes = [abs(legacy_gradient(0.05, t, 0.02)) for t in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[-1] < 1e-15
    for t in (1e-4, 1e-2, 1.0):
        assert legacy_gradient(0.05, t, 0.02) < 0.0
    with pytest.raises(DomainError):
        legacy_gradient(-0.05, 1e-3, 0.02)
    with pytest.raises(DomainError):
        legacy_gradient(0.05, 1e-3, 0.0)


def reference_spec(samples=200, theta=1.0):
    return ActuatorSweepSpec(
        kind=FluxTubeKind.OUTER_HALF,
        mode=DriveMode.CONST_THICKNESS,
        R=0.01,
        t=0.01,
        theta=theta,
        start=0.002,
        stop=0.022,
        samples=samples,
    )


def test_sweep_force_reference_defaults():
    rows = sweep_force(reference_spec())
    assert len(rows) == 200
    assert rows[0].g == 0.002 and rows[-1].g == 0.022
    assert all(r.exists for r in rows)
    devs = [r.rel_dev_percent for r in rows]
    assert all(d is not None and 0.0 <= d <= 14.0 for d in devs)
    assert devs[0] < devs[-1]


def test_sweep_force_zero_mmf():
    rows = sweep_force(reference_spec(samples=5, theta=0.0))
    assert all(r.force == 0.0 and r.force_legacy == 0.0 for r in rows)
    assert all(r.rel_dev_percent is None for r in rows)


def test_sweep_existence_transition_rows():
    spec = ActuatorSweepSpec(
        kind=FluxTubeKind.OUTER_HALF,
        mode=DriveMode.CONST_OUTER_RADIUS,
        R=1.0,
        r_o=0.3,
        start=0.1,
        stop=1.0,
        samples=10,
    )
    rows = sweep_force(spec)
    alive = [r for r in rows if r.exists]
    dead = [r for r in rows if not r.exists]
    assert alive and dead
    assert all(r.g < 0.6 for r in alive) and all(r.g >= 0.6 for r in dead)
    for r in dead:
        assert r.force == 0.0 and r.gm == GM_FLOOR


def test_stroke_sweep_has_no_legacy_force():
    spec = ActuatorSweepSpec(
        kind=FluxTubeKind.OUTER_QUARTER,
        mode=DriveMode.CONST_INNER_RADIUS,
        R=0.01,
        r_i=0.002,
        start=0.003,
        stop=0.03,
        samples=7,
    )
    rows = sweep_force(spec)
    assert all(r.force_legacy is None and r.rel_dev_percent is None for r in rows)
    assert all(r.force >= 0.0 for r in rows)


def test_sweep_sample_count_two():
    assert len(sweep_force(reference_spec(samples=2))) == 2


@pytest.mark.parametrize("kwargs", [
    dict(start=-1.0, stop=1.0),
    dict(start=0.01, stop=0.002),
    dict(start=0.002, stop=0.022, samples=1),
    dict(start=0.002, stop=0.022, theta=math.nan),
])
def test_sweep_spec_validation(kwargs):
    base = dict(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS, R=0.01, t=0.01)
    base.update(kwargs)
    with pytest.raises(UsageError):
        ActuatorSweepSpec(**base)


def test_sweep_spec_requires_matching_fixed_parameter():
    with pytest.raises(UsageError):
        ActuatorSweepSpec(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS,
                          R=0.01, r_o=0.02, start=0.002, stop=0.022)
    with pytest.raises(UsageError):
        ActuatorSweepSpec(kind=FluxTubeKind.LOWER_HALF, mode=DriveMode.CONST_THICKNESS,
                          R=0.01, t=0.01, start=0.002, stop=0.022)


@pytest.mark.parametrize("field", ["R", "t", "legacy_width"])
def test_sweep_spec_rejects_bool_at_construction(field):
    base = dict(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS, R=0.01, t=0.01,
                start=0.002, stop=0.022)
    base[field] = True
    with pytest.raises(UsageError):
        ActuatorSweepSpec(**base)


def test_sweep_spec_accepts_numpy_scalars_as_float():
    import numpy as np

    spec = ActuatorSweepSpec(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_OUTER_RADIUS,
                             R=np.float32(0.01), r_o=np.float64(0.012), legacy_width=np.int64(1),
                             start=0.002, stop=0.02, samples=5)
    assert all(type(getattr(spec, name)) is float for name in ("R", "r_o", "legacy_width"))
    assert (spec.R, spec.r_o, spec.legacy_width) == (float(np.float32(0.01)), 0.012, 1.0)
    assert len(sweep_force(spec)) == 5


@pytest.mark.parametrize("kwargs", [
    dict(samples=3.0), dict(samples=2.5), dict(samples="5"), dict(samples=True),
    dict(theta="1"), dict(theta=True), dict(theta=math.inf),
    dict(start=True, stop=2.0), dict(start="0.002"), dict(stop=math.inf), dict(stop=None),
])
def test_sweep_spec_rejects_malformed_numbers_at_construction(kwargs):
    base = dict(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS, R=0.01, t=0.01,
                start=0.002, stop=0.022)
    base.update(kwargs)
    with pytest.raises(UsageError):
        ActuatorSweepSpec(**base)


def test_sweep_spec_accepts_numpy_integer_samples():
    import numpy as np

    spec = ActuatorSweepSpec(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS,
                             R=0.01, t=0.01, start=0.002, stop=0.022, samples=np.int64(5),
                             theta=np.float32(2.0))
    assert type(spec.samples) is int and type(spec.theta) is float
    assert len(sweep_force(spec)) == 5


@pytest.mark.parametrize("v", [0.0625, 0.25, 0.375, 1.5])
def test_sweep_paths_are_pinned_literally(v):
    # gradient_fd walks the same path as the partials, so only a literal pin
    # catches a wrong path; dyadic values make the inversion exact.
    R, r_o, t, r_i = 1.0, 0.75, 0.125, 0.0625
    cases = [
        (FluxTubeKind.OUTER_HALF, DriveMode.CONST_OUTER_RADIUS, "r_o", r_o, (R, v / 2, r_o)),
        (FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, "t", t, (R, v / 2, v / 2 + t)),
        (FluxTubeKind.OUTER_QUARTER, DriveMode.CONST_INNER_RADIUS, "r_i", r_i, (R, r_i, v)),
    ]
    for kind, mode, field, held, radii in cases:
        spec = ActuatorSweepSpec(kind=kind, mode=mode, R=R, start=0.01, stop=2.0, **{field: held})
        geom = spec.geometry_at(v)
        assert (geom.R, geom.r_i, geom.r_o) == radii
        assert _fixed_and_driving(mode, geom) == (held, v)


@pytest.mark.parametrize("ratio", [1e-6, 1e-9, 1e-11])
@pytest.mark.parametrize("kind", [k for k in FluxTubeKind
                                  if DriveMode.CONST_THICKNESS in allowed_modes(k)])
def test_const_thickness_gradient_on_thin_tubes(kind, ratio):
    # t/r_i down to 1e-11: the partials must not cancel.  r_i is kept clear of
    # a power of two, so r_o - r_i rounds t alike at every stencil point.
    for R, r_i in ((0.02, 0.005), (0.01, 0.002)):
        geom = TorusGeometry(R, r_i, r_i * (1.0 + ratio))
        fd = gradient_fd(kind, DriveMode.CONST_THICKNESS, geom)
        exact = permeance_gradient(kind, DriveMode.CONST_THICKNESS, geom)
        assert abs(exact - fd) <= 1e-8 * abs(fd)


LARGE_ETA = 1.0e4


@pytest.mark.parametrize("kind", GAP_KINDS)
@pytest.mark.parametrize("mode", GAP_MODES)
def test_legacy_force_converges_at_large_eta(kind, mode):
    # The wrapped cylinder is the eta -> infinity limit of the torus.  Taken
    # along the mode's own path, and a quarter against a quarter cylinder, its
    # force deviates by O(1/eta): about 6e-3 % at eta = 1e4.
    fixed = {"r_o": 0.01} if mode is DriveMode.CONST_OUTER_RADIUS else {"t": 0.001}
    spec = ActuatorSweepSpec(kind=kind, mode=mode, R=100.0, start=0.002, stop=0.016,
                             samples=15, **fixed)
    rows = sweep_force(spec)
    assert all(r.exists and derive(spec.geometry_at(r.g)).eta >= LARGE_ETA for r in rows)
    assert max(r.rel_dev_percent for r in rows) <= 1e-2


@pytest.mark.parametrize("R", [0.01, 100.0])
@pytest.mark.parametrize("kind", GAP_KINDS)
@pytest.mark.parametrize("mode", GAP_MODES)
def test_legacy_force_is_the_path_derivative_of_the_legacy_permeance(kind, mode, R):
    # F_L = 1/2 theta^2 (q/p) d(p G_L)/dv along the sweep's own path, with G_L
    # taken from legacy_half_hollow_cylinder and differentiated by Richardson.
    from toroflux import LegacyCylinderSpec, legacy_half_hollow_cylinder

    theta, w = 1.7, 0.05
    p, q = (2.0, 4.0) if kind.is_quarter else (1.0, 1.0)
    fixed = {"r_o": 0.009} if mode is DriveMode.CONST_OUTER_RADIUS else {"t": 0.004}
    spec = ActuatorSweepSpec(kind=kind, mode=mode, R=R, start=0.002, stop=0.03, samples=60,
                             theta=theta, legacy_width=w, **fixed)

    def p_legacy(v):
        geom = spec.geometry_at(v)
        spec_l = LegacyCylinderSpec(w, geom.r_o - geom.r_i, geom.r_i)
        return p * legacy_half_hollow_cylinder(spec_l).value

    checked = 0
    for row in sweep_force(spec):
        h = 1e-4 * row.g
        stencil = [spec.geometry_at(row.g + dv) for dv in (-h, 0.0, h)]
        if not all(validate(kind, geom).exists for geom in stencil):
            continue
        d_h = (p_legacy(row.g + h) - p_legacy(row.g - h)) / (2.0 * h)
        d_h2 = (p_legacy(row.g + h / 2) - p_legacy(row.g - h / 2)) / h
        expected = 0.5 * theta * theta * (q / p) * (4.0 * d_h2 - d_h) / 3.0
        assert row.force_legacy == pytest.approx(expected, rel=1e-9)
        checked += 1
    assert checked >= 20


def _row_specs():
    """Seeded sweeps of every allowed (kind, mode): each eta branch, vanished and frozen rows."""
    import random

    rng = random.Random(20261020)
    held_of = {DriveMode.CONST_OUTER_RADIUS: "r_o", DriveMode.CONST_THICKNESS: "t",
               DriveMode.CONST_INNER_RADIUS: "r_i"}
    specs = []
    for kind in FluxTubeKind:
        for mode in sorted(allowed_modes(kind), key=lambda m: m.value):
            for _ in range(6):
                R = 10.0 ** rng.uniform(-3.0, 0.0)
                fixed = R * 10.0 ** rng.uniform(-1.5, 0.5)
                start = R * 10.0 ** rng.uniform(-3.0, -1.0)
                stop = R * 10.0 ** rng.uniform(0.0, 1.0)
                specs.append(ActuatorSweepSpec(kind=kind, mode=mode, R=R, start=start, stop=stop,
                                               samples=41, theta=rng.uniform(0.1, 3.0),
                                               **{held_of[mode]: fixed}))
            if kind.is_outer:
                # A sweep whose first row sits at eta = 1 (r_o bisected for it).
                R, r_i = 0.01, 0.004
                r_o = solve_ro_for_eta(R, r_i, 1.0)
                fixed, v = {DriveMode.CONST_OUTER_RADIUS: (r_o, 2.0 * r_i),
                            DriveMode.CONST_THICKNESS: (r_o - r_i, 2.0 * r_i),
                            DriveMode.CONST_INNER_RADIUS: (r_i, r_o)}[mode]
                specs.append(ActuatorSweepSpec(kind=kind, mode=mode, R=R, start=v, stop=4.0 * v,
                                               samples=9, legacy_width=0.03,
                                               **{held_of[mode]: fixed}))
    return specs


def test_sweep_rows_equal_force_and_legacy_permeance_field_by_field():
    from toroflux import LegacyCylinderSpec, legacy_half_hollow_cylinder

    seen = set()
    for spec in _row_specs():
        p = 2.0 if spec.kind.is_quarter else 1.0
        w = 2.0 * math.pi * spec.R if spec.legacy_width is None else spec.legacy_width
        gap = spec.mode in GAP_MODES
        for row in sweep_force(spec):
            geom = spec.geometry_at(row.g)
            res = force(spec.theta, spec.kind, spec.mode, geom)
            t = geom.r_o - geom.r_i
            gm_legacy = (p * legacy_half_hollow_cylinder(LegacyCylinderSpec(w, t, geom.r_i)).value
                         if t > 0.0 else 0.0)
            assert (row.gm, row.force, row.exists) == (res.Gm, res.F, res.exists), (spec, row)
            assert row.gm_legacy == gm_legacy, (spec, row)
            if not gap:
                assert row.force_legacy is None and row.rel_dev_percent is None
            elif row.force == 0.0:
                assert row.rel_dev_percent is None
            else:
                expected = 100.0 * abs(row.force_legacy - row.force) / abs(row.force)
                assert row.rel_dev_percent == expected
            frozen = (spec.mode is DriveMode.CONST_INNER_RADIUS and spec.kind.is_inner
                      and geom.r_o > spec.R and row.exists)
            if frozen:
                seen.add("frozen")
            elif not row.exists:
                seen.add("vanished")
            else:
                seen.add(derive(geom).branch)
    assert seen == {"frozen", "vanished", *BranchCase}


@pytest.mark.parametrize("vm", [math.inf, -math.inf, math.nan])
def test_force_rejects_non_finite_tension(vm):
    with pytest.raises(DomainError, match="magnetic tension must be finite"):
        force(vm, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, TorusGeometry(1.0, 0.5, 1.0))


def test_frozen_quarter_at_tiny_radii_skips_the_gradient():
    # r_i r_o underflows to 0 here; a frozen row reports zero force without forming it.
    from toroflux import ForceResult

    res = force(1.0, FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS,
                TorusGeometry(1e-170, 1e-171, 2e-170))
    assert res == ForceResult(0.0, 0.0, GM_FLOOR, True)


def test_unit_gap_forms_agree_with_the_chain_rule_at_eta_one():
    # The verbatim eta = 1 gap forms are the chain rule at (f, f') = (1, 2/3) (twice that
    # for a quarter, whose gap gradient is doubled once more) up to rounding only.
    import random

    from toroflux import MU0

    rng = random.Random(25)
    rates = {DriveMode.CONST_OUTER_RADIUS: (0.5, 0.0), DriveMode.CONST_THICKNESS: (0.5, 0.5)}
    checked = 0
    while checked < 500:
        r_i = 10.0 ** rng.uniform(-4.0, 1.0)
        t = r_i * 10.0 ** rng.uniform(-6.0, 1.0)
        geom = TorusGeometry(t / math.log1p(t / r_i) * (1.0 + rng.uniform(-1e-6, 1e-6)), r_i, r_i + t)
        if derive(geom).branch is not BranchCase.UNIT:
            continue
        checked += 1
        R, r_i, r_o = geom.R, geom.r_i, geom.r_o
        t = r_o - r_i
        gm0 = math.pi * MU0 * t
        for kind, p in ((FluxTubeKind.OUTER_HALF, 1.0), (FluxTubeKind.OUTER_QUARTER, 2.0)):
            for mode, (a_i, a_o) in rates.items():
                dt = a_o - a_i
                t_deta = dt * (R / r_o - 1.0) - a_i * t * R / (r_i * r_o)
                chain = p * (gm0 / t) * (dt * p + (2.0 * p / 3.0) * t_deta)
                assert permeance_gradient(kind, mode, geom) == pytest.approx(chain, rel=1e-15, abs=0.0)


def test_sweep_force_refuses_an_overflowing_default_legacy_width():
    spec = ActuatorSweepSpec(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS,
                             R=3e307, t=1.0, start=1.0, stop=3.0, samples=3)
    with pytest.raises(DomainError, match=r"2\*pi\*R overflows at R=3e\+307; give a legacy width"):
        sweep_force(spec)
    given = ActuatorSweepSpec(kind=FluxTubeKind.OUTER_HALF, mode=DriveMode.CONST_THICKNESS,
                              R=3e307, t=1.0, start=1.0, stop=3.0, samples=3, legacy_width=1.0)
    assert all(math.isfinite(row.gm_legacy) for row in sweep_force(given))
