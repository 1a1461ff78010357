"""Tests for geometry, derived quantities and branch classification."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import geometry_strategy
from toroflux import (
    ETA_UNIT_WINDOW,
    MU0,
    ActuatorSweepSpec,
    BranchCase,
    DomainError,
    DriveMode,
    FluxTubeKind,
    TorusGeometry,
    arccot,
    classify_branch,
    derive,
    force,
    permeance,
    sweep_force,
    validate,
)


def test_eta_super_example():
    d = derive(TorusGeometry(1.0, 0.5, 1.0))
    assert d.eta == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert d.branch is BranchCase.SUPER
    assert d.t == 0.5 and d.g == 1.0


def test_eta_sub_example():
    d = derive(TorusGeometry(1.0, 1.0, 2.0))
    assert d.eta == pytest.approx(math.log(2.0), rel=1e-14)
    assert d.branch is BranchCase.SUB
    assert d.t == 1.0


def test_derive_degenerate_tube():
    d = derive(TorusGeometry(1.0, 0.3, 0.3))
    assert d.degenerate
    assert d.t == 0.0
    assert d.gm0 == 0.0
    assert d.eta == pytest.approx(1.0 / 0.3, rel=1e-14)


def test_derive_rejects_negative_thickness():
    with pytest.raises(DomainError):
        derive(TorusGeometry(1.0, 0.4, 0.3))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_geometry_rejects_nonpositive_radii(bad):
    with pytest.raises(DomainError):
        TorusGeometry(bad, 0.1, 0.2)
    with pytest.raises(DomainError):
        TorusGeometry(1.0, bad, 0.2)
    with pytest.raises(DomainError):
        TorusGeometry(1.0, 0.1, bad)


def test_inputs_reject_bool():
    from toroflux import LegacyCylinderSpec, legacy_gradient

    with pytest.raises(DomainError):
        TorusGeometry(True, 0.2, 0.5)
    with pytest.raises(DomainError):
        LegacyCylinderSpec(0.05, True, 0.01)
    with pytest.raises(DomainError):
        legacy_gradient(0.05, 0.004, True)


def test_inputs_accept_numpy_scalars_as_float():
    import numpy as np

    from toroflux import LegacyCylinderSpec, legacy_gradient

    geom = TorusGeometry(np.float32(1.0), np.float32(0.25), np.float64(0.5))
    assert all(type(v) is float for v in (geom.R, geom.r_i, geom.r_o))
    assert geom == TorusGeometry(1.0, 0.25, 0.5)
    spec = LegacyCylinderSpec(np.float32(0.5), np.float32(0.0), np.int64(1))
    assert (spec.w, spec.t, spec.r_i) == (0.5, 0.0, 1.0)
    assert all(type(v) is float for v in (spec.w, spec.t, spec.r_i))
    assert legacy_gradient(np.float32(0.5), np.float32(0.25), np.float32(0.125)) == (
        legacy_gradient(0.5, 0.25, 0.125)
    )


def test_classify_branch_examples():
    assert classify_branch(1.386294) is BranchCase.SUPER
    assert classify_branch(1.0000005) is BranchCase.UNIT
    assert classify_branch(0.693147) is BranchCase.SUB


def test_classify_branch_window_is_closed():
    hi = 1.0 + ETA_UNIT_WINDOW
    lo = 1.0 - ETA_UNIT_WINDOW
    assert classify_branch(hi) is BranchCase.UNIT
    assert classify_branch(lo) is BranchCase.UNIT
    assert classify_branch(math.nextafter(hi, 2.0)) is BranchCase.SUPER
    assert classify_branch(math.nextafter(lo, 0.0)) is BranchCase.SUB


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_classify_branch_domain(bad):
    with pytest.raises(DomainError):
        classify_branch(bad)


def test_classify_branch_takes_any_real_and_refuses_the_rest():
    """Non-floats go through the radii's validator: one message per invalid number."""
    np = pytest.importorskip("numpy")
    assert classify_branch(np.float32(2.0)) is BranchCase.SUPER
    assert classify_branch(np.int64(2)) is BranchCase.SUPER
    assert classify_branch(np.float64(0.5)) is BranchCase.SUB
    assert classify_branch(1) is BranchCase.UNIT
    for bad in (True, False, "1.5", None, 1j):
        with pytest.raises(DomainError, match=f"^eta must be a real number, got {bad!r}$"):
            classify_branch(bad)
    for huge, text in ((10**400, "inf"), (-(10**400), "-inf")):
        with pytest.raises(DomainError, match=f"^eta must be finite, got {text}$"):
            classify_branch(huge)
    # The float messages are unchanged.
    for bad, text in ((math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
                      (-math.inf, "finite, got -inf"), (0.0, "positive, got 0.0"),
                      (-2.0, "positive, got -2.0")):
        with pytest.raises(DomainError, match=f"^eta must be {text}$"):
            classify_branch(bad)


def test_kind_flags_are_a_plain_table():
    flags = {k.value: (k.is_inner, k.is_outer, k.is_quarter) for k in FluxTubeKind}
    assert flags == {
        "inner-half": (True, False, False),
        "lower-half": (False, False, False),
        "outer-half": (False, True, False),
        "inner-quarter": (True, False, True),
        "outer-quarter": (False, True, True),
    }
    assert all(type(flag) is bool for row in flags.values() for flag in row)


def test_validate_examples():
    assert not validate(FluxTubeKind.INNER_HALF, TorusGeometry(1.0, 0.2, 1.1)).exists
    assert not validate(FluxTubeKind.OUTER_HALF, TorusGeometry(1.0, 0.4, 0.3)).exists
    assert validate(FluxTubeKind.OUTER_HALF, TorusGeometry(1.0, 0.4, 3.0)).exists
    # degenerate tube does not exist either
    assert not validate(FluxTubeKind.OUTER_HALF, TorusGeometry(1.0, 0.4, 0.4)).exists


def test_symbol_population_by_branch():
    sup = derive(TorusGeometry(1.0, 0.5, 1.0))
    assert sup.lam is None
    assert math.pi / 2 < sup.alpha_plus < math.pi
    assert 0.0 < sup.alpha_minus < math.pi / 2
    assert sup.alpha_plus + sup.alpha_minus == pytest.approx(math.pi, rel=1e-15)
    sub = derive(TorusGeometry(1.0, 1.0, 2.0))
    assert sub.alpha_plus is None and sub.alpha_minus is None
    assert sub.lam > 0.0


def test_alpha_matches_arccot_definition():
    d = derive(TorusGeometry(1.0, 0.5, 1.0))
    x = math.sqrt(d.eta**2 - 1.0)
    assert d.alpha_minus == pytest.approx(math.pi / 2 - arccot(x), rel=1e-14)
    assert d.alpha_plus == pytest.approx(math.pi / 2 + arccot(x), rel=1e-14)


def test_arccot_domain():
    assert arccot(1.0) == pytest.approx(math.pi / 4)
    with pytest.raises(DomainError):
        arccot(0.0)
    with pytest.raises(DomainError):
        arccot(-3.0)


@given(geom=geometry_strategy(FluxTubeKind.OUTER_HALF),
       c=st.floats(min_value=1e-6, max_value=1e6))
def test_eta_is_scale_invariant(geom, c):
    assert derive(geom.scaled(c)).eta == pytest.approx(derive(geom).eta, rel=1e-14)


@given(geom=geometry_strategy(FluxTubeKind.OUTER_HALF),
       c=st.floats(min_value=1e-6, max_value=1e6))
def test_gm0_scales_linearly(geom, c):
    assert derive(geom.scaled(c)).gm0 == pytest.approx(c * derive(geom).gm0, rel=1e-12)


@given(geom=geometry_strategy(FluxTubeKind.INNER_HALF))
def test_inner_geometries_never_classify_sub(geom):
    for kind in (FluxTubeKind.INNER_HALF, FluxTubeKind.INNER_QUARTER):
        assert validate(kind, geom).exists
    assert derive(geom).branch is not BranchCase.SUB


@given(a=st.floats(min_value=1e-3, max_value=1e3),
       b=st.floats(min_value=1e-3, max_value=1e3))
def test_classify_branch_monotone(a, b):
    lo, hi = sorted((a, b))
    assert classify_branch(lo) <= classify_branch(hi)


@settings(max_examples=30)
@given(geom=geometry_strategy(FluxTubeKind.INNER_HALF))
def test_eta_always_positive(geom):
    assert derive(geom).eta > 0.0


def test_slotted_results_round_trip():
    # The result classes carry __slots__; copies through pickle, copy and
    # dataclasses.replace are equal, hash alike and print alike.
    geom = TorusGeometry(0.01, 0.004, 0.014)
    spec = ActuatorSweepSpec(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, 0.01,
                             0.002, 0.022, t=0.01)
    for obj in (geom, permeance(FluxTubeKind.OUTER_HALF, geom),
                force(1.0, FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, geom),
                sweep_force(spec)[3]):
        assert not hasattr(obj, "__dict__")
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj),
                     dataclasses.replace(obj)):
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)


def test_enum_members_hash_by_identity_and_round_trip():
    for member in [*FluxTubeKind, *DriveMode]:
        assert hash(member) == object.__hash__(member)
        assert type(member)(member.value) is member
        assert pickle.loads(pickle.dumps(member)) is member
    assert {FluxTubeKind.OUTER_HALF: 1}[FluxTubeKind("outer-half")] == 1



@pytest.mark.parametrize("value, other, shown", [
    (math.inf, 10**400, "inf"), (-math.inf, -(10**400), "-inf"), (math.nan, None, "nan"),
    (-1.0, -1, "-1.0"), (0.0, 0, "0.0"),
], ids=["inf", "-inf", "nan", "negative", "zero"])
def test_invalid_numbers_have_one_message_whatever_their_type(value, other, shown):
    import numpy as np

    from toroflux import UsageError, legacy_gradient
    from toroflux.core import finite_real

    # The float, numpy float64/float32 and int (a huge int for +-inf) forms of one value.
    forms = [value, np.float64(value), np.float32(value)] + ([other] if other is not None else [])
    for form in forms:
        with pytest.raises(DomainError) as exc:
            TorusGeometry(1.0, form, 2.0)
        assert str(exc.value) == f"r_i must be finite and positive, got {shown}", form
        with pytest.raises(DomainError) as exc:
            legacy_gradient(form, 1.0, 1.0)
        assert str(exc.value) == f"w must be finite and positive, got {shown}", form
        with pytest.raises(UsageError) as exc:
            ActuatorSweepSpec(FluxTubeKind.OUTER_HALF, DriveMode.CONST_THICKNESS, R=form,
                              start=0.001, stop=0.002, t=0.01)
        assert str(exc.value) == f"R must be finite and positive, got {shown}", form
        if not math.isfinite(value):
            with pytest.raises(DomainError) as exc:
                finite_real("theta", form)
            assert str(exc.value) == f"theta must be finite, got {shown}", form
