"""Tests of the command-line interface: values, CSV schemas, exit codes."""

import csv
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroflux.cli
import toroflux.oracle
from toroflux import (
    MU0,
    ActuatorSweepSpec,
    DriveMode,
    FluxTubeKind,
    LegacyCylinderSpec,
    Permeance,
    TorusGeometry,
    derive,
    legacy_half_hollow_cylinder,
    permeance,
    sweep_force,
)
from toroflux.cli import main, parse_range, run_check


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_permeance_prints_library_value(capsys):
    assert main(["permeance", "--kind", "outer-half", "--R", "1", "--ri", "0.5", "--ro", "1"]) == 0
    printed = float(capsys.readouterr().out.strip())
    expected = permeance(FluxTubeKind.OUTER_HALF, TorusGeometry(1.0, 0.5, 1.0)).value
    assert printed == pytest.approx(expected, rel=1e-11)


def test_permeance_nonexistent_tube_warns(capsys):
    rc = main(["permeance", "--kind", "inner-half", "--R", "1", "--ri", "0.2", "--ro", "1.1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "0"
    assert "does not exist" in captured.err


def test_permeance_missing_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["permeance", "--kind", "outer-half", "--R", "1", "--ri", "0.5"])
    assert exc.value.code == 2


def test_permeance_bad_kind_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["permeance", "--kind", "torus", "--R", "1", "--ri", "0.5", "--ro", "1"])
    assert exc.value.code == 2


def test_lower_half_sub_branch_exits_one(capsys):
    rc = main(["permeance", "--kind", "lower-half", "--R", "1", "--ri", "1", "--ro", "2"])
    assert rc == 1
    assert "eta" in capsys.readouterr().err


def test_parse_range():
    rng = parse_range("lin:0.002:0.022:200")
    assert (rng.spacing, rng.start, rng.stop, rng.samples) == ("lin", 0.002, 0.022, 200)
    values = parse_range("log:0.01:1:5").values()
    assert values[0] == pytest.approx(0.01) and values[-1] == pytest.approx(1.0)
    from toroflux import UsageError

    for bad in ("lin:1:2", "geo:1:2:5", "lin:2:1:5", "lin:0:1:5", "lin:1:2:1", "lin:a:2:5"):
        with pytest.raises(UsageError):
            parse_range(bad)


def _force_ramp(start, stop, n):
    # Every row of this sweep vanishes (r_o = s <= stop < r_i), so its g column is the bare ramp.
    spec = ActuatorSweepSpec(FluxTubeKind.INNER_QUARTER, DriveMode.CONST_INNER_RADIUS, R=1.0,
                             start=start, stop=stop, samples=n, r_i=2.0 * stop)
    return [row.g for row in sweep_force(spec)]


@st.composite
def _lin_ranges(draw):
    if draw(st.booleans()):
        start, stop = sorted(draw(st.lists(st.floats(5e-324, 1e300), min_size=2, max_size=2,
                                           unique=True)))
    else:  # a few subnormal units apart, where the step can underflow to 0
        k = draw(st.integers(1, 10_000))
        start, stop = k * 5e-324, (k + draw(st.integers(1, 20))) * 5e-324
    return start, stop, draw(st.integers(2, 40))


@settings(max_examples=300, deadline=None)
@given(_lin_ranges())
def test_lin_samples_are_numpy_linspace_bit_for_bit(lin_range):
    import numpy as np

    start, stop, n = lin_range
    expected = np.linspace(start, stop, n).tolist()
    assert parse_range(f"lin:{start!r}:{stop!r}:{n}").values() == expected
    assert _force_ramp(start, stop, n) == expected


def test_lin_samples_at_an_underflowing_step():
    expected = [1e-322, 1e-322, 1.04e-322, 1.04e-322, 1.1e-322, 1.1e-322]
    assert parse_range("lin:1e-322:1.1e-322:6").values() == expected
    assert _force_ramp(1e-322, 1.1e-322, 6) == expected


def test_sweep_permeance_family_curves(tmp_path):
    out = tmp_path / "fam.csv"
    rc = main([
        "sweep-permeance", "--kind", "inner-half", "--R", "0.001",
        "--family", "0.1,0.2,0.4,0.8", "--range", "log:0.01:1.0:25",
        "--normalized", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["ro_over_R", "swept_m", "swept_over_R", "Gm_over_mu0R",
                      "Gm_H", "Gm_legacy_H", "rel_dev", "exists"]
    assert len(rows) == 4 * 25
    families = sorted({float(r[0]) for r in rows})
    assert families == [0.1, 0.2, 0.4, 0.8]
    for r in rows:
        ratio, swept = float(r[0]), float(r[1])
        assert swept <= ratio * 0.001 * (1.0 + 1e-12)  # r_i clamped to r_o
        assert r[7] in ("true", "false")
        if r[7] == "true":
            assert math.isfinite(float(r[4])) and float(r[4]) > 0.0
        else:
            assert float(r[4]) == 0.0 and r[6] == ""
    # every family's last sample is the degenerate r_i = r_o endpoint
    last_by_family = {r[0]: r for r in rows}
    assert all(r[7] == "false" for r in last_by_family.values())


def test_sweep_permeance_outer_family_beyond_pole(tmp_path):
    out = tmp_path / "fam_outer.csv"
    rc = main([
        "sweep-permeance", "--kind", "outer-half", "--R", "0.001",
        "--family", "1.6,3.2", "--range", "log:0.01:1.0:10", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(str(out))
    assert len(rows) == 20
    assert all(r[-1] == "true" for r in rows[:-1])


def test_sweep_permeance_fixed_thickness_two_samples(tmp_path):
    out = tmp_path / "two.csv"
    rc = main([
        "sweep-permeance", "--kind", "outer-half", "--R", "0.01", "--t", "0.005",
        "--range", "lin:0.001:0.002:2", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["swept_m", "Gm_H", "Gm_legacy_H", "rel_dev", "exists"]
    assert len(rows) == 2


def test_sweep_permeance_tiny_radii_write_finite_values(tmp_path):
    # r_i r_o underflows to zero below about 2e-162 m; a permeance sweep
    # takes no legacy slope, so nothing divides by that product.
    out = tmp_path / "tiny.csv"
    rc = main([
        "sweep-permeance", "--kind", "outer-half", "--R", "1e-170", "--t", "1e-170",
        "--range", "lin:1e-171:1e-170:3", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(str(out))
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row[:4])
    assert all(row[4] == "true" for row in rows)


@pytest.mark.parametrize("R, flags", [
    (1e-320, ["--ri", "1e-320", "--range", "lin:2e-320:4e-320:2"]),  # mu0 R is 0
    (1e-310, ["--ri", "1e-3", "--range", "lin:2e-3:4e-3:2"]),  # mu0 R is subnormal, G_m normal
], ids=["mu0R-zero", "mu0R-subnormal"])
def test_sweep_permeance_normalized_at_tiny_R(tmp_path, R, flags):
    out = tmp_path / "normalized.csv"
    assert main(["sweep-permeance", "--kind", "outer-half", "--R", repr(R), *flags,
                 "--normalized", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    for row in rows:
        gm = float(row[header.index("Gm_H")])
        exact = float(Fraction(gm) / (Fraction(MU0) * Fraction(R)))
        assert float(row[header.index("Gm_over_mu0R")]) == pytest.approx(exact, rel=5e-16, abs=0.0)


@pytest.mark.parametrize("kind, fixed, value, sweep, radii", [
    # r_i runs past r_o: the last rows are degenerate or vanished.
    ("outer-half", "--ro", 0.012, "lin:0.002:0.014:7", lambda v, c: (v, c)),
    # r_o = r_i + t runs past R: the inner tube stops existing.
    ("inner-half", "--t", 0.004, "log:0.0005:0.009:9", lambda v, c: (v, v + c)),
    # r_o starts below r_i: the first rows are vanished.
    ("lower-half", "--ri", 0.001, "lin:0.0005:0.009:9", lambda v, c: (c, v)),
])
def test_sweep_permeance_fixed_parameter_rows(tmp_path, kind, fixed, value, sweep, radii):
    out = tmp_path / "fixed.csv"
    R = 0.01
    assert main(["sweep-permeance", "--kind", kind, "--R", str(R), fixed, str(value),
                 "--range", sweep, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["swept_m", "Gm_H", "Gm_legacy_H", "rel_dev", "exists"]
    assert len(rows) == int(sweep.split(":")[-1])
    width = 2.0 * math.pi * R
    for row in rows:
        r_i, r_o = radii(float(row[0]), value)
        expected = permeance(FluxTubeKind(kind), TorusGeometry(R, r_i, r_o))
        legacy = 0.0
        if r_o > r_i:
            legacy = legacy_half_hollow_cylinder(LegacyCylinderSpec(width, r_o - r_i, r_i)).value
        assert float(row[1]) == expected.value
        assert float(row[2]) == legacy
        assert row[4] == str(expected.exists).lower()
    assert any(row[4] == "false" for row in rows)
    if fixed != "--t":
        assert any(float(row[2]) == 0.0 for row in rows)


@pytest.mark.parametrize("kind", [k.value for k in FluxTubeKind])
@pytest.mark.parametrize("fixed, value, sweep, radii", [
    ("--ro", 0.01, "lin:0.001:0.008:8", lambda v, c: (v, c)),
    ("--t", 0.001, "lin:0.001:0.008:8", lambda v, c: (v, v + c)),
    ("--ri", 0.001, "lin:0.0015:0.008:8", lambda v, c: (c, v)),
])
def test_sweep_permeance_legacy_converges_at_large_eta(tmp_path, kind, fixed, value, sweep, radii):
    # The wrapped cylinder (a quarter cylinder for a quarter) is the
    # eta -> infinity limit of every tube: within about 6e-5 at eta = 1e4.
    out = tmp_path / "large_eta.csv"
    R = 100.0
    assert main(["sweep-permeance", "--kind", kind, "--R", str(R), fixed, str(value),
                 "--range", sweep, "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    for row in rows:
        assert row[4] == "true"
        assert derive(TorusGeometry(R, *radii(float(row[0]), value))).eta >= 1.0e4
        assert abs(float(row[3])) <= 1e-4


def test_sweep_row_cap_is_usage_error(capsys):
    rc = main(["sweep-force", "--range", "lin:0.002:0.022:100000000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: sweep of 100000000 rows")
    rc = main(["sweep-permeance", "--kind", "inner-half", "--R", "0.001",
               "--family", "0.1,0.2", "--range", "log:0.01:1.0:600000"])
    assert rc == 2 and "1200000 rows" in capsys.readouterr().err


def test_sweep_row_cap_counts_family_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(toroflux.cli, "MAX_SWEEP_ROWS", 10)
    out = str(tmp_path / "capped.csv")
    assert main(["sweep-force", "--range", "lin:0.002:0.022:10", "--out", out]) == 0
    assert main(["sweep-force", "--range", "lin:0.002:0.022:11", "--out", out]) == 2
    family = ["sweep-permeance", "--kind", "inner-half", "--R", "0.001", "--family", "0.1,0.2",
              "--out", out, "--range"]
    assert main(family + ["log:0.01:1.0:5"]) == 0
    assert main(family + ["log:0.01:1.0:6"]) == 2


def test_sweep_permeance_needs_exactly_one_fixed(tmp_path, capsys):
    rc = main(["sweep-permeance", "--kind", "outer-half", "--R", "0.01",
               "--range", "lin:0.001:0.002:2"])
    assert rc == 2
    rc = main(["sweep-permeance", "--kind", "outer-half", "--R", "0.01", "--t", "0.01",
               "--ro", "0.02", "--range", "lin:0.001:0.002:2"])
    assert rc == 2


def test_sweep_permeance_non_numeric_family_is_usage_error(capsys):
    rc = main(["sweep-permeance", "--kind", "inner-half", "--R", "0.001",
               "--family", "0.5,abc", "--range", "log:0.01:1.0:5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --family")


def test_sweep_force_default_is_reference_comparison(tmp_path):
    out = tmp_path / "force.csv"
    assert main(["sweep-force", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["g_m", "Gm_new_H", "F_new_N", "Gm_legacy_H", "F_legacy_N",
                      "rel_dev_percent"]
    assert len(rows) == 200
    assert float(rows[0][0]) == 0.002 and float(rows[-1][0]) == 0.022
    assert float(rows[0][5]) < float(rows[-1][5])
    assert all(float(r[2]) < 0.0 for r in rows)


def test_sweep_force_zero_mmf_columns(tmp_path):
    out = tmp_path / "force0.csv"
    assert main(["sweep-force", "--theta", "0", "--range", "lin:0.002:0.022:5",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    assert all(float(r[2]) == 0.0 and float(r[4]) == 0.0 and r[5] == "" for r in rows)


def test_sweep_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-force", "--range", "lin:0.002:0.022:50"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    args = ["sweep-permeance", "--kind", "lower-half", "--R", "0.001",
            "--family", "0.1,0.4", "--range", "log:0.01:1.0:20", "--normalized"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_force_stroke_mode(tmp_path):
    out = tmp_path / "stroke.csv"
    rc = main(["sweep-force", "--kind", "inner-quarter", "--mode", "const-ri",
               "--R", "0.01", "--ri", "0.002", "--range", "lin:0.003:0.02:40",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(str(out))
    # stroke crosses s = R: frozen rows keep permeance but lose force
    frozen = [r for r in rows if float(r[0]) > 0.01]
    assert frozen and all(float(r[2]) == 0.0 for r in frozen)
    assert all(r[4] == "" and r[5] == "" for r in rows)


def test_unwritable_output_path(capsys):
    rc = main(["sweep-force", "--range", "lin:0.002:0.022:2",
               "--out", "/nonexistent-dir/f.csv"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_check_quick_passes(capsys):
    import time

    started = time.perf_counter()
    assert main(["check", "--preset", "quick"]) == 0
    assert time.perf_counter() - started < 5.0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    # every kind and every allowed (kind, mode) pair is covered
    for kind in FluxTubeKind:
        assert f"permeance {kind.value}" in out
    for label in ("gradient inner-half const-ro", "gradient inner-half const-t",
                  "gradient outer-half const-ro", "gradient outer-half const-t",
                  "gradient inner-quarter const-ri", "gradient inner-quarter const-ro",
                  "gradient inner-quarter const-t", "gradient outer-quarter const-ri",
                  "gradient outer-quarter const-ro", "gradient outer-quarter const-t"):
        assert label in out


def test_check_full_covers_everything():
    report = run_check("full")
    labels = {e.label for e in report.entries}
    assert len([l for l in labels if l.startswith("permeance")]) == 5
    assert len([l for l in labels if l.startswith("gradient")]) == 10
    assert report.passed


def test_check_detects_perturbed_closed_form(monkeypatch, capsys):
    real = toroflux.oracle._closed_permeance

    def perturbed(kind, geom):
        result = real(kind, geom)
        return Permeance(result.value * (1.0 + 1e-6), result.exists)

    monkeypatch.setattr(toroflux.oracle, "_closed_permeance", perturbed)
    assert main(["check", "--preset", "quick"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_names_the_one_perturbed_geometry(monkeypatch):
    import numpy as np

    preset = toroflux.cli._PRESETS["quick"]
    rng = np.random.default_rng(preset["seed"])
    for kind in FluxTubeKind:  # the check samples the permeance entries first, in this order
        geoms = toroflux.cli._sample_geometries(kind, preset["n_permeance"], rng)
        if kind is FluxTubeKind.OUTER_HALF:
            target = geoms[7]
            break
    real = toroflux.oracle._closed_permeance

    def perturbed(kind, geom):
        result = real(kind, geom)
        if kind is FluxTubeKind.OUTER_HALF and geom == target:
            return Permeance(result.value * (1.0 + 1e-6), result.exists)
        return result

    monkeypatch.setattr(toroflux.oracle, "_closed_permeance", perturbed)
    report = run_check("quick")
    failed = [e for e in report.entries if not e.passed]
    assert not report.passed
    assert [e.label for e in failed] == ["permeance outer-half"]
    assert failed[0].worst_geom == target


def run_python(*args):
    """A fresh interpreter with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_scalar_commands_do_not_import_numpy(tmp_path):
    code = "\n".join([
        "import sys, toroflux, toroflux.cli",
        "from toroflux.cli import main",
        "assert main(['permeance', '--kind', 'outer-half', '--R', '1', '--ri', '0.5',"
        " '--ro', '1']) == 0",
        f"assert main(['sweep-force', '--out', {str(tmp_path / 'force.csv')!r}]) == 0",
        "print('numpy loaded:', 'numpy' in sys.modules)",
        # the array commands still load it when they need it
        f"assert main(['sweep-permeance', '--kind', 'outer-half', '--R', '0.01', '--t', '0.005',"
        f" '--range', 'log:0.001:0.002:3', '--out', {str(tmp_path / 'perm.csv')!r}]) == 0",
        "print('numpy loaded:', 'numpy' in sys.modules)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["numpy loaded: False", "numpy loaded: True"]


def test_lin_permeance_sweep_runs_without_numpy(tmp_path, capsys):
    argv = ["sweep-permeance", "--kind", "inner-quarter", "--R", "0.01", "--t", "0.002",
            "--range", "lin:0.0001:0.02:40", "--normalized"]
    code = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "from toroflux.cli import main",
        f"sys.exit(main({argv + ['--out', str(tmp_path / 'perm.csv')]!r}))",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert (tmp_path / "perm.csv").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["permeance", "--kind", "outer-half", "--R", "-1", "--ri", "0.5", "--ro", "1"],
    ["permeance", "--kind", "outer-half", "--R", "1", "--ri", "0", "--ro", "1"],
    ["permeance", "--kind", "outer-half", "--R", "1", "--ri", "0.5", "--ro", "nan"],
    ["sweep-permeance", "--kind", "outer-half", "--R", "-1", "--t", "0.005",
     "--range", "lin:0.001:0.002:2"],
    ["sweep-permeance", "--kind", "outer-half", "--R", "0.01", "--t", "0.005",
     "--legacy-width", "-1", "--range", "lin:0.001:0.002:2"],
    # every row vanished, so no legacy value would ever be computed
    ["sweep-permeance", "--kind", "outer-half", "--R", "0.01", "--ro", "0.001",
     "--legacy-width", "-1", "--range", "lin:0.002:0.003:2"],
])
def test_bad_flag_value_is_usage_error(argv):
    proc = run_python("-m", "toroflux.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --") and "must be finite and positive" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_entry_prints_like_main(capsys):
    argv = ["permeance", "--kind", "outer-half", "--R", "1", "--ri", "0.5", "--ro", "1"]
    assert main(argv) == 0
    proc = run_python("-m", "toroflux.cli", *argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    # the last sample drives r_o = t + g/2 past the largest float
    (["sweep-force", "--R", "1", "--t", "1e308", "--range", "lin:1e308:1.7e308:3"],
     "error: r_o must be finite and positive, got inf\n"),
    # g/2 underflows to a zero inner radius
    (["sweep-force", "--mode", "const-ro", "--R", "1e-300", "--ro", "1e-300",
      "--range", "lin:5e-324:1e-323:2"], "error: r_i must be finite and positive, got 0.0\n"),
    # 2*pi*R overflows and no legacy width was given
    (["sweep-force", "--R", "3e307", "--t", "1", "--range", "lin:1:3:3"],
     "error: the default legacy width 2*pi*R overflows at R=3e+307; give a legacy width\n"),
    (["sweep-permeance", "--kind", "outer-half", "--R", "1e308", "--ri", "1",
      "--range", "lin:1:3:3"],
     "error: the default legacy width 2*pi*R overflows at R=1e+308; give a legacy width\n"),
], ids=["r_o-overflows", "r_i-underflows", "force-default-width", "permeance-default-width"])
def test_sweep_domain_failures_exit_one(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_overflowing_default_legacy_width_is_not_needed_with_a_given_width(capsys):
    argv = ["sweep-permeance", "--kind", "outer-half", "--R", "1e308", "--ri", "1",
            "--range", "lin:1:3:3", "--legacy-width", "1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("argv", [
    ["sweep-permeance", "--kind", "outer-half", "--R", "1", "--ro", "0.02", "--family", "1,2",
     "--range", "lin:0.1:0.5:3"],
    ["sweep-force", "--range", "log:0.002:0.022:5"],
], ids=["family-with-ro", "log-force-range"])
def test_sweep_usage_failures_exit_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_run_check_rejects_an_unknown_preset():
    from toroflux import UsageError

    with pytest.raises(UsageError, match="preset must be one of"):
        run_check("bogus")
