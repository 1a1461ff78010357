"""Golden outputs: one sha256 per group of library results and CLI outputs.

Every value the library returns, every error message and every CLI output
is meant to stay byte-identical under refactoring and optimisation; these
hashes pin them.  A mismatch names its group, so the change that moved it
can be found from the group alone.

The hashes were taken on glibc x86-64.  They depend on the libm that
``math.atan``, ``math.log1p`` and friends call, so another C library or
architecture may differ in the last bit of some value and fail this test
without any change to the package.
"""

import contextlib
import hashlib
import io
import math
import random

import pytest

from toroflux import DriveMode, FluxTubeKind, TorusGeometry, force, permeance, permeance_gradient
from toroflux.cli import main


def _geometries():
    """About 1,000 seeded (R, r_i, r_o) triples over the kernel's regimes."""
    rng = random.Random(20261020)
    out = [(1.0, 0.5, 1.0), (0.01, 0.005, 0.015), (1.0, 0.25, 0.25), (1.0, 0.5, 0.4)]
    for _ in range(300):  # generic tubes, inner and outer
        R = 10.0 ** rng.uniform(-4.0, 0.0)
        r_o = R * 10.0 ** rng.uniform(-1.3, 1.5)
        out.append((R, r_o * 10.0 ** rng.uniform(-2.7, -0.02), r_o))
    for _ in range(150):  # thin tubes, t/r_i down to 1e-12
        R = 10.0 ** rng.uniform(-3.0, 0.0)
        r_i = R * 10.0 ** rng.uniform(-2.0, 0.5)
        out.append((R, r_i, r_i + r_i * 10.0 ** rng.uniform(-12.0, -3.0)))
    for _ in range(250):  # |eta - 1| from 1e-8 (unit window included) to 1e-1
        u = 10.0 ** rng.uniform(-6.0, 0.5)
        r_i = 10.0 ** rng.uniform(-3.0, 0.0)
        eta = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -1.0)
        out.append((eta * r_i / (math.log1p(u) / u), r_i, r_i + r_i * u))
    for R, r_i, r_o in out[4:154]:  # scales 1e-150 and 1e+150
        c = rng.choice((1e-150, 1e150))
        out.append((c * R, c * r_i, c * r_o))
    for _ in range(150):  # vanished: r_o <= r_i, or inner r_o > R
        R = 10.0 ** rng.uniform(-3.0, 0.0)
        r_i = R * 10.0 ** rng.uniform(-2.0, 0.5)
        r_o = rng.choice((r_i, r_i * rng.uniform(0.1, 1.0), R * rng.uniform(1.0001, 3.0)))
        out.append((R, r_i, r_o))
    return out


GEOMETRIES = _geometries()
MODES = sorted(DriveMode, key=lambda m: m.value)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _library(fn, with_mode):
    lines = []
    for R, r_i, r_o in GEOMETRIES:
        geom = TorusGeometry(R, r_i, r_o)
        for kind in FluxTubeKind:
            for mode in MODES if with_mode else (None,):
                args = (kind, geom) if mode is None else (kind, mode, geom)
                lines.append(_outcome(fn, *args))
    return lines


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return [str(rc), out.getvalue()]


GROUPS = {
    "permeance": lambda: _library(permeance, False),
    "force": lambda: _library(lambda k, m, g: force(1.0, k, m, g), True),
    "permeance_gradient": lambda: _library(permeance_gradient, True),
    "cli sweep-force default": lambda: _cli("sweep-force"),
    "cli sweep-force outer-quarter const-ro theta 1.7": lambda: _cli(
        "sweep-force", "--kind", "outer-quarter", "--mode", "const-ro", "--ro", "0.02",
        "--theta", "1.7"),
    "cli sweep-permeance README family": lambda: _cli(
        "sweep-permeance", "--kind", "inner-half", "--R", "0.001", "--family",
        "0.1,0.2,0.4,0.8", "--range", "log:0.01:1.0:60", "--normalized"),
    "cli check quick": lambda: _cli("check", "--preset", "quick"),
    "cli sweep-force inner-quarter const-ri vanished and frozen": lambda: _cli(
        "sweep-force", "--kind", "inner-quarter", "--mode", "const-ri", "--R", "0.01",
        "--ri", "0.004", "--range", "lin:0.001:0.02:120"),
    "cli sweep-force outer-quarter const-t across eta = 1": lambda: _cli(
        "sweep-force", "--kind", "outer-quarter", "--mode", "const-t", "--R", "0.01",
        "--t", "0.003", "--theta", "2.5", "--range", "lin:0.0005:0.05:150"),
    "cli sweep-force inner-half const-ro legacy width": lambda: _cli(
        "sweep-force", "--kind", "inner-half", "--mode", "const-ro", "--R", "0.01",
        "--ro", "0.008", "--legacy-width", "0.05", "--range", "lin:0.001:0.02:100"),
    "cli sweep-permeance outer-half ro": lambda: _cli(
        "sweep-permeance", "--kind", "outer-half", "--R", "0.01", "--ro", "0.02",
        "--range", "lin:0.001:0.03:80"),
    "cli sweep-permeance inner-quarter t normalized": lambda: _cli(
        "sweep-permeance", "--kind", "inner-quarter", "--R", "0.01", "--t", "0.002",
        "--range", "log:0.0001:0.02:80", "--normalized"),
    "cli sweep-permeance outer-quarter ri legacy width": lambda: _cli(
        "sweep-permeance", "--kind", "outer-quarter", "--R", "0.01", "--ri", "0.002",
        "--range", "lin:0.001:0.05:80", "--legacy-width", "0.03"),
}

GOLDEN = {
    "permeance":
        "915a305d041b140504a71926b4efce5af8bb185b77223a3d62ead2a24f33e42b",
    "force":
        "e8f93ac4f7665849ebc15b682c7ed808e90d25d533de550c324edcc419e41062",
    "permeance_gradient":
        "8a07668f9c37c9a8cba79ec6a50b1c4781b8f5d1c54c470bb524ed1bd351cbf4",
    "cli sweep-force default":
        "1e471cb67d5e695cf2c9f9ed5d2c8925c3fd85576d42eb58e1e8a31060c2eaf0",
    "cli sweep-force outer-quarter const-ro theta 1.7":
        "23987b0054d1127595b6463e12fb79712edcae7f1603f162179ced6e5516ab5e",
    "cli sweep-permeance README family":
        "2b115eaa570bda168762f84b54d933120172acca440f548b3294c765bf44012c",
    "cli check quick":
        "bf8af80552bb7c27c13d2a2d7000156cd40350dda4462bccbad324cd1260aaf7",
    "cli sweep-force inner-quarter const-ri vanished and frozen":
        "3c4cc483127531b910088d95bf76f8d5caec61bc7b61cd5bf51a159c0004d2a6",
    "cli sweep-force outer-quarter const-t across eta = 1":
        "b71766dbd77ec2ee4b195911b121d4020a3a55b4c9c5c44e3c8199e411b58f9d",
    "cli sweep-force inner-half const-ro legacy width":
        "7d9741744bc59cc9b633f7776e914062f1dd97d275f082a33b2a847710ab0837",
    "cli sweep-permeance outer-half ro":
        "fc0a9c62a3be8ae04bf5ab73b65d8aa04bf836bde866c3d911396a7f5f9fc472",
    "cli sweep-permeance inner-quarter t normalized":
        "e4221e513db0aaf4169351df30fe59acfae0e0d179a857fd805eb7c415d49859",
    "cli sweep-permeance outer-quarter ri legacy width":
        "d17a2e4d3b570375cfbdadd71dff0e2f2c9d55b79fea17c8d1c63b377236105e",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", list(GROUPS))
def test_golden_hash(group):
    assert _digest(GROUPS[group]()) == GOLDEN[group], f"golden group {group!r} changed"
