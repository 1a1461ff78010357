"""Seeded input generators for the four workloads, and their property reports.

Everything here is plain data built from ``random.Random(seed)``: the same
seed gives the same inputs on every platform, and the program under test
only ever sees the generated values.  The composition of each pool (how many
requests per category, rows per sweep, process types per cycle) is fixed and
only the geometry varies with the seed, so that run-to-run differences come
from the program rather than from a different mix.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

ETA_UNIT_WINDOW = 1.0e-6
"""Half-width of the documented eta = 1 window (README, numerical conventions)."""

CHECK_ETA_MARGIN = 1.0e-3
"""Distance from eta = 1 that the ``check`` oracle bounds presuppose."""

KINDS = ("inner-half", "lower-half", "outer-half", "inner-quarter", "outer-quarter")
OUTER_KINDS = ("outer-half", "outer-quarter")
INNER_KINDS = ("inner-half", "inner-quarter")
GAP_MODES = ("const-ro", "const-t")
MODES_OF = {
    "inner-half": GAP_MODES,
    "outer-half": GAP_MODES,
    "inner-quarter": GAP_MODES + ("const-ri",),
    "outer-quarter": GAP_MODES + ("const-ri",),
    "lower-half": (),
}


def eta_of(R: float, r_i: float, r_o: float) -> float:
    """eta = (R/t) ln(r_o/r_i), in the cancellation-free form the README documents."""
    u = (r_o - r_i) / r_i
    if u == 0.0:
        return R / r_i
    return (R / r_i) * (math.log1p(u) / u)


def branch_of(eta: float) -> str:
    if eta > 1.0 + ETA_UNIT_WINDOW:
        return "SUPER"
    if eta < 1.0 - ETA_UNIT_WINDOW:
        return "SUB"
    return "UNIT"


def tube_exists(kind: str, R: float, r_i: float, r_o: float) -> bool:
    """The documented existence rule: r_o > r_i, and r_o <= R on the inner side."""
    return r_o > r_i and not (kind in INNER_KINDS and r_o > R)


def solve_ro_for_eta(R: float, r_i: float, target: float) -> float:
    """Bisect r_o so that eta(R, r_i, r_o) == target (eta falls strictly with r_o)."""
    lo, hi = r_i * (1.0 + 1.0e-12), r_i * 1.0e8
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eta_of(R, r_i, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# circuit-scalar: one permeance call plus one force call per request
# ---------------------------------------------------------------------------

RAMP_STEPS = 40
"""Evenly spaced armature positions per actuator, as ``sweep_force`` samples a stroke."""

CIRCUIT_ACTUATORS = 198
"""Actuators per timed pool: 18 of each allowed (kind, mode) pair, 40 positions each."""

CIRCUIT_PAIRS = tuple((kind, mode) for kind in KINDS for mode in (MODES_OF[kind] or (None,)))
"""The 11 allowed (kind, mode) pairs, lower-half with no mode; the pool cycles through them."""

EDGE_MIX = (
    ("near-band", 40),
    ("unit-window", 40),
    ("vanished", 30),
    ("frozen", 20),
    ("refused", 30),
)
"""Edge-case requests per category; each run executes and checks all of them once, untimed."""

REFUSALS = ("lower-half-sub", "mode-not-allowed", "non-finite-vm")


@dataclass(frozen=True)
class Request:
    """One circuit request: permeance(kind, geom), then force(vm, kind, mode, geom).

    ``mode`` is None for lower-half, which has no force.  ``refusal`` names
    the documented rule the request breaks, if any.
    """

    kind: str
    mode: str | None
    R: float
    r_i: float
    r_o: float
    vm: float
    category: str
    refusal: str | None = None


def is_frozen(r: Request) -> bool:
    """An inner quarter driven past s = R: permeance frozen at r_o = R, no force."""
    return r.kind == "inner-quarter" and r.mode == "const-ri" and r.r_o > r.R > r.r_i


def _regular_geometry(rng: random.Random, kind: str) -> tuple[float, float, float]:
    # Same ranges as the check grid: several decades of R, kept clear of the
    # unit window and 5 % clear of the existence boundaries.
    while True:
        R = 10.0 ** rng.uniform(-4.0, 0.0)
        if kind in OUTER_KINDS:
            r_o = R * 10.0 ** rng.uniform(-1.3, 1.5)
        else:
            r_o = R * rng.uniform(0.05, 0.95)
        r_i = r_o * 10.0 ** rng.uniform(-2.7, math.log10(0.95))
        if abs(eta_of(R, r_i, r_o) - 1.0) >= CHECK_ETA_MARGIN:
            return R, r_i, r_o


def _mode(rng: random.Random, kind: str) -> str | None:
    modes = MODES_OF[kind]
    return rng.choice(modes) if modes else None


def _vm(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-1.0, 3.0)


def _near_eta1(rng: random.Random, category: str) -> Request:
    # |eta - 1| log-uniform: over [2e-6, 1e-3] outside the unit window, over
    # [1e-8, 9e-7] inside it, on both sides of eta = 1.
    if category == "unit-window":
        lo, hi = -8.0, math.log10(0.9 * ETA_UNIT_WINDOW)
    else:
        lo, hi = math.log10(2.0 * ETA_UNIT_WINDOW), -3.0
    kind = rng.choice(OUTER_KINDS)
    target = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
    R = 10.0 ** rng.uniform(-4.0, 0.0)
    r_i = R * 10.0 ** rng.uniform(-2.0, -0.05)
    return Request(kind, _mode(rng, kind), R, r_i, solve_ro_for_eta(R, r_i, target),
                   _vm(rng), category)


def _circuit_request(rng: random.Random, category: str, serial: int) -> Request:
    if category == "regular":
        kind = rng.choice(KINDS)
        return Request(kind, _mode(rng, kind), *_regular_geometry(rng, kind), _vm(rng), category)
    if category in ("near-band", "unit-window"):
        return _near_eta1(rng, category)
    if category == "vanished":
        kind = rng.choice(KINDS)
        R = 10.0 ** rng.uniform(-4.0, 0.0)
        r_i = R * 10.0 ** rng.uniform(-2.0, 0.0)
        case = serial % 3
        if case == 0:
            r_o = r_i * rng.uniform(0.3, 0.999)
        elif case == 1:
            r_o = r_i
        else:
            kind = rng.choice(INNER_KINDS)
            r_o = R * rng.uniform(1.05, 3.0)
            r_i = r_o * 10.0 ** rng.uniform(-2.7, math.log10(0.95))
        mode = rng.choice(GAP_MODES) if kind != "lower-half" else None
        return Request(kind, mode, R, r_i, r_o, _vm(rng), category)
    if category == "frozen":
        R = 10.0 ** rng.uniform(-4.0, 0.0)
        return Request("inner-quarter", "const-ri", R, R * rng.uniform(0.05, 0.9),
                       R * rng.uniform(1.02, 3.0), _vm(rng), category)
    refusal = REFUSALS[serial % len(REFUSALS)]
    if refusal == "lower-half-sub":
        while True:
            R = 10.0 ** rng.uniform(-4.0, 0.0)
            r_o = R * 10.0 ** rng.uniform(0.2, 1.5)
            r_i = r_o * 10.0 ** rng.uniform(-2.7, math.log10(0.95))
            if eta_of(R, r_i, r_o) < 1.0 - CHECK_ETA_MARGIN:
                return Request("lower-half", None, R, r_i, r_o, _vm(rng), category, refusal)
    kind = rng.choice(("inner-half", "outer-half") if refusal == "mode-not-allowed"
                      else ("inner-half", "outer-half", "inner-quarter", "outer-quarter"))
    geom = _regular_geometry(rng, kind)
    if refusal == "mode-not-allowed":
        return Request(kind, "const-ri", *geom, _vm(rng), category, refusal)
    return Request(kind, _mode(rng, kind), *geom, rng.choice((math.inf, -math.inf, math.nan)),
                   category, refusal)


def _lower_half_ramp(rng: random.Random, steps: int) -> Sweep:
    # Gap ramp at a fixed r_o <= 0.95 R, where the lower half is always on
    # its eta > 1 branch, run past g = 2 r_o where the tube vanishes.
    R = 10.0 ** rng.uniform(-4.0, 0.0)
    r_o = R * rng.uniform(0.2, 0.95)
    return Sweep((), "lower-half", R, steps, "const-ro", r_o, 0.05 * r_o, 2.2 * r_o)


def circuit_pool(seed: int, size: int = CIRCUIT_ACTUATORS * RAMP_STEPS) -> list[Request]:
    """Actuator ramps, as a reluctance-network solver steps armatures over their travel.

    Each actuator is one allowed (kind, mode) pair, in equal shares, with a
    travel drawn like the sweep-bulk ramps (R over four decades here); the
    pool visits its ``RAMP_STEPS`` evenly spaced positions in order.  So
    the shares of branches, vanished and frozen positions follow from the
    geometry; no request is a refusal.
    """
    rng = random.Random(seed)
    out = []
    for a in range(max(1, size // RAMP_STEPS)):
        kind, mode = CIRCUIT_PAIRS[a % len(CIRCUIT_PAIRS)]
        ramp = (_lower_half_ramp(rng, RAMP_STEPS) if mode is None
                else _force_sweep(rng, kind, mode, RAMP_STEPS, decades=(-4.0, 0.0)))
        vm = ramp.theta if mode is not None else _vm(rng)
        out += [Request(kind, None if kind == "lower-half" else mode, R, r_i, r_o, vm, "ramp")
                for R, r_i, r_o in sweep_geometries(ramp)]
    return out


def edge_pool(seed: int, scale: float = 1.0) -> list[Request]:
    """Edge cases with the fixed ``EDGE_MIX``: the eta = 1 band and window, vanished
    and frozen tubes, and documented refusals."""
    rng = random.Random(seed ^ 0xED6E)
    return [_circuit_request(rng, category, i) for category, count in EDGE_MIX
            for i in range(max(1, round(count * scale)))]


def circuit_properties(pool: list[Request]) -> dict:
    """Shares of the requests by kind, mode, branch and special case."""
    n = len(pool)
    branches: Counter = Counter()
    near = 0
    for r in pool:
        if tube_exists(r.kind, r.R, r.r_i, r.r_o):
            eta = eta_of(r.R, r.r_i, r.r_o)
            branches[branch_of(eta)] += 1
            near += abs(eta - 1.0) < CHECK_ETA_MARGIN
        else:
            branches["none"] += 1

    def share(counter: Counter) -> dict:
        return {k: round(v / n, 4) for k, v in sorted(counter.items())}

    return {
        "requests": n,
        "kind": share(Counter(r.kind for r in pool)),
        "mode": share(Counter(r.mode or "none" for r in pool)),
        "branch": share(branches),
        "near_eta1_band": round(near / n, 4),
        "unit_window": round(branches["UNIT"] / n, 4),
        "vanished": round(sum(not tube_exists(r.kind, r.R, r.r_i, r.r_o) and not is_frozen(r)
                              for r in pool) / n, 4),
        "frozen": round(sum(map(is_frozen, pool)) / n, 4),
        "refused": share(Counter(r.refusal for r in pool if r.refusal)),
    }


# ---------------------------------------------------------------------------
# sweep-bulk: long sweep-force ramps and sweep-permeance family sweeps
# ---------------------------------------------------------------------------

SWEEP_ROWS = 2000
"""Rows per sweep; every pool item writes exactly this many CSV data rows."""

SWEEP_PATTERN = ("force-gap", "family", "force-stroke", "family")
"""Fixed order of sweep types in the pool, so every cycle has the same mix."""

GAP_KINDS = ("inner-half", "outer-half", "inner-quarter", "outer-quarter")
STROKE_KINDS = ("inner-quarter", "outer-quarter")
"""Kinds and modes also follow the pool position, not the seed: the cost of a
row depends on them, and the seed is to change only the geometry."""

FAMILIES = 4


@dataclass(frozen=True)
class Sweep:
    """One ``toroflux`` sweep invocation: ``argv`` minus the ``--out`` path."""

    argv: tuple[str, ...]
    kind: str
    R: float
    rows: int
    mode: str | None = None
    fixed: float | None = None
    start: float = 0.0
    stop: float = 0.0
    theta: float = 1.0
    families: tuple[float, ...] = ()


def _force_sweep(rng: random.Random, kind: str, mode: str, rows: int,
                 decades: tuple[float, float] = (-3.0, -1.0)) -> Sweep:
    R = 10.0 ** rng.uniform(*decades)
    theta = 10.0 ** rng.uniform(-1.0, 2.0)
    if mode == "const-ri":
        # Stroke s = r_o from below r_i (vanished rows) past R (frozen rows
        # for the inner quarter); the fractions are independent of the seed.
        fixed = R * rng.uniform(0.05, 0.5)
        start, stop = 0.5 * fixed, 2.5 * R
        flag = "--ri"
    elif mode == "const-ro":
        # The gap g = 2 r_i ramps past 2 r_o, where the tube vanishes.
        fixed = R * (rng.uniform(0.3, 0.9) if kind in INNER_KINDS else rng.uniform(0.5, 3.0))
        start, stop = 0.05 * fixed, 2.2 * fixed
        flag = "--ro"
    else:
        fixed = R * 10.0 ** rng.uniform(-1.0, -0.3)
        start, stop = 0.02 * R, 1.5 * R
        flag = "--t"
    argv = ("sweep-force", "--kind", kind, "--mode", mode, "--R", repr(R), flag, repr(fixed),
            "--theta", repr(theta), "--range", f"lin:{start!r}:{stop!r}:{rows}")
    return Sweep(argv, kind, R, rows, mode, fixed, start, stop, theta)


def _family_sweep(rng: random.Random, kind: str, normalized: bool, rows: int) -> Sweep:
    R = 10.0 ** rng.uniform(-3.0, -1.0)
    if kind in OUTER_KINDS:
        fams = sorted(round(10.0 ** rng.uniform(-0.5, 0.7), 6) for _ in range(FAMILIES))
    else:
        # Inner and lower tubes stay at r_o/R <= 0.95: the lower half has no
        # eta < 1 branch, and this keeps every inner row an existing tube.
        fams = sorted(round(rng.uniform(0.2, 0.95), 6) for _ in range(FAMILIES))
    per = rows // FAMILIES
    start = 10.0 ** rng.uniform(-3.0, -2.0)
    # --range stop 1.0 is clamped to each family's r_o/R, so every family
    # sweeps r_i/R from start up to r_o/R (the last row a degenerate tube).
    argv = ("sweep-permeance", "--kind", kind, "--R", repr(R),
            "--family", ",".join(repr(f) for f in fams), "--range", f"log:{start!r}:1.0:{per}")
    if normalized:
        argv += ("--normalized",)
    return Sweep(argv, kind, R, per * FAMILIES, start=start, stop=1.0, families=tuple(fams))


def sweep_pool(seed: int, size: int = 16, rows: int = SWEEP_ROWS) -> list[Sweep]:
    rng = random.Random(seed)
    out = []
    for i in range(size):
        kind = SWEEP_PATTERN[i % len(SWEEP_PATTERN)]
        if kind == "family":
            j = i // 2  # the j-th family sweep
            out.append(_family_sweep(rng, KINDS[j % len(KINDS)], j % 2 == 1, rows))
        elif kind == "force-stroke":
            out.append(_force_sweep(rng, STROKE_KINDS[(i // 4) % 2], "const-ri", rows))
        else:
            j = i // 4  # the j-th gap sweep; 32 of them cover every (kind, mode) pair
            out.append(_force_sweep(rng, GAP_KINDS[j % 4], GAP_MODES[(j + j // 4) % 2], rows))
    return out


def sweep_geometries(s: Sweep) -> list[tuple[float, float, float]]:
    """(R, r_i, r_o) of every row, by the documented sampling of each sweep type."""
    if s.families:
        per = s.rows // len(s.families)
        out = []
        for ratio in s.families:
            stop = min(s.stop, ratio)
            for k in range(per):
                frac = s.start * (stop / s.start) ** (k / (per - 1))
                out.append((s.R, frac * s.R, ratio * s.R))
        return out
    step = (s.stop - s.start) / (s.rows - 1)
    out = []
    for k in range(s.rows):
        v = s.start + k * step
        if s.mode == "const-ro":
            out.append((s.R, v / 2.0, s.fixed))
        elif s.mode == "const-t":
            out.append((s.R, v / 2.0, v / 2.0 + s.fixed))
        else:
            out.append((s.R, s.fixed, v))
    return out


def sweep_properties(pool: list[Sweep]) -> dict:
    """Rows per eta branch, vanished rows and frozen rows over one pool cycle."""
    rows: Counter = Counter()
    for s in pool:
        for R, r_i, r_o in sweep_geometries(s):
            if s.mode == "const-ri" and s.kind == "inner-quarter" and r_o > R > r_i:
                rows["frozen"] += 1
            elif not tube_exists(s.kind, R, r_i, r_o):
                rows["vanished"] += 1
            else:
                rows[branch_of(eta_of(R, r_i, r_o))] += 1
    total = sum(rows.values())
    return {
        "sweeps": len(pool),
        "rows": total,
        "by_type": dict(Counter(s.argv[0] for s in pool)),
        "rows_share": {k: round(v / total, 4) for k, v in sorted(rows.items())},
    }


# ---------------------------------------------------------------------------
# cli-oneshot: fresh processes of permeance, default sweep-force, check --preset quick
# ---------------------------------------------------------------------------

CLI_TYPES = ("permeance", "sweep-force", "check")


def cli_pool(seed: int, size: int = 63) -> list[tuple[str, tuple[str, ...], Request | None]]:
    """(type, argv, request) triples cycling through the three commands in order.

    The size is a multiple of three, so the order holds across the wrap.
    """
    rng = random.Random(seed)
    out = []
    for i in range(size):
        kind = CLI_TYPES[i % len(CLI_TYPES)]
        if kind == "permeance":
            # Mostly existing tubes, one in eight vanished (prints 0 and a warning).
            req = _circuit_request(rng, "vanished" if i % 8 == 0 else "regular", i)
            argv = ("permeance", "--kind", req.kind, "--R", repr(req.R),
                    "--ri", repr(req.r_i), "--ro", repr(req.r_o))
            out.append((kind, argv, req))
        elif kind == "sweep-force":
            out.append((kind, ("sweep-force",), None))
        else:
            out.append((kind, ("check", "--preset", "quick"), None))
    return out


def cli_properties(pool) -> dict:
    reqs = [r for _, _, r in pool if r is not None]
    return {
        "processes_per_cycle": len(pool),
        "by_type": dict(Counter(t for t, _, _ in pool)),
        "permeance_kinds": dict(sorted(Counter(r.kind for r in reqs).items())),
        "permeance_vanished": sum(not tube_exists(r.kind, r.R, r.r_i, r.r_o) for r in reqs),
    }
