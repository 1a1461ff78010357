"""Command-line front end: scalar permeance, CSV sweeps, and the oracle check.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error.
All output is deterministic for a given invocation; numbers are written with
full round-trip precision and '.' decimals, fields left empty where a value
is undefined.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import dataclass

from .core import (
    MU0,
    DomainError,
    FluxTubeKind,
    TorusGeometry,
    UsageError,
    finite_positive,
    validate,
)
from .force import (_MOTION, ActuatorSweepSpec, DriveMode, _legacy_width, _permeance_rows, _ramp,
                    sweep_force)
# _PRESETS and _sample_geometries are bound here only because tests read them, and the
# benchmark traces run_check and _sample_geometries, by their toroflux.cli names.
from .oracle import _PRESETS, _sample_geometries, run_check
from .permeance import permeance as _closed_permeance

_KINDS = {k.value: k for k in FluxTubeKind}
_MODES = {m.value: m for m in DriveMode}

MAX_SWEEP_ROWS = 1_000_000
"""Most rows one sweep command may build; every row is held in memory (about 1 KB each)."""


@dataclass(frozen=True)
class SweepRange:
    """Parsed --range flag: lin|log spacing from start to stop with n samples."""

    spacing: str
    start: float
    stop: float
    samples: int

    def values(self, stop: float | None = None) -> list[float]:
        stop = self.stop if stop is None else stop
        if self.spacing == "log":
            import numpy as np  # lazy: permeance, sweep-force and lin: ranges start without it

            return np.geomspace(self.start, stop, self.samples).tolist()
        return _ramp(self.start, stop, self.samples)


def parse_range(text: str) -> SweepRange:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("lin", "log"):
        raise UsageError(f"--range must be <lin|log>:<start>:<stop>:<n>, got {text!r}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        samples = int(parts[3])
    except ValueError as exc:
        raise UsageError(f"bad --range {text!r}: {exc}") from None
    if samples < 2:
        raise UsageError(f"--range needs n >= 2, got {samples}")
    if not (math.isfinite(start) and math.isfinite(stop)) or start >= stop:
        raise UsageError(f"--range needs start < stop, got {text!r}")
    if start <= 0.0:
        raise UsageError(f"--range endpoints must be positive, got {text!r}")
    return SweepRange(parts[0], start, stop, samples)


def _check_row_count(rows: int) -> None:
    if rows > MAX_SWEEP_ROWS:
        raise UsageError(f"sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS} rows")


def _check_positive_flags(args: argparse.Namespace, *names: str) -> None:
    # A length flag that is not finite and positive is bad input, exit 2,
    # rather than a domain failure of the computation it would feed.
    for name in names:
        value = getattr(args, name)
        if value is not None:
            try:
                finite_positive("--" + name.replace("_", "-"), value)
            except DomainError as exc:
                raise UsageError(str(exc)) from None


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    # csv writes a float as its repr(), which round-trips, and None as an empty field.
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_permeance(args: argparse.Namespace) -> int:
    _check_positive_flags(args, "R", "ri", "ro")
    geom = TorusGeometry(args.R, args.ri, args.ro)
    kind = _KINDS[args.kind]
    report = validate(kind, geom)
    if not report.exists:
        print(f"warning: tube does not exist ({report.reason}); permeance is 0",
              file=sys.stderr)
        print("0")
        return 0
    print(f"{_closed_permeance(kind, geom).value:.12g}")
    return 0


def cmd_sweep_permeance(args: argparse.Namespace) -> int:
    _check_positive_flags(args, "R", "ro", "t", "ri", "legacy_width")
    kind = _KINDS[args.kind]
    rng = parse_range(args.range)
    given = {"r_o": args.ro, "t": args.t, "r_i": args.ri}
    modes = [mode for mode, (held, _, _) in _MOTION.items() if given[held] is not None]
    if args.family is not None:
        if modes:
            raise UsageError("--family replaces --ro; do not combine with --ro/--t/--ri")
        try:
            families = [float(s) for s in args.family.split(",") if s]
        except ValueError:
            families = []  # a non-number: rejected below like an empty list
        if not families or any(not (math.isfinite(f) and f > 0.0) for f in families):
            raise UsageError(f"--family must be positive r_o/R ratios, got {args.family!r}")
        _check_row_count(len(families) * rng.samples)
        # (prefix, mode, fixed, swept) per curve: r_i swept as a fraction of R
        # at fixed r_o, clamped so r_i <= r_o per family curve.
        curves = [([ratio], DriveMode.CONST_OUTER_RADIUS, ratio * args.R,
                   [f * args.R for f in rng.values(stop=min(rng.stop, ratio))])
                  for ratio in families if min(rng.stop, ratio) > rng.start]
    else:
        if len(modes) != 1:
            raise UsageError("give exactly one fixed parameter: --ro, --t, --ri or --family")
        _check_row_count(rng.samples)
        curves = [([], modes[0], given[_MOTION[modes[0]][0]], rng.values())]

    header = ["swept_m"]
    if args.normalized:
        header += ["swept_over_R", "Gm_over_mu0R"]
    header += ["Gm_H", "Gm_legacy_H", "rel_dev", "exists"]
    if args.family is not None:
        header = ["ro_over_R"] + header
    R, normalized = args.R, args.normalized
    w = _legacy_width(R, args.legacy_width)
    mu0_R = MU0 * R
    # Below R of about 1.8e-302 m, mu0 R is subnormal or 0: divide by mu0, then by R.
    tiny = mu0_R < sys.float_info.min
    rows: list[list] = []
    for prefix, mode, fixed, swept in curves:
        for value, (gm, legacy, rel, exists) in zip(
                swept, _permeance_rows(kind, mode, R, fixed, swept, w)):
            row = prefix + [value]
            if normalized:
                row += [value / R, gm / MU0 / R if tiny else gm / mu0_R]
            rows.append(row + [gm, legacy, rel, "true" if exists else "false"])
    _write_csv(args.out, header, rows)
    return 0


def cmd_sweep_force(args: argparse.Namespace) -> int:
    rng = parse_range(args.range)
    if rng.spacing != "lin":
        raise UsageError("sweep-force uses a linear ramp; give --range lin:...")
    _check_row_count(rng.samples)
    spec = ActuatorSweepSpec(
        kind=_KINDS[args.kind],
        mode=_MODES[args.mode],
        R=args.R,
        start=rng.start,
        stop=rng.stop,
        samples=rng.samples,
        theta=args.theta,
        r_o=args.ro,
        t=args.t,
        r_i=args.ri,
        legacy_width=args.legacy_width,
    )
    header = ["g_m", "Gm_new_H", "F_new_N", "Gm_legacy_H", "F_legacy_N", "rel_dev_percent"]
    rows = [[r.g, r.gm, r.force, r.gm_legacy, r.force_legacy, r.rel_dev_percent]
            for r in sweep_force(spec)]
    _write_csv(args.out, header, rows)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = run_check(args.preset)
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        line = (f"{e.label:40s} n={e.n:<4d} worst rel err {e.worst_rel_err:.3e} "
                f"(bound {e.bound:.1e})  {status}")
        print(line)
        if not e.passed:
            g = e.worst_geom
            print(f"    worst at R={g.R!r} r_i={g.r_i!r} r_o={g.r_o!r}")
    print(f"RESULT: {'PASS' if report.passed else 'FAIL'} (preset={report.preset})")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toroflux",
        allow_abbrev=False,
        description="Permeance and reluctance-force models for hollow-toroid stray flux tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permeance", help="print the permeance of one tube in henry")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--R", type=float, required=True, help="pole radius [m]")
    p.add_argument("--ri", type=float, required=True, help="inner tube radius [m]")
    p.add_argument("--ro", type=float, required=True, help="outer tube radius [m]")
    p.set_defaults(func=cmd_permeance)

    p = sub.add_parser("sweep-permeance", help="CSV permeance sweep, optionally per r_o/R family")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--R", type=float, required=True, help="pole radius [m]")
    p.add_argument("--ro", type=float, help="fixed outer radius [m]; sweeps r_i")
    p.add_argument("--t", type=float, help="fixed thickness [m]; sweeps r_i")
    p.add_argument("--ri", type=float, help="fixed inner radius [m]; sweeps r_o")
    p.add_argument("--family", help="comma list of r_o/R ratios; --range is then r_i/R")
    p.add_argument("--range", required=True,
                   help="<lin|log>:<start>:<stop>:<n> in meters (r_i/R with --family)")
    p.add_argument("--legacy-width", type=float, dest="legacy_width",
                   help="legacy cylinder depth [m], default 2*pi*R")
    p.add_argument("--normalized", action="store_true",
                   help="also emit swept/R and Gm/(mu0 R) columns")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep_permeance)

    p = sub.add_parser("sweep-force", help="CSV force-vs-stroke sweep against the legacy model")
    p.add_argument("--kind", default="outer-half", choices=sorted(_KINDS))
    p.add_argument("--mode", default="const-t", choices=sorted(_MODES))
    p.add_argument("--R", type=float, default=0.01, help="pole radius [m], default 10 mm")
    p.add_argument("--ro", type=float, help="fixed outer radius [m] for const-ro")
    p.add_argument("--t", type=float, default=0.01,
                   help="fixed thickness [m] for const-t, default 10 mm")
    p.add_argument("--ri", type=float, help="fixed inner radius [m] for const-ri")
    p.add_argument("--theta", type=float, default=1.0, help="magnetic tension [A]")
    p.add_argument("--legacy-width", type=float, dest="legacy_width",
                   help="legacy cylinder depth [m], default 2*pi*R")
    p.add_argument("--range", default="lin:0.002:0.022:200",
                   help="lin:<start>:<stop>:<n>, gap or stroke [m]")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep_force)

    p = sub.add_parser("check", help="run the oracle suite; exit 0 iff every bound holds")
    p.add_argument("--preset", default="quick", choices=sorted(_PRESETS))
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
