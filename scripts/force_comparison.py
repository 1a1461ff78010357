#!/usr/bin/env python3
"""Force-vs-stroke comparison of the exact outer-half torus against the legacy model.

Reference setup: t = R = 10 mm, 1 A of magnetic tension, gap ramped from
2 mm to 22 mm, legacy width 2 pi R.  Writes the CSV and prints a short
summary of the relative-deviation curve and the eta branch crossing.
"""

import argparse
import csv
from pathlib import Path

from toroflux import TorusGeometry, derive
from toroflux.cli import build_parser
from toroflux.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/force_comparison.csv")
    parser.add_argument("--samples", type=int, default=200)
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rc = cli_main(["sweep-force", "--range", f"lin:0.002:0.022:{args.samples}",
                   "--out", str(out)])
    if rc != 0:
        return rc

    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    devs = [float(r["rel_dev_percent"]) for r in rows]
    gaps = [float(r["g_m"]) for r in rows]
    # The CLI's own defaults (const-t): r_i = g/2, r_o = g/2 + t.
    ref = build_parser().parse_args(["sweep-force"])
    etas = [derive(TorusGeometry(ref.R, g / 2.0, g / 2.0 + ref.t)).eta for g in gaps]
    crossing = next((g for g, e in zip(gaps, etas) if e < 1.0), None)
    print(f"wrote {out}")
    print(f"relative deviation: {devs[0]:.2f} % at g = {gaps[0] * 1e3:.1f} mm "
          f"-> {devs[-1]:.2f} % at g = {gaps[-1] * 1e3:.1f} mm (max {max(devs):.2f} %)")
    print(f"eta ramps {etas[0]:.3f} -> {etas[-1]:.3f}; crosses 1 near "
          f"g = {crossing * 1e3:.2f} mm with no visible trace in the force")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
