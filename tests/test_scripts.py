"""Smoke tests of the scripts under scripts/: each runs end to end and writes its CSVs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_force_comparison_script(tmp_path):
    out = tmp_path / "force_comparison.csv"
    proc = run_script("force_comparison.py", "--out", str(out), "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["g_m", "Gm_new_H", "F_new_N", "Gm_legacy_H", "F_legacy_N",
                      "rel_dev_percent"]
    assert len(rows) == 5
    assert f"wrote {out}" in proc.stdout


def test_permeance_families_script(tmp_path):
    proc = run_script("permeance_families.py", "--outdir", str(tmp_path), "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    families = {"inner-half": 4, "lower-half": 4, "outer-half": 6}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"permeance_{kind}.csv" for kind in sorted(families)]
    for kind, count in families.items():
        header, rows = read_csv(tmp_path / f"permeance_{kind}.csv")
        assert header == ["ro_over_R", "swept_m", "swept_over_R", "Gm_over_mu0R",
                          "Gm_H", "Gm_legacy_H", "rel_dev", "exists"]
        assert len(rows) == count * 5
