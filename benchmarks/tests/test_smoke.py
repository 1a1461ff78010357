"""Tiny-size smoke test of the benchmark harness itself.

    python3 -m pytest benchmarks/tests -q

Runs every activity for one small unit, checks that the output checks can
fail, that the tracer restores every binding it replaced, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import toroflux as tf  # noqa: E402
from toroflux import cli as tf_cli  # noqa: E402

import activities  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_inputs_repeat_per_seed_with_a_fixed_mix():
    from collections import Counter
    a, b, c = inputs.circuit_pool(7, 440), inputs.circuit_pool(7, 440), inputs.circuit_pool(8, 440)
    assert a == b and a != c
    assert Counter((r.kind, r.mode) for r in a) == Counter((r.kind, r.mode) for r in c)
    assert not any(r.refusal for r in a)
    e, f = inputs.edge_pool(7), inputs.edge_pool(8)
    assert e == inputs.edge_pool(7) and e != f
    assert Counter(r.category for r in e) == Counter(r.category for r in f) == dict(inputs.EDGE_MIX)
    assert inputs.sweep_pool(7, 4) == inputs.sweep_pool(7, 4)
    assert [s.rows for s in inputs.sweep_pool(7, 4)] == [s.rows for s in inputs.sweep_pool(8, 4)]


def test_every_activity_runs_and_verifies(tmp_path):
    acts = {
        "circuit-scalar": activities.Circuit(3, pool_size=200, edge_scale=0.1),
        "sweep-bulk": activities.SweepBulk(3, tmp_path, pool_size=4, rows=40),
        "cli-oneshot": activities.CliOneshot(3, ROOT, pool_size=3),
        "oracle-check": activities.OracleCheck(),
    }
    metrics = {}
    for act in acts.values():
        for _ in range(3):  # three CLI units cover the three commands
            act.unit()
        metrics.update(act.metrics())
    acts["circuit-scalar"].run_edges()
    assert set(metrics) == set(run.UNITS) - {"setup_s", "peak_rss_mb"}
    assert all(v > 0 for v in metrics.values())
    verdict = activities.Verdict()
    assert sum(act.verify(verdict) for act in acts.values()) == 0, verdict.failures
    assert verdict.checked["permeance vs quadrature"] > 0
    assert verdict.checked["gradient vs finite differences"] > 0
    assert verdict.checked["refusal"] > 0
    # The eta = 1 window points miss the 1e-9 bound and are reported apart.
    assert verdict.known and all(k["rel_err"] > activities.PERMEANCE_BOUND for k in verdict.known)


def test_a_wrong_output_is_counted_as_failed():
    req = next(r for r in inputs.circuit_pool(3, 200) if r.mode and not inputs.is_frozen(r)
               and activities._in_check_domain(r.kind, r.R, r.r_i, r.r_o))
    geom = tf.TorusGeometry(req.R, req.r_i, req.r_o)
    kind, mode = activities.KIND[req.kind], activities.MODE[req.mode]
    p, f = tf.permeance(kind, geom), tf.force(req.vm, kind, mode, geom)
    ok = activities.Verdict()
    activities.verify_request(ok, req, p, f, oracle=True)
    assert not ok.failures
    for bad_p, bad_f in ((tf.Permeance(p.value * (1 + 1e-6)), f),
                         (p, tf.ForceResult(f.F * 2, f.dGm * 2, f.Gm, True)),
                         (tf.DomainError("refused"), f)):
        v = activities.Verdict()
        activities.verify_request(v, req, bad_p, bad_f, oracle=True)
        assert v.failures


def test_tracer_counts_and_restores_bindings(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for _, m, a in tracing.TARGETS}
    init = tf.TorusGeometry.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "circuit"
        activities.Circuit(3, pool_size=100).run(100)
        tracer.phase = "sweep"
        sweep = activities.SweepBulk(3, tmp_path, pool_size=1, rows=20)
        sweep.unit()
        tracer.phase = "oracle"
        tf_cli.run_check("quick")
    finally:
        tracer.uninstall()
    assert {(m, a): getattr(sys.modules[m], a) for _, m, a in tracing.TARGETS} == originals
    assert tf.derive is originals["toroflux.core", "derive"]
    assert tf.TorusGeometry.__init__ is init
    agg = tracer.stats()
    tracer.self_check(agg)
    assert agg["circuit", "permeance.permeance"][0] >= 100
    # The sweep's own check runs in verify(), outside the traced phase.
    assert agg["sweep", "force.sweep_force"][0] == sweep.force_sweeps == 1
    assert sweep.verify(activities.Verdict()) == 0
    assert tracer.child_calls("oracle.gradient_fd", "permeance.permeance", "oracle") > 0
    with pytest.raises(RuntimeError, match="zero calls"):
        tracing.Tracer().self_check({})


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       900 |       1000 |     numpy",
        "import time:        20 |       1100 |   toroflux.oracle",
        "import time:        30 |       2000 | toroflux",
        "import time:        40 |        300 | toroflux.cli",
    ])
    got = tracing.import_breakdown(tracing.parse_importtime(stderr))
    assert got == pytest.approx({"total": 2.3, "numpy": 1.0, "oracle": 1.1})


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "circuit-scalar",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
