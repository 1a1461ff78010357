#!/usr/bin/env python3
"""toroflux benchmark: four workloads, end-to-end metrics or a traced per-layer run.

    python3 benchmarks/run.py --workload circuit-scalar --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` (never from an installed copy), and fresh CLI processes get
the same ``src`` on ``PYTHONPATH``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the environment, the input properties, the correctness
verdict with any failing inputs, and every metric with its unit.  A full
report, and the spans of a traced run, go to ``.bench_out/`` in the checkout.

Every run measures every end-to-end metric.  The run is split into rounds;
in each round every activity the workload does not name runs one small
fixed unit (some only every few rounds), and the named activity
fills the rest of the round.  So the named workload's own metrics come from
most of the run, and every metric samples the whole run, which keeps them
from landing in one fast or slow stretch of the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("circuit-scalar", "sweep-bulk", "cli-oneshot", "oracle-check")
ROUNDS = 30
HOME_SHARE = 0.25
"""Least share of the run's time the workload's own activity gets by the end
of each round, even when the probe units overrun their rounds."""
SETUP_REPEATS = 7
SETUP_STATEMENT = "import toroflux, toroflux.cli"

UNITS = {
    "evals_per_s": "1/s", "eval_us_p50": "us", "eval_us_p99": "us", "rows_per_s": "1/s",
    "cli_permeance_ms_p50": "ms", "cli_sweep_force_ms_p50": "ms", "cli_check_ms_p50": "ms",
    "cli_ms_p90": "ms", "check_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "core.derive.us": "us",
    "core.validate.us": "us",
    "core.derive.calls_per_request": "calls/request",
    "core.geometry.us": "us",
    "permeance.permeance.us": "us",
    "permeance.self.us": "us",
    "permeance.legacy.us": "us",
    "force.permeance_gradient.us": "us",
    "force.force.us": "us",
    "force.sweep_force.row_us": "us",
    "force.refusals": "count",
    "cli.interp_start.ms": "ms",
    "cli.import_package.ms": "ms",
    "cli.import.ms": "ms",
    "cli.import_numpy.ms": "ms",
    "cli.import_oracle.ms": "ms",
    "cli.compute.permeance.ms": "ms",
    "cli.compute.sweep_force.ms": "ms",
    "cli.compute.check.ms": "ms",
    "cli.csv.row_us": "us",
    "cli.exit_nonzero": "count",
    "oracle.permeance_quadrature.us": "us",
    "oracle.gradient_fd.us": "us",
    "oracle.sampling.us": "us",
    "oracle.adaptive_simpson.fevals": "count",
    "oracle.adaptive_simpson.max_level": "count",
    "oracle.gradient_fd.permeance_calls": "count",
    "oracle.nonconverged": "count",
    "trace.overhead_pct": "%",
}

TRACE_UNITS = {"circuit-scalar": 8, "sweep-bulk": 4, "cli-oneshot": 3, "oracle-check": 1}
"""Units per activity in a traced run; the workload's own activity runs them in
each of two traced and two untraced halves.  Four sweeps are one cycle of
sweep types, so the per-row layers always see the same mix."""
COUNT_SEED = 0
"""Seed of the fixed circuit pool the exact derive counter runs over."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "toroflux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(ROOT), "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MiB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def build(seed: int, workdir: Path) -> dict:
    from activities import Circuit, CliOneshot, OracleCheck, SweepBulk

    return {
        "circuit-scalar": Circuit(seed),
        "sweep-bulk": SweepBulk(seed, workdir),
        "cli-oneshot": CliOneshot(seed, ROOT),
        "oracle-check": OracleCheck(),
    }


def properties(acts: dict) -> dict:
    from inputs import circuit_properties, cli_properties, sweep_properties

    return {
        "circuit-scalar": circuit_properties(acts["circuit-scalar"].requests),
        "circuit-edges": circuit_properties(acts["circuit-scalar"].edges),
        "sweep-bulk": sweep_properties(acts["sweep-bulk"].pool),
        "cli-oneshot": cli_properties(acts["cli-oneshot"].pool),
        "oracle-check": {"preset": "full"},
    }


def run_python(args: list[str]):
    from activities import python_process, subprocess_env

    wall, proc = python_process(args, subprocess_env(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the package and its CLI.

    Each one follows a process reference, which joins the run's references;
    the caller corrects the result by their median once the run is done.
    """
    from activities import REF_PROCESS, REFS

    run_python(["-c", SETUP_STATEMENT])  # warm-up: .pyc compilation is not timed
    times = []
    for _ in range(SETUP_REPEATS):
        REFS["process"].append(round(run_python(["-c", REF_PROCESS])[0] * 1e9))
        times.append(run_python(["-c", SETUP_STATEMENT])[0])
    return statistics.median(times)


def measured_run(workload: str, seconds: float, acts: dict) -> dict:
    """The end-to-end run: ROUNDS rounds of probe units of the other activities, then the workload's own."""
    from activities import CliOneshot

    home = acts[workload]
    start = time.perf_counter()
    home_s = 0.0
    for r in range(ROUNDS):
        for act in acts.values():
            if act is not home and r % act.PROBE_EVERY == 0:
                act.unit()
        now = time.perf_counter()
        owed = HOME_SHARE * (r + 1) * seconds / ROUNDS - home_s
        deadline = max(start + (r + 1) * seconds / ROUNDS, now + owed)
        if isinstance(home, CliOneshot):
            short = CliOneshot.MIN_PROCESSES - home.attempted
            home.run_until(deadline, minimum=math.ceil(short / (ROUNDS - r)))
        else:
            home.run_until(deadline)
        home_s += time.perf_counter() - now
    if not home.attempted:  # only for a --seconds too short for the probes
        home.unit()
    acts["circuit-scalar"].run_edges()  # checked, untimed
    metrics = {}
    for act in acts.values():
        metrics.update(act.metrics())
    return metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


PHASE = {"circuit-scalar": "circuit", "sweep-bulk": "sweep", "cli-oneshot": "cli",
         "oracle-check": "oracle"}


def compute_probe(argv_permeance: list[str], repeats: int = 5) -> dict:
    """Warm in-process ``cli.main`` wall time per command, in ms (stdout discarded)."""
    import contextlib
    import io

    from toroflux import cli

    out = {}
    for name, argv in (("permeance", argv_permeance), ("sweep_force", ["sweep-force"]),
                       ("check", ["check", "--preset", "quick"])):
        times = []
        for i in range(repeats + 1):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"in-process cli.main({argv}) returned {code}")
            if i:
                times.append(wall * 1e3)
        out[f"cli.compute.{name}.ms"] = statistics.median(times)
    return out


def traced_run(workload: str, seed: int, acts: dict, workdir: Path, spans_path: Path):
    """Per-layer metrics.  Returns (metrics, extra activities to verify, overhead detail)."""
    from activities import Circuit
    from tracing import Tracer, import_probes

    perm_argv = next(list(argv) for kind, argv, req in acts["cli-oneshot"].pool
                     if kind == "permeance" and req.category == "regular")
    metrics = {}
    run_python(["-c", SETUP_STATEMENT])  # warm-up: .pyc compilation is not timed
    metrics.update(import_probes(run_python))
    metrics.update(compute_probe(perm_argv))

    tracer = Tracer()
    reference = build(seed, workdir)[workload]
    home = acts[workload]
    phase = PHASE[workload]

    compute_ms = {False: 0.0, True: 0.0}

    def run_home(act, traced: bool) -> None:
        if traced:
            tracer.install()
            tracer.phase = phase
        try:
            if workload == "cli-oneshot":
                compute_ms[traced] += sum(compute_probe(perm_argv, repeats=3).values())
            if isinstance(act, Circuit):
                act.tracer = tracer if traced else None
            for _ in range(TRACE_UNITS[workload]):  # fresh CLI processes are not traced
                tracer.request += 1
                act.unit()
        finally:
            tracer.uninstall()

    for _ in range(2):  # alternate untraced and traced halves against drift
        run_home(reference, traced=False)
        run_home(home, traced=True)

    tracer.install()
    try:
        for name, act in acts.items():
            if act is home:
                continue
            tracer.phase = PHASE[name]
            if isinstance(act, Circuit):
                act.tracer = tracer
            for _ in range(TRACE_UNITS[name]):
                tracer.request += 1
                act.unit()
        tracer.phase = "count"
        counting = Circuit(COUNT_SEED)
        counting.tracer = tracer
        counting.run(len(counting.calls))
        tracer.phase = "edges"
        acts["circuit-scalar"].run_edges()
    finally:
        tracer.uninstall()

    agg = tracer.stats()
    tracer.self_check(agg)
    sweep, cli = acts["sweep-bulk"], acts["cli-oneshot"]
    if agg["sweep", "force.sweep_force"][0] != sweep.force_sweeps:
        raise RuntimeError(f"{agg['sweep', 'force.sweep_force'][0]} sweep_force spans for "
                           f"{sweep.force_sweeps} force sweeps: the sweep phase saw other calls")
    tracer.write(spans_path)

    def mean_us(phase_: str, name: str, self_time: bool = False) -> float:
        calls, total, own, _ = agg[phase_, name]
        return (own if self_time else total) / calls * 1e-3 if calls else 0.0

    checks = acts["oracle-check"].attempted
    metrics.update({
        "core.derive.us": mean_us("circuit", "core.derive"),
        "core.validate.us": mean_us("circuit", "core.validate"),
        "core.derive.calls_per_request": agg["count", "core.derive"][0] / counting.done,
        "core.geometry.us": mean_us("sweep", "core.geometry"),
        "permeance.permeance.us": mean_us("circuit", "permeance.permeance"),
        "permeance.self.us": mean_us("circuit", "permeance.permeance", self_time=True),
        "permeance.legacy.us": mean_us("sweep", "permeance.legacy"),
        "force.permeance_gradient.us": mean_us("circuit", "force.permeance_gradient"),
        "force.force.us": mean_us("circuit", "force.force"),
        "force.sweep_force.row_us": agg["sweep", "force.sweep_force"][1] * 1e-3 / max(1, sweep.force_rows),
        "force.refusals": agg["edges", "force.force"][3],
        "cli.csv.row_us": agg["sweep", "cli.main"][2] * 1e-3 / max(1, sweep.rows),
        "cli.exit_nonzero": cli.exit_nonzero,
        "oracle.permeance_quadrature.us": mean_us("oracle", "oracle.permeance_quadrature"),
        "oracle.gradient_fd.us": mean_us("oracle", "oracle.gradient_fd"),
        "oracle.sampling.us": mean_us("oracle", "oracle.sampling"),
        "oracle.adaptive_simpson.fevals": tracer.counts["oracle", "fevals"] // checks,
        "oracle.adaptive_simpson.max_level": tracer.simpson_levels["oracle"],
        "oracle.gradient_fd.permeance_calls":
            tracer.child_calls("oracle.gradient_fd", "permeance.permeance", "oracle") // checks,
        "oracle.nonconverged": tracer.counts["oracle", "nonconverged"],
    })

    if workload == "cli-oneshot":
        measure, untraced, traced = "in-process cli.main ms, all three commands", \
            compute_ms[False], compute_ms[True]
    else:
        measure = {"circuit-scalar": "eval_us_p50", "sweep-bulk": "rows_per_s",
                   "oracle-check": "check_s_p50"}[workload]
        untraced, traced = reference.metrics()[measure], home.metrics()[measure]
        if measure == "rows_per_s":
            untraced, traced = 1.0 / untraced, 1.0 / traced
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    overhead = {"measure": measure, "untraced": untraced, "traced": traced}
    return metrics, [reference], overhead


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "toroflux" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'toroflux'}; run from a toroflux checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toroflux

    if Path(toroflux.__file__).resolve().parent != (SRC / "toroflux").resolve():
        print(f"error: imported toroflux from {toroflux.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from activities import Verdict, process_excess, speed_report

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = environment(args)
        acts = build(args.seed, workdir)
        props = properties(acts)
        print("env " + json.dumps(env))
        for name, prop in props.items():
            print(f"properties {name} " + json.dumps(prop))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        overhead = None
        extra = []
        if args.trace:
            metrics, extra, overhead = traced_run(args.workload, args.seed, acts, workdir,
                                                  OUT / f"spans-{args.workload}.jsonl")
            print("trace overhead " + json.dumps(overhead))
        else:
            setup_s = measure_setup()
            metrics = measured_run(args.workload, args.seconds, acts)
            metrics["setup_s"] = setup_s - process_excess()
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = Verdict()
    failed = sum(act.verify(verdict) for act in [*acts.values(), *extra])
    attempted = sum(act.attempted for act in [*acts.values(), *extra])
    print("verdict " + json.dumps(verdict.report()))
    for failure in verdict.failures[:20]:
        print("FAILED " + json.dumps(failure))
    for known in verdict.known[:20]:
        print("KNOWN-DEFECT " + json.dumps(known))
    print("speed " + json.dumps(speed_report()))
    units = LAYER_UNITS if args.trace else UNITS
    result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    for name, m in result_metrics.items():
        print(f"metric {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"metric {'error_rate':36s} {failed / max(1, attempted):.6g} failed/attempted "
          f"({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    report = {"env": env, "properties": props, "verdict": verdict.report(),
              "failures": verdict.failures, "known_defects": verdict.known,
              "speed": speed_report(), "error_rate": failed / max(1, attempted),
              "trace_overhead": overhead, **result}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
