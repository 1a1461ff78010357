"""Traced run: spans around each layer's public calls, exact counters, import probes.

Instrumentation works from outside the program.  Every binding of a target
function found in the ``toroflux.*`` module namespaces is replaced by a
wrapper that records a span, and ``TorusGeometry.__init__`` is wrapped on the
class.  A span is ``(name, start_ns, end_ns, parent, request, phase, ok)``;
spans stay in memory and are written out when the run ends.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import toroflux as tf

TARGETS = (
    ("core.derive", "toroflux.core", "derive"),
    ("core.validate", "toroflux.core", "validate"),
    ("permeance.permeance", "toroflux.permeance", "permeance"),
    ("permeance.legacy", "toroflux.permeance", "legacy_half_hollow_cylinder"),
    ("force.permeance_gradient", "toroflux.force", "permeance_gradient"),
    ("force.force", "toroflux.force", "force"),
    ("force.sweep_force", "toroflux.force", "sweep_force"),
    ("cli.main", "toroflux.cli", "main"),
    ("cli.run_check", "toroflux.cli", "run_check"),
    ("oracle.sampling", "toroflux.cli", "_sample_geometries"),
    ("oracle.permeance_quadrature", "toroflux.oracle", "permeance_quadrature"),
    ("oracle.gradient_fd", "toroflux.oracle", "gradient_fd"),
    ("oracle.adaptive_simpson", "toroflux.oracle", "adaptive_simpson"),
)
"""(span name, module, attribute) of every instrumented public call."""


class Tracer:
    """Records spans and counters while installed; restores every binding on uninstall."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.phase = ""
        self.counts: Counter = Counter()
        self.simpson_levels: dict[str, int] = defaultdict(int)
        self._restore: list = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request, self.phase, ok)

        return wrapper

    def _simpson(self, fn):
        # Counts integrand abscissae and refinement levels: the seed grid is
        # one integrand call, each level below it two more.
        def counted_simpson(f, a, b, *args, **kwargs):
            calls = 0

            def integrand(x):
                nonlocal calls
                calls += 1
                self.counts[self.phase, "fevals"] += int(np.size(x))
                return f(x)

            try:
                value, converged = fn(integrand, a, b, *args, **kwargs)
            finally:
                level = max(0, (calls - 1) // 2)
                self.simpson_levels[self.phase] = max(self.simpson_levels[self.phase], level)
            self.counts[self.phase, "nonconverged"] += not converged
            return value, converged

        return self._span("oracle.adaptive_simpson", counted_simpson)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "toroflux" or n.startswith("toroflux."))]
        for name, module, attr in TARGETS:
            orig = getattr(sys.modules[module], attr, None)
            if orig is None:
                raise RuntimeError(f"instrumentation target {module}.{attr} is gone; "
                                   "update the benchmark's TARGETS")
            wrapper = self._simpson(orig) if name == "oracle.adaptive_simpson" else self._span(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))
        cls = tf.TorusGeometry
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._span("core.geometry", cls.__init__)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def stats(self) -> dict:
        """(phase, name) -> [calls, total_ns, self_ns, raised]."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        agg: dict = defaultdict(lambda: [0, 0, 0, 0])
        for i, (name, t0, t1, _, _, phase, ok) in enumerate(self.spans):
            a = agg[phase, name]
            a[0] += 1
            a[1] += t1 - t0
            a[2] += t1 - t0 - child[i]
            a[3] += not ok
        return agg

    def child_calls(self, parent_name: str, child_name: str, phase: str) -> int:
        spans = self.spans
        return sum(1 for s in spans if s[0] == child_name and s[5] == phase and s[3] >= 0
                   and spans[s[3]][0] == parent_name)

    def self_check(self, agg: dict) -> None:
        """Fail loudly if an instrumented call or counter saw nothing."""
        calls = Counter()
        for (_, name), a in agg.items():
            calls[name] += a[0]
        missing = [name for name, _, _ in TARGETS if not calls[name]]
        missing += [] if calls["core.geometry"] else ["core.geometry"]
        missing += [] if sum(v for (_, k), v in self.counts.items() if k == "fevals") else ["fevals"]
        if missing:
            raise RuntimeError(f"traced run saw zero calls of {missing}: a target was renamed "
                               "or bypassed; update the benchmark's TARGETS")

    def write(self, path: Path) -> None:
        """Spans as JSON lines after a header line of field names; times in ns from the first span."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request", "phase", "ok"]) + "\n")
            for name, t0, t1, parent, request, phase, ok in self.spans:
                fh.write(json.dumps([name, t0 - base, t1 - base, parent, request, phase, ok]) + "\n")


# ---------------------------------------------------------------------------
# interpreter start and import probes
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> list[tuple[str, int, int]]:
    """(module, nesting depth, cumulative us) for every ``-X importtime`` line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, column = line[len("import time:"):].split("|")
        depth = (len(column) - len(column.lstrip()) - 1) // 2
        rows.append((column.strip(), depth, int(cumulative)))
    return rows


def import_breakdown(rows: list[tuple[str, int, int]]) -> dict:
    def cumulative(module: str) -> int:
        return next((c for n, _, c in rows if n == module), 0)

    total = sum(c for n, d, c in rows if d == 0 and (n == "toroflux" or n.startswith("toroflux.")))
    return {"total": total * 1e-3, "numpy": cumulative("numpy") * 1e-3,
            "oracle": cumulative("toroflux.oracle") * 1e-3}


def import_probes(run_python, repeats: int = 3) -> dict:
    """Interpreter floor and import costs in ms; the caller has already warmed .pyc files."""
    floor = statistics.median(run_python(["-c", "pass"])[0] for _ in range(2 * repeats - 1))
    found = {}
    for stmt in ("import toroflux", "import toroflux.cli"):
        runs = []
        for _ in range(repeats):
            _, proc = run_python(["-X", "importtime", "-c", stmt])
            runs.append(import_breakdown(parse_importtime(proc.stderr)))
        found[stmt] = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    cli = found["import toroflux.cli"]
    return {
        "cli.interp_start.ms": floor * 1e3,
        "cli.import_package.ms": found["import toroflux"]["total"],
        "cli.import.ms": cli["total"],
        "cli.import_numpy.ms": cli["numpy"],
        "cli.import_oracle.ms": cli["oracle"],
    }
