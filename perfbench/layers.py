"""Per-layer metrics from the spans `trace_runner.py` writes, one file per job.

A layer is a polymerqm module; the propagators module is split into
three groups (evolve, checks, and point evaluation for everything
else). A span belongs to the layer of its function. Each span's self
time is its duration minus the durations of its direct child spans.
The self time of a span nested in a span of the same layer (or group)
goes to the outermost such span, its entry, and `calls` counts entries:
the calls that came into the layer from another layer or from the job.
"""

from __future__ import annotations

import numpy as np

EVOLVE = {"propagators.evolve"}
CHECKS = {"propagators.composition_check", "propagators.greens_residual",
          "propagators.greens_residual_fd", "propagators.continuum_sweep"}

# (name, unit, better) in the order they are reported
METRICS = (
    ("bessel.calls", "count", "lower"), ("bessel.self_s", "s", "lower"),
    ("bessel.orders_returned", "count", "lower"),
    ("bessel.useful_ratio", "ratio", "higher"),
    ("bessel.distinct_z_ratio", "ratio", "higher"),
    ("propagators.evolve.calls", "count", "lower"),
    ("propagators.evolve.self_s", "s", "lower"),
    ("propagators.evolve.sites_out", "count", "higher"),
    ("propagators.evolve.peak_mb", "MB", "lower"),
    ("propagators.point.calls", "count", "lower"),
    ("propagators.point.self_s", "s", "lower"),
    ("propagators.checks.calls", "count", "lower"),
    ("propagators.checks.self_s", "s", "lower"),
    ("stateio.load.self_s", "s", "lower"), ("stateio.save.self_s", "s", "lower"),
    ("stateio.rows", "count", "higher"), ("stateio.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"), ("cli.rows_emitted", "count", "higher"),
    ("cli.bytes_emitted", "bytes", "lower"),
    ("verify.calls", "count", "lower"), ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("dynamics.calls", "count", "lower"), ("dynamics.self_s", "s", "lower"),
    ("lattice.calls", "count", "lower"), ("lattice.self_s", "s", "lower"),
    ("startup.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_of(name: str) -> str:
    if name in EVOLVE:
        return "propagators.evolve"
    if name in CHECKS:
        return "propagators.checks"
    if name.startswith("propagators."):
        return "propagators.point"
    return name.split(".", 1)[0]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - child


def entries(parent: np.ndarray, layer: list) -> np.ndarray:
    """Index of the outermost same-layer ancestor of every span.

    Spans are numbered in start order, so a parent precedes its children.
    """
    entry = np.arange(len(parent))
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and layer[p] == layer[i]:
            entry[i] = entry[p]
    return entry


class LayerTotals:
    """Sums the per-job span files of one traced pass."""

    def __init__(self):
        self.sums = {name: 0.0 for name, _, _ in METRICS}
        self.z_values: list = []
        self.table_calls = 0
        self.window_orders = 0.0
        self.evolve_peak = 0.0
        self.main_s = 0.0

    def add_job(self, spans: dict) -> None:
        names = spans["names"][spans["name_id"]].tolist()
        layer = [layer_of(n) for n in names]
        parent, start, end = spans["parent"], spans["start"], spans["end"]
        a1, a2 = spans["a1"], spans["a2"]
        own = self_times(parent, start, end)
        entry = entries(parent, layer)
        s = self.sums
        s["trace.spans"] += len(names)
        for i, name in enumerate(names):
            lay = layer[i]
            top = entry[i] == i
            if lay == "stateio":
                kind = "load" if names[entry[i]].endswith("load_wavefunction") else "save"
                s[f"stateio.{kind}.self_s"] += own[i]
            elif f"{lay}.self_s" in s:
                s[f"{lay}.self_s"] += own[i]
            if top and f"{lay}.calls" in s:
                s[f"{lay}.calls"] += 1
            if name == "cli.main" and parent[i] < 0:
                self.main_s += end[i] - start[i]
            elif name == "propagators.evolve":
                s["propagators.evolve.sites_out"] += a1[i]
            elif name in ("stateio.load_wavefunction", "stateio.save_wavefunction"):
                s["stateio.rows"] += a1[i]
                s["stateio.bytes"] += a2[i]
            elif name == "verify.run_suite" and top:
                s["verify.checks"] += a1[i]
            elif name == "bessel.bessel_table":
                self.z_values.append(a1[i])
                self.table_calls += 1
                s["bessel.orders_returned"] += a2[i] + 1
        max_orders = a2[np.array(names) == "bessel.bessel_table"]
        self.window_orders += float(np.sum(np.maximum(spans["bessel_window"],
                                                      max_orders + 1)))
        s["cli.rows_emitted"] += spans["emitted"][0]
        s["cli.bytes_emitted"] += spans["emitted"][1]

    def add_memory(self, peaks: np.ndarray) -> None:
        if len(peaks):
            self.evolve_peak = max(self.evolve_peak, float(np.max(peaks)))

    def metrics(self, traced_wall: float, untraced_wall: float,
                scale: float = 1.0) -> dict:
        """Layer metrics of the traced pass.

        `traced_wall` and the span times are measured seconds, scaled here
        by `scale` (the traced pass's reference-speed factor, see bench.py);
        `untraced_wall` is already in reference-speed seconds.
        """
        s = dict(self.sums)
        s["bessel.useful_ratio"] = (s["bessel.orders_returned"] / self.window_orders
                                    if self.window_orders else 0.0)
        s["bessel.distinct_z_ratio"] = (len(set(self.z_values)) / self.table_calls
                                        if self.table_calls else 0.0)
        s["propagators.evolve.peak_mb"] = self.evolve_peak / 2**20
        s["startup.self_s"] = traced_wall - self.main_s
        for name, unit, _ in METRICS:
            if unit == "s":
                s[name] *= scale
        s["trace.overhead_s"] = traced_wall * scale - untraced_wall
        s["trace.overhead_frac"] = traced_wall * scale / untraced_wall - 1.0
        return {name: {"value": int(s[name]) if unit in ("count", "bytes")
                       else float(s[name]), "unit": unit} for name, unit, _ in METRICS}
