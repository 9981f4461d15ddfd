"""Run one polymerqm CLI job with the library's layer boundaries traced.

    python perfbench/trace_runner.py SPANS_FILE [--memory] -- CLI_ARGS...

Before calling `polymerqm.cli.main(CLI_ARGS)` this wraps every public
function of every polymerqm module, and `PropagatorKernel.__call__`,
wherever a module binds it, so calls between modules and within one
module both pass through the wrapper. Each call becomes a span: name,
start, end and parent span. Spans stay in memory and are written to
SPANS_FILE (an .npz archive) when the job ends. A few spans also keep
two numbers about the work they did, such as a Bessel table's argument
and order count.

With --memory only `propagators.evolve` is wrapped, and each call runs
under tracemalloc to record its peak allocation. That slows Python code
many times over, so the benchmark throws away the timings of this pass.

The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc

import numpy as np

MODULES = ("bessel", "lattice", "dynamics", "propagators", "stateio", "verify", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _files_size(csv_path) -> int:
    csv_path = os.fspath(csv_path)
    sidecar = os.path.splitext(csv_path)[0] + ".json"
    return sum(os.path.getsize(p) for p in (csv_path, sidecar) if os.path.exists(p))


# span name -> (args, kwargs, result) -> two numbers kept with the span
_MEASURES = {
    "bessel.bessel_table": lambda a, k, res: (float(_arg(a, k, 0, "z")),
                                              int(_arg(a, k, 1, "max_order"))),
    "propagators.evolve": lambda a, k, res: (res.lattice.num_sites, math.nan),
    "stateio.load_wavefunction": lambda a, k, res: (
        res.lattice.num_sites, _files_size(_arg(a, k, 0, "csv_path"))),
    "stateio.save_wavefunction": lambda a, k, res: (
        _arg(a, k, 0, "psi").lattice.num_sites, _files_size(_arg(a, k, 1, "csv_path"))),
    "verify.run_suite": lambda a, k, res: (len(res), math.nan),
}


class SpanRecorder:
    """Spans in parallel lists, indexed in the order the calls started."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.a1: list[float] = []
        self.a2: list[float] = []
        self.stack = [-1]

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        measure = _MEASURES.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        a1, a2, stack = self.a1, self.a2, self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(math.nan)
            a1.append(math.nan)
            a2.append(math.nan)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                a1[i], a2[i] = measure(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "a1": np.array(self.a1),
            "a2": np.array(self.a2),
        }


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _public_functions(mod):
    for attr, value in list(vars(mod).items()):
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == mod.__name__):
            yield attr, value


def _modules() -> tuple[dict, list]:
    """The polymerqm modules by short name, and every namespace to rebind in."""
    mods = {name: importlib.import_module(f"polymerqm.{name}") for name in MODULES}
    return mods, list(mods.values()) + [importlib.import_module("polymerqm")]


def install_spans(recorder: SpanRecorder) -> dict:
    mods, targets = _modules()
    for short, mod in mods.items():
        for attr, fn in _public_functions(mod):
            _rebind(targets, fn, recorder.wrap(fn, f"{short}.{attr}"))
    kernel_cls = mods["propagators"].PropagatorKernel
    kernel_cls.__call__ = recorder.wrap(kernel_cls.__call__,
                                        "propagators.PropagatorKernel.__call__")
    return mods


def install_memory(peaks: list) -> dict:
    mods, targets = _modules()
    evolve = mods["propagators"].evolve

    def traced_evolve(*args, **kwargs):
        tracemalloc.start()
        try:
            return evolve(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    _rebind(targets, evolve, traced_evolve)
    return mods


def _emitted(cli_args: list) -> tuple[int, int]:
    """Data rows and bytes of the table a kernel/verify/sweep job wrote."""
    if not cli_args or cli_args[0] not in ("kernel", "verify", "sweep"):
        return 0, 0
    out = None
    for i, arg in enumerate(cli_args):
        if arg == "--out" and i + 1 < len(cli_args):
            out = cli_args[i + 1]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    if out is None or not os.path.exists(out):
        return 0, 0
    with open(out, "rb") as f:
        data = f.read()
    return max(0, data.count(b"\n") - 1), len(data)


def main(argv: list) -> int:
    sep = argv.index("--") if "--" in argv else 0
    if sep == 0:
        sys.stderr.write(__doc__)
        return 2
    opts, cli_args = argv[:sep], argv[sep + 1:]
    spans_file, memory = opts[0], "--memory" in opts[1:]

    recorder = SpanRecorder()
    peaks: list = []
    mods = install_memory(peaks) if memory else install_spans(recorder)
    rc = 1
    try:
        rc = mods["cli"].main(cli_args)
    finally:
        out = {"rc": np.array(rc), "evolve_peak_bytes": np.array(peaks, dtype=float)}
        if not memory:
            out.update(recorder.arrays())
            tables = out["names"][out["name_id"]] == "bessel.bessel_table"
            window = getattr(mods["bessel"].truncation_window, "__wrapped__",
                             mods["bessel"].truncation_window)
            out["bessel_window"] = np.array([window(z) for z in out["a1"][tables]],
                                            dtype=float)
            out["emitted"] = np.array(_emitted(cli_args), dtype=float)
        with open(spans_file, "wb") as f:
            np.savez(f, **out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
