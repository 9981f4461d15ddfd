"""Scaling probe: how the cost of each polymerqm layer grows with its size.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/scaling_probe.py \
        --out BENCH_<n>.json [--case NAME ...] [--baseline EARLIER.json] \
        [--perfbench RUN_OUTPUT ...] [--baseline-perfbench RUN_OUTPUT ...]

One BLAS thread keeps the timings comparable with perfbench, which pins
it for every job.

Each case doubles one size at a time (window M, box size N, separation
|j - r|, Bessel argument z, grid side, table rows: columns of r at 64 rows of j,
or rows of j at 64 columns; times T of one table; sites M of a saved and loaded
state file; evaluation points of the continuum box reference).  At every
size it records the median wall time of a few calls, after one warm-up call,
and the tracemalloc peak of one more call.  For the case it fits the
least-squares slope of log2(time) and of log2(peak) against log2(size): 1 is
linear, 2 quadratic, 0 flat.  Everything runs in this one process; a full
run took 55 s on a 2-vCPU VM, about 19 s each in `state_io` and
`verify_box_far_n`, and about twice that when the host was busy.
Wall-time slopes are a report, not a gate: on a shared host the times of
single calls are noisy.  Peaks are a gate: each case declares its memory
law (`Case.memory`), and tests/test_scaling_probe.py holds every case to
it between its two `gate` sizes.

The output JSON holds the slopes and raw points of every case, the line
count of the polymerqm sources it imported, the git commit of their
checkout, and machine, Python and numpy info.  Unless --case picks cases,
it also holds a start-up record: for each command, a fresh interpreter runs
one job (`STARTUP`) three times and reports the polymerqm modules it loaded
and their source lines, the median wall time of `import polymerqm.cli` and
the largest peak RSS, read from the child's own VmHWM (a forked child
inherits the probe's ru_maxrss).  The children inherit the environment, so
the record states PYTHONDONTWRITEBYTECODE: without bytecode, every module
loaded is compiled in every job.  --baseline copies the
cases of an earlier output (say, of the parent commit) into the new file
under "baseline", and --perfbench adds the last result line of each
given `perfbench/run.py` output, keyed by workload.  --baseline-perfbench
does the same for runs of the baseline's checkout, under "baseline".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import polymerqm
from polymerqm import (
    Lattice, LatticeWavefunction, MomentumGrid, PhysicalParams, PropagatorKernel,
    apply_hamiltonian, bessel_table, evolve, from_momentum, gaussian_packet, image_sum,
    kernel_table, schrodinger_box_gaussian, to_momentum,
)
from polymerqm.cli import main as cli_main
from polymerqm.verify import run_suite

# hbar = m = mu0 = 1, so z = dt
P = PhysicalParams()


def _packet(m: int) -> LatticeWavefunction:
    return gaussian_packet(Lattice(P, 0, m - 1), center=m / 2, sigma=m / 8)


def _evolve_free(z):
    def make(m):
        psi, free = _packet(m), PropagatorKernel.free(P)
        return lambda: evolve(psi, free, z)
    return make


def _box_state(n: int) -> LatticeWavefunction:
    amps = np.sin(np.pi * np.arange(n + 1) / n)
    amps[[0, n]] = 0.0  # wall-free
    return LatticeWavefunction(Lattice(P, 0, n), amps)


def _evolve_box(n):
    psi, box = _box_state(n), PropagatorKernel.box(n, P)
    return lambda: evolve(psi, box, 10.0)


def _hamiltonian_box(n):
    psi, box = _box_state(n), PropagatorKernel.box(n, P)
    return lambda: apply_hamiltonian(psi, box)


def _evolve_periodic(n):
    psi, periodic = _packet(2 * n), PropagatorKernel.periodic(n, P)
    return lambda: evolve(psi, periodic, 10.0)


def _hamiltonian_periodic(n):
    psi, periodic = _packet(2 * n), PropagatorKernel.periodic(n, P)
    return lambda: apply_hamiltonian(psi, periodic)


def _kernel_call(system):
    """One kernel entry k(5, 7, 1.0) of a box or periodic system of size n."""
    def make(n):
        kernel = PropagatorKernel(system, P, n=n)
        return lambda: kernel(5, 7, 1.0)
    return make


def _evolve_periodic_small(n):
    """A 64-site packet at z = 10 in a ring of period 2n."""
    psi, periodic = _packet(64), PropagatorKernel.periodic(n, P)
    return lambda: evolve(psi, periodic, 10.0)


def _kernel_table_free(separation):
    free = PropagatorKernel.free(P)
    return lambda: kernel_table(free, [0], [separation], 100.0)


def _image_sum_periodic(side):
    sites, periodic = np.arange(side), PropagatorKernel.periodic(4, P)
    return lambda: image_sum(periodic, sites[:, None], sites, 1e3)


def _image_sum_periodic_z(z):
    periodic = PropagatorKernel.periodic(1000, P)
    return lambda: image_sum(periodic, 3, 1, z)


def _box_gaussian(points):
    """The continuum box reference at `points` points of [0, 8]: demo 05's packet at t = 0.8."""
    x = np.linspace(0.0, 8.0, points)
    return lambda: schrodinger_box_gaussian(x, 0.8, 8.0, 3.0, 0.5, 1.2, P)


def _momentum(m):
    psi, grid = _packet(m), MomentumGrid(P, m)
    return lambda: from_momentum(to_momentum(psi, grid), grid, psi.lattice)


def _kernel_text(fmt, grow="r", system=()):
    """`polymerqm kernel` to a file: 64 rows of j and rows/64 columns of r,
    or rows/64 rows of j and 64 columns for grow="j"."""
    def make(rows):
        j_max, r_max = (63, rows // 64 - 1) if grow == "r" else (rows // 64 - 1, 63)
        argv = ["kernel", *system, "--dt", "20", "--j-min", "0", "--j-max", str(j_max),
                "--r-min", "0", "--r-max", str(r_max), "--format", fmt]

        def call():
            with tempfile.TemporaryDirectory() as tmp:
                return cli_main(argv + ["--out", os.path.join(tmp, f"k.{fmt}")])
        return call
    return make


def _kernel_times(times):
    """`polymerqm kernel` of one periodic cell at N = 65,536 for `times` times from a config."""
    def call():
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as f:
                json.dump({"system": "periodic", "N": 65536,
                           "times": [0.5 + t for t in range(times)]}, f)
            return cli_main(["kernel", "--config", config, "--j-min", "0", "--j-max", "0",
                             "--r-min", "0", "--r-max", "0",
                             "--out", os.path.join(tmp, "k.csv")])
    return call


def _state_io(m):
    """`save_wavefunction`, then `load_wavefunction`, of an m-site packet in a temp directory."""
    psi = _packet(m)

    def call():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "psi.csv")
            polymerqm.save_wavefunction(psi, path)
            return polymerqm.load_wavefunction(path)
    return call


class Case(NamedTuple):
    """What is doubled, its sizes, size -> the call to measure, and the memory law: the
    tracemalloc peak grows at most as size**memory (CONSTANT, LINEAR, or the power the
    algorithm states).  Tier-1 holds the law between the two `gate` sizes, taken from the
    case's points past its fixed overhead (BENCH_37.json)."""
    size: str
    sizes: list
    make: Callable
    memory: float
    gate: tuple[int, int]


CONSTANT, LINEAR = 0.0, 1.0

CASES = {
    "evolve_free_z10": Case("M", [2**k for k in range(12, 18)], _evolve_free(10.0),
                            LINEAR, (4096, 8192)),
    "evolve_free_z1e4": Case("M", [2**k for k in range(9, 15)], _evolve_free(1e4),
                             LINEAR, (4096, 8192)),
    "evolve_box": Case("N", [2**k for k in range(10, 17)], _evolve_box, LINEAR, (4096, 8192)),
    "hamiltonian_box": Case("N", [2**k for k in range(10, 17)], _hamiltonian_box,
                            LINEAR, (4096, 8192)),
    "evolve_periodic": Case("N", [2**k for k in range(10, 17)], _evolve_periodic,
                            LINEAR, (4096, 8192)),
    "hamiltonian_periodic": Case("N", [2**k for k in range(10, 17)], _hamiltonian_periodic,
                                 LINEAR, (8192, 16384)),
    # the direct convolution's (2W + 1) M multiply-adds at fixed M, W growing with z
    "evolve_free_m4096_z": Case("z", [1e3 * 2**k for k in range(7)],
                                lambda z: _evolve_free(z)(4096), LINEAR, (4000.0, 8000.0)),
    "kernel_table_free": Case("|j - r|", [2**k for k in range(6, 21, 2)], _kernel_table_free,
                              CONSTANT, (1024, 4096)),
    # the check-route image sum on a side x side grid spanning many periods 2N = 8: its
    # memory is linear in the grid, side**2
    "image_sum_periodic": Case("side", [2**k for k in range(4, 8)], _image_sum_periodic,
                               2 * LINEAR, (64, 128)),
    # one check-route entry at N = 1000: the fold of the free vector over z
    "image_sum_periodic_z": Case("z", [1e3 * 4**k for k in range(6)], _image_sum_periodic_z,
                                 LINEAR, (16000.0, 64000.0)),
    # the same entry by the engine's call: the circle step of a delta, O(N log N) at any z
    "kernel_call_periodic_z": Case(
        "z", [1e3 * 4**k for k in range(6)],
        lambda z: lambda: PropagatorKernel.periodic(1000, P)(3, 1, z), CONSTANT, (1e3, 4e3)),
    # one entry and one small state at fixed z in a growing system: what the circle costs
    # where nothing wraps
    "kernel_call_periodic_n": Case("N", [2**k for k in range(10, 19, 2)],
                                   _kernel_call("periodic"), LINEAR, (4096, 16384)),
    "kernel_call_box_n": Case("N", [2**k for k in range(10, 19, 2)], _kernel_call("box"),
                              LINEAR, (4096, 16384)),
    "evolve_periodic_small_n": Case("N", [2**k for k in range(10, 19, 2)],
                                    _evolve_periodic_small, LINEAR, (4096, 16384)),
    # the continuum box reference by images: a fixed count of images, O(points) each
    "box_gaussian_points": Case("points", [2**k for k in range(8, 16)], _box_gaussian,
                                LINEAR, (1024, 2048)),
    # O(max_order + sqrt(z)) memory
    "bessel_table": Case("z", [1e3 * 2**k for k in range(11)],
                         lambda z: lambda: bessel_table(z, 2), LINEAR / 2, (16000.0, 64000.0)),
    "momentum_roundtrip": Case("M", [2**k for k in range(6, 11)], _momentum,
                               LINEAR, (256, 512)),
    # past the fixed per-call cost, where the FFT route's O(M + P log P) shows
    "momentum_roundtrip_large": Case("M", [2**k for k in range(12, 17)], _momentum,
                                     LINEAR, (4096, 8192)),
    "verify_all": Case("N", [2**k for k in range(3, 9)],
                       lambda n: lambda: run_suite("all", n_box=n), LINEAR, (64, 128)),
    # the box suite at the caller's N: eigenphase's 48 levels, each block of them made
    # before its circle steps
    "verify_box_n": Case("N", [2**k for k in range(7, 13)],
                         lambda n: lambda: run_suite("box", n_box=n), LINEAR, (128, 256)),
    # the same past N = 5,793, where a dense spectrum was refused: one level per step
    "verify_box_far_n": Case("N", [2**k for k in range(13, 18)],
                             lambda n: lambda: run_suite("box", n_box=n), LINEAR, (8192, 16384)),
    "kernel_csv": Case("rows", [64 * 2**k for k in range(6, 12)], _kernel_text("csv"),
                       LINEAR, (4096, 8192)),
    "kernel_json": Case("rows", [64 * 2**k for k in range(6, 10)], _kernel_text("json"),
                        LINEAR, (4096, 8192)),
    "kernel_csv_j": Case("rows", [64 * 2**k for k in range(6, 12)], _kernel_text("csv", "j"),
                         CONSTANT, (16384, 32768)),
    "kernel_periodic_j": Case("rows", [64 * 2**k for k in range(6, 11)],
                              _kernel_text("csv", "j", ("--system", "periodic", "--N", "4096")),
                              CONSTANT, (4096, 8192)),
    # times of one table: a kernel vector per time, built as its rows are written; from
    # two times on, the last vector is held while the next is built
    "kernel_periodic_times": Case("T", [1, 2, 4, 8, 16], _kernel_times, CONSTANT, (2, 4)),
    # state files streamed a block of sites at a time: the peak is the amplitude arrays
    "state_io": Case("M", [2**k for k in range(12, 19)], _state_io, LINEAR, (16384, 32768)),
}


# command -> one job's argv; {tmp} is a scratch directory, {state} a state file in it
STARTUP = {
    "kernel": ["kernel", "--dt", "1", "--out", "{tmp}/k.csv"],
    "evolve": ["evolve", "{state}", "--dt", "0.5", "--out", "{tmp}/out.csv"],
    "verify": ["verify", "--suite", "all", "--out", "{tmp}/verify.csv"],
    "sweep": ["sweep", "--dt", "1", "--mu0-list", "1/2,1/4", "--out", "{tmp}/sweep.csv"],
}

STARTUP_RUNS = 3

# run in a fresh interpreter with the argv as JSON; prints its record as JSON
_STARTUP_CHILD = """
import json, sys, time
from pathlib import Path
start = time.perf_counter()
import polymerqm.cli
import_s = time.perf_counter() - start
rc = polymerqm.cli.main(json.loads(sys.argv[1]))
try:
    with open("/proc/self/status") as f:
        peak = next((int(line.split()[1]) / 1024 for line in f if line.startswith("VmHWM:")), None)
except OSError:
    peak = None
mods = sorted(m for m in sys.modules if m.split(".")[0] == "polymerqm")
lines = sum(len(Path(sys.modules[m].__file__).read_text().splitlines()) for m in mods)
print(json.dumps({"rc": rc, "modules": mods, "src_lines": lines,
                  "import_s": import_s, "peak_rss_mb": peak}))
"""


def startup() -> dict:
    """The start-up record of every `STARTUP` command (see the module docstring)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(polymerqm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    commands = {}
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "psi.csv")
        polymerqm.save_wavefunction(_packet(64), state)
        for name, argv in STARTUP.items():
            argv = [arg.format(tmp=tmp, state=state) for arg in argv]
            done = [json.loads(subprocess.run(
                [sys.executable, "-c", _STARTUP_CHILD, json.dumps(argv)], env=env,
                check=True, capture_output=True, text=True).stdout.splitlines()[-1])
                for _ in range(STARTUP_RUNS)]
            peaks = [run["peak_rss_mb"] for run in done if run["peak_rss_mb"] is not None]
            commands[name] = {**done[0], "import_s": statistics.median(
                run["import_s"] for run in done), "peak_rss_mb": max(peaks, default=None)}
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "runs": STARTUP_RUNS, "commands": commands}


def peak(call) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(call) -> tuple[float, int]:
    """Median seconds of 3 calls (5 when they are quick) and one call's tracemalloc peak."""
    call()
    times = []
    while len(times) < 3 or (len(times) < 5 and sum(times) < 0.1):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), peak(call)


def slope(sizes, values) -> float:
    """Least-squares slope of log2(value) against log2(size); ValueError for fewer
    than two distinct sizes, through which no line is determined."""
    if len(set(sizes)) < 2:
        raise ValueError(f"a slope needs at least two distinct sizes, got {list(sizes)}")
    logs = np.log2(np.maximum(np.asarray(values, dtype=float), 1e-12))
    return float(np.polyfit(np.log2(sizes), logs, 1)[0])


def run_case(name: str, sizes=None) -> dict:
    case = CASES[name]
    points = []
    for size in sizes or case.sizes:
        seconds, peak_bytes = measure(case.make(size))
        points.append({"size": size, "time_s": seconds, "peak_bytes": peak_bytes})
    sizes = [p["size"] for p in points]
    return {"size": case.size,
            "time_slope": slope(sizes, [p["time_s"] for p in points]),
            "peak_slope": slope(sizes, [p["peak_bytes"] for p in points]),
            "points": points}


def _source() -> dict:
    package = Path(polymerqm.__file__).parent
    lines = sum(len(f.read_text().splitlines()) for f in package.glob("*.py"))

    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(package), *args],
                                  capture_output=True, text=True)
        except OSError:  # no git
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {"src_lines": lines, "commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def _cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    models = [line.split(":", 1)[1].strip() for line in lines
              if line.startswith("model name")]
    return models[0] if models else platform.processor()


def _last_result(path: str) -> tuple[str, dict]:
    """(workload, result line) of one perfbench run output; ValueError naming the
    file if it holds no `info` line or no `metrics` line."""
    lines = [json.loads(line) for line in Path(path).read_text().splitlines()
             if line.startswith("{")]
    infos = [line["info"]["workload"] for line in lines if "info" in line]
    results = [line for line in lines if "metrics" in line]
    if not infos or not results:
        raise ValueError(f"{path}: no perfbench {'info' if not infos else 'metrics'} line")
    return infos[0], results[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only this case (repeatable)")
    parser.add_argument("--baseline", help="an earlier probe output to copy in")
    parser.add_argument("--perfbench", nargs="+", default=[],
                        help="perfbench/run.py outputs whose result lines to copy in")
    parser.add_argument("--baseline-perfbench", nargs="+", default=[],
                        help="the same, of runs on the baseline's checkout")
    args = parser.parse_args(argv)

    cases = {}
    for name in args.case or CASES:
        start = time.perf_counter()
        cases[name] = run_case(name)
        sys.stderr.write(f"{name}: time slope {cases[name]['time_slope']:.2f}, "
                         f"peak slope {cases[name]['peak_slope']:.2f} "
                         f"({time.perf_counter() - start:.1f} s)\n")
    report = {
        **_source(),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cases": cases,
    }
    if not args.case:
        report["startup"] = startup()
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        report["baseline"] = {key: base[key] for key in
                              ("src_lines", "commit", "dirty", "cases", "startup") if key in base}
    if args.perfbench:
        report["perfbench"] = dict(map(_last_result, args.perfbench))
    if args.baseline_perfbench:
        report.setdefault("baseline", {})["perfbench"] = dict(
            map(_last_result, args.baseline_perfbench))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
