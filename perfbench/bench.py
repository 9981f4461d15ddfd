"""Timed and traced passes over a workload's job list, and their metrics.

Job and import times are reported in reference-speed seconds. The
host's speed for interpreted code drifts by a third over tens of
seconds, as other tenants come and go, so between jobs the benchmark
times a fixed pure-Python loop (the speed probe, `speed_probe`), and
each job's latency is scaled by SPEED_REF_S / (median of the probe
times just before and just after the job). A time then reads as it
would on a machine that runs the probe in SPEED_REF_S, whatever the
neighbours did meanwhile. The probe never touches polymerqm, so a change
to the program moves the scaled times exactly as it moves the raw ones;
the raw times are in the metadata line. Set-up is numpy-bound, and
numpy's speed does not follow the probe, so `setup_s` is reported as
measured.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time

import numpy as np
from scipy.special import betainc

import layers
import workloads
from reference import CheckFailed

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
JOB_TIMEOUT_S = 120.0
PROBE_EVERY = 3          # import probes: one after every this many jobs
MIN_PASSES = 3           # timed passes over the job list, at least
TAIL_BEYOND = 10         # jobs beyond the tail percentile in MIN_PASSES passes
SPEED_LOOP = 50_000      # iterations of the speed probe, about 5 ms
SPEED_SAMPLES = 3        # speed probes before a pass and after each job
SPEED_REF_S = 0.005      # probe time of the reference machine
HERE = os.path.dirname(os.path.abspath(__file__))


class Runner:
    """Runs jobs and import probes in the work dir through the spawner."""

    def __init__(self, spawner, workdir: str):
        self.spawner = spawner
        self.workdir = workdir

    def spawn(self, argv: list, log: str) -> tuple[float, float, int, bool]:
        return self.spawner.run([sys.executable] + argv, self.workdir,
                                os.path.join(self.workdir, log), JOB_TIMEOUT_S)

    def import_probe(self) -> float:
        latency, _, rc, _ = self.spawn(["-c", "import polymerqm.cli"], "probe.log")
        if rc != 0:
            raise RuntimeError("polymerqm.cli does not import; see probe.log")
        return latency


class Tally:
    """Outcomes of the jobs attempted in one pass over the job list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.rows = 0
        self.peak_rss_mb = 0.0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[tuple[int, float]] = []   # (after job, import probe latency)
        self.speed: list[list[float]] = []           # speed probes before job 0 and after each job

    def add(self, job, latency: float, rss_mb: float, rc: int, timed_out: bool,
            workdir: str) -> None:
        """Count one job; a timeout, nonzero exit or failed check fails it."""
        self.latencies.append(latency)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        try:
            if timed_out:
                raise CheckFailed(f"timed out after {JOB_TIMEOUT_S} s")
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            self.rows += job.expect.check(os.path.join(workdir, job.out))
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(f"{job.job_id}: {exc}")

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        """Reference-speed seconds per measured second over the whole pass."""
        return speed_scale([x for gap in self.speed for x in gap])

    def job_scale(self, k: int) -> float:
        """Reference-speed seconds per measured second around job k."""
        return speed_scale(self.speed[k] + self.speed[k + 1])

    def scaled(self) -> list[float]:
        return [x * self.job_scale(k) for k, x in enumerate(self.latencies)]

    def scaled_probes(self) -> list[float]:
        """Import probe latencies; a probe runs between its job and the next gap."""
        return [x * self.job_scale(k) for k, x in self.probes]


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    return SPEED_REF_S / statistics.median(samples)


def run_pass(runner: Runner, jobs: list, probe: bool = False,
             mode: str | None = None) -> Tally:
    """Run every job once, in order, with speed probes after each.

    With `probe`, an import probe follows every PROBE_EVERY-th job.
    mode None runs the CLI itself; "spans" and "memory" run it through
    trace_runner.py, which writes spans/<job_id>.npz in the work dir.
    """
    tally = Tally()
    tally.speed.append([speed_probe() for _ in range(SPEED_SAMPLES)])
    for k, job in enumerate(jobs):
        out = os.path.join(runner.workdir, job.out)
        for stale in (out, out[:-len(".csv")] + ".json"):
            if os.path.exists(stale):
                os.remove(stale)
        if mode is None:
            argv = ["-m", "polymerqm.cli"] + job.argv
        else:
            spans = os.path.join("spans", job.job_id + ".npz")
            flags = ["--memory"] if mode == "memory" else []
            argv = [os.path.join(HERE, "trace_runner.py"), spans] + flags \
                + ["--"] + job.argv
        latency, rss, rc, timed_out = runner.spawn(argv, "job.log")
        tally.add(job, latency, rss, rc, timed_out, runner.workdir)
        if probe and (k + 1) % PROBE_EVERY == 0:
            tally.probes.append((k, runner.import_probe()))
        tally.speed.append([speed_probe() for _ in range(SPEED_SAMPLES)])
    return tally


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics: it reads the same
    quantile as a single order statistic would, with less jitter.
    """
    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def tail(latencies: list[float], n_ref: int) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that has TAIL_BEYOND
    of n_ref jobs beyond it, estimated from all `latencies` (at least n_ref).

    Fixing the percentile by n_ref, not by how many jobs fitted in the
    run, keeps a slow run from reporting a lower percentile.
    """
    if n_ref <= TAIL_BEYOND:
        return max(latencies), 100.0
    q = (n_ref - TAIL_BEYOND) / n_ref
    return quantile(latencies, q), 100.0 * q


def setup(workload: str, seed: int, workdir: str) -> tuple[list, list[float], str]:
    """Build the job list from scratch repeatedly; return the last build.

    At least SETUP_MIN_REPEATS builds, and more while they add up to
    under SETUP_MIN_S, so the median of a cheap set-up is steady too.
    """
    times, hashes = [], set()
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_MIN_S
                                             and len(times) < SETUP_MAX_REPEATS):
        for sub in ("inputs", "out", "spans"):
            shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)
        t0 = time.perf_counter()
        jobs = workloads.build(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
        hashes.add(workloads.job_list_hash(jobs, workdir))
    if len(hashes) != 1:
        raise RuntimeError("the same seed built different job lists")
    os.makedirs(os.path.join(workdir, "spans"))
    return jobs, times, hashes.pop()


def environment(root: str, seed: int, jobs_hash: str) -> dict:
    """Run metadata: recorded with each result, never gated."""
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src", "polymerqm")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                src_lines += f.read().count(b"\n")
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "cpu": cpu,
        "nproc": os.cpu_count(), "commit": _commit(root), "seed": seed,
        "job_list_sha256": jobs_hash, "src_lines": src_lines,
    }


def _commit(root: str) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((line.split()[0] for line in f
                         if line.strip().endswith(" " + ref)), None)
    except OSError:
        return None


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def pass_wall(rounds: list[Tally], scaled: bool = True) -> float:
    """One pass's wall time, with each job's latency the median over passes."""
    per_pass = [r.scaled() if scaled else r.latencies for r in rounds]
    return sum(statistics.median(lat[i] for lat in per_pass)
               for i in range(len(per_pass[0])))


def timed_run(runner: Runner, jobs: list, seconds: float) -> tuple[dict, dict, list]:
    """Whole passes over the job list: at least MIN_PASSES, then as many
    as end nearest to `seconds`."""
    runner.import_probe()                 # warm the file cache and bytecode
    rounds: list[Tally] = []
    t0 = time.perf_counter()
    pass_s = []
    while True:
        r0 = time.perf_counter()
        rounds.append(run_pass(runner, jobs, probe=True))
        now = time.perf_counter()
        pass_s.append(now - r0)
        if len(rounds) >= MIN_PASSES and now - t0 + 0.5 * pass_s[-1] > seconds:
            break
    latencies = [x for r in rounds for x in r.scaled()]
    tail_s, tail_pct = tail(latencies, MIN_PASSES * len(jobs))
    probes = [x for r in rounds for x in r.scaled_probes()]
    attempted = len(latencies)
    failed = sum(r.failed for r in rounds)
    wall = pass_wall(rounds)
    metrics = {
        "wall_s": _metric(wall, "s"),
        "job_p50_s": _metric(quantile(latencies, 0.5), "s"),
        "job_tail_s": _metric(tail_s, "s"),
        "rows_per_s": _metric(statistics.median(r.rows for r in rounds) / wall, "1/s"),
        "peak_rss_mb": _metric(max(r.peak_rss_mb for r in rounds), "MB"),
        "import_s": _metric(quantile(probes, 0.5), "s"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    info = {"rounds": len(rounds), "jobs_per_round": len(jobs), "jobs_timed": attempted,
            "tail_percentile": tail_pct, "import_probes": len(probes),
            "failed_frac": failed / attempted,
            "pass_s": pass_s, "rows_per_round": [r.rows for r in rounds],
            "speed_probe_s": [SPEED_REF_S / r.scale for r in rounds],
            "raw_wall_s": pass_wall(rounds, scaled=False),
            "raw_wall_per_round": [r.wall for r in rounds],
            "raw_import_s": statistics.median(x for r in rounds for _, x in r.probes)}
    return metrics, info, rounds


def traced_run(runner: Runner, jobs: list, seconds: float) -> tuple[dict, dict, list]:
    """Untraced passes for a third of the budget, then a traced and a memory pass."""
    runner.import_probe()
    rounds: list[Tally] = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds / 3:
        rounds.append(run_pass(runner, jobs))
    totals = layers.LayerTotals()
    traced = run_pass(runner, jobs, mode="spans")
    for job in jobs:
        with np.load(os.path.join(runner.workdir, "spans", job.job_id + ".npz")) as f:
            totals.add_job(dict(f))
    memory = run_pass(runner, jobs, mode="memory")
    for job in jobs:
        with np.load(os.path.join(runner.workdir, "spans", job.job_id + ".npz")) as f:
            totals.add_memory(f["evolve_peak_bytes"])
    untraced_wall = pass_wall(rounds)
    metrics = totals.metrics(traced.wall, untraced_wall, traced.scale)
    info = {"untraced_rounds": len(rounds), "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced.wall * traced.scale,
            "raw_traced_wall_s": traced.wall, "memory_pass_wall_s": memory.wall}
    return metrics, info, rounds + [traced, memory]


def run(args, root: str, workdir: str, spawner) -> int:
    jobs, setup_times, jobs_hash = setup(args.workload, args.seed, workdir)
    runner = Runner(spawner, workdir)
    if args.trace:
        metrics, info, passes = traced_run(runner, jobs, args.seconds)
    else:
        metrics, info, passes = timed_run(runner, jobs, args.seconds)
        metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(workload=args.workload, setup_s=setup_times,
                environment=environment(root, args.seed, jobs_hash),
                failures=[f for p in passes for f in p.failures][:20])
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
