"""Seeded job lists for the benchmark workloads.

`build(workload, seed, workdir)` writes every input file (state CSVs
with their JSON sidecars, JSON configs) under `workdir/inputs`, computes
the reference each job's output is checked against, and returns the
jobs. The program under test receives only these files and flags.

Job sizes come from fixed strata per workload; the seed jitters each
size by a few percent and draws offsets, signs, spacings, packets and
the job order. So every seed exercises the same mix of costs, and two
seeds give run times that can be compared.

All inputs stay legal under the fixes the roadmap plans: box states are
wall-free, periodic windows are exactly one period (2N sites) wide, and
periodic and large-z free jobs pass an explicit output window.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from reference import (EPS, BoxPropagator, StateExpect, SweepExpect,
                       TableExpect, VerifyExpect, circle_kernel,
                       free_kernel_vector, kernel_tolerance, reach)

WORKLOADS = ("evolve", "tabulate", "deep-time", "verify")

# Seed that later changes use to confirm a claim; never tune against it.
HOLDOUT_SEED = 7919

_SPACINGS = (0.25, 0.5, 1.0)   # powers of two keep z = dt/mu0^2 exact
_JITTER = 0.03

# evolve: (sites, z) free windows; (N, z) boxes; (N, offset, z) periodic
_FREE_WINDOWS = ((500, 300.0), (1000, 250.0), (1500, 200.0), (2000, 300.0),
                 (2000, 100.0))
_BOX_SPECTRAL = ((256, 100.0), (640, 200.0), (1024, 300.0))
_BOX_IMAGES = ((256, 200.0), (512, 100.0), (1024, 20.0))
_PERIODIC_WINDOWS = ((32, 4096, 40.0), (64, 4096, 20.0),
                     (128, 2048, 10.0), (256, 1024, 5.0))

# tabulate: (system, N, grid side, offset, z values)
_TABLES = (
    ("free", None, 41, 0, (5.0, 30.0, 100.0)),
    ("free", None, 81, 2000, (20.0,)),
    ("free", None, 151, 0, (1.0,)),
    ("free", None, 31, 500, (60.0,)),
    ("box", 24, 25, 0, (1.0, 7.0)),
    ("box", 48, 49, 0, (3.0, 30.0, 90.0)),
    ("box", 96, 97, 0, (20.0,)),
    ("box-images", 24, 25, 0, (2.0, 50.0)),
    ("box-images", 48, 49, 0, (8.0,)),
    ("periodic", 4, 31, 100, (1.0, 6.0)),
    ("periodic", 8, 41, 30, (2.0, 25.0)),
    ("periodic", 16, 61, 0, (12.0,)),
    ("periodic", 32, 21, 300, (40.0,)),
)

# deep-time: z levels of the kernel grids, free evolve states and sweeps
_DEEP_GRID_Z = (1e3, 1e5, 1e6, 1e6)
_DEEP_Z = (1e3, 1e4, 1e5, 1e6)
_DEEP_GRID = 2
_DEEP_STATE = 24
_SWEEP_MU0 = tuple(1.0 / 2**k for k in range(3, 11))   # 1/8 .. 1/1024

# verify: (suite, N)
_VERIFY = (("bessel", 8), ("free", 8), ("box", 24), ("box", 64), ("box", 128),
           ("momentum", 8), ("continuum", 8),
           ("all", 8), ("all", 48), ("all", 128))
_VERIFY_SPACINGS = (0.25, 0.5, 1.0, 2.0)


@dataclass
class Job:
    """One CLI invocation: `python -m polymerqm.cli <argv>` run in the work dir."""

    job_id: str
    argv: list        # ends with `--out` self.out (plus `--out-window` for evolve)
    expect: object    # has check(path) -> data rows

    @property
    def out(self) -> str:
        """The output file the check reads, relative to the work dir."""
        return f"out/{self.job_id}.csv"


def _jitter(rng, value: float, lo: float | None = None,
            hi: float | None = None) -> float:
    out = value * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))
    if lo is not None:
        out = max(lo, out)
    if hi is not None:
        out = min(hi, out)
    return out


def _params(rng) -> dict:
    return {"hbar": 1.0, "mass": 1.0, "mu0": float(rng.choice(_SPACINGS))}


def _dt(params: dict, z: float) -> float:
    return z * params["mass"] * params["mu0"] ** 2 / params["hbar"]


def _z(params: dict, dt: float) -> float:
    return params["hbar"] * dt / (params["mass"] * params["mu0"] ** 2)


def _packet(rng, sites: int) -> np.ndarray:
    """Normalized Gaussian packet with a seeded centre, width and momentum."""
    x = np.arange(sites)
    centre = sites * (0.5 + 0.2 * (rng.random() - 0.5))
    width = sites * (0.08 + 0.04 * rng.random())
    k = math.pi * (rng.random() - 0.5)
    amps = np.exp(-((x - centre) / width) ** 2 / 4.0 + 1j * k * x)
    return amps / np.linalg.norm(amps)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "inputs"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def json(self, name: str, obj) -> str:
        rel = os.path.join("inputs", name)
        with open(os.path.join(self.workdir, rel), "w") as f:
            json.dump(obj, f, indent=1)
        return rel

    def state(self, name: str, params: dict, n_min: int, amps: np.ndarray) -> str:
        """CSV `n,re,im` plus the JSON sidecar, in the library's file format."""
        rel = os.path.join("inputs", name + ".csv")
        lines = ["n,re,im"]
        lines += [f"{n_min + i},{a.real!r},{a.imag!r}"
                  for i, a in enumerate(amps.tolist())]
        with open(os.path.join(self.workdir, rel), "w") as f:
            f.write("\n".join(lines) + "\n")
        self.json(name + ".json", dict(params, n_min=n_min,
                                       n_max=n_min + len(amps) - 1))
        return rel


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _free_evolve(w, rng, job_id, sites, z, offset, out_window):
    params = _params(rng)
    dt = _dt(params, z)
    psi = _packet(rng, sites)
    state = w.state(job_id, params, offset, psi)
    cfg = w.json(job_id + "-cfg.json", {"system": "free", "times": [dt]})
    z = _z(params, dt)
    # reference on a window wider than any truncation window the library
    # uses; kernel values beyond `pad` are below double precision
    pad = reach(z)
    amps = np.convolve(psi, free_kernel_vector(z, pad))  # sum_r k(j - r) psi_r
    tol = kernel_tolerance(z) * float(np.sum(np.abs(psi)))
    window = None
    argv = ["evolve", state, "--config", cfg, "--out", f"out/{job_id}.csv"]
    if out_window is not None:
        window = (offset - out_window, offset + sites - 1 + out_window)
        argv.append(f"--out-window={window[0]}:{window[1]}")
    expect = StateExpect(params, offset - pad, amps, tol, window)
    return Job(job_id, argv, expect)


def _box_evolve(w, rng, job_id, system, n_box, z, props):
    params = _params(rng)
    dt = _dt(params, z)
    # wall-free support strictly inside the box
    a = int(rng.integers(1, max(2, n_box // 10)))
    b = n_box - int(rng.integers(1, max(2, n_box // 10)))
    psi = _packet(rng, b - a + 1)
    state = w.state(job_id, params, a, psi)
    cfg = w.json(job_id + "-cfg.json", {"system": system, "N": n_box, "times": [dt]})
    interior = np.zeros(n_box - 1, dtype=complex)
    interior[a - 1:b] = psi
    if n_box not in props:
        props[n_box] = BoxPropagator(n_box)
    amps = np.zeros(n_box + 1, dtype=complex)
    amps[1:n_box] = props[n_box].apply(_z(params, dt), interior)
    # eigenvector rounding grows like N eps and the phases like z eps
    tol = 1e-10 + 64.0 * (n_box + _z(params, dt)) * EPS
    expect = StateExpect(params, 0, amps, tol, (0, n_box))
    return Job(job_id, ["evolve", state, "--config", cfg, "--out", f"out/{job_id}.csv"],
               expect)


def _periodic_evolve(w, rng, job_id, n_box, offset, z):
    params = _params(rng)
    dt = _dt(params, z)
    period = 2 * n_box
    start = int(round(_jitter(rng, offset)))
    if rng.random() < 0.5:
        start = -start - period
    psi = _packet(rng, period)
    state = w.state(job_id, params, start, psi)
    cfg = w.json(job_id + "-cfg.json", {"system": "periodic", "N": n_box,
                                        "times": [dt]})
    kp = circle_kernel(_z(params, dt), period)
    idx = np.arange(period)
    amps = kp[(idx[:, None] - idx[None, :]) % period] @ psi
    tol = kernel_tolerance(_z(params, dt)) * float(np.sum(np.abs(psi)))
    window = (start, start + period - 1)
    expect = StateExpect(params, start, amps, tol, window)
    argv = ["evolve", state, "--config", cfg, "--out", f"out/{job_id}.csv",
            f"--out-window={window[0]}:{window[1]}"]
    return Job(job_id, argv, expect)


def _evolve_jobs(w, rng):
    jobs = []
    for i, (sites, z) in enumerate(_FREE_WINDOWS):
        sites = int(round(_jitter(rng, sites, 500, 2000)))
        offset = int(rng.integers(-3000, 3000))
        jobs.append(_free_evolve(w, rng, f"free{i}", sites, _jitter(rng, z, hi=300.0),
                                 offset, None))
    props = {}
    for i, (n_box, z) in enumerate(_BOX_SPECTRAL):
        jobs.append(_box_evolve(w, rng, f"box{i}", "box", n_box,
                                _jitter(rng, z, hi=300.0), props))
    for i, (n_box, z) in enumerate(_BOX_IMAGES):
        jobs.append(_box_evolve(w, rng, f"images{i}", "box-images", n_box,
                                _jitter(rng, z, hi=300.0), props))
    for i, (n_box, offset, z) in enumerate(_PERIODIC_WINDOWS):
        jobs.append(_periodic_evolve(w, rng, f"periodic{i}", n_box, offset,
                                     _jitter(rng, z)))
    return jobs


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------

def _table(system, n_box, j_range, r_range, params, dts, props):
    """Reference entries in the CLI's row order: dt, then j, then r."""
    js = np.arange(j_range[0], j_range[1] + 1)
    rs = np.arange(r_range[0], r_range[1] + 1)
    index, values, tols = [], [], []
    for dt in dts:
        z = _z(params, dt)
        jj, rr = np.meshgrid(js, rs, indexing="ij")
        jj, rr = jj.ravel(), rr.ravel()
        if system == "free":
            m_max = int(np.max(np.abs(rr - jj)))
            kvec = free_kernel_vector(z, m_max)
            vals = kvec[rr - jj + m_max]
        elif system == "periodic":
            kp = circle_kernel(z, 2 * n_box)
            vals = kp[(rr - jj) % (2 * n_box)]
        else:
            if n_box not in props:
                props[n_box] = BoxPropagator(n_box)
            inner = np.zeros((n_box + 1, n_box + 1), dtype=complex)
            inner[1:n_box, 1:n_box] = props[n_box].matrix(z)
            vals = inner[jj, rr]
        block = np.column_stack([jj, rr, np.full(jj.size, dt), np.full(jj.size, z)])
        index.append(block)
        values.append(vals)
        tol = kernel_tolerance(z)
        if system in ("box", "box-images"):
            tol += 64.0 * n_box * EPS
        tols.append(np.full(jj.size, tol))
    return TableExpect(system, np.vstack(index), np.concatenate(values),
                       np.concatenate(tols))


def _tabulate_jobs(w, rng):
    jobs = []
    props = {}
    for i, (system, n_box, side, offset, zs) in enumerate(_TABLES):
        params = _params(rng)
        dts = [_dt(params, _jitter(rng, z, hi=100.0)) for z in zs]
        if system in ("box", "box-images"):
            span = side - 1
            lo = int(rng.integers(0, n_box - span + 1))
            j_range = r_range = (lo, lo + span)
        else:
            base = int(round(_jitter(rng, offset))) if offset else 0
            if rng.random() < 0.5:
                base = -base - side + 1
            j_range = (base, base + side - 1)
            shift = int(rng.integers(-side // 4, side // 4 + 1))
            r_range = (base + shift, base + shift + side - 1)
        cfg = {"system": system, "times": dts, **params}
        if n_box is not None:
            cfg["N"] = n_box
        job_id = f"table{i}"
        cfg_path = w.json(job_id + ".json", cfg)
        argv = ["kernel", "--config", cfg_path,
                f"--j-min={j_range[0]}", f"--j-max={j_range[1]}",
                f"--r-min={r_range[0]}", f"--r-max={r_range[1]}",
                "--out", f"out/{job_id}.csv"]
        expect = _table(system, n_box, j_range, r_range, params, dts, props)
        jobs.append(Job(job_id, argv, expect))
    return jobs


# ---------------------------------------------------------------------------
# deep-time
# ---------------------------------------------------------------------------

def _sweep_expect(dx, dt):
    mu0 = np.array(_SWEEP_MU0)
    sites = np.rint(dx / mu0)
    z = dt / mu0**2
    errors, tols = [], []
    amp = math.sqrt(1.0 / (2.0 * math.pi * dt))
    phase = dx**2 / (2.0 * dt) - math.pi / 4.0
    continuum = amp * complex(math.cos(phase), math.sin(phase))
    for m, l, zz in zip(mu0, sites, z):
        polymer = free_kernel_vector(zz, int(l))[-1] / m
        errors.append(abs(polymer - continuum))
        tols.append(kernel_tolerance(zz) / m + 64.0 * abs(phase) * EPS * amp)
    return SweepExpect(mu0, sites, z, np.array(errors), np.array(tols))


def _deep_jobs(w, rng):
    jobs = []
    for i, level in enumerate(_DEEP_GRID_Z):
        z = _jitter(rng, level, hi=1e6)
        params = {"hbar": 1.0, "mass": 1.0, "mu0": 1.0}
        j_lo = int(rng.integers(-50, 50))
        r_lo = j_lo + int(rng.integers(-3, 4))
        j_range = (j_lo, j_lo + _DEEP_GRID - 1)
        r_range = (r_lo, r_lo + _DEEP_GRID - 1)
        dts = [_dt(params, z)]
        cfg = w.json(f"grid{i}.json", {"system": "free", "times": dts})
        argv = ["kernel", "--config", cfg,
                f"--j-min={j_range[0]}", f"--j-max={j_range[1]}",
                f"--r-min={r_range[0]}", f"--r-max={r_range[1]}",
                "--out", f"out/grid{i}.csv"]
        expect = _table("free", None, j_range, r_range, params, dts, {})
        jobs.append(Job(f"grid{i}", argv, expect))

    for i, level in enumerate(_DEEP_Z):
        z = _jitter(rng, level, hi=1e6)
        offset = int(rng.integers(-1000, 1000))
        jobs.append(_free_evolve(w, rng, f"deep{i}", _DEEP_STATE, z, offset,
                                 out_window=16))

    for i, level in enumerate(_DEEP_Z):
        z_max = _jitter(rng, level, hi=1e6)
        dx = float(rng.choice((1.0, 2.0)))
        dt = z_max * _SWEEP_MU0[-1] ** 2
        cfg = w.json(f"sweep{i}.json", {"dx": dx, "times": [dt],
                                        "mu0_list": list(_SWEEP_MU0)})
        jobs.append(Job(f"sweep{i}", ["sweep", "--config", cfg, "--out",
                                      f"out/sweep{i}.csv"], _sweep_expect(dx, dt)))
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_jobs(w, rng):
    jobs = []
    for i, (suite, n_box) in enumerate(_VERIFY):
        n_box = int(round(_jitter(rng, n_box, 8, 128)))
        mu0 = float(rng.choice(_VERIFY_SPACINGS))
        seed = int(rng.integers(0, 2**31))
        argv = ["verify", "--suite", suite, "--N", str(n_box), "--mu0", repr(mu0),
                "--seed", str(seed), "--out", f"out/verify{i}.csv"]
        jobs.append(Job(f"verify{i}", argv, VerifyExpect()))
    return jobs


_BUILDERS = {"evolve": _evolve_jobs, "tabulate": _tabulate_jobs,
             "deep-time": _deep_jobs, "verify": _verify_jobs}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one workload under workdir and return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _BUILDERS[workload](_Writer(workdir), rng)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def job_list_hash(jobs: list[Job], workdir: str) -> str:
    """sha256 over every job's argv and the bytes of every input file."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([job.job_id, job.argv]).encode())
    inputs = os.path.join(workdir, "inputs")
    for name in sorted(os.listdir(inputs)):
        h.update(name.encode())
        with open(os.path.join(inputs, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()
