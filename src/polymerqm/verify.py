"""Named property suites behind the `verify` command.

Each suite runs the library's invariants at fixed desk-scale sample
grids and reports one record per property: the observed worst deviation
and the tolerance it must stay under.  Randomized samples (Jacobi-Anger
points, Gaussian packets, amplitudes) come from `random.Random(seed)`, the
stdlib generator `import numpy` has already loaded, so `numpy.random` stays
unloaded and two runs with the same seed produce identical reports.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from . import SUITE_NAMES
from .bessel import bessel_jn, bessel_table, jacobi_anger, truncation_window
from .dynamics import _box_size, _stencil, box_spectrum, dispersion_energy, dispersion_momentum
from .lattice import (
    Lattice,
    LatticeWavefunction,
    MomentumGrid,
    PhysicalParams,
    dimensionless_time,
    from_momentum,
    gaussian_packet,
    momentum_samples,
    to_momentum,
)
from .propagators import (
    PropagatorKernel,
    _box_step,
    box_images_kernel,
    box_spectral_kernel,
    composition_check,
    continuum_sweep,
    evolve,
    free_kernel,
    greens_residual,
    greens_residual_fd,
    kernel_table,
    momentum_kernel_phase,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def bessel_series_reference(n: int, z: float, stop: float = 1e-18) -> float:
    """Power-series J_n(z) in exact rational arithmetic.

    sum_k (-1)^k (z/2)^(n+2k) / (k! (n+k)!), terms added until they fall
    below `stop` past the series peak.  With z/2 = a/b exactly, the
    partial sums are one integer numerator over the common denominator
    b^(n+2k) k! (n+k)!, so no step reduces a fraction and the sum is
    rounded once, at the end: the heavy cancellation at moderate z
    cannot pollute the reference.
    """
    n = abs(int(n))
    a, b = float(z).as_integer_ratio()
    b *= 2
    stop_num, stop_den = float(stop).as_integer_ratio()
    term = a**n                            # numerator of term k: (-1)^k a^(n+2k)
    den = b**n * math.factorial(n)         # b^(n+2k) k! (n+k)!
    total = term
    k = 0
    while True:
        k += 1
        term *= -a * a
        step = b * b * k * (n + k)
        total = total * step + term
        den *= step
        if k > float(z) / 2 + 2 and abs(term) * stop_den < stop_num * den:
            return total / den


def _worst(deviations) -> float:
    return float(np.max(np.abs(deviations)))


def _grid(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Sites lo..hi as a column and a row: the (j, r) grid of a check route."""
    sites = np.arange(lo, hi + 1)
    return sites[:, None], sites


def _run(suite: str, name: str, deviation: float, tolerance: float) -> CheckResult:
    return CheckResult(suite, name, float(deviation), tolerance)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_bessel(seed: int = 0) -> list[CheckResult]:
    checks = []

    # one table per z: W(z) >= 20 > 12, so it starts where bessel_jn's does
    dev = max(_worst(bessel_table(z, 12) - [bessel_series_reference(n, z) for n in range(13)])
              for z in (0.0, 0.3, 0.5, 1.0, 2.5, 3.0, 5.0, 6.0, 8.0, 9.0, 12.0))
    checks.append(_run("bessel", "series-oracle", dev, 1e-13))

    dev = max(abs(bessel_jn(-n, z) - (-1.0) ** n * bessel_jn(n, z))
              for n in range(0, 9) for z in (0.5, 1.0, 5.0, 20.0))
    checks.append(_run("bessel", "order-parity", dev, 0.0))

    dev = 0.0
    for z in (0.5, 1.0, 5.0, 20.0, 100.0):
        table = bessel_table(z, truncation_window(z) + 1)
        for n in range(1, truncation_window(z) // 2 + 1):
            dev = max(dev, abs(table[n - 1] + table[n + 1] - (2.0 * n / z) * table[n]))
    checks.append(_run("bessel", "recurrence", dev, 1e-11))

    h = 1e-5
    dev = 0.0
    for z in (1.0, 3.0, 7.5, 15.0):  # orders n = 0..8, J_{-1} = -J_1
        fd = (bessel_table(z + h, 8) - bessel_table(z - h, 8)) / (2.0 * h)
        table = bessel_table(z, 9)
        exact = 0.5 * (np.append(-table[1], table[:8]) - table[1:])
        dev = max(dev, _worst(fd - exact))
    checks.append(_run("bessel", "derivative-identity", dev, 1e-7))

    dev = 0.0
    for z in (0.1, 1.0, 10.0, 100.0):
        table = bessel_table(z, truncation_window(z))
        total = table[0] ** 2 + 2.0 * np.sum(table[1:] ** 2)
        dev = max(dev, abs(total - 1.0))
    checks.append(_run("bessel", "sum-of-squares", dev, 1e-12))

    dev = 0.0
    for z in (1.0, 10.0, 50.0):
        table = bessel_table(z, truncation_window(z))
        dev = max(dev, abs(table[0] + 2.0 * np.sum(table[2::2]) - 1.0))
    checks.append(_run("bessel", "normalization", dev, 1e-13))

    rng = random.Random(seed)
    dev = 0.0
    for _ in range(20):
        z = rng.uniform(0.0, 20.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        val = jacobi_anger(z, phi, truncation_window(z))
        dev = max(dev, abs(val - np.exp(1j * z * math.cos(phi))))
    checks.append(_run("bessel", "jacobi-anger", dev, 1e-10))
    return checks


def suite_free(params: PhysicalParams | None = None) -> list[CheckResult]:
    params = params or PhysicalParams()
    scale = params.mu0**2 * params.mass / params.hbar  # dt giving z = 1
    checks = []

    dev = _worst(free_kernel(*_grid(-16, 16), 0.0, params) - np.eye(33))
    checks.append(_run("free", "initial-condition", dev, 1e-14))

    # sum_m |k(m, 0)|^2 = 1 over the truncation window, from the engine
    kernel = PropagatorKernel.free(params)
    dev = 0.0
    for z in (0.1, 1.0, 10.0, 100.0):
        w = truncation_window(z)
        column = kernel_table(kernel, range(-w, w + 1), [0], z * scale)[:, 0]
        dev = max(dev, abs(float(np.sum(np.abs(column) ** 2)) - 1.0))
    checks.append(_run("free", "unitarity", dev, 1e-10))

    dev = max(composition_check(kernel, 0, range(0, 9), 0.0,
                                z2 * scale, (z1 + z2) * scale)
              for z1, z2 in ((1.0, 1.0), (2.0, 0.5), (10.0, 10.0)))
    checks.append(_run("free", "composition", dev, 1e-9))

    sites = range(-8, 9)
    times = [z * scale for z in (0.5, 1.0, 5.0, 20.0)]
    dev = greens_residual(kernel, sites, sites, times)
    checks.append(_run("free", "greens-residual", dev, 1e-9))
    dev = greens_residual_fd(kernel, range(-4, 5), range(-4, 5),
                             [z * scale for z in (0.5, 1.0, 5.0)], step=1e-6)
    checks.append(_run("free", "greens-residual-fd", dev, 1e-5))

    js, rs = np.array([[-5], [0], [2]]), np.array([-1, 3, 7])
    dev = _worst(free_kernel(js, rs, 1.3 * scale, params)
                 - free_kernel(rs, js, 1.3 * scale, params))
    checks.append(_run("free", "symmetry", dev, 0.0))

    js, rs = np.array([[-3], [0], [4]]), np.array([-2, 1, 6])
    dev = max(_worst(np.conj(free_kernel(js, rs, dt, params))
                     - free_kernel(js, rs, -dt, params))
              for dt in (0.4 * scale, 2.0 * scale))
    checks.append(_run("free", "time-reversal", dev, 1e-13))

    # truncated plane wave picks up exactly e^{-i E dt / hbar} in the interior
    dev = 0.0
    for z in (1.0, 5.0):
        dt = z * scale
        half = truncation_window(z) + 10
        lat = Lattice(params, -half, half)
        p = 0.6 * params.brillouin_edge
        psi = LatticeWavefunction(lat, np.exp(1j * lat.sites * params.mu0 * p / params.hbar))
        out = evolve(psi, kernel, dt, out_window=(-10, 10))
        expected = (np.exp(-1j * dispersion_energy(params, p) * dt / params.hbar)
                    * np.exp(1j * out.lattice.sites * params.mu0 * p / params.hbar))
        dev = max(dev, _worst(out.amplitudes - expected))
    checks.append(_run("free", "eigenstate-phase", dev, 1e-8))

    dev = 0.0
    for energy in (0.0, 0.4 * params.energy_scale, 2.0 * params.energy_scale):
        dev = max(dev, abs(dispersion_energy(
            params, dispersion_momentum(params, energy)) - energy))
    checks.append(_run("free", "dispersion-roundtrip", dev, 1e-12))
    return checks


def suite_box(params: PhysicalParams | None = None, n_box: int = 8) -> list[CheckResult]:
    params = params or PhysicalParams()
    scale = params.mu0**2 * params.mass / params.hbar
    checks = []

    dev = max(_worst(box_spectral_kernel(*_grid(0, n), 0.0, n, params)
                     - np.diag([0.0] + [1.0] * (n - 1) + [0.0]))
              for n in range(2, 17))
    checks.append(_run("box", "initial-condition", dev, 1e-14))

    dev = max(_worst(box_spectral_kernel(*_grid(0, n), z * scale, n, params)
                     - box_images_kernel(*_grid(0, n), z * scale, n, params=params))
              for n in (2, 3, 4, 8, 16) for z in (0.5, 2.0, 10.0))
    checks.append(_run("box", "spectral-vs-images", dev, 1e-10))

    dev = _worst(box_spectral_kernel(np.array([[0], [n_box]]), np.arange(0, n_box + 1),
                                     1.7 * scale, n_box, params))
    checks.append(_run("box", "boundary-zeros", dev, 0.0))

    dev = 0.0
    for n, times in [(n_box, (0.3, 2.0))] + [(n, (0.7, 3.1)) for n in (2, 5, 9)]:
        spectrum = box_spectrum(n, params)
        states = spectrum.eigenvectors.astype(complex)  # levels 1..N-1 on sites 0..N
        for dt in (z * scale for z in times):  # every level in one box step
            out = _box_step(states, dimensionless_time(params, dt))
            phases = np.exp(-1j * spectrum.energies * dt / params.hbar)
            dev = max(dev, _worst(out - phases[:, None] * states))
    checks.append(_run("box", "eigenphase", dev, 1e-12))

    dev = 0.0
    for n in range(2, 17):
        for z in (0.5, 3.0):
            interior = box_spectral_kernel(*_grid(1, n - 1), z * scale, n, params)
            dev = max(dev, _worst(interior @ interior.conj().T - np.eye(n - 1)))
    checks.append(_run("box", "unitarity", dev, 1e-12))

    dev = max(composition_check(PropagatorKernel.box(n, params), range(1, n),
                                range(1, n), 0.0, t1 * scale, 3.0 * scale)
              for n in range(2, 9) for t1 in (0.4, 1.0, 1.1, 2.2, 2.3))
    checks.append(_run("box", "composition", dev, 1e-12))

    box6 = PropagatorKernel.box(6, params)
    dev = greens_residual(box6, range(1, 6), range(0, 7),
                          [z * scale for z in (0.5, 1.0, 5.0, 20.0)])
    checks.append(_run("box", "greens-residual", dev, 1e-10))
    dev = greens_residual_fd(box6, range(1, 6), range(1, 6),
                             [z * scale for z in (0.5, 1.0, 5.0)], step=1e-6)
    checks.append(_run("box", "greens-residual-fd", dev, 1e-5))

    # the tridiagonal interior stencil, diagonalized densely; every level
    # must also lie below the band top 2 hbar^2/(m mu0^2)
    dev_e = 0.0
    dev_v = 0.0
    for n in range(2, 33):
        spec = box_spectrum(n, params)
        c = params.energy_scale
        if not float(np.max(spec.energies)) < 2.0 * c:
            dev_e = math.inf
        matrix = np.diag(np.full(n - 1, c)) + np.diag(np.full(n - 2, -0.5 * c), 1) \
            + np.diag(np.full(n - 2, -0.5 * c), -1)
        vals, vecs = np.linalg.eigh(matrix)
        dev_e = max(dev_e, float(np.max(np.abs(vals - spec.energies))))
        # fix each column's sign by its first entry above rounding noise
        first = np.argmax(np.abs(vecs) > 1e-8, axis=0)
        vecs = vecs * np.where(vecs[first, np.arange(n - 1)] < 0, -1.0, 1.0)
        dev_v = max(dev_v, _worst(vecs.T - spec.eigenvectors[:, 1:n]))
    checks.append(_run("box", "spectrum-oracle-energies", dev_e, 1e-10))
    checks.append(_run("box", "spectrum-oracle-vectors", dev_v, 1e-8))

    # every level of a box in one stencil call; H psi and E psi are 0 on the walls
    dev = max(_worst(_stencil(spec.eigenvectors, params)
                     - spec.energies[:, None] * spec.eigenvectors[:, 1:-1])
              for spec in (box_spectrum(n, params) for n in (2, 7, 32)))
    checks.append(_run("box", "eigen-residual", dev, 1e-12))
    return checks


def suite_momentum(params: PhysicalParams | None = None, seed: int = 0) -> list[CheckResult]:
    params = params or PhysicalParams()
    scale = params.mu0**2 * params.mass / params.hbar
    rng = random.Random(seed)
    checks = []

    # packets on sites -40..40 evolve onto that window padded by W(z = 2);
    # the momentum grids have 8 and 16 points more than the padded window
    kernel = PropagatorKernel.free(params)
    dt = 2.0 * scale
    pad = truncation_window(2.0)
    window = (-40 - pad, 40 + pad)
    grids = [MomentumGrid(params, window[1] - window[0] + 1 + extra) for extra in (8, 16)]
    grid_phases = [momentum_kernel_phase(grid.values, dt, params) for grid in grids]
    dev = 0.0
    for _ in range(3):
        center = rng.uniform(-3.0, 3.0) * params.mu0
        sigma = rng.uniform(2.0, 4.0) * params.mu0
        p = rng.uniform(-0.5, 0.5) * params.brillouin_edge
        psi = gaussian_packet(Lattice(params, -40, 40), center, sigma, p)
        out = evolve(psi, kernel, dt, window)
        for grid, phases in zip(grids, grid_phases):
            back = from_momentum(to_momentum(psi, grid) * phases, grid, out.lattice)
            dev = max(dev, float(np.max(np.abs(back.amplitudes - out.amplitudes))))
    checks.append(_run("momentum", "phase-evolution", dev, 1e-9))

    lat = Lattice(params, -6, 9)
    re, im = np.array([rng.gauss(0.0, 1.0) for _ in range(32)]).reshape(2, 16)
    psi = LatticeWavefunction(lat, re + 1j * im)  # 16 real parts, then 16 imaginary
    grid = MomentumGrid(params, 64)
    tilde = to_momentum(psi, grid)
    dev = abs(float(np.sum(np.abs(tilde) ** 2)) / grid.num_points - psi.norm_sq())
    checks.append(_run("momentum", "parseval", dev, 1e-12 * psi.norm_sq()))

    dev = _worst(from_momentum(tilde, grid, lat).amplitudes - psi.amplitudes)
    checks.append(_run("momentum", "roundtrip", dev, 1e-12))

    p_test = np.linspace(-0.9, 0.9, 7) * params.brillouin_edge
    shifted = p_test + 2.0 * math.pi * params.hbar / params.mu0
    dev = _worst(momentum_samples(psi, p_test) - momentum_samples(psi, shifted))
    checks.append(_run("momentum", "periodicity", dev, 1e-10))

    # FFT route vs dense sum on sites -6..9 and 10^6 sites away, over (max|n| + 1)
    # sum|psi_n|: dense phases round by up to ~4 pi |n| eps (3 pi from p, pi from n p)
    dev = 0.0
    for shift in (0, 10**6):
        far = LatticeWavefunction(Lattice(params, -6 + shift, 9 + shift), psi.amplitudes)
        dev = max(dev, _worst(to_momentum(far, grid) - momentum_samples(far, grid.values))
                  / ((10 + shift) * np.sum(np.abs(psi.amplitudes))))
    checks.append(_run("momentum", "fft-vs-dense", dev, 4.0 * math.pi * 2.0**-52))
    return checks


def suite_continuum() -> list[CheckResult]:
    checks = []
    points = continuum_sweep(1.0, 1.0, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    errors = [p.abs_error for p in points]
    worst_rise = max(errors[i + 1] - errors[i] for i in range(len(errors) - 1))
    checks.append(_run("continuum", "monotone-decrease",
                       max(0.0, worst_rise), 0.0))

    long_times = continuum_sweep(1.0, 50.0, [1 / 8])[0].abs_error
    short_times = continuum_sweep(1.0, 1.0, [1 / 8])[0].abs_error
    checks.append(_run("continuum", "deep-time-decay",
                       max(0.0, long_times - 0.25 * short_times), 0.0))
    return checks


def run_suite(name: str, params: PhysicalParams | None = None, n_box: int = 8,
              seed: int = 0, overrides: dict | None = None) -> list[CheckResult]:
    """The records of one suite, or of every suite in order for "all".

    overrides maps "suite/name" (say "free/greens-residual") to a
    tolerance that replaces that record's; a key naming no record of
    this run raises ValueError.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    params = params or PhysicalParams()
    n_box = _box_size(n_box)  # checked whichever suite runs, like the seed
    if (seed := operator.index(seed)) < 0:  # random.Random(-s) is Random(s)
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    suites = {
        "bessel": lambda: suite_bessel(seed),
        "free": lambda: suite_free(params),
        "box": lambda: suite_box(params, n_box),
        "momentum": lambda: suite_momentum(params, seed),
        "continuum": suite_continuum,
    }
    results = [check for key in (suites if name == "all" else (name,))
               for check in suites[key]()]
    overrides = overrides or {}
    unknown = set(overrides) - {f"{c.suite}/{c.name}" for c in results}
    if unknown:
        raise ValueError(f"tolerance overrides {sorted(unknown)} name no record of "
                         f"suite {name!r}; keys are suite/name, e.g. 'free/unitarity'")
    return [replace(c, tolerance=float(overrides.get(f"{c.suite}/{c.name}", c.tolerance)))
            for c in results]
