"""Named property suites behind the `verify` command.

Each invariant shared by the systems is one function of a `PropagatorKernel`
and its grid that returns the worst deviation as a float: `_initial_condition`,
`_unitarity`, `_symmetry` and `_time_reversal` here, beside the library's
`composition_check`, `greens_residual` and `greens_residual_fd`, all on the
engine's kernel calls; the closed forms of `checks` are compared with it by
name.  A suite is a generator, called as suite(params, n_box, seed), that
yields one (name, deviation, tolerance) record per property at fixed
desk-scale sample grids; `run_suite` reads the suites from `_SUITES` and
makes every `CheckResult`.  Every record and invariant folds its samples by
`checks._worst`, the one reducer: a NaN sample makes the record NaN, a failure.
Randomized samples (Jacobi-Anger points, Gaussian packets, amplitudes, box
levels) come from `random.Random(seed)`: a deterministic stdlib generator, so
two runs with the same seed produce identical reports, and
`numpy.random` stays unloaded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import SUITE_NAMES
from .bessel import _integer, bessel_jn, bessel_table, jacobi_anger, truncation_window
from .checks import (_worst, composition_check, continuum_sweep, greens_residual,
                     greens_residual_fd, image_sum, momentum_kernel_phase, spectral_sum)
from .dynamics import _box_modes, _box_size, _stencil
from .lattice import (Lattice, LatticeWavefunction, PhysicalParams, dimensionless_time,
                      gaussian_packet)
from .propagators import PropagatorKernel, _circle_step, _odd, evolve, kernel_table
from .spectral import (MomentumGrid, box_spectrum, dispersion_energy, dispersion_momentum,
                       from_momentum, momentum_samples, to_momentum)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """deviation <= tolerance: False for a NaN deviation, which `_worst` never drops."""
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


def _grid(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Sites lo..hi as a column and a row: the (j, r) grid of a check route."""
    sites = np.arange(lo, hi + 1)
    return sites[:, None], sites


# ---------------------------------------------------------------------------
# invariants: a kernel and its grid -> the worst deviation
# ---------------------------------------------------------------------------

def _initial_condition(kernel: PropagatorKernel, lo: int, hi: int) -> float:
    """Worst |k(j, r, 0) - delta_jr| over j, r in lo..hi; box walls are expected 0."""
    js, rs = _grid(lo, hi)
    delta = js == rs
    if kernel.system == "box":
        delta &= js % kernel.n != 0
    return _worst(kernel(js, rs, 0.0) - delta)


def _unitarity(kernel: PropagatorKernel, lo: int, hi: int, dt: float) -> float:
    """Worst deviation of k k^dagger from I on sites lo..hi, a closed set (box interior).

    Free: |sum_m |k(m, 0)|^2 - 1| over m = lo..hi, the engine's column of
    the truncation window, outside of which the kernel is exactly 0.
    """
    if kernel.system == "free":
        return _worst(np.sum(np.abs(kernel(np.arange(lo, hi + 1), 0, dt)) ** 2) - 1.0)
    k = kernel(*_grid(lo, hi), dt)
    return _worst(k @ k.conj().T - np.eye(hi - lo + 1))


def _symmetry(kernel: PropagatorKernel, js, rs, dt: float) -> float:
    """Worst |k(j, r) - k(r, j)| over a column js and a row rs."""
    return _worst(kernel(js, rs, dt) - kernel(rs, js, dt))


def _time_reversal(kernel: PropagatorKernel, js, rs, dt: float) -> float:
    """Worst |conj k(j, r, dt) - k(j, r, -dt)| over a column js and a row rs."""
    return _worst(np.conj(kernel(js, rs, dt)) - kernel(js, rs, -dt))


# ---------------------------------------------------------------------------
# suites: (params, n_box, seed) -> (name, deviation, tolerance) records
# ---------------------------------------------------------------------------

def suite_bessel(params: PhysicalParams, n_box: int, seed: int):
    # one table per z: W(z) >= 20 > 12, so it starts where bessel_jn's does
    yield "series-oracle", _worst(*(
        bessel_table(z, 12) - [bessel_series_reference(n, z) for n in range(13)]
        for z in (0.0, 0.3, 0.5, 1.0, 2.5, 3.0, 5.0, 6.0, 8.0, 9.0, 12.0))), 1e-13

    yield "order-parity", _worst(*(bessel_jn(-n, z) - (-1.0) ** n * bessel_jn(n, z)
                                   for n in range(0, 9) for z in (0.5, 1.0, 5.0, 20.0))), 0.0

    def recurrence(z):  # orders n = 1..W/2 of a table to W + 1
        table, n = bessel_table(z, (w := truncation_window(z)) + 1), np.arange(1, w // 2 + 1)
        return table[n - 1] + table[n + 1] - (2.0 * n / z) * table[n]
    yield "recurrence", _worst(*map(recurrence, (0.5, 1.0, 5.0, 20.0, 100.0))), 1e-11

    def derivative(z, h=1e-5):  # orders n = 0..8, J_{-1} = -J_1
        table = bessel_table(z, 9)
        return ((bessel_table(z + h, 8) - bessel_table(z - h, 8)) / (2.0 * h)
                - 0.5 * (np.append(-table[1], table[:8]) - table[1:]))
    yield "derivative-identity", _worst(*map(derivative, (1.0, 3.0, 7.5, 15.0))), 1e-7

    tables = (bessel_table(z, truncation_window(z)) for z in (0.1, 1.0, 10.0, 100.0))
    yield "sum-of-squares", _worst(*(t[0] ** 2 + 2.0 * np.sum(t[1:] ** 2) - 1.0
                                     for t in tables)), 1e-12
    tables = (bessel_table(z, truncation_window(z)) for z in (1.0, 10.0, 50.0))
    yield "normalization", _worst(*(t[0] + 2.0 * np.sum(t[2::2]) - 1.0 for t in tables)), 1e-13

    rng = random.Random(seed)
    points = [(rng.uniform(0.0, 20.0), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(20)]
    yield "jacobi-anger", _worst(*(  # the builtin abs: numpy's ufunc differs in the last bit
        abs(jacobi_anger(z, phi, truncation_window(z)) - np.exp(1j * z * math.cos(phi)))
        for z, phi in points)), 1e-10


def suite_free(params: PhysicalParams, n_box: int, seed: int):
    scale = params.mu0**2 * params.mass / params.hbar  # dt giving z = 1
    kernel = PropagatorKernel.free(params)
    yield "initial-condition", _initial_condition(kernel, -16, 16), 1e-14
    yield "unitarity", _worst(*(_unitarity(kernel, -(w := truncation_window(z)), w, z * scale)
                                for z in (0.1, 1.0, 10.0, 100.0))), 1e-10
    yield "composition", _worst(*(composition_check(kernel, 0, range(0, 9), 0.0,
                                                    z2 * scale, (z1 + z2) * scale)
                                  for z1, z2 in ((1.0, 1.0), (2.0, 0.5), (10.0, 10.0)))), 1e-9

    sites = range(-8, 9)
    yield "greens-residual", greens_residual(
        kernel, sites, sites, [z * scale for z in (0.5, 1.0, 5.0, 20.0)]
    ) / params.energy_scale, 1e-9
    yield "greens-residual-fd", greens_residual_fd(
        kernel, range(-4, 5), range(-4, 5), [z * scale for z in (0.5, 1.0, 5.0)]
    ) / params.energy_scale, 1e-5
    yield "symmetry", _symmetry(kernel, [[-5], [0], [2]], [-1, 3, 7], 1.3 * scale), 0.0
    yield "time-reversal", _worst(*(_time_reversal(kernel, [[-3], [0], [4]], [-2, 1, 6], dt)
                                    for dt in (0.4 * scale, 2.0 * scale))), 1e-13

    def plane_wave(z):  # a truncated plane wave picks up exactly e^{-i E dt / hbar} inside
        dt = z * scale
        half = truncation_window(z) + 10
        lat = Lattice(params, -half, half)
        p = 0.6 * params.brillouin_edge
        psi = LatticeWavefunction(lat, np.exp(1j * lat.sites * params.mu0 * p / params.hbar))
        out = evolve(psi, kernel, dt, out_window=(-10, 10))
        return out.amplitudes - (np.exp(-1j * dispersion_energy(params, p) * dt / params.hbar)
                                 * np.exp(1j * out.lattice.sites * params.mu0 * p / params.hbar))
    yield "eigenstate-phase", _worst(*map(plane_wave, (1.0, 5.0))), 1e-8

    yield "dispersion-roundtrip", _worst(*(
        dispersion_energy(params, dispersion_momentum(params, energy)) - energy
        for energy in (0.0, 0.4 * params.energy_scale, 2.0 * params.energy_scale))
    ) / params.energy_scale, 1e-12


def suite_box(params: PhysicalParams, n_box: int, seed: int):
    scale = params.mu0**2 * params.mass / params.hbar
    yield "initial-condition", _worst(*(_initial_condition(PropagatorKernel.box(n, params), 0, n)
                                        for n in range(2, 17))), 1e-14
    yield "spectral-vs-images", _worst(*(
        spectral_sum(box := PropagatorKernel.box(n, params), *_grid(0, n), z * scale)
        - image_sum(box, *_grid(0, n), z * scale)
        for n in (2, 3, 4, 8, 16) for z in (0.5, 2.0, 10.0))), 1e-10
    yield "boundary-zeros", _worst(kernel_table(PropagatorKernel.box(n_box, params), [0, n_box],
                                                range(n_box + 1), 1.7 * scale)), 0.0

    def eigenphases():  # at most 48 levels of a size, made a block at a time before its steps
        for n, times in [(n_box, (0.3, 2.0))] + [(n, (0.7, 3.1)) for n in (2, 5, 9)]:
            levels = np.arange(1, n) if n - 1 <= 48 else np.r_[  # first, seeded and last 16
                1:17, sorted(random.Random(seed).sample(range(17, n - 16), 16)), n - 16:n]
            energies = box_spectrum(n, params).energies[levels - 1]
            block = max(1, min(16, 2**13 // (2 * n)))  # levels x 2N <= 2^13, or one level
            for lo in range(0, levels.size, block):
                states = _box_modes(n, np.arange(n + 1), levels[lo:lo + block]).T  # on 0..N
                for dt in (z * scale for z in times):
                    out = _circle_step(_odd(states), dimensionless_time(params, dt))
                    phases = np.exp(-1j * energies[lo:lo + block] * dt / params.hbar)
                    yield _worst(out[:, 1:n] - phases[:, None] * states[:, 1:n])
    yield "eigenphase", _worst(*eigenphases()), 1e-12

    yield "unitarity", _worst(*(_unitarity(PropagatorKernel.box(n, params), 1, n - 1, z * scale)
                                for n in range(2, 17) for z in (0.5, 3.0))), 1e-12
    yield "composition", _worst(*(composition_check(
        PropagatorKernel.box(n, params), range(1, n), range(1, n), 0.0,
        [t1 * scale for t1 in (0.4, 1.0, 1.1, 2.2, 2.3)], 3.0 * scale) for n in range(2, 9))), 1e-12

    box6 = PropagatorKernel.box(6, params)
    yield "greens-residual", greens_residual(
        box6, range(1, 6), range(0, 7), [z * scale for z in (0.5, 1.0, 5.0, 20.0)]
    ) / params.energy_scale, 1e-10
    yield "greens-residual-fd", greens_residual_fd(
        box6, range(1, 6), range(1, 6), [z * scale for z in (0.5, 1.0, 5.0)]
    ) / params.energy_scale, 1e-5

    def oracle(n):  # the interior rows of the stencil of the identity, diagonalized densely
        energies = box_spectrum(n, params).energies
        vals, vecs = np.linalg.eigh(_stencil(np.eye(n + 1), params)[1:-1])
        # fix each column's sign by its first entry above rounding noise
        first = np.argmax(np.abs(vecs) > 1e-8, axis=0)
        vecs = vecs * np.where(vecs[first, np.arange(n - 1)] < 0, -1.0, 1.0)
        # every level must also lie below the band top 2 hbar^2/(m mu0^2), else inf
        return (_worst(np.where(energies < 2.0 * params.energy_scale, vals - energies, math.inf))
                / params.energy_scale, _worst(vecs - _box_modes(n, np.arange(1, n))))
    energies, vectors = zip(*map(oracle, range(2, 33)))
    yield "spectrum-oracle-energies", _worst(*energies), 1e-10
    yield "spectrum-oracle-vectors", _worst(*vectors), 1e-8

    def eigen_residual(n):  # every level of a box in one stencil call; H and E are 0 on the walls
        states, energies = _box_modes(n, np.arange(n + 1)).T, box_spectrum(n, params).energies
        return _stencil(states, params) - energies[:, None] * states[:, 1:-1]
    yield "eigen-residual", _worst(*map(eigen_residual, (2, 7, 32))) / params.energy_scale, 1e-12

    boxes = [PropagatorKernel.box(n, params) for n in (2, 6, 17, 48)]  # the engine's tables
    yield "symmetry", _worst(*(_symmetry(box, *_grid(0, box.n), z * scale)
                               for box in boxes for z in (0.3, 1.7, 25.0))), 0.0
    yield "time-reversal", _worst(*(_time_reversal(box, *_grid(0, box.n), z * scale)
                                    for box in boxes for z in (0.4, 2.0))), 1e-14
    yield "engine-vs-spectral", _worst(*(
        (box := PropagatorKernel.box(n, params))(*_grid(0, n), z * scale)
        - spectral_sum(box, *_grid(0, n), z * scale)
        for n in (2, 3, 4, 8, 16) for z in (0.5, 2.0, 10.0))), 1e-13


def suite_momentum(params: PhysicalParams, n_box: int, seed: int):
    scale = params.mu0**2 * params.mass / params.hbar
    rng = random.Random(seed)

    # packets on sites -40..40 evolve onto that window padded by W(z = 2);
    # the momentum grids have 8 and 16 points more than the padded window
    kernel = PropagatorKernel.free(params)
    dt = 2.0 * scale
    pad = truncation_window(2.0)
    window = (-40 - pad, 40 + pad)
    grids = [MomentumGrid(params, window[1] - window[0] + 1 + extra) for extra in (8, 16)]
    grid_phases = [momentum_kernel_phase(grid.values, dt, params) for grid in grids]

    def packets():
        for _ in range(3):
            center = rng.uniform(-3.0, 3.0) * params.mu0
            sigma = rng.uniform(2.0, 4.0) * params.mu0
            p = rng.uniform(-0.5, 0.5) * params.brillouin_edge
            psi = gaussian_packet(Lattice(params, -40, 40), center, sigma, p)
            out = evolve(psi, kernel, dt, window)
            for grid, phases in zip(grids, grid_phases):
                back = from_momentum(to_momentum(psi, grid) * phases, grid, out.lattice)
                yield back.amplitudes - out.amplitudes
    yield "phase-evolution", _worst(*packets()), 1e-9

    lat = Lattice(params, -6, 9)
    re, im = np.array([rng.gauss(0.0, 1.0) for _ in range(32)]).reshape(2, 16)
    psi = LatticeWavefunction(lat, re + 1j * im)  # 16 real parts, then 16 imaginary
    grid = MomentumGrid(params, 64)
    tilde = to_momentum(psi, grid)
    yield "parseval", _worst(float(np.sum(np.abs(tilde) ** 2)) / grid.num_points
                             - psi.norm_sq()), 1e-12 * psi.norm_sq()
    yield "roundtrip", _worst(from_momentum(tilde, grid, lat).amplitudes - psi.amplitudes), 1e-12

    p_test = np.linspace(-0.9, 0.9, 7) * params.brillouin_edge
    shifted = p_test + 2.0 * math.pi * params.hbar / params.mu0
    yield "periodicity", _worst(momentum_samples(psi, p_test)
                                - momentum_samples(psi, shifted)), 1e-10

    # FFT route vs dense sum on sites -6..9 and 10^6 sites away, over (max|n| + 1)
    # sum|psi_n|: dense phases round by up to ~4 pi |n| eps (3 pi from p, pi from n p)
    def fft_vs_dense(shift):
        far = LatticeWavefunction(Lattice(params, -6 + shift, 9 + shift), psi.amplitudes)
        return (np.abs(to_momentum(far, grid) - momentum_samples(far, grid.values))
                / ((10 + shift) * np.sum(np.abs(psi.amplitudes))))
    yield "fft-vs-dense", _worst(*map(fft_vs_dense, (0, 10**6))), 4.0 * math.pi * 2.0**-52


def suite_continuum(params: PhysicalParams, n_box: int, seed: int):
    # signed: only a rise counts, its positive part by np.maximum, which keeps a NaN
    errors = [p.abs_error for p in continuum_sweep(1.0, 1.0, [1 / 8, 1 / 16, 1 / 32, 1 / 64])]
    yield "monotone-decrease", _worst(np.maximum(np.diff(errors), 0.0)), 0.0

    long_times = continuum_sweep(1.0, 50.0, [1 / 8])[0].abs_error
    short_times = continuum_sweep(1.0, 1.0, [1 / 8])[0].abs_error
    yield "deep-time-decay", _worst(np.maximum(long_times - 0.25 * short_times, 0.0)), 0.0


_SUITES = {"bessel": suite_bessel, "free": suite_free, "box": suite_box,
           "momentum": suite_momentum, "continuum": suite_continuum}


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
    seed = _integer(seed, "seed", 0)  # random.Random(-s) is Random(s)
    overrides = overrides or {}
    results = [CheckResult(suite, check, dev, float(overrides.get(f"{suite}/{check}", tol)))
               for suite in (_SUITES if name == "all" else (name,))
               for check, dev, tol in _SUITES[suite](params, n_box, seed)]
    unknown = set(overrides) - {f"{c.suite}/{c.name}" for c in results}
    if unknown:
        raise ValueError(f"tolerance overrides {sorted(unknown)} name no record of "
                         f"suite {name!r}; keys are suite/name, e.g. 'free/unitarity'")
    return results
