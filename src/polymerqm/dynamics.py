"""Lattice dynamics: the polymer Hamiltonian, dispersion, and the box spectrum.

The kinetic term is the second-difference stencil

    (H psi)_n = (hbar^2 / 2 m mu0^2) (2 psi_n - psi_{n+1} - psi_{n-1})

The particle in a box of length L = N*mu0 has walls AT sites 0 and N
where amplitudes are constrained to vanish; no infinite potential values
enter the arithmetic.

The stencil (`_stencil`), its band 1 - cos(theta) (`_band`) and the box
modes sqrt(2/N) sin(l pi n/N) (`_box_modes`) are written here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import _MAX_SIZE, _integer
from .lattice import Lattice, LatticeWavefunction, PhysicalParams


class WallSupportError(ValueError):
    """Raised when a box state has nonzero amplitude at or beyond a wall."""


def _box_size(n) -> int:
    """Box size (or half period) N as an int >= 2 with 2N <= bessel._MAX_SIZE, else ValueError."""
    size = _integer(n, "system size N", 2)
    if 2 * size > _MAX_SIZE:
        raise ValueError(f"system size N = {size} has 2N over the limit {_MAX_SIZE}")
    return size


def _box_interior_amplitudes(psi: LatticeWavefunction, n_box: int) -> np.ndarray:
    """Embed a box state into the full 0..N window, checking wall support.

    Any nonzero amplitude at a wall or outside the box violates the
    boundary conditions psi(x_0) = psi(x_N) = 0.
    """
    sites, amps = psi.lattice.sites, psi.amplitudes
    inside = (sites > 0) & (sites < n_box)
    bad = np.flatnonzero(~inside & (amps != 0))
    if bad.size:
        raise WallSupportError(
            f"box state has nonzero amplitude {amps[bad[0]]} at site {sites[bad[0]]}; "
            f"support must lie strictly inside (0, {n_box})"
        )
    full = np.zeros(n_box + 1, dtype=complex)
    full[sites[inside]] = amps[inside]
    return full


def _stencil(amps, params: PhysicalParams) -> np.ndarray:
    """(hbar^2/2 m mu0^2)(2 psi_n - psi_{n-1} - psi_{n+1}) on the inner sites of the last axis."""
    return 0.5 * params.energy_scale * (2.0 * amps[..., 1:-1] - amps[..., :-2] - amps[..., 2:])


def _band(theta):
    """1 - cos(theta), taken as 2 sin^2(theta/2): full relative accuracy near 0."""
    return 2.0 * np.sin(0.5 * theta) ** 2


def _box_modes(n_box: int, sites) -> np.ndarray:
    """sqrt(2/N) sin(l pi n/N) at sites n for the levels l = 1..N-1, on a new last axis."""
    angles = np.multiply.outer(sites, np.arange(1, n_box)) * math.pi / n_box
    modes = math.sqrt(2.0 / n_box) * np.sin(angles)
    modes[np.asarray(sites) % n_box == 0] = 0.0  # the walls: sin(l pi) is 0, floats are not
    return modes


def dispersion_energy(params: PhysicalParams, p):
    """E(p) = (hbar^2 / m mu0^2) (1 - cos(mu0 p / hbar)) in [0, 2*scale], p scalar or array."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"momentum must be finite, got {p}")
    energy = params.energy_scale * _band(params.mu0 * p / params.hbar)
    return float(energy) if energy.ndim == 0 else energy


def dispersion_momentum(params: PhysicalParams, energy: float) -> float:
    """Inverse dispersion p_E = (hbar/mu0) arccos(1 - m mu0^2 E / hbar^2) in [0, pi hbar/mu0]."""
    energy = float(energy)
    band_top = 2.0 * params.energy_scale
    if not math.isfinite(energy) or energy < 0.0 or energy > band_top * (1.0 + 1e-12):
        raise ValueError(
            f"energy {energy} outside the polymer band [0, {band_top}]"
        )
    x = 1.0 - energy / params.energy_scale
    x = min(1.0, max(-1.0, x))  # guard rounding at the band edges
    return (params.hbar / params.mu0) * math.acos(x)


@dataclass(frozen=True, eq=False)
class BoxSpectrum:
    """All N-1 levels of the box with walls at sites 0 and N.

    energies[l-1] = (hbar^2/m mu0^2)(1 - cos(l pi / N)) for l = 1..N-1;
    eigenvectors[l-1, n] = sqrt(2/N) sin(l pi n / N) on sites n = 0..N,
    with the wall entries exactly zero and unit lattice norm.
    """

    n: int
    params: PhysicalParams
    energies: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def level(self, l: int) -> tuple[float, np.ndarray]:
        """(E_l, eigenvector samples on 0..N) for l in 1..N-1."""
        if not (1 <= l <= self.n - 1):
            raise ValueError(f"level {l} outside 1..{self.n - 1}")
        return float(self.energies[l - 1]), self.eigenvectors[l - 1]

    def eigenstate(self, l: int) -> LatticeWavefunction:
        _, vec = self.level(l)
        return LatticeWavefunction(Lattice(self.params, 0, self.n), vec)


def box_spectrum(n: int, params: PhysicalParams) -> BoxSpectrum:
    """Closed-form spectrum of the box Hamiltonian on an N-interval lattice."""
    n = _box_size(n)
    energies = params.energy_scale * _band(np.arange(1, n) * math.pi / n)
    vectors = _box_modes(n, np.arange(0, n + 1)).T
    return BoxSpectrum(n=n, params=params, energies=energies, eigenvectors=vectors)
