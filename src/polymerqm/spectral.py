"""The spectral side: the dispersion, the box spectrum and the momentum picture.

None of it is on the path of `kernel_table` or `evolve`.  The momentum
representation lives on the interval (-pi*hbar/mu0, pi*hbar/mu0) where
momentum wavefunctions are periodic, so the transform is a discrete-time
Fourier transform.  `to_momentum` and `from_momentum` take it on a P-point
midpoint grid by one FFT, O(M + P log P); `momentum_samples` is the dense sum
at any momenta, their check route.  The band and the box modes themselves are
`dynamics._band` and `dynamics._box_modes`; a `BoxSpectrum` holds only the
N - 1 energies and makes a mode, in O(N), when `level` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import _integer, _limit
from .dynamics import _band, _box_modes, _box_size
from .lattice import Lattice, LatticeWavefunction, PhysicalParams, _fold


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
    """The N-1 levels of the box with walls at sites 0 and N, kept as their energies.

    energies[l-1] = (hbar^2/m mu0^2)(1 - cos(l pi / N)) for l = 1..N-1.  The
    mode sqrt(2/N) sin(l pi n / N) on sites n = 0..N, exactly zero at the walls
    and of unit lattice norm, is made by `level(l)` when read, in O(N).
    """

    n: int
    params: PhysicalParams
    energies: np.ndarray = field(repr=False)

    def level(self, l: int) -> tuple[float, np.ndarray]:
        """(E_l, eigenvector samples on 0..N) for l in 1..N-1: `dynamics._box_modes` of l."""
        if not (1 <= (l := _integer(l, "level")) <= self.n - 1):
            raise ValueError(f"level {l} outside 1..{self.n - 1}")
        return float(self.energies[l - 1]), _box_modes(self.n, np.arange(self.n + 1), l)

    def eigenstate(self, l: int) -> LatticeWavefunction:
        _, vec = self.level(l)
        return LatticeWavefunction(Lattice(self.params, 0, self.n), vec)


def box_spectrum(n: int, params: PhysicalParams) -> BoxSpectrum:
    """The closed-form box spectrum on N intervals, O(N): its modes are made when read."""
    n = _box_size(n)
    return BoxSpectrum(n=n, params=params,
                       energies=params.energy_scale * _band(np.arange(1, n) * math.pi / n))


@dataclass(frozen=True)
class MomentumGrid:
    """Midpoint grid of M momenta inside the open interval (-pi hbar/mu0, pi hbar/mu0).

    The half-step offset keeps both endpoints (which are identified on
    the momentum circle) out of the grid.
    """

    params: PhysicalParams
    num_points: int

    def __post_init__(self):
        object.__setattr__(self, "num_points", _integer(self.num_points, "num_points", 1))

    @property
    def values(self) -> np.ndarray:
        edge = self.params.brillouin_edge
        step = 2.0 * edge / self.num_points
        return -edge + (np.arange(self.num_points) + 0.5) * step


def momentum_samples(psi: LatticeWavefunction, p_values: np.ndarray) -> np.ndarray:
    """Dense sum psi~(p) = sum_n psi_n exp(i n mu0 p / hbar); p x n counted by `bessel._limit`."""
    p, sites = np.atleast_1d(np.asarray(p_values, dtype=float)), psi.lattice.num_sites
    if not np.all(np.isfinite(p)):
        raise ValueError(f"momentum must be finite, got {p}")
    _limit(p.size * sites, "{} momenta x {} sites is over", p.size, sites)
    n = psi.lattice.sites
    phase = np.exp(1j * np.outer(p, n) * psi.lattice.params.mu0
                   / psi.lattice.params.hbar)
    return phase @ psi.amplitudes


def _twist(sites: np.ndarray, period: int) -> np.ndarray:
    """(-1)^n e^{i pi n/P} = e^{i pi m/P}, m = n (P + 1) mod 2P taken in integers."""
    residue = (sites % (2 * period)) * (period + 1) % (2 * period)
    return np.exp((1j * math.pi / period) * residue)


def to_momentum(psi: LatticeWavefunction, grid: MomentumGrid) -> np.ndarray:
    """The momentum wavefunction of psi on the grid, by one length-P FFT.

    At p_k mu0/hbar = -pi + (k + 1/2) 2 pi/P, psi~(p_k) is the unscaled
    inverse DFT of psi_n (-1)^n e^{i pi n/P} folded mod P, in O(M + P log P).
    """
    if psi.lattice.params != grid.params:
        raise ValueError("wavefunction and momentum grid have different parameters")
    period, sites = grid.num_points, psi.lattice.sites
    folded = _fold(sites, psi.amplitudes * _twist(sites, period), period)
    return np.fft.ifft(folded, norm="forward")


def from_momentum(values: np.ndarray, grid: MomentumGrid,
                  lattice: Lattice) -> LatticeWavefunction:
    """Invert `to_momentum` by the uniform quadrature over the momentum interval.

    psi_n = (1/P) sum_k values_k exp(-i n mu0 p_k / hbar), the conjugate
    twist times fft(values)[n mod P] / P: one FFT, O(M + P log P).  The
    rule is exact (not approximate) when P is at least the window width,
    since the integrand is then a trigonometric polynomial of degree < P.
    """
    if grid.params != lattice.params:
        raise ValueError("momentum grid and lattice have different parameters")
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (grid.num_points,):
        raise ValueError(f"expected {grid.num_points} momentum samples, "
                         f"got shape {vals.shape}")
    if grid.num_points < lattice.num_sites:
        raise ValueError(f"grid with {grid.num_points} points cannot resolve a "
                         f"{lattice.num_sites}-site window")
    period, sites = grid.num_points, lattice.sites
    amps = np.conj(_twist(sites, period)) * np.fft.fft(vals, norm="forward")[sites % period]
    return LatticeWavefunction(lattice, amps)
