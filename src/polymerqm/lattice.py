"""Fixed regular lattice and wavefunctions on it.

The lattice is x_n = n * mu0 with the origin pinned at site 0.  States
are finite windows of complex amplitudes; everything outside a window
is implicitly zero.  The momentum picture is in `spectral`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bessel import _integer, _real, _site_domain


@dataclass(frozen=True)
class PhysicalParams:
    """hbar, particle mass, and lattice spacing mu0; all strictly positive.

    m mu0^2 and hbar^2/(m mu0^2) must also be finite and nonzero as floats.
    """

    hbar: float = 1.0
    mass: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "mu0"):
            object.__setattr__(self, name, _real(getattr(self, name), name, positive=True))
        try:
            ok = self.mass * self.mu0**2 > 0.0 and 0.0 < self.energy_scale < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError("m mu0^2 and hbar^2/(m mu0^2) must be finite and > 0, got "
                             f"hbar={self.hbar!r}, mass={self.mass!r}, mu0={self.mu0!r}")

    @property
    def energy_scale(self) -> float:
        """hbar^2 / (m mu0^2), the natural kinetic-energy unit of the lattice."""
        return self.hbar**2 / (self.mass * self.mu0**2)

    @property
    def brillouin_edge(self) -> float:
        """pi*hbar/mu0, the boundary of the momentum interval."""
        return math.pi * self.hbar / self.mu0


def dimensionless_time(params: PhysicalParams, dt: float) -> float:
    """z = hbar * dt / (m * mu0^2); the argument of every Bessel kernel."""
    z = params.hbar * (dt := _real(dt, "dt")) / (params.mass * params.mu0**2)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z} at dt = {dt!r}")
    return z


@dataclass(frozen=True)
class Lattice:
    """Index window [n_min, n_max] on the grid x_n = n * mu0."""

    params: PhysicalParams
    n_min: int
    n_max: int

    def __post_init__(self):
        for name in ("n_min", "n_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_min > self.n_max:
            raise ValueError(f"empty window: n_min={self.n_min} > n_max={self.n_max}")
        _site_domain(self.n_min, self.n_max, "lattice sites")

    @property
    def num_sites(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def positions(self) -> np.ndarray:
        return self.sites * self.params.mu0


@dataclass(frozen=True, eq=False)
class LatticeWavefunction:
    """Complex amplitudes on a lattice window, one per site."""

    lattice: Lattice
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.lattice.num_sites:
            raise ValueError(
                f"expected {self.lattice.num_sites} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def norm(self) -> float:
        """sqrt(`norm_sq`), squares summed at an exact power-of-2 scale: same bits, no overflow."""
        exp = math.frexp(float(np.max(mags := np.abs(self.amplitudes))))[1]
        with np.errstate(over="ignore"):  # past the float range: inf
            return float(np.ldexp(math.sqrt(float(np.sum(np.ldexp(mags, -exp) ** 2))), exp))


def delta_state(lattice: Lattice, n: int) -> LatticeWavefunction:
    """Position eigenstate |x_n>: amplitude 1 at site n, 0 elsewhere."""
    if not (lattice.n_min <= (n := _integer(n, "site")) <= lattice.n_max):
        raise ValueError(f"site {n} outside window [{lattice.n_min}, {lattice.n_max}]")
    amps = np.zeros(lattice.num_sites, dtype=complex)
    amps[n - lattice.n_min] = 1.0
    return LatticeWavefunction(lattice, amps)


def gaussian_packet(lattice: Lattice, center: float, sigma: float,
                    momentum: float = 0.0) -> LatticeWavefunction:
    """Normalized Gaussian wave packet exp(-(x-x0)^2/(4 sigma^2) + i p x / hbar)."""
    center, sigma, momentum = _gaussian_inputs(center, sigma, momentum)
    x = lattice.positions
    amps = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)
                  + 1j * momentum * x / lattice.params.hbar)
    nrm = LatticeWavefunction(lattice, amps).norm()  # finite where the squares underflow
    if nrm == 0.0:
        raise ValueError("packet has no support on the window")
    return LatticeWavefunction(lattice, amps / nrm)


def _gaussian_inputs(center, sigma, momentum) -> tuple[float, float, float]:
    """center, sigma, momentum as floats by `bessel._real`, else a ValueError naming one:
    sigma > 0, and sigma^2, a divisor of the exponent, a normal float."""
    center, sigma, momentum = (_real(v, name) for v, name in (
        (center, "center"), (sigma, "sigma"), (momentum, "momentum")))
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not sys.float_info.min <= sigma * sigma < math.inf:
        raise ValueError(f"sigma = {sigma} is out of range: sigma^2 is not a normal float")
    return center, sigma, momentum


def inner_product(a: LatticeWavefunction, b: LatticeWavefunction) -> complex:
    """Polymer inner product sum_n conj(a_n) b_n over a common window."""
    if a.lattice != b.lattice:
        raise ValueError("wavefunctions live on different lattices")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _fold(sites: np.ndarray, values, period: int) -> np.ndarray:
    """values at integer sites folded onto the circle Z_period, added in site order."""
    folded = np.zeros(period, dtype=complex)
    np.add.at(folded, sites % period, values)
    return folded
