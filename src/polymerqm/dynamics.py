"""Lattice dynamics: the polymer Hamiltonian, its band, the box modes and walls.

The kinetic term is the second-difference stencil

    (H psi)_n = (hbar^2 / 2 m mu0^2) (2 psi_n - psi_{n+1} - psi_{n-1})

The particle in a box of length L = N*mu0 has walls AT sites 0 and N
where amplitudes are constrained to vanish; no infinite potential values
enter the arithmetic.

The stencil (`_stencil`), its band 1 - cos(theta) (`_band`) and the box
modes sqrt(2/N) sin(l pi n/N) (`_box_modes`) are written here only; the
dispersion and the box spectrum built from them are in `spectral`.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import _integer, _limit
from .lattice import LatticeWavefunction, PhysicalParams


class WallSupportError(ValueError):
    """Raised when a box state has nonzero amplitude at or beyond a wall."""


def _box_size(n) -> int:
    """Box size (or half period) N as an int >= 2 whose circle 2N `bessel._limit` takes."""
    size = _integer(n, "system size N", 2)
    _limit(2 * size, "system size N = {} has 2N over", size)
    return size


def _box_walls(psi: LatticeWavefunction, n_box: int) -> None:
    """Refuse a box state with a nonzero amplitude at a wall or outside the box, against the
    boundary conditions psi(x_0) = psi(x_N) = 0; O(state) work, no array of the box."""
    sites, amps = psi.lattice.sites, psi.amplitudes
    bad = np.flatnonzero(((sites <= 0) | (sites >= n_box)) & (amps != 0))
    if bad.size:
        raise WallSupportError(
            f"box state has nonzero amplitude {amps[bad[0]]} at site {sites[bad[0]]}; "
            f"support must lie strictly inside (0, {n_box})"
        )


def _stencil(amps, params: PhysicalParams) -> np.ndarray:
    """(hbar^2/2 m mu0^2)(2 psi_n - psi_{n-1} - psi_{n+1}) on the inner sites of the last axis."""
    return 0.5 * params.energy_scale * (2.0 * amps[..., 1:-1] - amps[..., :-2] - amps[..., 2:])


def _band(theta):
    """1 - cos(theta), taken as 2 sin^2(theta/2): full relative accuracy near 0."""
    return 2.0 * np.sin(0.5 * theta) ** 2


def _box_modes(n_box: int, sites, levels=None) -> np.ndarray:
    """sqrt(2/N) sin(l pi n/N) at sites n for the levels l (default 1..N-1), on axes after n's.

    l n is exact below 2^53 and np.fmod takes it mod 2N exactly; unreduced, the sine of
    an angle of order pi N loses about eps pi N relative."""
    levels = np.arange(1, n_box) if levels is None else levels
    modes = np.multiply.outer(sites, levels, dtype=float)  # one array, in place: l n mod 2N
    np.fmod(modes, 2 * n_box, out=modes)
    modes *= math.pi
    modes /= n_box
    np.sin(modes, out=modes)
    modes *= math.sqrt(2.0 / n_box)
    modes[np.asarray(sites) % n_box == 0] = 0.0  # the walls: sin(l pi) is 0, floats are not
    return modes
