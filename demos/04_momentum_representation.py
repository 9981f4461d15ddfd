#!/usr/bin/env python3
"""Momentum picture: transform, Parseval, and diagonal phase evolution.

Lattice momentum wavefunctions live on the interval
(-pi*hbar/mu0, pi*hbar/mu0) and are periodic across it.  Free evolution
is diagonal there: multiply each sample by e^{-i E(p) dt / hbar} with
the bounded band E(p) = (hbar^2/m mu0^2)(1 - cos(mu0 p/hbar)).  The
script checks that against direct position-space evolution.
"""

import numpy as np

from polymerqm import (
    Lattice,
    MomentumGrid,
    PhysicalParams,
    PropagatorKernel,
    dispersion_energy,
    evolve,
    from_momentum,
    gaussian_packet,
    momentum_kernel_phase,
    to_momentum,
    truncation_window,
)

params = PhysicalParams(mu0=0.5)

print("=== the dispersion band is bounded ===")
for frac in (0.0, 0.25, 0.5, 0.9):
    p = frac * params.brillouin_edge
    print(f"p = {frac:4.2f} * edge: E(p) = {dispersion_energy(params, p):.6f}"
          f"   (band top {2 * params.energy_scale})")

lat = Lattice(params, -60, 60)
psi = gaussian_packet(lat, center=0.0, sigma=1.5, momentum=1.1)
grid = MomentumGrid(params, 256)
tilde = to_momentum(psi, grid)

print()
print("=== Parseval on the midpoint grid ===")
print(f"position norm^2: {psi.norm_sq():.15f}")
print(f"momentum quadrature: {np.sum(np.abs(tilde)**2) / grid.num_points:.15f}")

print()
print("=== transform round trip ===")
back = from_momentum(tilde, grid, lat)
print(f"max |roundtrip - original| = "
      f"{np.max(np.abs(back.amplitudes - psi.amplitudes)):.2e}")

print()
print("=== evolve in position space vs phase multiplication ===")
dt = 1.5
pad = truncation_window(params.hbar * dt / (params.mass * params.mu0**2))
out = evolve(psi, PropagatorKernel.free(params), dt, (-60 - pad, 60 + pad))
wide_grid = MomentumGrid(params, out.lattice.num_sites + 16)
phases = momentum_kernel_phase(wide_grid.values, dt, params)
via_momentum = from_momentum(to_momentum(psi, wide_grid) * phases,
                             wide_grid, out.lattice)
dev = np.max(np.abs(via_momentum.amplitudes - out.amplitudes))
print(f"dt = {dt}: max |position route - momentum route| = {dev:.2e}")
print(f"norm after evolution: {out.norm():.15f}")
