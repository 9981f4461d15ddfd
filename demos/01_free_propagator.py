#!/usr/bin/env python3
"""Free-particle propagator on the lattice: closed form and basic checks.

The kernel between sites j and r after time dt is

    k(j, r; dt) = i^(r-j) J_(r-j)(z) e^(-iz),   z = hbar*dt/(m*mu0^2)

so a single Bessel table per time step drives everything.  This script
tabulates the kernel, spreads a position eigenstate, and checks the
delta initial condition and unitarity numerically.
"""

import numpy as np

from polymerqm import (
    Lattice,
    PhysicalParams,
    PropagatorKernel,
    delta_state,
    evolve,
    truncation_window,
)

params = PhysicalParams(hbar=1.0, mass=1.0, mu0=1.0)
kernel = PropagatorKernel.free(params)

print("=== kernel table at z = 1 ===")
print("   j    r          re          im")
for j in range(0, 3):
    for r in range(0, 3):
        k = kernel(j, r, 1.0)
        print(f"{j:4d} {r:4d} {k.real:11.6f} {k.imag:11.6f}")

print()
print("=== initial condition: dt -> 0 gives the Kronecker delta ===")
dev = max(abs(kernel(j, r, 0.0) - (1.0 if j == r else 0.0))
          for j in range(-12, 13) for r in range(-12, 13))
print(f"max |k(j,r;0) - delta_jr| over j,r in [-12,12]: {dev:.2e}")

print()
print("=== spreading of a position eigenstate ===")
lat = Lattice(params, 0, 0)
psi = delta_state(lat, 0)
for dt in (0.5, 2.0, 8.0):
    out = evolve(psi, kernel, dt)
    prob = np.abs(out.amplitudes) ** 2
    sites = out.lattice.sites
    mean = float(np.sum(sites * prob))
    spread = float(np.sqrt(np.sum(sites**2 * prob) - mean**2))
    print(f"dt={dt:5.2f}  norm={out.norm():.12f}  <n>={mean:+.3e}  "
          f"rms spread={spread:.4f} sites")

print()
print("=== unitarity is the Bessel sum-of-squares identity ===")
for z in (0.1, 1.0, 10.0, 100.0):
    w = truncation_window(z)
    total = sum(abs(kernel(n, 0, z)) ** 2 for n in range(-w, w + 1))
    print(f"z={z:6.1f}  sum |k|^2 = {total:.15f}")
