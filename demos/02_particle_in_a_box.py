#!/usr/bin/env python3
"""Particle in a box: exact spectrum, eigenstate evolution, unitarity.

The box of length L = N*mu0 has walls AT lattice sites 0 and N, so
there are exactly N-1 levels

    E_l = (hbar^2 / m mu0^2) (1 - cos(l pi / N)),   l = 1..N-1

with sine eigenvectors.  The spectrum is bounded: unlike the continuum
box there is a highest energy, 2*hbar^2/(m mu0^2).
"""

import numpy as np

from polymerqm import (
    PhysicalParams,
    PropagatorKernel,
    apply_hamiltonian,
    box_spectrum,
    evolve,
    spectral_sum,
)

params = PhysicalParams()
N = 8
spec = box_spectrum(N, params)

print(f"=== spectrum for N = {N} (band top = {2 * params.energy_scale}) ===")
print("  l     E_l (closed form)    E_l (dense eigensolver)")
c = params.energy_scale
stencil = (np.diag(np.full(N - 1, c))
           + np.diag(np.full(N - 2, -0.5 * c), 1)
           + np.diag(np.full(N - 2, -0.5 * c), -1))
dense_vals = np.linalg.eigh(stencil)[0]
for l in range(1, N):
    print(f"{l:3d}   {spec.energies[l - 1]:.15f}   {dense_vals[l - 1]:.15f}")

print()
print("=== H psi = E psi residuals ===")
kernel = PropagatorKernel.box(N, params)
for l in (1, N // 2, N - 1):
    state = spec.eigenstate(l)
    h_state = apply_hamiltonian(state, kernel)
    resid = np.max(np.abs(h_state.amplitudes
                          - spec.energies[l - 1] * state.amplitudes))
    print(f"level {l}: max residual {resid:.2e}")

print()
print("=== eigenstates evolve by a pure phase ===")
dt = 1.3
for l in (1, 3, 7):
    state = spec.eigenstate(l)
    out = evolve(state, kernel, dt)
    phase = np.exp(-1j * spec.energies[l - 1] * dt / params.hbar)
    dev = np.max(np.abs(out.amplitudes - phase * state.amplitudes))
    print(f"level {l}: |evolved - e^(-iE dt) psi| = {dev:.2e}")

print()
print("=== interior evolution matrix is unitary, kernel vanishes at walls ===")
interior = np.array([[spectral_sum(kernel, j, r, dt)
                      for r in range(1, N)] for j in range(1, N)])
gram = interior @ interior.conj().T
print(f"max |U U+ - 1| at dt={dt}: {np.max(np.abs(gram - np.eye(N - 1))):.2e}")
wall = max(abs(spectral_sum(kernel, 0, r, dt)) for r in range(N + 1))
print(f"max |k| on the walls: {wall:.2e}")
