#!/usr/bin/env python3
"""Continuum limit: where it holds pointwise and where only smeared.

Shrinking mu0 at fixed separation dx = l*mu0 should turn k/mu0 into the
continuum free propagator.  Three comparisons below:

1. POINTWISE kernel error: saturates near |k_schrodinger| = 0.399.
   The lattice kernel is a sum of two saddle contributions,
   k/mu0 -> k_S + (-1)^l e^{-2iz} conj(k_S); the second (momenta near
   the zone boundary) has the same modulus as the continuum kernel and
   a mu0-independent amplitude.  It only cancels after smearing - the
   limit is distributional.

2. TIME-SMEARED kernel error: averaging both kernels against a narrow
   Gaussian window in dt makes the oscillatory saddle integrate away;
   the error then falls at second order in mu0, 64.7x from mu0 = 1/8
   to 1/64 with 801 samples of the window (1.668903e-3 -> 2.580935e-5;
   acceptance criterion 7b asserts this tenfold drop).

3. PACKET-SMEARED box evolution: evolving a Gaussian packet in the box
   on finer and finer lattices approaches the continuum evolution, again
   at second order.  The continuum reference is built, as the paper
   builds the polymer box, by the method of images: the closed-form free
   Gaussian minus its mirror image, repeated with period 2L, summed out
   to the first images that are exactly 0 in double precision.
"""

import math

import numpy as np

from polymerqm import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    PropagatorKernel,
    continuum_sweep,
    evolve,
    schrodinger_box_gaussian,
    schrodinger_free_kernel,
)

SPACINGS = (1 / 8, 1 / 16, 1 / 32, 1 / 64)

print("=== 1. pointwise kernel error (saturates, does not vanish) ===")
print("   mu0      l      z        |k/mu0 - k_sch|")
for pt in continuum_sweep(1.0, 1.0, SPACINGS):
    print(f"  1/{round(1 / pt.mu0):<4d} {pt.sites:4d} {pt.z:8.1f}"
          f"        {pt.abs_error:.6f}")
print("The column stalls near |k_sch| = 0.3989: the counter-propagating")
print("saddle never shrinks pointwise.")

print()
print("=== 2. time-smeared kernel error (converges, order ~2) ===")


# 801 samples (step 5e-4) stay below the ~7.5e-4 step at which the
# second saddle, turning at 2/mu0^2 = 8192 rad per unit dt at mu0 = 1/64,
# would alias back into the window (see tests/test_acceptance.py).
def smeared_error(mu0, dx=1.0, dt0=1.0, width=0.04, num=801):
    sites = round(dx / mu0)
    params = PhysicalParams(mu0=mu0)
    dts = np.linspace(dt0 - 5 * width, dt0 + 5 * width, num)
    weight = np.exp(-0.5 * ((dts - dt0) / width) ** 2)
    weight /= np.trapezoid(weight, dts)
    free = PropagatorKernel.free(params)
    polymer = np.array([free(sites, 0, dt) / mu0 for dt in dts])
    continuum = np.array([schrodinger_free_kernel(dx, 0.0, dt, params)
                          for dt in dts])
    return abs(np.trapezoid((polymer - continuum) * weight, dts))


print("   mu0     smeared error    order vs previous")
prev = None
for mu0 in SPACINGS:
    err = smeared_error(mu0)
    order = "" if prev is None else f"{math.log2(prev / err):.2f}"
    print(f"  1/{round(1 / mu0):<4d}  {err:.6e}    {order}")
    prev = err

print()
print("=== 3. box: packet-smeared continuum comparison, by images ===")
length, center, sigma, momentum = 8.0, 3.0, 0.5, 1.2
packet = lambda y: np.exp(-(y - center) ** 2 / (4 * sigma**2) + 1j * momentum * y)
print("    N     max |polymer/sqrt(mu0) - continuum|")
for n in (16, 32, 64, 128):
    mu0 = length / n
    params = PhysicalParams(mu0=mu0)
    lat = Lattice(params, 0, n)
    amps = packet(lat.positions).astype(complex)
    amps[0] = 0.0
    amps[-1] = 0.0
    psi = LatticeWavefunction(lat, amps * math.sqrt(mu0))
    out = evolve(psi, PropagatorKernel.box(n, params), 0.8)
    ref = schrodinger_box_gaussian(lat.positions, 0.8, length, center, sigma, momentum, params)
    dev = float(np.max(np.abs(out.amplitudes / math.sqrt(mu0) - ref)))
    print(f"  {n:5d}   {dev:.6e}")
print("Pointwise box kernels have no continuum limit (the mode series")
print("diverges); smooth packets are where the limit lives.  The reference")
print("is the free Gaussian summed over its images in the walls, the")
print("continuum half of the paper's method of images.")
