#!/usr/bin/env python3
"""Method of images: periodic kernel, and the box kernel as its odd part.

Summing free kernels over sources shifted by 2kN*mu0 yields a kernel
periodic in both arguments; subtracting the mirror family

    k_Box(j, r) = k_P(j, r) - k_P(j, -r)

reproduces the spectral box propagator.  The free kernel is exactly 0
beyond the Bessel truncation window W, so the image sum is the free
vector at orders -W..W folded onto the 2N sites of the circle.
"""

import numpy as np

from polymerqm import (
    PhysicalParams,
    PropagatorKernel,
    image_sum,
    spectral_sum,
    truncation_window,
)

params = PhysicalParams()
N = 5
z = 2.0
box, periodic = PropagatorKernel.box(N, params), PropagatorKernel.periodic(N, params)

print(f"=== periodic kernel, N = {N}, z = {z} ===")
base = image_sum(periodic, 2, 1, z)
shifted = image_sum(periodic, 2 + 2 * N, 1, z)
print(f"k_P(2, 1)        = {base:.12f}")
print(f"k_P(2+2N, 1)     = {shifted:.12f}")
print(f"|difference|     = {abs(base - shifted):.2e}")
# images up to |k| reach every order -W..W from the separation j - r = 1
cutoff = (truncation_window(z) + 1) // (2 * N) + 1
free = PropagatorKernel.free(params)
brute = sum(free(2, 1 + 2 * k * N, z) for k in range(-cutoff, cutoff + 1))
print(f"vs explicit image sum ({2 * cutoff + 1} images): {abs(base - brute):.2e}")

print()
print("=== box kernel: spectral sum vs image sum ===")
print("   j    r   |spectral - images|")
# one call per route: j down the rows, r across the columns
sites = np.arange(0, N + 1)
worst = np.max(np.abs(spectral_sum(box, sites[:, None], sites, z)
                      - image_sum(box, sites[:, None], sites, z)))
for j, r in ((0, 3), (1, 1), (2, 4), (5, 2)):
    dev = abs(spectral_sum(box, j, r, z) - image_sum(box, j, r, z))
    print(f"{j:4d} {r:4d}   {dev:.2e}")
print(f"worst over all pairs: {worst:.2e}")

print()
print("=== free-kernel orders folded onto each circle site, (2W + 1)/2N ===")
for n_box in (2, 4, 16):
    for zz in (0.5, 10.0, 100.0):
        print(f"N={n_box:3d} z={zz:6.1f}: "
              f"{(2 * truncation_window(zz) + 1) / (2 * n_box):6.2f}")
