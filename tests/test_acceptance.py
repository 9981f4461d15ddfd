"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Criterion 7 is split: the pointwise continuum
error |k/mu0 - k_S| decreases at the sampled spacings (7a), and the
tenfold-reduction clause (7b) is asserted where the limit holds.  It
does not hold pointwise: by stationary phase the exact lattice kernel
tends to k_S + (-1)^l e^{-2iz} conj(k_S), so |k/mu0 - k_S| tends to
|k_S|.  7b therefore asserts the tenfold drop of the time-smeared error
and of the error against that two-saddle limit - see the test.
"""

import math

import numpy as np
import pytest

from polymerqm.bessel import bessel_jn, jacobi_anger, truncation_window
from polymerqm.dynamics import box_spectrum, dispersion_energy
from polymerqm.lattice import (
    Lattice,
    LatticeWavefunction,
    MomentumGrid,
    PhysicalParams,
    dimensionless_time,
    from_momentum,
    gaussian_packet,
    to_momentum,
)
from polymerqm.propagators import (
    PropagatorKernel,
    box_images_kernel,
    box_spectral_kernel,
    composition_check,
    continuum_sweep,
    evolve,
    free_kernel,
    greens_residual,
    greens_residual_fd,
    momentum_kernel_phase,
    schrodinger_free_kernel,
)
from polymerqm.verify import bessel_series_reference

P1 = PhysicalParams()


def report(criterion: str, deviation: float, tolerance: float) -> float:
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"[{criterion}] deviation={deviation:.3e} tolerance={tolerance:.1e} "
          f"{status}")
    return deviation


def test_criterion_1_initial_condition():
    dev = max(abs(free_kernel(j, r, 0.0, P1) - (1.0 if j == r else 0.0))
              for j in range(-16, 17) for r in range(-16, 17))
    for n in range(2, 17):
        for j in range(0, n + 1):
            for r in range(0, n + 1):
                want = 1.0 if (j == r and 0 < j < n) else 0.0
                dev = max(dev, abs(box_spectral_kernel(j, r, 0.0, n, P1) - want))
    assert report("1 initial-condition", dev, 1e-14) <= 1e-14


def test_criterion_2_composition():
    kernel = PropagatorKernel.free(P1)
    dev_free = max(
        composition_check(kernel, 0, sep, 0.0, z2, z1 + z2)
        for z1, z2 in ((1.0, 1.0), (2.0, 0.5), (10.0, 10.0))
        for sep in range(0, 9))
    dev_box = 0.0
    for n in range(2, 9):
        k = PropagatorKernel.box(n, P1)
        for j in range(1, n):
            for r in range(1, n):
                for t1 in (0.4, 1.0, 2.2):
                    dev_box = max(dev_box,
                                  composition_check(k, j, r, 0.0, t1, 3.0))
    assert report("2 composition-free", dev_free, 1e-9) <= 1e-9
    assert report("2 composition-box", dev_box, 1e-12) <= 1e-12


def test_criterion_3_greens_function():
    times = [0.5, 1.0, 5.0, 20.0]
    free = PropagatorKernel.free(P1)
    rep_free = greens_residual(free, range(-8, 9), range(-8, 9), times)
    box = PropagatorKernel.box(6, P1)
    rep_box = greens_residual(box, range(1, 6), range(0, 7), times)
    rep_fd = greens_residual_fd(free, range(-4, 5), range(-4, 5),
                                [0.5, 1.0, 5.0], step=1e-6)
    rep_fd_box = greens_residual_fd(box, range(1, 6), range(1, 6),
                                    [0.5, 1.0, 5.0], step=1e-6)
    assert report("3 greens-free", rep_free.max_abs_residual, 1e-9) <= 1e-9
    assert report("3 greens-box", rep_box.max_abs_residual, 1e-10) <= 1e-10
    fd_worst = max(rep_fd.max_abs_residual, rep_fd_box.max_abs_residual)
    assert report("3 greens-finite-difference", fd_worst, 1e-5) <= 1e-5


def test_criterion_4_eigenstate_evolution():
    kernel = PropagatorKernel.free(P1)
    dev_free = 0.0
    for z in (1.0, 5.0):
        pad = truncation_window(z)
        lat = Lattice(P1, -(pad + 10), pad + 10)
        p = 0.6 * P1.brillouin_edge
        psi = LatticeWavefunction(
            lat, np.exp(1j * lat.sites * P1.mu0 * p / P1.hbar))
        out = evolve(psi, kernel, z, out_window=(-10, 10))
        phase = np.exp(-1j * dispersion_energy(P1, p) * z / P1.hbar)
        want = phase * np.exp(1j * out.lattice.sites * P1.mu0 * p / P1.hbar)
        dev_free = max(dev_free, float(np.max(np.abs(out.amplitudes - want))))

    dev_box = 0.0
    for n in (2, 5, 9):
        spec = box_spectrum(n, P1)
        k = PropagatorKernel.box(n, P1)
        for level in range(1, n):
            state = spec.eigenstate(level)
            for dt in (0.7, 3.1):
                out = evolve(state, k, dt)
                phase = np.exp(-1j * spec.energies[level - 1] * dt / P1.hbar)
                dev_box = max(dev_box, float(np.max(np.abs(
                    out.amplitudes - phase * state.amplitudes))))
    assert report("4 eigenstate-free", dev_free, 1e-8) <= 1e-8
    assert report("4 eigenstate-box", dev_box, 1e-12) <= 1e-12


def test_criterion_5_spectral_images_equivalence():
    dev = 0.0
    for n in (2, 3, 4, 8, 16):
        for z in (0.5, 2.0, 10.0):
            for j in range(0, n + 1):
                for r in range(0, n + 1):
                    dev = max(dev, abs(
                        box_spectral_kernel(j, r, z, n, P1)
                        - box_images_kernel(j, r, z, n, params=P1)))
    assert report("5 spectral-vs-images", dev, 1e-10) <= 1e-10


def test_criterion_6_unitarity():
    dev_free = 0.0
    for z in (0.1, 1.0, 10.0, 100.0):
        w = truncation_window(z)
        total = sum(abs(free_kernel(n, 0, z, P1)) ** 2
                    for n in range(-w, w + 1))
        dev_free = max(dev_free, abs(total - 1.0))
    dev_box = 0.0
    for n in range(2, 17):
        for dt in (0.5, 3.0):
            interior = np.array(
                [[box_spectral_kernel(j, r, dt, n, P1) for r in range(1, n)]
                 for j in range(1, n)])
            gram = interior @ interior.conj().T
            dev_box = max(dev_box, float(np.max(np.abs(gram - np.eye(n - 1)))))
    assert report("6 unitarity-free", dev_free, 1e-10) <= 1e-10
    assert report("6 unitarity-box", dev_box, 1e-12) <= 1e-12


SWEEP_SPACINGS = (1 / 8, 1 / 16, 1 / 32, 1 / 64)


def test_criterion_7a_continuum_monotone():
    errors = [p.abs_error for p in continuum_sweep(1.0, 1.0, SWEEP_SPACINGS)]
    worst_rise = max(errors[i + 1] - errors[i] for i in range(3))
    assert report("7a continuum-monotone", max(0.0, worst_rise), 0.0) <= 0.0


# Gaussian window in dt of demos/05_continuum_limit.py: width 0.04 about
# dt0, cut at +-5 widths, normalised, trapezoid rule.  The second saddle
# e^{-2iz} turns at 2/mu0^2 = 8192 rad per unit dt at mu0 = 1/64; a step
# h aliases it to 2 pi/h - 8192 rad, and the window damps that as
# exp(-(0.04 (2 pi/h - 8192))^2 / 2), so any h below about 7.5e-4 is
# alias-free.  801 samples (h = 5e-4) put the alias 175 window spreads
# from zero and match the demo's 4001 at both ends to 2e-4 relative.
SMEAR_WIDTH = 0.04
SMEAR_SAMPLES = 801


def time_smeared_error(mu0: float, dx: float = 1.0, dt0: float = 1.0) -> float:
    """|integral w(dt) (k(l, 0; dt)/mu0 - k_S(dx, 0; dt)) d(dt)|, l = dx/mu0."""
    sites = round(dx / mu0)
    params = PhysicalParams(mu0=mu0)
    dts = np.linspace(dt0 - 5 * SMEAR_WIDTH, dt0 + 5 * SMEAR_WIDTH,
                      SMEAR_SAMPLES)
    weight = np.exp(-0.5 * ((dts - dt0) / SMEAR_WIDTH) ** 2)
    weight /= np.trapezoid(weight, dts)
    polymer = np.array([free_kernel(sites, 0, dt, params) / mu0 for dt in dts])
    continuum = np.array([schrodinger_free_kernel(dx, 0.0, dt, params)
                          for dt in dts])
    return float(abs(np.trapezoid((polymer - continuum) * weight, dts)))


def two_saddle_error(mu0: float, dx: float = 1.0, dt: float = 1.0) -> float:
    """|k(l, 0; dt)/mu0 - k_S - (-1)^l e^{-2iz} conj(k_S)|, l = dx/mu0."""
    sites = round(dx / mu0)
    params = PhysicalParams(mu0=mu0)
    z = dimensionless_time(params, dt)
    k_s = schrodinger_free_kernel(dx, 0.0, dt, params)
    polymer = free_kernel(sites, 0, dt, params) / mu0
    return float(abs(polymer - k_s
                     - (-1) ** sites * np.exp(-2j * z) * np.conj(k_s)))


def test_criterion_7b_continuum_tenfold():
    """Tenfold error reduction between mu0=1/8 and mu0=1/64, dx = dt = 1.

    The clause cannot hold for the pointwise error |k/mu0 - k_S|.  With
    k(l, 0; dt) = (1/2 pi) integral e^{i l theta - i z (1 - cos theta)}
    d theta, the phase is stationary at theta ~ l/z (the continuum
    saddle, momentum dx/dt) and at theta ~ pi - l/z (momenta near the
    zone boundary).  Both have modulus 1/sqrt(2 pi z), so

        k/mu0 -> k_S + (-1)^l e^{-2iz} conj(k_S),

    and |k/mu0 - k_S| tends to |k_S| = 1/sqrt(2 pi) = 0.398942 (the
    sweep measures 0.400749 ... 0.398952; Corichi, Vukasinac & Zapata,
    PRD 76, 044016 (2007)).  The limit holds distributionally, so the
    tenfold clause is asserted where it holds:

    (a) time-smeared: averaged over the Gaussian window in dt of
        demos/05, the second saddle integrates away and the error falls
        at second order (1.67e-3 -> 2.58e-5, 64.7x);
    (b) pointwise against the two-saddle limit: the error left after
        subtracting both saddles falls 172x (2.84e-3 -> 1.65e-5).
    """
    smeared = [time_smeared_error(mu0) for mu0 in SWEEP_SPACINGS]
    report("7b continuum-tenfold-smeared", smeared[-1], smeared[0] / 10.0)
    saddles = [two_saddle_error(mu0) for mu0 in SWEEP_SPACINGS]
    report("7b continuum-tenfold-two-saddle", saddles[-1], saddles[0] / 10.0)
    assert smeared[-1] <= smeared[0] / 10.0, f"smeared errors={smeared}"
    assert saddles[-1] <= saddles[0] / 10.0, f"two-saddle errors={saddles}"


def test_criterion_8_box_spectrum_oracle():
    dev_e = 0.0
    dev_v = 0.0
    bound_ok = True
    for n in range(2, 33):
        spec = box_spectrum(n, P1)
        bound_ok = bound_ok and float(np.max(spec.energies)) < 2.0
        c = P1.energy_scale
        matrix = (np.diag(np.full(n - 1, c))
                  + np.diag(np.full(n - 2, -0.5 * c), 1)
                  + np.diag(np.full(n - 2, -0.5 * c), -1))
        vals, vecs = np.linalg.eigh(matrix)
        dev_e = max(dev_e, float(np.max(np.abs(vals - spec.energies))))
        for idx in range(n - 1):
            ref = vecs[:, idx]
            first = np.flatnonzero(np.abs(ref) > 1e-8)[0]
            if ref[first] < 0:
                ref = -ref
            dev_v = max(dev_v, float(np.max(np.abs(
                ref - spec.eigenvectors[idx, 1:n]))))
    assert report("8 spectrum-energies", dev_e, 1e-10) <= 1e-10
    assert report("8 spectrum-vectors", dev_v, 1e-8) <= 1e-8
    assert bound_ok, "spectrum exceeded the 2*hbar^2/(m mu0^2) band"


def test_criterion_9_special_functions():
    dev = max(abs(bessel_jn(n, z) - bessel_series_reference(n, z))
              for n in range(0, 13)
              for z in (0.0, 0.5, 1.0, 3.0, 6.0, 9.0, 12.0))
    rng = np.random.default_rng(20240214)
    dev_ja = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.0, 20.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        val = jacobi_anger(z, phi, truncation_window(z))
        dev_ja = max(dev_ja, abs(val - np.exp(1j * z * math.cos(phi))))
    assert report("9 bessel-oracle", dev, 1e-13) <= 1e-13
    assert report("9 jacobi-anger", dev_ja, 1e-10) <= 1e-10


def test_criterion_10_momentum_consistency():
    rng = np.random.default_rng(1234)
    kernel = PropagatorKernel.free(P1)
    dev = 0.0
    for _ in range(3):
        lat = Lattice(P1, -40, 40)
        psi = gaussian_packet(lat, float(rng.uniform(-2.0, 2.0)),
                              float(rng.uniform(2.0, 4.0)),
                              float(rng.uniform(-1.0, 1.0)))
        dt = 2.0
        pad = truncation_window(dt)
        out = evolve(psi, kernel, dt, (-40 - pad, 40 + pad))
        grid = MomentumGrid(P1, out.lattice.num_sites + 8)
        tilde = to_momentum(psi, grid)
        phases = np.array([momentum_kernel_phase(p, dt, P1)
                           for p in grid.values])
        back = from_momentum(tilde * phases, grid, out.lattice)
        dev = max(dev, float(np.max(np.abs(back.amplitudes - out.amplitudes))))
    assert report("10 momentum-consistency", dev, 1e-9) <= 1e-9
