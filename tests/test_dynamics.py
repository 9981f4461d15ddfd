import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm.dynamics import WallSupportError, _box_modes
from polymerqm.spectral import (
    box_spectrum,
    dispersion_energy,
    dispersion_momentum,
)
from polymerqm.lattice import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    delta_state,
    inner_product,
)
from polymerqm.checks import apply_hamiltonian
from polymerqm.propagators import PropagatorKernel


def test_potential_spec_validation():
    # the system is given by its kernel: free, or a box that needs n >= 2
    params = PhysicalParams()
    psi = delta_state(Lattice(params, 0, 2), 1)
    assert apply_hamiltonian(psi, PropagatorKernel.free(params)).lattice.n_max == 3
    assert apply_hamiltonian(psi, PropagatorKernel.box(4, params)).lattice.n_max == 4
    for n_box in (1, 0, -3):
        with pytest.raises(ValueError):
            apply_hamiltonian(psi, PropagatorKernel.box(n_box, params))


def test_free_stencil_on_delta():
    params = PhysicalParams(hbar=2.0, mass=0.5, mu0=0.4)
    lat = Lattice(params, 0, 0)
    out = apply_hamiltonian(delta_state(lat, 0), PropagatorKernel.free(params))
    c = params.hbar**2 / (2.0 * params.mass * params.mu0**2)
    assert out.lattice.n_min == -1 and out.lattice.n_max == 1
    assert np.allclose(out.amplitudes, c * np.array([-1.0, 2.0, -1.0]))


def test_free_plane_wave_scaled_by_dispersion():
    params = PhysicalParams()
    lat = Lattice(params, -30, 30)
    p = 0.4 * params.brillouin_edge
    psi = LatticeWavefunction(
        lat, np.exp(1j * lat.sites * params.mu0 * p / params.hbar))
    out = apply_hamiltonian(psi, PropagatorKernel.free(params))
    energy = dispersion_energy(params, p)
    # away from the window edges the stencil acts as multiplication by E(p)
    inner = slice(5, -5)
    got = out.amplitudes[inner]
    want = energy * np.exp(
        1j * out.lattice.sites[inner] * params.mu0 * p / params.hbar)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_box_eigenvector_is_eigenstate():
    params = PhysicalParams()
    spec = box_spectrum(4, params)
    state = spec.eigenstate(1)
    out = apply_hamiltonian(state, PropagatorKernel.box(4, params))
    assert np.max(np.abs(out.amplitudes - spec.energies[0] * state.amplitudes)) \
        <= 1e-12


def test_box_wall_support_rejected():
    params = PhysicalParams()
    lat = Lattice(params, 0, 4)
    psi = LatticeWavefunction(lat, [0.1, 0.5, 0.5, 0.5, 0.0])
    box = PropagatorKernel.box(4, params)
    with pytest.raises(WallSupportError):
        apply_hamiltonian(psi, box)
    outside = LatticeWavefunction(Lattice(params, -1, 4),
                                  [0.3, 0.0, 0.5, 0.5, 0.5, 0.0])
    with pytest.raises(WallSupportError):
        apply_hamiltonian(outside, box)


def test_wall_support_error_names_lowest_offending_site():
    # several violations: below the box, on both walls and above it
    params = PhysicalParams()
    amps = np.zeros(9, dtype=complex)
    amps[[0, 2, 3, 6, 8]] = [0.5j, 0.25, 0.4, 0.5, 0.7]
    psi = LatticeWavefunction(Lattice(params, -2, 6), amps)
    want = ("box state has nonzero amplitude 0.5j at site -2; "
            "support must lie strictly inside (0, 4)")
    box = PropagatorKernel.box(4, params)
    with pytest.raises(WallSupportError) as err:
        apply_hamiltonian(psi, box)
    assert str(err.value) == want
    amps[0] = 0.0
    with pytest.raises(WallSupportError,
                       match=r"^box state has nonzero amplitude \(0\.25\+0j\) at site 0; "):
        apply_hamiltonian(LatticeWavefunction(Lattice(params, -2, 6), amps), box)


def test_dispersion_energy_values():
    params = PhysicalParams()
    assert dispersion_energy(params, 0.0) == 0.0
    top = math.pi * params.hbar / params.mu0
    assert dispersion_energy(params, top) == pytest.approx(2.0, abs=1e-14)
    assert dispersion_energy(params, math.pi / 2.0) == pytest.approx(1.0, abs=1e-14)


def test_dispersion_momentum_values():
    params = PhysicalParams()
    assert dispersion_momentum(params, 0.0) == 0.0
    assert dispersion_momentum(params, 2.0) == pytest.approx(math.pi, abs=1e-14)
    assert dispersion_momentum(params, 1.0) == pytest.approx(math.pi / 2.0,
                                                             abs=1e-14)
    with pytest.raises(ValueError):
        dispersion_momentum(params, 2.1)
    with pytest.raises(ValueError):
        dispersion_momentum(params, -0.1)


@given(st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_property_dispersion_roundtrip(energy):
    params = PhysicalParams()
    p = dispersion_momentum(params, energy)
    assert 0.0 <= p <= params.brillouin_edge
    assert dispersion_energy(params, p) == pytest.approx(energy, abs=1e-12)


def test_box_spectrum_small_cases():
    params = PhysicalParams()
    spec2 = box_spectrum(2, params)
    assert spec2.energies == pytest.approx([1.0])
    assert np.allclose(spec2.level(1)[1], [0.0, 1.0, 0.0])
    spec3 = box_spectrum(3, params)
    assert spec3.energies == pytest.approx([0.5, 1.5])
    with pytest.raises(ValueError):
        box_spectrum(1, params)
    for level in (0, 3):
        with pytest.raises(ValueError, match=rf"^level {level} outside 1\.\.2$"):
            spec3.level(level)


@pytest.mark.parametrize("level", [True, 2.0, 1.5, "2"])
def test_box_level_must_be_an_integer(level):
    # True read as level 1, 2.0 and 1.5 raised IndexError and "2" TypeError
    spec = box_spectrum(3, PhysicalParams())
    for read in (spec.level, spec.eigenstate):
        with pytest.raises(ValueError, match=rf"^level must be an integer, got {level!r}$"):
            read(level)
    assert spec.level(np.int64(2))[0] == spec.level(2)[0] == spec.energies[1]


def test_box_spectrum_keeps_no_modes_and_makes_each_one_when_read():
    # only the N - 1 energies are held; level(l) is the column l of _box_modes, bit for bit
    params = PhysicalParams(hbar=0.7, mass=1.3, mu0=0.2)
    assert not hasattr(box_spectrum(4, params), "eigenvectors")
    for n in (2, 9, 64, 1000):
        spec, modes = box_spectrum(n, params), _box_modes(n, np.arange(n + 1))
        for level in range(1, n):
            energy, vec = spec.level(level)
            assert energy == spec.energies[level - 1]
            assert vec.shape == (n + 1,)
            assert np.array_equal(vec.view(np.uint64), modes[:, level - 1].view(np.uint64))


def test_box_spectrum_is_linear_in_n():
    # N = 5,793 and up used to be refused as a dense (N - 1) x (N + 1) matrix
    box_spectrum(8, PhysicalParams())  # warm up
    tracemalloc.start()
    try:
        spec = box_spectrum(2**20, PhysicalParams())
        state = spec.eigenstate(2**20 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.energies.shape == (2**20 - 1,)
    assert peak < 5 * 8 * 2**20  # a few arrays of N floats: the angles and the band's temporaries
    assert state.amplitudes[0] == state.amplitudes[-1] == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_box_modes_are_made_in_place():
    # the angles were a second N x N array beside their sine, and the
    # reduction mod 2N is made in the same array
    _box_modes(8, np.arange(9))  # warm up
    tracemalloc.start()
    try:
        modes = _box_modes(2048, np.arange(2049))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modes.shape == (2049, 2047)
    assert peak < 1.1 * modes.nbytes


def test_box_modes_reduce_the_angle_exactly():
    # l n is exact below 2^53 and np.fmod takes it mod 2N with the bits of the integer
    # %; unreduced, sin(pi l n / N) loses about eps pi N relative (4.8e-9 at N = 2^24)
    import mpmath

    n = 2**24
    sites = np.array([1, 3, 12345, n // 2 - 1, n // 2 + 1, n - 7, n - 1])
    levels = np.array([1, 2, 777, n // 3, n - 5, n - 1])
    modes = _box_modes(n, sites, levels)
    angles = np.multiply.outer(sites, levels) % (2 * n) * math.pi / n
    assert np.array_equal(modes, np.sin(angles) * math.sqrt(2.0 / n))
    with mpmath.workdps(40):
        exact = [[float(mpmath.sqrt(mpmath.mpf(2) / n)
                        * mpmath.sinpi(mpmath.mpf(int(s) * int(l)) / n)) for l in levels]
                 for s in sites]
    assert np.max(np.abs(modes - exact)) <= 4 * 2.0**-52 * math.sqrt(2.0 / n)


def test_box_spectrum_structure():
    params = PhysicalParams(hbar=0.7, mass=1.3, mu0=0.2)
    for n in (2, 5, 12, 32):
        spec = box_spectrum(n, params)
        assert np.all(np.diff(spec.energies) > 0)
        assert np.max(spec.energies) < 2.0 * params.energy_scale
        states = [spec.eigenstate(level) for level in range(1, n)]
        assert all(s.amplitudes[0] == 0.0 and s.amplitudes[n] == 0.0 for s in states)
        for a, va in enumerate(states):
            for b, vb in enumerate(states[a:], start=a):
                want = 1.0 if a == b else 0.0
                assert inner_product(va, vb) == pytest.approx(want, abs=1e-12)


def test_eigen_residual_all_levels():
    params = PhysicalParams()
    for n in (2, 6, 16, 32):
        spec = box_spectrum(n, params)
        for level in range(1, n):
            state = spec.eigenstate(level)
            out = apply_hamiltonian(state, PropagatorKernel.box(n, params))
            resid = np.max(np.abs(out.amplitudes
                                  - spec.energies[level - 1] * state.amplitudes))
            assert resid <= 1e-12 * state.norm()
