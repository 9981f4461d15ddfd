import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm.dynamics import (
    WallSupportError,
    apply_hamiltonian,
    box_spectrum,
    dispersion_energy,
    dispersion_momentum,
    recurrence_solve,
)
from polymerqm.lattice import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    delta_state,
    inner_product,
)


def test_potential_spec_validation():
    # the potential is given by n_box: None is free, a box needs n >= 2
    psi = delta_state(Lattice(PhysicalParams(), 0, 2), 1)
    assert apply_hamiltonian(psi).lattice.n_max == 3
    assert apply_hamiltonian(psi, 4).lattice.n_max == 4
    for n_box in (1, 0, -3):
        with pytest.raises(ValueError):
            apply_hamiltonian(psi, n_box)


def test_free_stencil_on_delta():
    params = PhysicalParams(hbar=2.0, mass=0.5, mu0=0.4)
    lat = Lattice(params, 0, 0)
    out = apply_hamiltonian(delta_state(lat, 0))
    c = params.hbar**2 / (2.0 * params.mass * params.mu0**2)
    assert out.lattice.n_min == -1 and out.lattice.n_max == 1
    assert np.allclose(out.amplitudes, c * np.array([-1.0, 2.0, -1.0]))


def test_free_plane_wave_scaled_by_dispersion():
    params = PhysicalParams()
    lat = Lattice(params, -30, 30)
    p = 0.4 * params.brillouin_edge
    psi = LatticeWavefunction(
        lat, np.exp(1j * lat.sites * params.mu0 * p / params.hbar))
    out = apply_hamiltonian(psi)
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
    out = apply_hamiltonian(state, 4)
    assert np.max(np.abs(out.amplitudes - spec.energies[0] * state.amplitudes)) \
        <= 1e-12


def test_box_wall_support_rejected():
    params = PhysicalParams()
    lat = Lattice(params, 0, 4)
    psi = LatticeWavefunction(lat, [0.1, 0.5, 0.5, 0.5, 0.0])
    with pytest.raises(WallSupportError):
        apply_hamiltonian(psi, 4)
    outside = LatticeWavefunction(Lattice(params, -1, 4),
                                  [0.3, 0.0, 0.5, 0.5, 0.5, 0.0])
    with pytest.raises(WallSupportError):
        apply_hamiltonian(outside, 4)


def test_wall_support_error_names_lowest_offending_site():
    # several violations: below the box, on both walls and above it
    params = PhysicalParams()
    amps = np.zeros(9, dtype=complex)
    amps[[0, 2, 3, 6, 8]] = [0.5j, 0.25, 0.4, 0.5, 0.7]
    psi = LatticeWavefunction(Lattice(params, -2, 6), amps)
    want = ("box state has nonzero amplitude 0.5j at site -2; "
            "support must lie strictly inside (0, 4)")
    with pytest.raises(WallSupportError) as err:
        apply_hamiltonian(psi, 4)
    assert str(err.value) == want
    amps[0] = 0.0
    with pytest.raises(WallSupportError,
                       match=r"^box state has nonzero amplitude \(0\.25\+0j\) at site 0; "):
        apply_hamiltonian(LatticeWavefunction(Lattice(params, -2, 6), amps), 4)


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


def test_recurrence_power_solution():
    params = PhysicalParams()
    energy = 0.8
    curly_e = 1.0 - energy
    lam = curly_e + 1j * math.sqrt(1.0 - curly_e**2)
    seq = recurrence_solve(energy, 1.0, lam, 200, params)
    expected = lam ** np.arange(201)
    assert np.max(np.abs(seq - expected)) <= 1e-10


def test_recurrence_zero_energy_constant():
    params = PhysicalParams()
    seq = recurrence_solve(0.0, 1.0, 1.0, 50, params)
    assert np.allclose(seq, 1.0, atol=1e-13)


def test_recurrence_reproduces_box_eigenstate():
    params = PhysicalParams()
    n = 7
    spec = box_spectrum(n, params)
    for level in (1, 3, 6):
        energy, vec = spec.level(level)
        seed = math.sqrt(2.0 / n) * math.sin(level * math.pi / n)
        seq = recurrence_solve(energy, 0.0, seed, n, params)
        assert np.max(np.abs(seq - vec)) <= 1e-10
        assert abs(seq[n]) <= 1e-10  # hits the far wall


def test_recurrence_plane_wave_long_march():
    params = PhysicalParams()
    p = dispersion_momentum(params, 0.6)
    seq = recurrence_solve(0.6, 1.0, np.exp(1j * params.mu0 * p / params.hbar),
                           1000, params)
    expected = np.exp(1j * np.arange(1001) * params.mu0 * p / params.hbar)
    assert np.max(np.abs(seq - expected)) <= 1e-9


def test_recurrence_needs_two_steps():
    with pytest.raises(ValueError):
        recurrence_solve(0.5, 1.0, 1.0, 1, PhysicalParams())


def test_box_spectrum_small_cases():
    params = PhysicalParams()
    spec2 = box_spectrum(2, params)
    assert spec2.energies == pytest.approx([1.0])
    assert np.allclose(spec2.eigenvectors, [[0.0, 1.0, 0.0]])
    spec3 = box_spectrum(3, params)
    assert spec3.energies == pytest.approx([0.5, 1.5])
    with pytest.raises(ValueError):
        box_spectrum(1, params)


def test_box_spectrum_structure():
    params = PhysicalParams(hbar=0.7, mass=1.3, mu0=0.2)
    for n in (2, 5, 12, 32):
        spec = box_spectrum(n, params)
        assert np.all(np.diff(spec.energies) > 0)
        assert np.max(spec.energies) < 2.0 * params.energy_scale
        assert np.all(spec.eigenvectors[:, 0] == 0.0)
        assert np.all(spec.eigenvectors[:, n] == 0.0)
        lat = Lattice(params, 0, n)
        for a in range(1, n):
            va = LatticeWavefunction(lat, spec.eigenvectors[a - 1])
            for b in range(a, n):
                vb = LatticeWavefunction(lat, spec.eigenvectors[b - 1])
                want = 1.0 if a == b else 0.0
                assert inner_product(va, vb) == pytest.approx(want, abs=1e-12)


def test_box_spectrum_against_dense_eigensolver():
    # brute-force oracle: diagonalize the interior stencil matrix directly
    params = PhysicalParams()
    for n in (2, 3, 9, 17, 32):
        spec = box_spectrum(n, params)
        c = params.energy_scale
        matrix = (np.diag(np.full(n - 1, c))
                  + np.diag(np.full(n - 2, -0.5 * c), 1)
                  + np.diag(np.full(n - 2, -0.5 * c), -1))
        vals, vecs = np.linalg.eigh(matrix)
        assert np.max(np.abs(vals - spec.energies)) <= 1e-10
        for idx in range(n - 1):
            ref = vecs[:, idx]
            first = np.flatnonzero(np.abs(ref) > 1e-8)[0]
            if ref[first] < 0:
                ref = -ref
            assert np.max(np.abs(ref - spec.eigenvectors[idx, 1:n])) <= 1e-8


def test_eigen_residual_all_levels():
    params = PhysicalParams()
    for n in (2, 6, 16, 32):
        spec = box_spectrum(n, params)
        for level in range(1, n):
            state = spec.eigenstate(level)
            out = apply_hamiltonian(state, n)
            resid = np.max(np.abs(out.amplitudes
                                  - spec.energies[level - 1] * state.amplitudes))
            assert resid <= 1e-12 * state.norm()
