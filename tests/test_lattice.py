import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm.lattice import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    delta_state,
    dimensionless_time,
    gaussian_packet,
    inner_product,
)
from polymerqm.spectral import (
    MomentumGrid,
    from_momentum,
    momentum_samples,
    to_momentum,
)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(mu0=math.inf)
    # m mu0^2 or hbar^2/(m mu0^2) beyond the float range: 0, inf, or an overflowing square
    for bad in ({"mu0": 1e-200}, {"mass": 1e-300, "mu0": 1e-5}, {"mu0": 1e200},
                {"hbar": 1e-200}):
        with pytest.raises(ValueError, match="m mu0"):
            PhysicalParams(**bad)
    # real numbers only, not bool or text; ints are stored as the floats they stand for
    for name in ("hbar", "mass", "mu0"):
        for bad in (True, "1.0"):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got"):
                PhysicalParams(**{name: bad})
    # ints too large for a float: math.isfinite(10**400) raised OverflowError
    for huge in (10**400, 2**1024 - 1):
        with pytest.raises(ValueError, match="^hbar must be finite and > 0, got"):
            PhysicalParams(hbar=huge)
    params = PhysicalParams(hbar=1, mass=2, mu0=np.float64(0.5))
    assert [type(v) for v in (params.hbar, params.mass, params.mu0)] == [float] * 3


def test_dimensionless_time():
    assert dimensionless_time(PhysicalParams(), 0.0) == 0.0
    assert dimensionless_time(PhysicalParams(), 2.5) == 2.5
    assert dimensionless_time(PhysicalParams(hbar=1, mass=2, mu0=0.5), 1.0) == 2.0
    assert dimensionless_time(PhysicalParams(), -3.0) == -3.0
    with pytest.raises(ValueError):
        dimensionless_time(PhysicalParams(), math.nan)
    with pytest.raises(ValueError, match="z must be finite"):
        dimensionless_time(PhysicalParams(hbar=10.0), 1e308)


def test_lattice_window():
    lat = Lattice(PhysicalParams(mu0=0.5), -2, 3)
    assert lat.num_sites == 6
    assert list(lat.sites) == [-2, -1, 0, 1, 2, 3]
    assert lat.positions[0] == -1.0
    with pytest.raises(ValueError):
        Lattice(PhysicalParams(), 4, 2)
    # integer bounds, never truncated: Lattice(P, 0.5, 3) once had num_sites 3.5
    for n_min, n_max, bad in ((0.5, 3, "n_min"), ("0", 3, "n_min"), (True, 3, "n_min"),
                              (0, 3.5, "n_max"), (0, None, "n_max")):
        with pytest.raises(ValueError, match=f"^{bad} must be an integer, got"):
            Lattice(PhysicalParams(), n_min, n_max)
    lat = Lattice(PhysicalParams(), np.int64(-1), np.int32(2))
    assert (type(lat.n_min), type(lat.n_max), lat.num_sites) == (int, int, 4)
    # sites in the domain |site| < 2^62, beyond int64 too: a ValueError, no wrap
    assert Lattice(PhysicalParams(), -2**62 + 1, 2**62 - 1).num_sites == 2**63 - 1
    for n_min, n_max in ((2**62, 2**62), (-2**62, 0), (2**63 - 13, 2**63 - 10),
                         (0, 2**64)):
        with pytest.raises(ValueError, match=f"^lattice sites {n_min}..{n_max} outside"):
            Lattice(PhysicalParams(), n_min, n_max)


def test_wavefunction_validation():
    lat = Lattice(PhysicalParams(), 0, 2)
    with pytest.raises(ValueError):
        LatticeWavefunction(lat, [1.0, 2.0])
    with pytest.raises(ValueError):
        LatticeWavefunction(lat, [1.0, math.nan, 0.0])


def test_inner_product_kronecker():
    lat = Lattice(PhysicalParams(), 0, 5)
    assert inner_product(delta_state(lat, 3), delta_state(lat, 3)) == 1.0
    assert inner_product(delta_state(lat, 3), delta_state(lat, 4)) == 0.0


def test_inner_product_hand_value():
    lat = Lattice(PhysicalParams(), 0, 1)
    psi = LatticeWavefunction(lat, np.array([1.0 + 1.0j, 2.0]) / math.sqrt(6.0))
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_conjugate_symmetry_and_mismatch():
    lat = Lattice(PhysicalParams(), -1, 2)
    rng = np.random.default_rng(7)
    a = LatticeWavefunction(lat, rng.normal(size=4) + 1j * rng.normal(size=4))
    b = LatticeWavefunction(lat, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    assert inner_product(a, a).real > 0
    other = Lattice(PhysicalParams(mu0=2.0), -1, 2)
    with pytest.raises(ValueError):
        inner_product(a, LatticeWavefunction(other, b.amplitudes))


def test_momentum_grid_inside_open_interval():
    params = PhysicalParams(mu0=0.25)
    grid = MomentumGrid(params, 9)
    edge = math.pi * params.hbar / params.mu0
    assert np.all(grid.values > -edge)
    assert np.all(grid.values < edge)
    assert np.max(grid.values) == pytest.approx(-np.min(grid.values))
    with pytest.raises(ValueError):
        MomentumGrid(params, 0)
    # MomentumGrid(P, 2.5) once had 3 values and failed in to_momentum
    for bad in (2.5, 3.0, "4", True, -2):
        with pytest.raises(ValueError, match="^num_points must be an integer >= 1, got"):
            MomentumGrid(params, bad)
    assert type(MomentumGrid(params, np.int64(3)).num_points) is int


def test_to_momentum_delta_states():
    params = PhysicalParams()
    lat = Lattice(params, -3, 3)
    grid = MomentumGrid(params, 16)
    assert np.allclose(to_momentum(delta_state(lat, 0), grid), 1.0)
    expected = np.exp(1j * grid.values * params.mu0 / params.hbar)
    assert np.allclose(to_momentum(delta_state(lat, 1), grid), expected,
                       atol=1e-14)


def test_to_momentum_matches_direct_sum():
    params = PhysicalParams(mu0=0.7)
    lat = Lattice(params, 2, 3)
    psi = LatticeWavefunction(lat, [0.3 - 0.1j, -0.8j])
    grid = MomentumGrid(params, 8)
    direct = np.array([
        sum(psi.amplitudes[i] * np.exp(1j * n * params.mu0 * p / params.hbar)
            for i, n in enumerate(lat.sites))
        for p in grid.values])
    assert np.allclose(to_momentum(psi, grid), direct, atol=1e-14)


def test_from_momentum_inverts():
    params = PhysicalParams()
    lat = Lattice(params, 0, 4)
    grid = MomentumGrid(params, 64)
    rng = np.random.default_rng(11)
    psi = LatticeWavefunction(lat, rng.normal(size=5) + 1j * rng.normal(size=5))
    back = from_momentum(to_momentum(psi, grid), grid, lat)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12


def test_from_momentum_plane_wave_gives_delta():
    params = PhysicalParams()
    lat = Lattice(params, -2, 2)
    grid = MomentumGrid(params, 16)
    ones = np.ones(16, dtype=complex)
    assert np.allclose(from_momentum(ones, grid, lat).amplitudes,
                       delta_state(lat, 0).amplitudes, atol=1e-14)
    wave = np.exp(1j * grid.values * params.mu0 / params.hbar)
    assert np.allclose(from_momentum(wave, grid, lat).amplitudes,
                       delta_state(lat, 1).amplitudes, atol=1e-14)


def test_from_momentum_resolution_guard():
    params = PhysicalParams()
    lat = Lattice(params, 0, 9)
    grid = MomentumGrid(params, 5)
    with pytest.raises(ValueError):
        from_momentum(np.ones(5, dtype=complex), grid, lat)


_OTHER = PhysicalParams(mu0=0.5)


@pytest.mark.parametrize("call,message", [
    (lambda lat: to_momentum(delta_state(lat, 0), MomentumGrid(_OTHER, 8)),
     "wavefunction and momentum grid have different parameters"),
    (lambda lat: from_momentum(np.ones(8), MomentumGrid(_OTHER, 8), lat),
     "momentum grid and lattice have different parameters"),
    (lambda lat: from_momentum(np.ones(5), MomentumGrid(lat.params, 8), lat),
     "expected 8 momentum samples, got shape (5,)"),
    (lambda lat: gaussian_packet(lat, 0.0, 0.0), "sigma must be > 0, got 0.0"),
    (lambda lat: gaussian_packet(lat, 1e6, 1.0), "packet has no support on the window"),
], ids=["to_momentum params", "from_momentum params", "from_momentum shape",
        "sigma", "no support"])
def test_state_and_grid_mismatches_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(Lattice(PhysicalParams(), 0, 3))


def test_delta_state_site_is_an_integer_in_the_window():
    # 1.5 raised an IndexError and True gave the delta at site 1
    lat = Lattice(PhysicalParams(), 0, 3)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match=re.escape(f"site must be an integer, got {bad!r}")):
            delta_state(lat, bad)
    with pytest.raises(ValueError, match=r"^site 5 outside window \[0, 3\]$"):
        delta_state(lat, 5)
    assert delta_state(lat, np.int64(2)).amplitudes.tolist() == [0, 0, 1, 0]


def test_parseval_on_grid():
    params = PhysicalParams(mu0=0.3)
    lat = Lattice(params, -5, 6)
    rng = np.random.default_rng(3)
    psi = LatticeWavefunction(lat, rng.normal(size=12) + 1j * rng.normal(size=12))
    grid = MomentumGrid(params, 32)
    tilde = to_momentum(psi, grid)
    assert np.sum(np.abs(tilde) ** 2) / grid.num_points == pytest.approx(
        psi.norm_sq(), abs=1e-12 * psi.norm_sq())


def test_momentum_function_periodicity():
    params = PhysicalParams(mu0=0.5)
    lat = Lattice(params, -4, 4)
    rng = np.random.default_rng(5)
    psi = LatticeWavefunction(lat, rng.normal(size=9) + 1j * rng.normal(size=9))
    p = np.linspace(-0.8, 0.8, 5) * params.brillouin_edge
    period = 2.0 * math.pi * params.hbar / params.mu0
    assert np.max(np.abs(momentum_samples(psi, p)
                         - momentum_samples(psi, p + period))) <= 1e-12


def test_momentum_samples_refuses_phases_over_the_size_limit_before_allocating():
    # the dense phases take 32 bytes an entry: 2^13 momenta x 2^13 sites would ask for 2 GiB
    psi = LatticeWavefunction(Lattice(PhysicalParams(), 0, 2**13 - 1), np.ones(2**13))
    p = np.zeros(2**13)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"^8192 momenta x 8192 sites is over the limit 33554432$"):
            momentum_samples(psi, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_momentum_roundtrip_beyond_dense_reach():
    # M = P = 2^16: the dense phase matrices would take 64 GiB each
    params = PhysicalParams()
    size = 2**16
    psi = gaussian_packet(Lattice(params, -size // 2, size // 2 - 1), 0.0, size / 8, 0.3)
    grid = MomentumGrid(params, size)
    tracemalloc.start()
    try:
        back = from_momentum(to_momentum(psi, grid), grid, psi.lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-13
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n_min, points", [(-3, 16), (10**6 - 4, 23), (-(10**9) - 7, 40)])
def test_momentum_fft_route_against_mpmath(n_min, points):
    # 40-digit sums at the exact grid momenta theta_k = -pi + (2k + 1) pi/P;
    # the dense route's phases would be off by about |n| eps there
    mpmath = pytest.importorskip("mpmath")
    params = PhysicalParams(mu0=0.5)
    rng = np.random.default_rng(points)
    lat = Lattice(params, n_min, n_min + 11)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = LatticeWavefunction(lat, amps / np.linalg.norm(amps))
    grid = MomentumGrid(params, points)
    values = rng.normal(size=points) + 1j * rng.normal(size=points)
    tilde = to_momentum(psi, grid)
    back = from_momentum(values, grid, lat).amplitudes
    with mpmath.workdps(40):
        theta = [mpmath.pi * (2 * k + 1 - points) / points for k in range(points)]
        for k in (0, points // 3, points - 1):
            want = mpmath.fsum(mpmath.mpc(complex(a)) * mpmath.expj(int(n) * theta[k])
                               for n, a in zip(lat.sites, psi.amplitudes))
            assert abs(tilde[k] - complex(want)) <= 1e-14
        for i in (0, 5, 11):
            n = int(lat.sites[i])
            want = mpmath.fsum(mpmath.mpc(complex(v)) * mpmath.expj(-n * t)
                               for v, t in zip(values, theta)) / points
            assert abs(back[i] - complex(want)) <= 1e-14


def test_gaussian_packet_normalized():
    lat = Lattice(PhysicalParams(), -30, 30)
    psi = gaussian_packet(lat, 1.5, 3.0, 0.4)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-14)
    # a far tail (amplitudes e^-380 ~ 1e-165, squares 0) was "no support on the window"
    tail = gaussian_packet(Lattice(PhysicalParams(), 0, 3), 42.0, 1.0)
    assert tail.norm_sq() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name, bad, message", [
    ("center", math.nan, "center must be finite, got nan"),
    ("momentum", math.inf, "momentum must be finite, got inf"),
    ("sigma", math.inf, "sigma must be finite, got inf"),
    ("sigma", math.nan, "sigma must be finite, got nan"),
    ("sigma", -1, "sigma must be > 0, got -1.0"),
    ("sigma", 1e-170, "sigma = 1e-170 is out of range: sigma^2 is not a normal float"),
    ("sigma", 1e200, "sigma = 1e+200 is out of range: sigma^2 is not a normal float"),
])
def test_gaussian_packet_names_a_bad_input(name, bad, message):
    # NaN failed only as "amplitudes must be finite", after RuntimeWarnings,
    # sigma = inf gave a flat state of norm 1, and 1e200 an OverflowError
    inputs = dict(center=0.0, sigma=2.0, momentum=0.3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gaussian_packet(Lattice(PhysicalParams(), -8, 8), **{**inputs, name: bad})


@pytest.mark.parametrize("value, norm", [(1e200, 3e200), (1e-200, 3e-200), (5e-324, 1.5e-323),
                                         (-3e307j, 9e307), (0.0, 0.0)])
def test_norm_of_a_finite_state_is_finite(value, norm):
    # nine sites of 1e200 gave inf, with an overflow RuntimeWarning, and of 1e-200 gave 0.0
    psi = LatticeWavefunction(Lattice(PhysicalParams(), 0, 8), np.full(9, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi.norm() == norm


def test_norm_keeps_the_bits_of_a_normal_sum_of_squares():
    # scaling by a power of 2 is exact, so where sum |a|^2 is a normal float the norm
    # is sqrt of it bit for bit: the norms `polymerqm evolve` prints do not move
    rng = np.random.default_rng(7)
    for size in (1, 2, 9, 1000):
        for scale in (1e-150, 1e-3, 1.0, 3.7, 1e150):
            amps = (rng.normal(size=size) + 1j * rng.normal(size=size)) * scale
            amps[rng.random(size) < 0.3] *= 10.0 ** rng.uniform(-300.0, 0.0)
            psi = LatticeWavefunction(Lattice(PhysicalParams(), 0, size - 1), amps)
            if sys.float_info.min <= (total := psi.norm_sq()):
                assert psi.norm() == math.sqrt(total), (size, scale)
    assert math.inf == LatticeWavefunction(Lattice(PhysicalParams(), 0, 8),
                                           np.full(9, 1e308)).norm()


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_property_momentum_roundtrip(width, seed):
    params = PhysicalParams()
    lat = Lattice(params, -2, -2 + width - 1)
    rng = np.random.default_rng(seed)
    psi = LatticeWavefunction(
        lat, rng.normal(size=width) + 1j * rng.normal(size=width))
    grid = MomentumGrid(params, max(width, 2 * width - 1))
    back = from_momentum(to_momentum(psi, grid), grid, lat)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-11
