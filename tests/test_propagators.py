import collections
import dataclasses
import math
from functools import partial
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm.dynamics import WallSupportError
from polymerqm.spectral import (
    MomentumGrid,
    box_spectrum,
    dispersion_energy,
    from_momentum,
    to_momentum,
)
from polymerqm.lattice import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    gaussian_packet,
)
from polymerqm import bessel
from polymerqm.bessel import bessel_table, truncation_window, unit_imaginary_power
from polymerqm.propagators import PropagatorKernel, evolve, kernel_table
from polymerqm.checks import (
    apply_hamiltonian,
    composition_check,
    continuum_sweep,
    greens_residual,
    greens_residual_fd,
    image_sum,
    momentum_kernel_phase,
    schrodinger_box_gaussian,
    schrodinger_free_kernel,
    spectral_sum,
)
from polymerqm.lattice import _fold
from polymerqm.propagators import _circle_read, _free_vector, _plan

P1 = PhysicalParams()
FREE = PropagatorKernel.free(P1)


# ---------------------------------------------------------------------------
# free kernel
# ---------------------------------------------------------------------------

def test_free_kernel_initial_condition():
    for j in range(-5, 6):
        for r in range(-5, 6):
            want = 1.0 if j == r else 0.0
            assert FREE(j, r, 0.0) == want


def test_free_kernel_frozen_value():
    # J_0(1) e^{-i}
    want = 0.41343807449223535 - 0.6438916508806562j
    assert FREE(0, 0, 1.0) == pytest.approx(want, abs=1e-13)


def test_free_kernel_symmetry_bitwise():
    for dt in (0.3, 2.0, 17.5):
        for j, r in ((0, 2), (-3, 5), (7, -1)):
            assert FREE(j, r, dt) == FREE(r, j, dt)


def test_free_kernel_time_reversal():
    for dt in (0.4, 1.0, 9.0):
        for j, r in ((0, 0), (1, 4), (-2, 3)):
            assert abs(np.conj(FREE(j, r, dt)) - FREE(j, r, -dt)) <= 1e-13


def test_free_kernel_unitarity():
    for z in (0.1, 1.0, 10.0, 100.0):
        w = truncation_window(z)
        total = sum(abs(FREE(n, 0, z)) ** 2 for n in range(-w, w + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_free_kernel_scales_with_params():
    params = PhysicalParams(hbar=2.0, mass=0.5, mu0=0.2)
    z = 2.0 * 1.3 / (0.5 * 0.04)
    assert PropagatorKernel.free(params)(2, 6, 1.3) == pytest.approx(
        FREE(2, 6, z), abs=1e-12)


@pytest.mark.parametrize("separation", [10**6, 10**9])
def test_free_far_orders_exact_zero_from_small_table(separation):
    # orders beyond the truncation window are exactly 0 and cost a table
    # of at most W + 1 orders, not one of |j - r| orders (8 GB at 1e9)
    free = PropagatorKernel.free(P1)
    kernel_table(free, [0], [1], 1.0)  # warm up, so the trace sees one call
    FREE(0, 1, 1.0)
    tracemalloc.start()
    try:
        table = kernel_table(free, [0], [separation], 1.0)
        value = FREE(0, separation, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.tolist() == [[0j]] and value == 0j
    assert peak < 2**20


def test_free_kernel_grid_reads_one_vector_of_magnitudes():
    # phases and Bessel values are made once per magnitude |j - r|, and the
    # grid only gathers: measured peak 1.22 MiB on this 200 x 200 grid (the
    # order array, its index made in place, the result); phases per grid
    # entry peaked at 2.26 MiB.  The bound is 1.5 MiB, 23 % over the measurement
    sites = np.arange(200)
    FREE(sites[:, None], sites, 50.0)  # warm up
    tracemalloc.start()
    try:
        table = FREE(sites[:, None], sites, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (200, 200)
    assert peak < 1.5 * 2**20


def _work_limit_edge():
    """The largest z whose Miller pass of W(z) + 15 orders is in the limit, and the next float."""
    lo, hi = 1.0, float(bessel._MAX_SIZE)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if truncation_window(mid) + 15 <= bessel._MAX_SIZE:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("system", ["free", "box", "periodic"])
def test_every_system_has_the_z_range_of_the_bessel_table(system):
    # the circle step refuses the z the free kernel's Bessel table refuses
    below, above = _work_limit_edge()
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 4)
    assert np.all(np.isfinite(kernel_table(kernel, [1, 2], [1, 3], below)))
    with pytest.raises(ValueError, match=rf"z = {re.escape(repr(above))} .* "
                                         rf"limit {bessel._MAX_SIZE}$"):
        kernel_table(kernel, [1, 2], [1, 3], above)


@pytest.mark.parametrize("case", ["free", "periodic", "free default at z = 1.7e7",
                                  "free input", "periodic input"])
def test_output_window_above_the_size_limit_raises_before_allocating(case):
    # an explicit output or input window of 10^10 + 1 sites, or the free default
    # window 1 + 2W of a one-site input once W passes 2^24 (z about 1.68e7)
    limit = bessel._MAX_SIZE
    system, dt, window = {"free": ("free", 1.0, (0, 10**10)),
                          "periodic": ("periodic", 1.0, (0, 10**10)),
                          "free default at z = 1.7e7": ("free", 1.7e7, None),
                          "free input": ("free", 1.0, (0, 10**10)),
                          "periodic input": ("periodic", 1.0, (0, 10**10))}[case]
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 4)
    psi = LatticeWavefunction(Lattice(P1, 2, 2), np.array([1.0 + 0j]))
    # no state of 10^10 sites can be made, so the input window goes to the plan
    side = "input" if case.endswith("input") else "output"
    call = ((lambda: _plan(kernel, dt, window, (0, 0))) if side == "input"
            else lambda: evolve(psi, kernel, dt, window))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{side} window .* the limit {limit}$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    if window is not None:
        with pytest.raises(ValueError, match=re.escape(f"{side} window {window} ")):
            call()


@pytest.mark.parametrize("empty", ["j", "r"])
@pytest.mark.parametrize("system", ["free", "box", "periodic"])
def test_empty_index_sets_raise_one_error_for_every_system(system, empty):
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 4)
    js, rs = ([], [0]) if empty == "j" else ([0], [])
    name = "output sites j" if empty == "j" else "input sites r"
    with pytest.raises(ValueError, match=f"^empty range of {name}"):
        kernel_table(kernel, js, rs, 1.0)


@pytest.mark.parametrize("call,named", [
    (lambda: FREE(2**63 - 1, -2**63 + 2, 1.0), "output sites j 9223372036854775807"),
    (lambda: image_sum(PropagatorKernel.periodic(3, P1), -2**63, 1, 1.0),
     "output sites j -9223372036854775808"),
    (lambda: FREE(0, [2**62], 1.0), "input sites r 4611686018427387904"),
    (lambda: image_sum(PropagatorKernel.box(3, P1), 2**64, 0, 1.0),
     "output sites j 18446744073709551616"),
    (lambda: kernel_table(PropagatorKernel.periodic(3, P1), [-2**63], [1], 1.0),
     "output sites j -9223372036854775808"),
    (lambda: kernel_table(PropagatorKernel.free(P1), [0], [2**64], 1.0),
     "input sites r 18446744073709551616"),
    (lambda: composition_check(PropagatorKernel.free(P1), [2**64], [0], 0.0, 0.5, 1.0),
     "output sites j 18446744073709551616"),
    (lambda: greens_residual(PropagatorKernel.free(P1), [2**64], [0], [1.0]),
     "output sites j 18446744073709551616"),
], ids=["free int64 max", "periodic int64 min", "free 2^62", "box beyond int64",
        "periodic table", "free table beyond int64", "composition beyond int64",
        "greens beyond int64"])
def test_sites_outside_the_site_domain_raise(call, named):
    # j - r wrapped in int64: the free call read k(-3) where |j - r| > W gives
    # exactly 0, the periodic one read (j - r) mod 6 as 1 where it is 3;
    # integers beyond int64 raised OverflowError
    with pytest.raises(ValueError, match=rf"^{named}\.\..* outside the site domain"):
        call()


_DOOR = {
    "kernel_call": lambda j, r: FREE(j, r, 1.0),
    "box_spectral_sum": lambda j, r: spectral_sum(PropagatorKernel.box(4, P1), j, r, 1.0),
    "periodic_image_sum": lambda j, r: image_sum(PropagatorKernel.periodic(4, P1), j, r, 1.0),
    "box_image_sum": lambda j, r: image_sum(PropagatorKernel.box(4, P1), j, r, 1.0),
    "kernel_table": lambda j, r: kernel_table(PropagatorKernel.free(P1), j, r, 1.0),
    "composition_check": lambda j, r: composition_check(PropagatorKernel.free(P1), j, r,
                                                        0.0, 0.5, 1.0),
    "greens_residual": lambda j, r: greens_residual(PropagatorKernel.free(P1), j, r, [1.0]),
    "greens_residual_fd": lambda j, r: greens_residual_fd(PropagatorKernel.free(P1), j, r,
                                                          [1.0]),
}
# the routes that take j and r as index lists and read their outer grid
_OUTER = {"kernel_table", "composition_check", "greens_residual", "greens_residual_fd"}


@pytest.mark.parametrize("site,named", [
    (0.5, "must be an integer, got np.float64(0.5)"),
    (True, "must be an integer, got np.True_"),
    ("1", "must be an integer, got np.str_('1')"),
    ([], "empty range of "),
], ids=["float", "bool", "text", "empty"])
@pytest.mark.parametrize("route", sorted(_DOOR))
def test_every_route_takes_its_sites_through_one_door(route, site, named):
    # 0.5 and True gave the value at the truncated site 0 or 1; "1" raised numpy's
    # UFuncTypeError in the kernels and was read as site 1 by the checks; [] in the
    # kernels and composition_check raised numpy's zero-size reduction error
    with pytest.raises(ValueError) as err:
        _DOOR[route](site, 1)
    message = str(err.value)
    assert named in message and re.search(r"\b(output )?sites j\b", message)


@pytest.mark.parametrize("route", sorted(_DOOR))
def test_every_route_refuses_a_grid_over_the_size_limit_before_allocating(route):
    # each window is legal (sites 0..4, inside the box 0..4), but 2^13 x (2^12 + 1)
    # entries would be over 512 MiB of complex values: the broadcast shape is
    # counted before any plan or grid-sized array.  A free call on a 2^10 x 2^11
    # grid peaked at 64 MiB with nothing to refuse it; the Green's residuals
    # read rows j - 1, j, j + 1 of the engine's table.  int64 sites are not copied
    # before the count: 2 x (2^24 + 1) entries made a 128 MiB copy of r, then raised.
    # A range is counted by len() and its window read from its two ends: made into
    # an array through Python ints, range(2^24 + 1) peaked at 768 MiB, and the identities
    # made it one int64 array (128 MiB) before their tables counted it
    for js, rs in [(np.arange(2**13) % 5, np.arange(2**12 + 1) % 5),
                   (np.array([0, 4]), np.arange(2**24 + 1) % 5),
                   (np.array([0, 4]), range(2**24 + 1))]:
        rows = f"{js.size} x 3" if route.startswith("greens") else js.size
        message = rf"^table of {rows} x {len(rs)} entries is over the limit {bessel._MAX_SIZE}$"
        if isinstance(rs, range) and route.startswith("box_"):  # refused by the ends of r
            message = rf"^sites j = 0\.\.4, r = 0\.\.{2**24} outside box 0\.\.4$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                _DOOR[route](js if route in _OUTER else js[:, None], rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (len(rs), peak)


@pytest.mark.parametrize("call,named", [
    (lambda box: composition_check(box, [0, 4], range(2**24 + 1), 0.0, 0.5, 1.0), "2 x 16777217"),
    (lambda box: greens_residual_fd(box, [1, 4], range(1, 2**24), [1.0]), "2 x 3 x 16777215"),
    (lambda box: composition_check(box, [0, 4], [0], 0.0, 0.5, 1.0), "2 x 16777217"),
    (lambda box: composition_check(box, [0], [0, 4], 0.0, 0.5, 1.0), "16777217 x 2"),
], ids=["composition", "greens_residual_fd", "composition late leg", "composition early leg"])
def test_an_identity_on_the_largest_box_refuses_before_casting_its_sites(call, named):
    # j x r (x 3 stencil rows) is counted in the one door pass, before r is made an array:
    # the sites cast first peaked at 128 MiB, where `kernel_table` refused at 0.008 MiB.
    # A composition's legs, j x (N + 1) and (N + 1) x r, are counted before its direct
    # term: the 2N circle of that term took 2 GiB before the late leg was refused
    box = PropagatorKernel.box(2**24, P1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^table of {named} entries is over the limit "):
            call(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_each_read_checks_its_windows_once_and_plans_each_time_once(monkeypatch, tmp_path):
    # a kernel call and a table ran `_windows` twice (at the door, then in `_plan`),
    # `polymerqm kernel` planned each time twice, one free composition over one t1 cast its
    # sites 4 times (`_sites`), ran `_windows` 10 times and `_plan` 6 times, and a box
    # Green's residual over three times cast 10 times, ran `_windows` 19 and `_plan` 9 times
    from polymerqm import checks, cli, propagators

    calls = collections.Counter()
    for name in ("_read", "_windows", "_plan"):
        def counted(*args, _fn=getattr(propagators, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (propagators, checks, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    def count(call):
        calls.clear()
        call()
        return dict(calls)

    once = {"_read": 1, "_windows": 1, "_plan": 1}
    box = PropagatorKernel.box(6, P1)
    assert count(lambda: FREE(3, 5, 1.0)) == once
    assert count(lambda: box([[1], [2]], range(7), 0.4)) == once
    assert count(lambda: kernel_table(box, [1, 2], range(7), 0.4)) == once
    config = tmp_path / "times.json"
    config.write_text('{"times": [0.5, 1.0, 2.0]}')
    out = str(tmp_path / "k.csv")
    assert count(lambda: cli.main(["kernel", "--config", str(config), "--out", out])) == \
        {"_windows": 3, "_plan": 3}
    # free: the door, then each leg planned as its vector on -W..W and the sites n they pad
    # checked once; the direct term is planned on the windows the door checked
    assert count(lambda: composition_check(FREE, [0, 2], [1, 3], 0.0, 0.5, 1.0)) == \
        {"_read": 1, "_windows": 4, "_plan": 3}
    # box: the door, the direct term, then the two legs of each t1 on the sites 0..N
    assert count(lambda: composition_check(box, range(1, 6), range(1, 6), 0.0,
                                           [0.4, 1.0, 1.1, 2.2, 2.3], 3.0)) == \
        {"_read": 1, "_windows": 11, "_plan": 11}
    # the sites and the stencil's rows, then each time and its two differencing steps
    assert count(lambda: greens_residual_fd(box, range(1, 6), range(1, 6), [0.5, 1.0, 5.0])) == \
        {"_read": 1, "_windows": 2, "_plan": 9}


@pytest.mark.parametrize("route", sorted(set(_DOOR) - _OUTER))
def test_the_size_limit_counts_broadcast_entries(route):
    # j and r of 2^13 sites each are 2^13 entries read elementwise, not the
    # 2^26 of their sizes' product
    js = np.arange(2**13) % 5
    values = _DOOR[route](js, js[::-1])
    assert values.shape == (2**13,)
    assert values[7] == _DOOR[route](int(js[7]), int(js[::-1][7]))


@pytest.mark.parametrize("r", [2**62 - 1, 10**8], ids=["2^62 - 1", "10^8"])
def test_composition_sizes_its_intermediate_window_before_allocating(r):
    # the free intermediate window spans the separation padded by both legs' W
    # (62 sites at dt = 0.5); at 10^6 it peaked at 61 MiB, growing linearly
    free = PropagatorKernel.free(P1)
    composition_check(free, [0], [1], 0.0, 0.5, 1.0)  # warm up
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"input window (-62, {r + 62}) has more sites than the limit ")):
            composition_check(free, [0], [r], 0.0, 0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match=r"^input window \(-62, "):
        composition_check(free, [r], [0], 0.0, 0.5, 1.0)


@pytest.mark.parametrize("system", ["free", "periodic"])
def test_the_site_domain_edges_are_translates_of_the_origin(system):
    # |site| < 2^62: the outermost sites give the origin's values bit for bit
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 3)
    near = np.array([-3, -1, 0, 2])
    for shift in (2**62 - 4, -2**62 + 4):  # a multiple of the period 6
        far = kernel_table(kernel, near + shift, near[::-1] + shift, 1.3)
        assert np.array_equal(far, kernel_table(kernel, near, near[::-1], 1.3))
        assert np.array_equal(kernel(near[:, None] + shift, near + shift, 1.3),
                              kernel(near[:, None], near, 1.3))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_dt_zero_restricts():
    lat = Lattice(P1, -3, 3)
    psi = gaussian_packet(lat, 0.0, 1.0)
    out = evolve(psi, PropagatorKernel.free(P1), 0.0, out_window=(-1, 2))
    assert np.array_equal(out.amplitudes, psi.amplitudes[2:6])
    assert np.array_equal(evolve(psi, PropagatorKernel.free(P1), 0.0,
                                 out_window=(np.int64(-1), 2)).amplitudes, out.amplitudes)
    # window ends are integers: (-0.5, 2) was truncated to (0, 2)
    for bad in (-0.5, True, "-1"):
        with pytest.raises(ValueError, match=re.escape(f"output window must be an integer, "
                                                       f"got {bad!r}")):
            evolve(psi, PropagatorKernel.free(P1), 0.0, out_window=(bad, 2))


@pytest.mark.parametrize("window", [(-5, 5, 7), (3,), 5], ids=["three", "one", "int"])
@pytest.mark.parametrize("system", ["free", "box", "periodic"])
def test_evolve_refuses_an_output_window_that_is_not_a_pair(system, window):
    # (-5, 5, 7) and (3,) failed to unpack into (lo, hi), and 5 was not iterable
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 4)
    psi = LatticeWavefunction(Lattice(P1, 1, 3), np.ones(3))
    with pytest.raises(ValueError, match=re.escape(
            f"output window must be a pair (lo, hi), got {window!r}")):
        evolve(psi, kernel, 1.0, window)


def test_a_plan_is_one_record_read_by_name():
    plan = _plan(PropagatorKernel.periodic(4, P1), 2.0, (1, 3))
    assert plan._fields == ("kernel", "z", "w", "rows", "cols")
    assert (plan.kernel, plan.z, plan.w, plan.cols) == (PropagatorKernel.periodic(4, P1), 2.0,
                                                         truncation_window(2.0), (1, 3))
    assert plan.rows == (1 - plan.w, 1 - plan.w + 7)  # cols padded by W, cut to one period


def test_evolve_plane_wave_phase():
    z = 2.0
    pad = truncation_window(z)
    half = pad + 10
    lat = Lattice(P1, -half, half)
    p = 0.5 * P1.brillouin_edge
    psi = LatticeWavefunction(lat, np.exp(1j * lat.sites * P1.mu0 * p / P1.hbar))
    out = evolve(psi, PropagatorKernel.free(P1), z, out_window=(-10, 10))
    phase = np.exp(-1j * dispersion_energy(P1, p) * z / P1.hbar)
    want = phase * np.exp(1j * out.lattice.sites * P1.mu0 * p / P1.hbar)
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-8


def test_evolve_preserves_norm():
    lat = Lattice(P1, -20, 20)
    psi = gaussian_packet(lat, 0.3, 2.5, 0.8)
    out = evolve(psi, PropagatorKernel.free(P1), 3.0)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_evolve_box_eigenvector_single_level():
    spec = box_spectrum(2, P1)
    kernel = PropagatorKernel.box(2, P1)
    state = spec.eigenstate(1)
    for dt in (0.5, 4.0):
        out = evolve(state, kernel, dt)
        want = np.exp(-1j * spec.energies[0] * dt) * state.amplitudes
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-14


def test_evolve_box_rejects_wall_support():
    lat = Lattice(P1, 0, 4)
    psi = LatticeWavefunction(lat, [0.0, 0.5, 0.5, 0.5, 0.2])
    for dt in (1.0, 1e18):  # checked before a z the plan refuses
        with pytest.raises(WallSupportError):
            evolve(psi, PropagatorKernel.box(4, P1), dt)


def test_evolve_box_at_dt_zero_keeps_the_bits_of_its_interior():
    # the box state is scattered onto 0..N with every bit: a fold (sites adding onto
    # zeros) would turn its -0.0 parts into +0.0.  The walls are exact +0
    amps = np.array([-0.0 - 0.0j, 0.5 - 0.0j, -0.0 + 2.0j, 1e-300 + 0j, -3.25 - 0.0j])
    out = evolve(LatticeWavefunction(Lattice(P1, 1, 5), amps), PropagatorKernel.box(6, P1), 0.0)
    assert (out.lattice.n_min, out.lattice.n_max) == (0, 6)
    assert out.amplitudes[1:6].tobytes() == amps.tobytes()
    assert out.amplitudes[[0, 6]].tobytes() == np.zeros(2, complex).tobytes()


def test_evolve_box_plans_before_it_embeds():
    # the odd image of a box at N = 2^24 on Z_2N takes 256 MiB; a z the plan refuses
    # is refused first, after the wall check, which makes no array of the box
    psi = LatticeWavefunction(Lattice(P1, 1, 4), np.ones(4))
    box = PropagatorKernel.box(2**24, P1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^z = 1e\+18 is out of range"):
            evolve(psi, box, 1e18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_box_hamiltonian_walls_are_exact_positive_zeros():
    # H psi reads the odd image, so each wall is psi_1 - psi_1 (or its mirror): +0, also
    # next to -0.0 amplitudes
    amps = np.array([-0.0 - 0.0j, 0.25 + 1j, -0.0 + 0.0j])
    h_psi = apply_hamiltonian(LatticeWavefunction(Lattice(P1, 1, 3), amps),
                              PropagatorKernel.box(4, P1))
    assert h_psi.amplitudes[[0, 4]].tobytes() == np.zeros(2, complex).tobytes()


def test_evolve_box_window_fixed():
    spec = box_spectrum(4, P1)
    with pytest.raises(ValueError):
        evolve(spec.eigenstate(1), PropagatorKernel.box(4, P1), 1.0,
               out_window=(0, 5))


def test_evolve_params_mismatch():
    lat = Lattice(PhysicalParams(mu0=0.5), 0, 3)
    psi = LatticeWavefunction(lat, np.ones(4))
    with pytest.raises(ValueError):
        evolve(psi, PropagatorKernel.free(P1), 1.0)


# ---------------------------------------------------------------------------
# the Hamiltonian: one stencil for every system
# ---------------------------------------------------------------------------

P_H = PhysicalParams(hbar=0.9, mass=1.3, mu0=0.5)


def _generic_state(lo, hi):
    sites = np.arange(lo, hi + 1)
    return LatticeWavefunction(Lattice(P_H, lo, hi),
                               np.cos(0.9 * sites) + 1j * np.sin(0.4 * sites + 0.3))


def _box_generic_state(n):
    psi = _generic_state(0, n)
    amps = psi.amplitudes.copy()
    amps[[0, n]] = 0.0
    return LatticeWavefunction(psi.lattice, amps)


_H_CASES = {
    "free": (PropagatorKernel.free(P_H), _generic_state(-7, 12)),
    "box": (PropagatorKernel.box(16, P_H), _box_generic_state(16)),
    # one whole period far from the origin, and a window narrower than 2N
    "periodic-one-period-at-1000": (PropagatorKernel.periodic(8, P_H),
                                    _generic_state(1000, 1015)),
    "periodic-narrow": (PropagatorKernel.periodic(8, P_H), _generic_state(-3, 5)),
    # wider than the period 2N = 16: the state is its fold onto Z_16
    "periodic-wide": (PropagatorKernel.periodic(8, P_H), _generic_state(-5, 18)),
}


@pytest.mark.parametrize("case", sorted(_H_CASES))
def test_hamiltonian_is_the_generator_of_evolve(case):
    # i hbar d(psi)/dt at t = 0 by central differences of evolve, on the
    # Hamiltonian's output window.  Measured deviation at h = 1e-5, mostly
    # the h^2 term: 4.8e-10 (free), 3.0e-10 (box), 7.1e-10 (periodic at
    # 1000), 6.0e-10 (periodic, narrow) and 4.8e-10 (periodic, wide); the
    # bound is 7x the worst.
    kernel, psi = _H_CASES[case]
    h_psi = apply_hamiltonian(psi, kernel)
    window = h_psi.lattice.n_min, h_psi.lattice.n_max
    if kernel.system == "box":
        assert window == (0, kernel.n)
    else:
        assert window == (psi.lattice.n_min - 1, psi.lattice.n_max + 1)
    step = 1e-5
    plus = evolve(psi, kernel, step, window).amplitudes
    minus = evolve(psi, kernel, -step, window).amplitudes
    rate = 1j * P_H.hbar * (plus - minus) / (2.0 * step)
    assert np.max(np.abs(rate - h_psi.amplitudes)) <= 5e-9


@pytest.mark.parametrize("q", range(16))
def test_periodic_plane_waves_are_eigenvectors(q):
    # e^{i pi q n/N} on one period 0..2N-1, read on -1..2N; the phases are
    # taken from q n mod 2N so both sides round alike.  Measured worst over q:
    # 2.6e-15 at energies up to 5.0; the bound is 8x that.
    n = 8
    kernel = PropagatorKernel.periodic(n, P_H)
    def wave(sites):
        return np.exp(1j * math.pi * ((q * sites) % (2 * n)) / n)
    sites = np.arange(0, 2 * n)
    h_psi = apply_hamiltonian(LatticeWavefunction(Lattice(P_H, 0, 2 * n - 1), wave(sites)),
                              kernel)
    assert (h_psi.lattice.n_min, h_psi.lattice.n_max) == (-1, 2 * n)
    energy = P_H.energy_scale * (1.0 - math.cos(math.pi * q / n))
    assert np.max(np.abs(h_psi.amplitudes - energy * wave(h_psi.lattice.sites))) <= 2e-14


@pytest.mark.parametrize("kernel", [PropagatorKernel.free(P1), PropagatorKernel.box(4, P1),
                                    PropagatorKernel.periodic(4, P1)],
                         ids=["free", "box", "periodic"])
def test_hamiltonian_params_mismatch(kernel):
    psi = LatticeWavefunction(Lattice(PhysicalParams(mu0=0.5), 1, 3), np.ones(3))
    with pytest.raises(ValueError, match="different physical parameters"):
        apply_hamiltonian(psi, kernel)


# ---------------------------------------------------------------------------
# box kernels
# ---------------------------------------------------------------------------

def test_box_spectral_walls_vanish():
    box = PropagatorKernel.box(4, P1)
    for r in range(0, 5):
        assert spectral_sum(box, 0, r, 1.3) == 0.0
        assert spectral_sum(box, 4, r, 1.3) == 0.0
        assert spectral_sum(box, r, 0, 1.3) == 0.0


def test_box_spectral_initial_condition():
    for n in (2, 5, 9):
        for j in range(1, n):
            for r in range(1, n):
                want = 1.0 if j == r else 0.0
                assert spectral_sum(PropagatorKernel.box(n, P1), j, r, 0.0) == pytest.approx(
                    want, abs=1e-14)


def test_box_spectral_single_mode():
    z = 0.77
    assert spectral_sum(PropagatorKernel.box(2, P1), 1, 1, z) == pytest.approx(
        np.exp(-1j * z), abs=1e-14)


def test_box_spectral_frozen_value():
    want = 0.08504344872615211 - 0.5966012706589305j
    assert spectral_sum(PropagatorKernel.box(4, P1), 1, 2, 3.0) == pytest.approx(want, abs=1e-13)


def test_box_spectral_domain():
    with pytest.raises(ValueError):
        spectral_sum(PropagatorKernel.box(4, P1), -1, 2, 1.0)
    with pytest.raises(ValueError):
        spectral_sum(PropagatorKernel.box(4, P1), 1, 5, 1.0)


def test_box_domain_error_names_the_ranges():
    # one line naming the j and r ranges, not the index arrays
    with pytest.raises(ValueError) as err:
        spectral_sum(PropagatorKernel.box(5, P1), np.arange(40)[:, None], np.arange(3), 1.0)
    message = str(err.value)
    assert "\n" not in message and "0..39" in message and "0..2" in message
    with pytest.raises(ValueError, match="0..39"):
        image_sum(PropagatorKernel.box(5, P1), np.arange(40)[:, None], np.arange(3), 1.0)


def test_box_spectral_full_grid_memory():
    # the level sum is contracted: a grid x levels array would be 51 MB here
    sites, box = np.arange(0, 129), PropagatorKernel.box(128, P1)
    spectral_sum(box, sites[:, None], sites, 1.3)
    tracemalloc.start()
    try:
        table = spectral_sum(box, sites[:, None], sites, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (129, 129)
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("sites,n", [(3, 2**24), (33 + 33, 2**19 + 1)],
                         ids=["3 sites at N = 2^24", "33 x 33 grid at N = 2^19 + 1"])
def test_box_level_sum_refuses_a_working_set_over_the_limit_before_allocating(sites, n):
    # the level sum holds sites x (N - 1) mode values whatever the grid: a 33 x 33
    # grid (1,089 entries) at N = 2^14 peaked at 16.9 MiB; refused before the modes
    j, r = (np.array([[1], [2]]), 3) if sites == 3 else (np.arange(33)[:, None], np.arange(33))
    box = PropagatorKernel.box(n, P1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{sites} sites x {n - 1} levels is over "
                                             rf"the limit {bessel._MAX_SIZE}$"):
            spectral_sum(box, j, r, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("route, system", [(spectral_sum, "free"), (spectral_sum, "periodic"),
                                           (image_sum, "free")])
def test_check_routes_refuse_a_system_they_have_no_construction_for(route, system):
    kernel = PropagatorKernel(system, P1, n=None if system == "free" else 4)
    with pytest.raises(ValueError, match=rf"^(spectral|image) sum not defined for system "
                                         rf"'{system}'$"):
        route(kernel, 1, 2, 0.5)


def test_box_images_matches_spectral():
    worst = 0.0
    for n in (2, 3, 4, 8, 16):
        box = PropagatorKernel.box(n, P1)
        for z in (0.5, 2.0, 10.0):
            for j in range(0, n + 1):
                for r in range(0, n + 1):
                    dev = abs(spectral_sum(box, j, r, z) - image_sum(box, j, r, z))
                    worst = max(worst, dev)
    assert worst <= 1e-10


def test_box_images_frozen_case():
    box = PropagatorKernel.box(4, P1)
    assert image_sum(box, 1, 2, 3.0) == pytest.approx(spectral_sum(box, 1, 2, 3.0), abs=1e-10)


def test_box_images_walls_and_identity():
    box = PropagatorKernel.box(4, P1)
    assert image_sum(box, 0, 2, 1.0) == 0.0
    assert image_sum(box, 3, 4, 1.0) == 0.0
    for j in range(1, 4):
        for r in range(1, 4):
            want = 1.0 if j == r else 0.0
            assert image_sum(box, j, r, 0.0) == pytest.approx(
                want, abs=1e-14)


def test_periodic_matches_brute_force_images():
    def brute(j, r, dt, n, count):
        return sum(FREE(j, r + 2 * k * n, dt)
                   for k in range(-count, count + 1))

    for n in (2, 5):
        for z in (0.5, 4.0):
            for j, r in ((0, 0), (1, 3), (4, 1)):
                k_fast = image_sum(PropagatorKernel.periodic(n, P1), j, r, z)
                # images up to |k| reach orders -W..W from any separation j - r
                count = (truncation_window(z) + abs(j - r)) // (2 * n) + 1
                k_slow = brute(j, r, z, n, count)
                assert abs(k_fast - k_slow) <= 1e-12


def test_periodic_shift_invariance():
    for n in (3, 4):
        periodic = PropagatorKernel.periodic(n, P1)
        for z in (1.0, 6.0):
            base = image_sum(periodic, 2, 1, z)
            assert abs(image_sum(periodic, 2 + 2 * n, 1, z) - base) <= 1e-12
            assert abs(image_sum(periodic, 2, 1 - 2 * n, z) - base) <= 1e-12


def test_periodic_initial_condition_mod_2n():
    n = 3
    for j in range(-6, 7):
        for r in range(-6, 7):
            want = 1.0 if (j - r) % (2 * n) == 0 else 0.0
            assert image_sum(PropagatorKernel.periodic(n, P1), j, r, 0.0) == pytest.approx(
                want, abs=1e-15)


def test_evolve_box_images_matches_spectral():
    # the circle step of the images against the scalar spectral sum and
    # the scalar image sum
    rng = np.random.default_rng(21)
    n = 6
    lat = Lattice(P1, 0, n)
    amps = np.zeros(n + 1, dtype=complex)
    amps[1:n] = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    psi = LatticeWavefunction(lat, amps)
    kernel = PropagatorKernel.box(n, P1)
    for dt in (0.6, 2.4):
        out = evolve(psi, kernel, dt).amplitudes
        for route in (_check_route("box-spectral", n), _check_route("box-images", n)):
            assert np.max(np.abs(_dense_sum(route, psi, lat.sites, dt) - out)) <= 1e-11


def test_evolve_periodic_translation_equivariance():
    # shifting the input by the period 2N relabels the output by 2N
    n = 3
    kernel = PropagatorKernel.periodic(n, P1)
    lat = Lattice(P1, 0, 1)
    psi = LatticeWavefunction(lat, [0.8, 0.6j])
    shifted = LatticeWavefunction(Lattice(P1, 2 * n, 2 * n + 1), psi.amplitudes)
    out = _dense_sum(_check_route("periodic", n), psi, range(0, 2 * n), 1.5)
    out_shifted = evolve(shifted, kernel, 1.5,
                         out_window=(2 * n, 4 * n - 1))
    assert np.max(np.abs(out - out_shifted.amplitudes)) <= 1e-12


def test_image_cutoff_depends_on_separation_only():
    # check-route cost and value do not move with absolute site index
    periodic, z = PropagatorKernel.periodic(5, P1), 3.0
    shift = 2 * periodic.n * 10**4
    for j, r in ((2, 1), (0, 7), (-3, 4), (9, -6)):
        assert image_sum(periodic, j + shift, r + shift, z) == image_sum(periodic, j, r, z)


@pytest.mark.parametrize("system, side, n", [("periodic", 128, 4), ("box", 65, 64)])
def test_image_sum_memory_does_not_grow_with_images(system, side, n):
    # one fold of the free vector onto Z_2N, O(W + N + grid); grid x images
    # order arrays peaked at 281 MiB (periodic) and 10.5 MiB (box) on these grids
    sites, kernel = np.arange(side), PropagatorKernel(system, P1, n=n)
    tracemalloc.start()
    try:
        table = image_sum(kernel, sites[:, None], sites, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (side, side)
    assert peak < 2 * 2**20


def _traced_peak(call):
    """call()'s result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("system, mirror, n", [("periodic", False, 1000), ("box", True, 39)])
def test_image_fold_in_blocks_keeps_the_bytes_of_one_fold(system, mirror, n):
    # at z = 1e5 the 2W + 1 orders fold in four blocks of 2^16, in site order: the
    # bytes of one `_fold` of them all.  The one fold held about 40 bytes an order
    # beside the free vector (7.68 MiB against the vector's 3.96); the blocks add 0.11
    z, sites, kernel = 1e5, np.arange(40), PropagatorKernel(system, P1, n=n)
    orders = np.arange(-(w := truncation_window(z)), w + 1)
    circle = _fold(orders, _free_vector(z, w)(orders), 2 * n)
    want = _circle_read(circle, sites[:, None], sites, mirror)
    _, vector_peak = _traced_peak(lambda: _free_vector(z, w))
    got, peak = _traced_peak(lambda: image_sum(kernel, sites[:, None], sites, z))
    assert got.tobytes() == want.tobytes()
    assert peak < vector_peak + 2**19


@pytest.mark.parametrize("n", [2, 5, 16])
def test_periodic_image_sum_matches_exact_momentum_sum_at_large_z(n):
    # k_P(m) = (1/2N) sum_q e^{i pi q m/N - iz(1 - cos(pi q/N))} over the 2N
    # momenta, at 40 digits.  Measured worst 1.79e-14 (N = 2, z = 1e5);
    # the bound is 1e-13, 5.6x that
    mpmath = pytest.importorskip("mpmath")
    seps, periodic = np.arange(2 * n), PropagatorKernel.periodic(n, P1)
    for z in (0.5, 7.25, 1e3, 1e4 + 0.5, 1e5):
        got = image_sum(periodic, seps, 0, z)
        with mpmath.workdps(40):
            for m in seps:
                want = mpmath.fsum(mpmath.expj(mpmath.pi * q * int(m) / n - mpmath.mpf(z)
                                               * (1 - mpmath.cos(mpmath.pi * q / n)))
                                   for q in range(2 * n)) / (2 * n)
                assert abs(complex(want) - got[m]) <= 1e-13, (z, m)


# ---------------------------------------------------------------------------
# evolution engine against the scalar check routes
# ---------------------------------------------------------------------------

def _dense_sum(kernel, psi, out_sites, dt):
    """sum_r k(j, r, dt) psi_r with the scalar check-route kernel."""
    return np.array([sum(kernel(int(j), int(r), dt) * a
                         for r, a in zip(psi.lattice.sites, psi.amplitudes))
                     for j in out_sites])


def _check_route(label, n):
    """A closed form of `checks` as k(j, r, dt): the box spectral sum, the box image
    sum or the periodic image sum."""
    route, system = {"box-spectral": (spectral_sum, "box"), "box-images": (image_sum, "box"),
                     "periodic": (image_sum, "periodic")}[label]
    return partial(route, PropagatorKernel(system, P1, n=n))


def _system_and_route(label, n):
    """Engine kernel and scalar reference for a test label. Both box labels
    run the one box engine: "box-spectral" checks it against the scalar
    spectral sum, "box-images" against the scalar image sum; periodic is
    checked against its image sum, free against its own kernel call."""
    kernel = PropagatorKernel("box" if label.startswith("box") else label, P1, n=n)
    return kernel, kernel if label == "free" else _check_route(label, n)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_property_evolve_equals_dense_sum(data):
    system = data.draw(st.sampled_from(["free", "periodic", "box-spectral", "box-images"]))
    z = data.draw(st.floats(min_value=0.0, max_value=12.0))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    window = None
    if system.startswith("box"):
        n = data.draw(st.integers(min_value=2, max_value=10))
        a = data.draw(st.integers(min_value=1, max_value=n - 1))
        lat = Lattice(P1, a, data.draw(st.integers(min_value=a, max_value=n - 1)))
    else:
        n = data.draw(st.integers(min_value=2, max_value=6)) \
            if system == "periodic" else None
        # periodic windows may be wider than the period 2N
        width = data.draw(st.integers(min_value=1, max_value=6 * (n or 2)))
        offset = data.draw(st.integers(min_value=-10**6, max_value=10**6))
        lat = Lattice(P1, offset, offset + width - 1)
        if width > 6 or data.draw(st.booleans()):
            lo = offset + data.draw(st.integers(min_value=-20, max_value=width + 5))
            window = (lo, lo + data.draw(st.integers(min_value=0, max_value=15)))
    kernel, route = _system_and_route(system, n)
    rng = np.random.default_rng(seed)
    psi = LatticeWavefunction(lat, rng.normal(size=lat.num_sites)
                              + 1j * rng.normal(size=lat.num_sites))
    out = evolve(psi, kernel, z, window)
    want = _dense_sum(route, psi, out.lattice.sites, z)
    scale = float(np.sum(np.abs(psi.amplitudes)))
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-13 * scale


def test_evolve_periodic_default_window_is_one_period():
    # a 31-site packet at N = 16: the window padded by W = 39 on each side
    # is cut to one period, so a unitary step keeps the norm; the uncut
    # 109 sites repeat the circle, with a norm of 1.74
    psi = gaussian_packet(Lattice(P1, -15, 15), center=0.0, sigma=4.0)
    out = evolve(psi, PropagatorKernel.periodic(16, P1), 2.5)
    assert (out.lattice.n_min, out.lattice.n_max) == (-15 - 39, -15 - 39 + 31)
    assert abs(out.norm() - psi.norm()) <= 1e-14
    # a window padded by W that fits in one period is not cut
    wide = evolve(psi, PropagatorKernel.periodic(64, P1), 2.5)
    assert (wide.lattice.n_min, wide.lattice.n_max) == (-15 - 39, 15 + 39)


def test_evolve_periodic_far_offset_is_relabelled():
    # a one-period window at offset 1e5 gives the offset-0 result, relabelled
    n, far = 16, 10**5
    kernel = PropagatorKernel.periodic(n, P1)
    amps = np.random.default_rng(5).normal(size=2 * n) + 0.5j
    near = LatticeWavefunction(Lattice(P1, 0, 2 * n - 1), amps)
    moved = LatticeWavefunction(Lattice(P1, far, far + 2 * n - 1), amps)
    a = evolve(near, kernel, 7.0, out_window=(0, 2 * n - 1))
    b = evolve(moved, kernel, 7.0, out_window=(far, far + 2 * n - 1))
    assert b.lattice.n_min == far
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-13


def test_free_evolve_table_bounded_by_truncation_window(monkeypatch):
    # the default window spans about M + 2W orders j - r; only |m| <= W
    # are built, so the Bessel table has at most W + 1 orders
    from polymerqm import propagators

    requested = []
    real = propagators.bessel_table

    def counting(z, max_order):
        requested.append(max_order)
        return real(z, max_order)

    monkeypatch.setattr(propagators, "bessel_table", counting)
    amps = np.random.default_rng(2).normal(size=4000) + 0.5j
    out = evolve(LatticeWavefunction(Lattice(P1, 0, 3999), amps),
                 PropagatorKernel.free(P1), 10.0)
    w = truncation_window(10.0)
    assert (out.lattice.n_min, out.lattice.n_max) == (-w, 3999 + w)
    assert requested and max(requested) <= w  # tables of max_order + 1 orders


def test_evolve_free_windows_beyond_truncation_window():
    # windows left of, right of, straddling and wider than the reach of the
    # kernel: the dense scalar sum, with exact zeros beyond W
    free = PropagatorKernel.free(P1)
    amps = np.random.default_rng(8).normal(size=5) + 1j
    psi = LatticeWavefunction(Lattice(P1, 100, 104), amps)
    w = truncation_window(3.0)
    for lo, hi in ((100 - w - 9, 100 - w - 1), (104 + w + 1, 104 + w + 3),
                   (104 + w - 2, 104 + w + 6), (90 - w, 114 + w), (102, 102)):
        out = evolve(psi, free, 3.0, out_window=(lo, hi))
        assert (out.lattice.n_min, out.lattice.n_max) == (lo, hi)
        assert np.max(np.abs(out.amplitudes - _dense_sum(free, psi, out.lattice.sites,
                                                         3.0))) <= 1e-14
        assert np.all(out.amplitudes[np.abs(out.lattice.sites - 102) > w + 2] == 0.0)


@pytest.mark.parametrize("system", ["periodic", "box-spectral"])
def test_evolve_circle_step_error_scales_with_z(system):
    # the circle-step phases carry an error of about z * eps; pin it at
    # z = 1e4 against the Bessel-table check routes
    n, z = 5, 1.0e4
    kernel, route = _system_and_route(system, n)
    amps = np.random.default_rng(11).normal(size=n - 1) + 0.3j
    psi = LatticeWavefunction(Lattice(P1, 1, n - 1), amps)
    out = evolve(psi, kernel, z, out_window=(0, n))
    want = _dense_sum(route, psi, out.lattice.sites, z)
    scale = float(np.sum(np.abs(amps)))
    assert np.max(np.abs(out.amplitudes - want)) <= 2 * z * np.finfo(float).eps * scale


@pytest.mark.parametrize("system", ["free", "periodic", "box-spectral", "box-images"])
def test_evolve_dt_zero_is_exact_identity(system):
    n = 6
    amps = np.array([0.0, -0.5 + 1e-17j, 2.0, 0.0, -3.25j, 1e-300, 0.0])
    psi = LatticeWavefunction(Lattice(P1, 0, n), amps)
    kernel, route = _system_and_route(system, None if system == "free" else n)
    out = evolve(psi, kernel, 0.0, out_window=(0, n))
    assert np.array_equal(out.amplitudes, amps)
    if system == "box-images":
        # the image sum of Kronecker deltas is exact too; the scalar
        # spectral sum is exact only to rounding
        assert np.array_equal(_dense_sum(route, psi, out.lattice.sites, 0.0), amps)


@pytest.mark.parametrize("system", ["box-spectral", "box-images"])
def test_evolve_box_walls_exactly_zero(system):
    spec = box_spectrum(7, P1)
    kernel, route = _system_and_route(system, 7)
    psi = spec.eigenstate(3)
    out = evolve(psi, kernel, 2.3)
    assert out.amplitudes[0] == 0.0 and out.amplitudes[7] == 0.0
    assert np.all(_dense_sum(route, psi, [0, 7], 2.3) == 0.0)


@pytest.mark.parametrize("system,n,js,rs", [
    ("free", None, range(-9, 7), range(-30, 12)),
    ("periodic", 3, range(-4, 15), range(995, 1003)),
    ("box-spectral", 6, range(0, 7), range(0, 7)),
    ("box-images", 5, range(1, 6), range(0, 4)),
])
def test_kernel_table_matches_scalar_kernels(system, n, js, rs):
    kernel, route = _system_and_route(system, n)
    for dt in (0.0, 0.8, 9.5):
        table = kernel_table(kernel, js, rs, dt)
        want = np.array([[route(j, r, dt) for r in rs] for j in js])
        assert table.shape == (len(js), len(rs))
        assert np.max(np.abs(table - want)) <= 1e-14
    identity = kernel_table(kernel, js, rs, 0.0)
    jj, rr = np.meshgrid(js, rs, indexing="ij")
    if system == "periodic":
        expect = (jj - rr) % (2 * n) == 0
    elif system == "free":
        expect = jj == rr
    else:
        expect = (jj == rr) & (jj > 0) & (jj < n)
    assert np.array_equal(identity, expect.astype(complex))


def test_kernel_table_box_walls_and_domain():
    table = kernel_table(PropagatorKernel.box(5, P1), range(6), range(6), 1.3)
    assert np.all(table[[0, 5], :] == 0.0) and np.all(table[:, [0, 5]] == 0.0)
    with pytest.raises(ValueError):
        kernel_table(PropagatorKernel.box(5, P1), [0, 6], [1], 1.0)


def _free_terms(z, orders):
    """Reference free kernel built entry by entry: i^|m| J_|m|(z) e^{-iz}, 0 beyond W.

    Phases per entry, one Bessel table of min(max |m|, W) + 1 orders read
    by min(|m|, top + 1), a negative z conjugating i^|m|: independent of
    the vector that `kernel(j, r, dt)` and `kernel_table` read.
    """
    mag = np.abs(np.asarray(orders, dtype=np.int64))
    top = min(int(mag.max()), truncation_window(abs(z)))
    values = np.append(bessel_table(abs(z), top), 0.0)
    phases = unit_imaginary_power(mag)
    if z < 0.0:
        phases = np.conj(phases)
    return phases * values[np.minimum(mag, top + 1)] * np.exp(-1j * z)


def test_free_kernel_table_is_the_grid_of_free_terms_bit_for_bit():
    # the table is gathered from one vector of orders 0..min(m, W + 4);
    # entries beyond W keep the signed zeros of the per-entry builder
    rng = np.random.default_rng(13)
    free = PropagatorKernel.free(P1)
    for z in (0.0, 0.4, -2.5, 7.0, 60.0, -300.0, 3e3):
        for offset in (0, -45, 10**6, -(10**9)):
            w = truncation_window(abs(z))
            js = offset + np.sort(rng.integers(-w - 20, w + 20, size=9))
            rs = offset + rng.integers(-w - 20, w + 20, size=7) + rng.integers(-30, 31)
            for cols in (rs, rs + 3 * w + 50, rs[:1]):
                want = _free_terms(z, np.subtract.outer(js, cols))
                assert _same_bits(kernel_table(free, js, cols, z), want)
                assert _same_bits(FREE(js[:, None], cols, z), want)


def test_kernel_object_dispatch_matches_functions():
    # the call reads the engine: kernel_table's bits, and within the tolerance of
    # verify's box/engine-vs-spectral of the closed forms called by name
    for kernel, closed in ((FREE, None),
                           (PropagatorKernel.box(5, P1), _check_route("box-spectral", 5)),
                           (PropagatorKernel.periodic(5, P1), _check_route("periodic", 5))):
        value = kernel(1, 3, 0.7)
        assert isinstance(value, complex)
        assert value == kernel_table(kernel, [1], [3], 0.7)[0, 0]
        if closed is not None:
            assert abs(value - closed(1, 3, 0.7)) <= 1e-13


@pytest.mark.parametrize("system", ["free", "box", "periodic"])
def test_tables_are_exactly_symmetric_and_the_call_reads_the_engine(system):
    # box and periodic read their Z_2N vector at min(d, 2N - d), as free reads
    # by |m|; reading it at d left them asymmetric by up to 1.8e-12 at z = 1e4
    for n in (2, 8, 17, 48, 128):
        kernel = PropagatorKernel(system, P1, n=None if system == "free" else n)
        sites = np.arange(0, n + 1) if system == "box" else np.arange(-n, 2 * n + 1)
        for z in (0.3, 1.7, 25.0, 1e4):
            table = kernel_table(kernel, sites, sites, z)
            assert _same_bits(table, np.ascontiguousarray(table.T))
            assert _same_bits(kernel(sites[:, None], sites, z), table)
        jj, rr = sites[:, None], sites
        want = (jj - rr) % (2 * n) == 0 if system == "periodic" else jj == rr
        if system == "box":
            want &= jj % n != 0  # the walls
        assert np.array_equal(kernel_table(kernel, sites, sites, 0.0), want + 0j)


_ROUTES = {
    "free": lambda j, r, dt, n: FREE(j, r, dt),
    "box-spectral": lambda j, r, dt, n: spectral_sum(PropagatorKernel.box(n, P1), j, r, dt),
    "box-images": lambda j, r, dt, n: image_sum(PropagatorKernel.box(n, P1), j, r, dt),
    "periodic": lambda j, r, dt, n: image_sum(PropagatorKernel.periodic(n, P1), j, r, dt),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_property_array_routes_equal_scalar_routes(data):
    # an index-array call equals the scalar calls entry by entry, and the
    # exact gates stay exact on arrays
    name = data.draw(st.sampled_from(sorted(_ROUTES)))
    route = _ROUTES[name]
    n = data.draw(st.integers(min_value=2, max_value=8))
    z = data.draw(st.floats(min_value=-10.0, max_value=10.0))
    lo, hi = (0, n) if name.startswith("box") else (-24, 24)
    sites = st.lists(st.integers(min_value=lo, max_value=hi), min_size=1, max_size=5)
    # the ends of the range make every call span the largest separation
    js, rs = np.array(data.draw(sites) + [hi])[:, None], np.array(data.draw(sites) + [lo])
    table = route(js, rs, z, n)
    want = np.array([[route(int(j), int(r), z, n) for r in rs] for j in js[:, 0]])
    assert isinstance(want[0, 0], complex) and table.shape == want.shape
    assert np.max(np.abs(table - want)) <= 1e-15
    if name.startswith("box"):
        walls = np.broadcast_to((js == 0) | (js == n) | (rs == 0) | (rs == n), table.shape)
        assert np.all(table[walls] == 0.0)
    if name == "free":
        assert np.array_equal(route(js, rs, 0.0, n), (js == rs) + 0j)
        assert _same_bits(table, route(rs, js, z, n))
    if name == "periodic":
        shift = 2 * n * data.draw(st.integers(min_value=-10**4, max_value=10**4))
        assert _same_bits(route(js + shift, rs + shift, z, n), table)


def test_verify_builds_one_bessel_table_per_route_call(monkeypatch):
    # No timing: count the Bessel tables the free and box suites build.
    # box: spectral-vs-images, 5 sizes x 3 times, one image sum each (its
    # other checks use no Bessel table).  free: initial-condition 1,
    # unitarity 4, composition 3 x (direct + 2 legs), greens-residual
    # 4 x (table + derivative), its finite-difference twin 3 x 3, symmetry
    # 2, time-reversal 2 x 2, eigenstate-phase 2 evolves.  A table per
    # (j, r) entry would make 864 and 1193.
    from polymerqm import bessel, propagators, verify

    built = []
    real = bessel.bessel_table

    def counting(z, max_order):
        built.append(z)
        return real(z, max_order)

    for module in (bessel, propagators, verify):
        monkeypatch.setattr(module, "bessel_table", counting)
    verify.run_suite("box", n_box=8)
    box_tables = len(built)
    built.clear()
    verify.run_suite("free")
    assert (box_tables, len(built)) == (15, 1 + 4 + 9 + 8 + 9 + 2 + 4 + 2)


def test_periodic_evolve_plans_before_it_folds():
    # the fold onto Z_2N at N = 2^22 takes 128 MiB; a z the plan refuses is refused first
    psi = LatticeWavefunction(Lattice(P1, 0, 0), np.ones(1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^z = 1e\+18 is out of range"):
            evolve(psi, PropagatorKernel.periodic(2**22, P1), 1e18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [2, 9, 64])
def test_batched_box_step_is_the_per_level_evolve_bit_for_bit(n):
    # the circle step of the odd images of every level at once, inside the walls;
    # only `evolve` sets the walls to exactly 0
    from polymerqm.dynamics import _box_modes
    from polymerqm.propagators import _circle_step

    spectrum, box = box_spectrum(n, P1), PropagatorKernel.box(n, P1)
    modes = _box_modes(n, np.arange(n + 1)).T
    odd = np.concatenate([modes, -modes[:, -2:0:-1]], axis=1).astype(complex)  # the odd images
    for dt in (0.0, 0.7, 3.1, 250.0):
        stack = _circle_step(odd, dt)[:, 1:n]
        each = [evolve(spectrum.eigenstate(level), box, dt).amplitudes[1:n]
                for level in range(1, n)]
        assert _same_bits(np.ascontiguousarray(stack), np.array(each))


def _eigenphase_steps(monkeypatch, n_box, wrong_level=None):
    """The box suite at n_box, seed 0: (eigenphase record, shapes of verify's own
    circle steps, the levels stepped on the circle 2 n_box, read from their spectra).

    wrong_level: those steps also turn momenta +-l of the circle 2 n_box by 1e-9
    rad, a step that is wrong on level l alone (its odd image holds only them).
    """
    from polymerqm import propagators, verify

    shapes, levels, real = [], [], propagators._circle_step

    def step(psi, z):
        shapes.append(psi.shape)
        out = real(psi, z)
        if psi.shape[-1] != 2 * n_box:
            return out
        levels.extend(np.argmax(np.abs(np.fft.fft(psi))[:, :n_box + 1], axis=-1))
        if wrong_level is None:
            return out
        spectrum = np.fft.fft(out)
        spectrum[:, [wrong_level, 2 * n_box - wrong_level]] *= np.exp(1e-9j)
        return np.fft.ifft(spectrum)

    monkeypatch.setattr(verify, "_circle_step", step)
    records = verify.run_suite("box", n_box=n_box)
    return next(r.deviation for r in records if r.name == "eigenphase"), shapes, levels


def test_box_eigenphase_steps_do_not_grow_with_the_box(monkeypatch):
    # No timing: count eigenphase's circle steps.  It steps every level up to
    # N - 1 = 48 and 48 levels above, in blocks of at most 16 levels and of at
    # most 2^13 entries of the circle (one level from N = 4096 on): so the
    # step count stays bounded and each step holds O(N).
    counts = {}
    for n_box in (8, 49, 50, 128, 4096, 2**15):
        deviation, shapes, levels = _eigenphase_steps(monkeypatch, n_box)
        assert deviation <= 1e-14
        assert all(len(s) == 2 and s[0] <= 16 and s[0] * s[1] <= max(2**13, s[1])
                   for s in shapes)
        assert len(levels) == 2 * len(set(levels)) == 2 * min(n_box - 1, 48)  # two times
        counts[n_box] = len(shapes)
    assert counts[8] == 2 + 6  # one block of 7 levels; the boxes 2, 5 and 9 one each
    assert counts[49] == counts[50] == counts[128] == 2 * 3 + 6
    assert counts[2**15] == counts[4096] == 2 * 48 + 6


def test_box_eigenphase_sees_a_step_wrong_on_one_level(monkeypatch):
    # N = 128 steps 48 of its 127 levels: the first 16, the last 16 and 16
    # drawn from the seed; a step wrong on one of them fails the record
    n = 128
    stepped = set(_eigenphase_steps(monkeypatch, n)[2])
    middle = sorted(stepped - set(range(1, 17)) - set(range(n - 16, n)))
    assert len(stepped) == 48 and len(middle) == 16
    assert all(17 <= level <= n - 17 for level in middle)
    for level in (1, n - 1, middle[8]):
        assert _eigenphase_steps(monkeypatch, n, wrong_level=level)[0] > 1e-12, level
    # the same fault on a level that is not stepped goes unseen: the fault is one level's
    unseen = min(set(range(17, n - 16)) - stepped)
    assert _eigenphase_steps(monkeypatch, n, wrong_level=unseen)[0] <= 1e-14


def test_box_suite_far_past_the_old_spectrum_limit():
    # N = 2^16 was refused (N >= 5,793 made a dense spectrum); now each step holds one
    # level of the circle 2N and the angles l n are reduced mod 2N before the sine
    from polymerqm.verify import run_suite

    run_suite("box", n_box=8)  # warm up
    tracemalloc.start()
    try:
        records = run_suite("box", n_box=2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in records)
    assert next(r.deviation for r in records if r.name == "eigenphase") <= 1e-14
    assert peak < 24 * 2**20


def test_box_suite_at_the_largest_n_refuses_before_copying_its_sites():
    # N = 2^24 is a legal box, but boundary-zeros' table of 2 x (2^24 + 1) entries is
    # refused.  Its sites are range(N + 1), counted by len() before any array is made;
    # as an np.arange they peaked at 128 MiB, and 256 MiB with their int64 copy
    from polymerqm.verify import run_suite

    run_suite("box", n_box=8)  # warm up
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^table of 2 x 16777217 entries is over"):
            run_suite("box", n_box=2**24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# momentum kernel
# ---------------------------------------------------------------------------

def test_momentum_phase_trivial_cases():
    assert momentum_kernel_phase(0.7, 0.0, P1) == 1.0
    assert momentum_kernel_phase(0.0, 5.0, P1) == 1.0


def test_momentum_phase_outside_interval():
    edge = P1.brillouin_edge
    with pytest.raises(ValueError):
        momentum_kernel_phase(edge, 1.0, P1)
    with pytest.raises(ValueError):
        momentum_kernel_phase(-1.01 * edge, 1.0, P1)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 1e308])
def test_momentum_phase_rejects_non_finite_dt(dt):
    # was nan+nanj
    with pytest.raises(ValueError, match="dt must be finite"):
        momentum_kernel_phase(0.1, dt, P1)


def test_band_routes_array_equal_scalar_calls():
    # dispersion_energy and momentum_kernel_phase take arrays; each entry
    # is the scalar call's value, and a scalar call gives a Python number
    edge = P1.brillouin_edge
    p = np.linspace(-0.999, 0.999, 41).reshape(1, 41) * edge
    energies = dispersion_energy(P1, p)
    phases = momentum_kernel_phase(p, 2.3, P1)
    assert energies.shape == phases.shape == p.shape
    assert _same_bits(energies[0], np.array([dispersion_energy(P1, float(x))
                                             for x in p[0]]))
    assert _same_bits(phases[0], np.array([momentum_kernel_phase(float(x), 2.3, P1)
                                           for x in p[0]]))
    assert type(dispersion_energy(P1, 0.3)) is float
    assert type(momentum_kernel_phase(0.3, 2.3, P1)) is complex
    with pytest.raises(ValueError, match="finite"):
        dispersion_energy(P1, np.append(p[0], math.nan))
    for bad in (edge, -edge, 1.5 * edge, math.nan, math.inf):
        with pytest.raises(ValueError, match="outside the open interval"):
            momentum_kernel_phase(np.append(p[0], bad), 2.3, P1)


def test_momentum_route_equals_position_route():
    rng = np.random.default_rng(414)
    kernel = PropagatorKernel.free(P1)
    for _ in range(3):
        lat = Lattice(P1, -40, 40)
        psi = gaussian_packet(lat, float(rng.uniform(-2, 2)),
                              float(rng.uniform(2, 4)),
                              float(rng.uniform(-1, 1)))
        dt = 2.0
        pad = truncation_window(dt)
        out = evolve(psi, kernel, dt, (-40 - pad, 40 + pad))
        grid = MomentumGrid(P1, out.lattice.num_sites + 8)
        tilde = to_momentum(psi, grid)
        phases = np.array([momentum_kernel_phase(p, dt, P1)
                           for p in grid.values])
        back = from_momentum(tilde * phases, grid, out.lattice)
        assert np.max(np.abs(back.amplitudes - out.amplitudes)) <= 1e-9


# ---------------------------------------------------------------------------
# Schrodinger reference kernel
# ---------------------------------------------------------------------------

def test_schrodinger_kernel_modulus():
    for dt in (0.3, 1.0, 8.0):
        for dx in (0.0, 0.7, 3.0):
            k = schrodinger_free_kernel(dx, 0.0, dt, P1)
            assert abs(k) ** 2 == pytest.approx(1.0 / (2.0 * math.pi * dt),
                                                rel=1e-13)


def test_schrodinger_kernel_frozen_values():
    same_point = schrodinger_free_kernel(0.0, 0.0, 1.0, P1)
    want = math.sqrt(1.0 / (2.0 * math.pi)) * np.exp(-1j * math.pi / 4.0)
    assert same_point == pytest.approx(want, abs=1e-15)
    shifted = schrodinger_free_kernel(1.0, 0.0, 1.0, P1)
    assert shifted == pytest.approx(want * np.exp(0.5j), abs=1e-15)


def test_schrodinger_kernel_needs_positive_time():
    with pytest.raises(ValueError):
        schrodinger_free_kernel(0.0, 0.0, 0.0, P1)
    with pytest.raises(ValueError):
        schrodinger_free_kernel(0.0, 0.0, -1.0, P1)


@pytest.mark.parametrize("xj,dt", [(1.0, 1e-320), (1e200, 1e-200)],
                         ids=["amplitude", "phase"])
def test_schrodinger_kernel_refuses_a_value_past_the_floats(xj, dt):
    # sqrt(m/(2 pi hbar dt)) or m (xj - xr)^2/(2 hbar dt) past the floats gave nan + nanj
    with pytest.raises(ValueError, match=rf"^Schrodinger kernel is not finite at dt = {dt}, "):
        schrodinger_free_kernel(xj, 0.0, dt, P1)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_composition_free():
    kernel = PropagatorKernel.free(P1)
    for z1, z2 in ((1.0, 1.0), (2.0, 0.5), (10.0, 10.0)):
        for sep in (0, 3, 8):
            dev = composition_check(kernel, 0, sep, 0.0, z2, z1 + z2)
            assert dev <= 1e-9, (z1, z2, sep)


def test_composition_sums_its_paths_one_row_at_a_time():
    # 32 x 32 sites, z = 1000 per leg: S = 4,592 intermediate sites.  The
    # J x R x S product of both legs peaked at 76.3 MiB; one row of j at a
    # time, 6.84 MiB (the legs' tables and one R x S product)
    free, js = PropagatorKernel.free(P1), np.arange(32)
    composition_check(free, js, js, 0.0, 1000.0, 2000.0)  # warm up
    tracemalloc.start()
    try:
        assert composition_check(free, js, js, 0.0, 1000.0, 2000.0) <= 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_composition_box_exact_window():
    for n in (2, 5, 8):
        kernel = PropagatorKernel.box(n, P1)
        for j in range(1, n):
            for r in range(1, n):
                for t1 in (0.5, 1.0, 2.5):
                    assert composition_check(kernel, j, r, 0.0, t1, 3.0) <= 1e-12


def test_composition_periodic_sums_one_period():
    # intermediate sites run over exactly one period 0..2N-1, whatever
    # the grid: endpoints outside it are the same sites of the circle
    kernel = PropagatorKernel.periodic(4, P1)
    assert composition_check(kernel, 1, 6, 0.0, 0.4, 2.0) <= 1e-12
    js, rs = np.array([-11, -3, 0, 9, 20]), np.array([-5, 0, 7, 13, 100])
    assert composition_check(kernel, js, rs, 0.0, 0.4, 2.0) <= 1e-12


def test_composition_degenerate_split():
    kernel = PropagatorKernel.free(P1)
    assert composition_check(kernel, 1, 3, 0.0, 0.0, 2.0) <= 1e-12


def test_composition_ordering_enforced():
    kernel = PropagatorKernel.free(P1)
    with pytest.raises(ValueError):
        composition_check(kernel, 0, 0, 0.0, 2.0, 1.0)


@pytest.mark.parametrize("kernel", [PropagatorKernel.free(P1), PropagatorKernel.box(6, P1),
                                    PropagatorKernel.periodic(4, P1)],
                         ids=["free", "box", "periodic"])
def test_composition_over_several_times_is_the_worst_single_call(kernel):
    # one direct term for every t1; each t1 keeps its own intermediate sites
    js, rs, t1s = [1, 2, 5], [1, 3], [0.0, 0.4, 1.1, 2.2, 3.0]
    for times in (t1s, np.array(t1s[1:3]), [1.1]):
        single = [composition_check(kernel, js, rs, 0.0, t1, 3.0) for t1 in times]
        assert composition_check(kernel, js, rs, 0.0, times, 3.0) == max(single)


def test_composition_fails_on_a_nan_leg_at_any_time(monkeypatch):
    # both legs of the second t1 run for dt = 1 (z = 1): its NaN deviation came second to
    # the first t1's in the builtin max, which returned 1.6e-16 here
    from polymerqm import checks
    from polymerqm.propagators import _kernel_rows

    def nan_at_one(plan):
        read = _kernel_rows(plan)
        return lambda j, r: read(j, r) * (math.nan if plan.z == 1.0 else 1.0)

    monkeypatch.setattr(checks, "_kernel_rows", nan_at_one)
    assert math.isnan(composition_check(FREE, [0, 2], range(0, 4), 0.0, [0.5, 1.0, 1.5], 2.0))


@pytest.mark.parametrize("kernel", [FREE, PropagatorKernel.box(4, P1),
                                    PropagatorKernel.periodic(4, P1)], ids=lambda k: k.system)
def test_composition_refuses_in_one_order_for_every_system(kernel):
    # every leg is planned in the door's reader, so a z out of range is refused before the
    # grid is counted; box and periodic planned their legs after the direct term, and
    # refused the 2^13 x (2^12 + 1) grid first
    js, rs = np.arange(2**13) % 5, np.arange(2**12 + 1) % 5
    with pytest.raises(ValueError, match=r"^z = 1e\+30 is out of range"):
        composition_check(kernel, js, rs, 0.0, 1e30, 2e30)
    with pytest.raises(ValueError, match="^table of 8192 x 4097 entries is over the limit"):
        composition_check(kernel, js, rs, 0.0, 0.5, 1.0)


@pytest.mark.parametrize("t1,named", [
    ([], "t1 must be one time or a nonempty 1-d sequence, got []"),
    ([[0.5]], "t1 must be one time or a nonempty 1-d sequence, got [[0.5]]"),
    ([0.5, 2.0], "need t0 <= t1 <= t, got 0.0, 2.0, 1.0"),
], ids=["empty", "2-d", "one late"])
def test_composition_times_are_refused(t1, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        composition_check(PropagatorKernel.free(P1), 0, 0, 0.0, t1, 1.0)


# ---------------------------------------------------------------------------
# Green's function residual
# ---------------------------------------------------------------------------

def test_greens_residual_free():
    kernel = PropagatorKernel.free(P1)
    res = greens_residual(kernel, range(-8, 9), range(-8, 9),
                          [0.5, 1.0, 5.0, 20.0])
    assert type(res) is float and res <= 1e-9


def test_greens_residual_free_far_orders_from_small_table():
    # dk/dt reads orders up to W + 1 and exact 0 beyond, so |j - r| = 1e6
    # costs no table of 1e6 orders (16 MB)
    kernel = PropagatorKernel.free(P1)
    assert greens_residual(kernel, range(-60, 61), [0],
                           [0.5, 5.0]) <= 1e-9  # across W + 1
    greens_residual(kernel, [0], [1], [1.0])  # warm up, so the trace sees one call
    tracemalloc.start()
    try:
        res = greens_residual(kernel, [0], [10**6], [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == 0.0
    assert peak < 2**20


def test_greens_residual_free_is_finite_at_far_orders_and_tiny_times():
    # dk/dt takes n k_n / z: (n / z) k_n is inf x 0 = NaN at |j - r| = 10^6 and z = 1e-303
    kernel = PropagatorKernel.free(P1)
    with np.errstate(over="raise", invalid="raise"):
        assert greens_residual(kernel, [0, 1], [10**6], [1e-303]) == 0.0
        assert greens_residual(kernel, range(-3, 4), range(-3, 4), [1e-303]) <= 1e-15


def test_greens_residual_is_nan_where_it_cannot_be_evaluated(monkeypatch):
    # at a subnormal z the derivative's complex division by z overflows to NaN in
    # every entry, and the builtin max returned 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(greens_residual(FREE, range(-3, 4), range(-3, 4), [1e-310]))
    # a NaN table at the later of two times, which the builtin max dropped
    from polymerqm import checks
    from polymerqm.propagators import _engine

    def nan_late(kernel, dt, rows, cols):
        read = _engine(kernel, dt, rows, cols)
        return lambda j, r: read(j, r) * (math.nan if dt > 0.9 else 1.0)

    monkeypatch.setattr(checks, "_engine", nan_late)
    assert math.isnan(greens_residual_fd(FREE, range(-4, 5), range(-4, 5), [0.5, 1.0]))


def test_greens_residual_box():
    kernel = PropagatorKernel.box(6, P1)
    res = greens_residual(kernel, range(1, 6), range(0, 7),
                          [0.5, 1.0, 5.0, 20.0])
    assert type(res) is float and res <= 1e-10


def test_greens_residual_wall_source_is_zero():
    # r on a wall makes the kernel vanish identically, and so the residual
    kernel = PropagatorKernel.box(6, P1)
    assert greens_residual(kernel, range(1, 6), [0], [0.5, 2.0]) == 0.0


def test_greens_residual_fd_cross_check():
    free = PropagatorKernel.free(P1)
    res = greens_residual_fd(free, range(-4, 5), range(-4, 5),
                             [0.5, 1.0, 5.0], step=1e-6)
    assert type(res) is float and res <= 1e-5
    box = PropagatorKernel.box(6, P1)
    res = greens_residual_fd(box, range(1, 6), range(1, 6), [0.5, 1.0],
                             step=1e-6)
    assert type(res) is float and res <= 1e-5


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf])
def test_greens_residual_fd_refuses_a_step_that_is_not_finite_and_positive(step):
    # step 0 returned nan after a divide-by-zero warning; -1e-6 was taken, though the
    # time grid's check min_dt = step assumes h > 0
    with pytest.raises(ValueError, match=rf"^step must be finite and > 0, got {step}$"):
        greens_residual_fd(PropagatorKernel.box(6, P1), [1], [1], [1.0], step=step)


@pytest.mark.parametrize("mu0", [1e-3, 0.05, 1.0, 1e3])
def test_greens_residual_fd_default_step_is_in_z(mu0):
    # the default step is 1e-6 in z, 1e-6 * (mu0^2 m / hbar) in dt, the step verify passes.
    # It was 1e-6 in dt: on verify's grids mu0 = 1e-3 refused every time (z = 0.5 is
    # dt = 5e-7), mu0 = 0.05 read 6.6e-8 of the energy scale and mu0 = 1e3 read 1.0e-4
    params = PhysicalParams(mu0=mu0)
    scale = mu0**2 * params.mass / params.hbar
    dts = [z * scale for z in (0.5, 1.0, 5.0)]
    for kernel, sites in [(PropagatorKernel.free(params), range(-4, 5)),
                          (PropagatorKernel.box(6, params), range(1, 6))]:
        res = greens_residual_fd(kernel, sites, sites, dts)
        assert res.hex() == greens_residual_fd(kernel, sites, sites, dts, step=1e-6 * scale).hex()
        assert res <= 1e-9 * params.energy_scale  # 1.2e-10 free, 2.2e-10 box at every mu0
        if mu0 == 1.0:
            assert res.hex() == greens_residual_fd(kernel, sites, sites, dts, step=1e-6).hex()


def test_both_free_residuals_refuse_a_random_bessel_table(monkeypatch):
    # the analytic residual reads the kernel's own values, so on verify's free grids
    # seeded random numbers in place of every table fail it and the finite difference;
    # the equation is linear, so a uniformly rescaled table passes both
    from polymerqm import propagators

    def noise(z, max_order):
        return np.array([random.Random(n).uniform(-1.0, 1.0) for n in range(max_order + 1)])

    free, sites, fd_sites = PropagatorKernel.free(P1), range(-8, 9), range(-4, 5)
    monkeypatch.setattr(propagators, "bessel_table", noise)
    assert greens_residual(free, sites, sites, [0.5, 1.0, 5.0, 20.0]) > 1e-9
    assert greens_residual_fd(free, fd_sites, fd_sites, [0.5, 1.0, 5.0], step=1e-6) > 1e-5
    monkeypatch.setattr(propagators, "bessel_table", lambda z, n: 2.0 * bessel_table(z, n))
    assert greens_residual(free, sites, sites, [0.5, 1.0, 5.0, 20.0]) <= 1e-9
    assert greens_residual_fd(free, fd_sites, fd_sites, [0.5, 1.0, 5.0], step=1e-6) <= 1e-5


@pytest.mark.parametrize("kernel,js,rs", [
    (PropagatorKernel.free(P1), range(0, 4), range(-6, -1)),
    (PropagatorKernel.box(6, P1), range(1, 3), range(0, 7)),
], ids=["free", "box"])
def test_greens_residual_fd_matches_entrywise_loop(kernel, js, rs):
    # the array routine against a loop over the scalar kernels; a coarse
    # step makes the residual a smooth truncation error, not rounding
    step, dts = 0.05, [0.5, 1.7]
    c_kin = 0.5 * P1.energy_scale
    worst = 0.0
    for dt in dts:
        for j in js:
            for r in rs:
                dk = (kernel(j, r, dt + step) - kernel(j, r, dt - step)) / (2 * step)
                hk = c_kin * (2.0 * kernel(j, r, dt) - kernel(j + 1, r, dt)
                              - kernel(j - 1, r, dt))
                worst = max(worst, abs(1j * P1.hbar * dk - hk))
    res = greens_residual_fd(kernel, js, rs, dts, step=step)
    assert res == pytest.approx(worst, rel=1e-10)


def test_greens_residual_time_grid_validation():
    kernel = PropagatorKernel.free(P1)
    with pytest.raises(ValueError):
        greens_residual(kernel, [0], [0], [1.0, 0.0])
    with pytest.raises(ValueError):
        greens_residual(kernel, [0], [0], [])
    with pytest.raises(ValueError):
        greens_residual(PropagatorKernel.box(4, P1), [0], [1], [1.0])
    with pytest.raises(ValueError, match="^analytic residual not defined for system 'periodic'$"):
        greens_residual(PropagatorKernel.periodic(4, P1), [0], [1], [1.0])
    # sites are an integer or a 1-d index list; a 2-d one ended in numpy's
    # "operands could not be broadcast together"
    grid = [[0, 1], [2, 3]]
    for call, name in [
            (lambda: composition_check(kernel, grid, [0, 1, 2], 0.0, 0.5, 1.0), "j_values"),
            (lambda: greens_residual(kernel, grid, [0, 1], [1.0]), "j_values"),
            (lambda: greens_residual_fd(kernel, grid, [0, 1], [1.0]), "j_values"),
            (lambda: composition_check(kernel, [0], grid, 0.0, 0.5, 1.0), "r_values")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer or a 1-d index "
                                             "list, not 2-d$"):
            call()


# ---------------------------------------------------------------------------
# continuum limits
# ---------------------------------------------------------------------------

def test_continuum_sweep_monotone():
    points = continuum_sweep(1.0, 1.0, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    errors = [p.abs_error for p in points]
    assert all(errors[i] > errors[i + 1] for i in range(3))
    assert [p.sites for p in points] == [8, 16, 32, 64]
    assert [p.z for p in points] == [64.0, 256.0, 1024.0, 4096.0]


def test_continuum_sweep_deep_time_regime():
    # at fixed spacing the error decays with dt through the kernel modulus
    errs = [continuum_sweep(1.0, dt, [1 / 8])[0].abs_error
            for dt in (1.0, 10.0, 100.0)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("dx,dt,named", [
    (math.inf, 1.0, "^dx must be finite, got inf$"),
    (1e308, 1.0, r"^dx / mu0 = 1e\+308 / 0\.5 is not finite$"),
    (math.nan, 1.0, "^dx must be finite, got nan$"),
    (1.0, math.inf, "^dt must be finite, got inf$"),
    (1.0, 1e-320, "^Schrodinger kernel is not finite at dt = 1e-320, "),
], ids=["dx inf", "dx / mu0 inf", "dx nan", "dt inf", "kernel inf"])
def test_continuum_sweep_refuses_inputs_past_the_floats(dx, dt, named):
    # round(dx / mu0) raised OverflowError at inf and a bare "cannot convert float NaN to
    # integer" at nan; dt = 1e-320 returned abs_error nan
    with pytest.raises(ValueError, match=named):
        continuum_sweep(dx, dt, [1 / 2, 1 / 4])


def test_continuum_sweep_rejects_non_divisor():
    with pytest.raises(ValueError):
        continuum_sweep(1.0, 1.0, [0.3])
    for dx, dt in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="^need dx > 0 and dt > 0$"):
            continuum_sweep(dx, dt, [0.5])


def test_box_packet_smeared_continuum():
    # distributional box limit: a smooth packet evolved on finer and finer
    # lattices approaches the continuum image-sum evolution
    length = 8.0
    packet = lambda y: np.exp(-(y - 3.0) ** 2 / (4 * 0.5**2) + 1.2j * y)
    errors = []
    for n in (16, 32, 64):
        mu0 = length / n
        params = PhysicalParams(mu0=mu0)
        lat = Lattice(params, 0, n)
        amps = packet(lat.positions).astype(complex)
        amps[0] = 0.0
        amps[-1] = 0.0
        psi = LatticeWavefunction(lat, amps * math.sqrt(mu0))
        out = evolve(psi, PropagatorKernel.box(n, params), 0.8)
        ref = schrodinger_box_gaussian(lat.positions, 0.8, length, 3.0, 0.5, 1.2, params)
        errors.append(float(np.max(np.abs(out.amplitudes / math.sqrt(mu0) - ref))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 8.0


@pytest.mark.parametrize("dt", [0.0, 0.8, 5.0, 40.0, -3.0])
def test_schrodinger_box_gaussian_is_the_fft_evolution_of_its_odd_image(dt):
    # the reference at dt = 0, extended oddly onto the circle [0, 2L), evolved
    # exactly by e^{-i hbar k^2 t/2m} per Fourier mode: measured <= 9.6e-15
    # (dt = 40, 275 images), against the 1.8e-5 of the retired mode series
    length = 8.0
    x = 2 * length * np.arange(2**11) / 2**11
    inside, outside = x[x <= length], 2 * length - x[x > length]
    gauss = lambda y, t: schrodinger_box_gaussian(y, t, length, 3.0, 0.5, 1.2, P1)
    start = np.concatenate([gauss(inside, 0.0), -gauss(outside, 0.0)])
    k = 2 * math.pi * np.fft.fftfreq(x.size, x[1])
    moved = np.fft.ifft(np.exp(-0.5j * k**2 * dt) * np.fft.fft(start))[:inside.size]
    assert np.max(np.abs(moved - gauss(inside, dt))) <= 1e-13


def test_schrodinger_box_gaussian_walls_and_its_free_limit():
    # wall at 0 exactly 0; far from both walls at dt = 0, the packet itself
    length = 40.0
    x = np.linspace(0.0, length, 401)
    got = schrodinger_box_gaussian(x, 0.0, length, 20.0, 0.7, -0.9, P1)
    assert got[0] == 0.0
    want = np.exp(-(x - 20.0) ** 2 / (4 * 0.7**2) - 0.9j * x)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert schrodinger_box_gaussian(4.0, 0.8, 8.0, 3.0, 0.5, 1.2, P1).shape == ()


@pytest.mark.parametrize("dt", [0.0, 0.8, 40.0])
def test_schrodinger_box_gaussian_one_more_image_changes_no_bit(dt):
    # the point 0.25 stops one image before the grid 0, 0.125, ..., 8 does (two
    # at dt = 0): the images it does not take add exactly 0 to it
    x = np.linspace(0.0, 8.0, 65)
    alone = schrodinger_box_gaussian([0.25], dt, 8.0, 3.0, 0.5, 1.2, P1)
    grid = schrodinger_box_gaussian(x, dt, 8.0, 3.0, 0.5, 1.2, P1)
    assert alone.tobytes() == grid[2:3].tobytes() and alone[0] != 0.0


@pytest.mark.parametrize("dt", [math.nan, math.inf, 1e308])
def test_schrodinger_box_gaussian_rejects_non_finite_dt(dt):
    # dt = 1e308 overflows hbar dt/(2 m sigma^2); the mode series returned NaN for nan
    with pytest.raises(ValueError, match="^dt must be finite"):
        schrodinger_box_gaussian([1.0, 4.0], dt, 8.0, 3.0, 0.5, 1.2, P1)


@pytest.mark.parametrize("name, bad, message", [
    ("center", math.nan, "center must be finite, got nan"),
    ("center", -math.inf, "center must be finite, got -inf"),
    ("momentum", math.nan, "momentum must be finite, got nan"),
    ("sigma", math.inf, "sigma must be finite, got inf"),
    ("sigma", 0.0, "sigma must be > 0, got 0.0"),
    ("sigma", -0.5, "sigma must be > 0, got -0.5"),
    ("x_eval", [8.5], "points must lie in the box [0, 8.0]"),
    ("x_eval", [math.nan], "points must lie in the box [0, 8.0]"),
])
def test_schrodinger_box_gaussian_names_a_bad_input(name, bad, message):
    # a NaN packet ran the mode series to its 8,192-mode cap and returned NaN
    inputs = dict(x_eval=[1.0, 4.0], dt=0.8, length=8.0, center=3.0, sigma=0.5, momentum=1.2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        schrodinger_box_gaussian(**{**inputs, name: bad}, params=P1)


def test_schrodinger_box_gaussian_refuses_an_image_index_past_the_floats():
    # (x0 + p dt/m)/L = 1e310 made round() raise an OverflowError
    with pytest.raises(ValueError, match=r"^dt must be finite, as must .* \(x0 \+ p dt/m\)/L"):
        schrodinger_box_gaussian([0.0], 0.5, 1e-10, 1e300, 1e-150, 0.0, P1)


def test_schrodinger_box_gaussian_refuses_images_over_the_limit():
    # dt = 1e7 spreads the packet over about 6.9e7 images of 2 points and their
    # mirrors; refused before any image is made, not run for hours
    x = np.array([1.0, 4.0])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^2.75e\+08 image terms is over the limit "
                                             rf"{bessel._MAX_SIZE}$"):
            schrodinger_box_gaussian(x, 1e7, 8.0, 3.0, 0.5, 1.2, P1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("length", [0.0, -8.0, math.inf, math.nan])
def test_box_length_must_be_finite_and_positive(length):
    # length 0 gave nonsense coefficients and NaN evolution, -8 garbage, inf zeros
    with pytest.raises(ValueError, match="box length must be finite and > 0"):
        schrodinger_box_gaussian([0.0], 0.8, length, 3.0, 0.5, 1.2, P1)


_BOX_SIZE_ROUTES = {
    "apply_hamiltonian": lambda n: apply_hamiltonian(
        LatticeWavefunction(Lattice(P1, 1, 1), np.ones(1)), PropagatorKernel.box(n, P1)),
    "box_spectrum": lambda n: box_spectrum(n, P1),
    "box_spectral_sum": lambda n: spectral_sum(PropagatorKernel.box(n, P1), 1, 1, 0.5),
    "image_sums": lambda n: (image_sum(PropagatorKernel.periodic(n, P1), 1, 1, 0.5),
                             image_sum(PropagatorKernel.box(n, P1), 1, 1, 0.5)),
    "PropagatorKernel": lambda n: (PropagatorKernel.box(n, P1),
                                   PropagatorKernel.periodic(n, P1)),
}


@pytest.mark.parametrize("route", sorted(_BOX_SIZE_ROUTES))
@pytest.mark.parametrize("n", [2.5, 4.0, 1, True, 2**24 + 1])
def test_box_size_is_an_integer_of_at_least_two(route, n):
    # no silent truncation: 2.5 is not box(2), 4.0 is not box(4); and the
    # circle of 2N sites stays within the size limit, refused before allocating
    limit = bessel._MAX_SIZE
    match = (f"^system size N = {n} has 2N over the limit {limit}$" if n == 2**24 + 1
             else "integer >= 2")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            _BOX_SIZE_ROUTES[route](n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    _BOX_SIZE_ROUTES[route](np.int64(4))
    assert type(PropagatorKernel.box(np.int64(4), P1).n) is int
    assert PropagatorKernel.periodic(limit // 2, P1).n == limit // 2


@pytest.mark.parametrize("params", ["x", None, {"hbar": 1.0}])
def test_kernel_refuses_params_that_are_not_physical_params(params):
    # a plan carries its kernel: "x" and None were taken, and the first read failed with
    # "AttributeError: 'str' object has no attribute 'hbar'"
    for make in (lambda: PropagatorKernel("free", params), lambda: PropagatorKernel.free(params),
                 lambda: PropagatorKernel.box(4, params)):
        with pytest.raises(ValueError, match=re.escape(
                f"params must be a PhysicalParams, got {params!r}")):
            make()


def test_kernel_selector_validation():
    with pytest.raises(ValueError):
        PropagatorKernel("warp", P1)
    with pytest.raises(ValueError):
        PropagatorKernel.box(1, P1)
    with pytest.raises(ValueError):
        PropagatorKernel.periodic(1, P1)
    with pytest.raises(ValueError):
        PropagatorKernel("free", P1, n=4)
    with pytest.raises(ValueError):
        PropagatorKernel("box-images", P1, n=4)  # a CLI alias, not a system
    assert [f.name for f in dataclasses.fields(PropagatorKernel)] == \
        ["system", "params", "n"]
