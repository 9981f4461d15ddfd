import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm import bessel
from polymerqm.bessel import (
    bessel_jn,
    bessel_table,
    jacobi_anger,
    truncation_window,
    unit_imaginary_power,
)
from polymerqm.checks import greens_residual_fd
from polymerqm.propagators import PropagatorKernel
from polymerqm.verify import bessel_series_reference

# frozen against the exact-rational series oracle
FROZEN = {
    (0, 1.0): 0.7651976865579666,
    (1, 1.0): 0.44005058574493352,
    (2, 1.0): 0.11490348493190048,
    (2, 1.5): 0.23208767214421473,
    (3, 0.5): 0.0025637299945872441,
    (0, 12.0): 0.047689310796833537,
    (12, 12.0): 0.19528018273883224,
    (7, 20.25): -0.17689574471460835,
}


def test_oracle_reproduces_frozen_values():
    # guards the oracle itself before it is used as a reference
    for (n, z), want in FROZEN.items():
        assert bessel_series_reference(n, z) == pytest.approx(want, abs=1e-15)


def test_frozen_values():
    for (n, z), want in FROZEN.items():
        assert bessel_jn(n, z) == pytest.approx(want, abs=1e-13)


def test_zero_argument_is_kronecker():
    assert bessel_jn(0, 0.0) == 1.0
    for n in range(1, 40):
        assert bessel_jn(n, 0.0) == 0.0


def test_negative_order_parity():
    assert bessel_jn(-2, 1.5) == bessel_jn(2, 1.5)
    assert bessel_jn(-3, 1.5) == -bessel_jn(3, 1.5)


def test_series_oracle_grid():
    for n in range(0, 13):
        for z in (0.0, 0.25, 1.0, 2.5, 4.0, 7.7, 10.0, 12.0):
            assert bessel_jn(n, z) == pytest.approx(
                bessel_series_reference(n, z), abs=1e-13), (n, z)


def test_table_matches_pointwise_and_is_bounded():
    for z in (0.3, 1.0, 10.0, 123.4):
        table = bessel_table(z, truncation_window(z))
        assert np.all(np.isfinite(table))
        assert np.all(np.abs(table) <= 1.0)
        for n in (0, 1, 5, min(20, len(table) - 1)):
            assert table[n] == pytest.approx(bessel_jn(n, z), abs=1e-13)


def test_table_trivial_at_zero():
    table = bessel_table(0.0, 4)
    assert list(table) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_normalization_identity():
    for z in (1.0, 10.0, 400.0, 2.5e3, 1e4, 1e5):
        table = bessel_table(z, truncation_window(z))
        total = table[0] + 2.0 * np.sum(table[2::2])
        assert total == pytest.approx(1.0, abs=1e-13)


def test_sum_of_squares_is_unitarity():
    for z in (0.5, 1.0, 10.0, 100.0, 2.5e3, 1e4, 1e5):
        table = bessel_table(z, truncation_window(z))
        total = table[0] ** 2 + 2.0 * np.sum(table[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_three_term_recurrence():
    for z in (0.5, 1.0, 5.0, 20.0, 100.0, 2.5e3, 1e4, 1e5):
        table = bessel_table(z, truncation_window(z) + 1)
        for n in range(1, truncation_window(z) // 2 + 1):
            resid = table[n - 1] + table[n + 1] - (2.0 * n / z) * table[n]
            assert abs(resid) <= 1e-11, (n, z)


def test_derivative_identity():
    h = 1e-5
    for z in (1.0, 3.0, 7.5, 15.0):
        for n in range(0, 9):
            fd = (bessel_jn(n, z + h) - bessel_jn(n, z - h)) / (2.0 * h)
            exact = 0.5 * (bessel_jn(n - 1, z) - bessel_jn(n + 1, z))
            assert fd == pytest.approx(exact, abs=1e-7)


def test_tiny_argument_series_path():
    z = 1e-9
    assert bessel_jn(0, z) == pytest.approx(1.0, abs=1e-15)
    assert bessel_jn(1, z) == pytest.approx(z / 2, rel=1e-12)
    assert bessel_jn(5, z) == pytest.approx((z / 2) ** 5 / 120.0, rel=1e-12)


def test_small_argument_no_overflow():
    # downward recurrence grows enormously for small z; the rescaling
    # guard must keep the pass finite
    for z in (2e-8, 1e-6, 1e-4, 0.01):
        table = bessel_table(z, 40)
        assert np.all(np.isfinite(table))
        for n in (0, 1, 3):
            assert table[n] == pytest.approx(
                bessel_series_reference(n, z), abs=1e-13)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_jn(0, math.nan)
    with pytest.raises(ValueError):
        bessel_jn(0, math.inf)
    with pytest.raises(ValueError):
        bessel_jn(2, -1.0)
    with pytest.raises(ValueError):
        bessel_table(1.0, -1)
    with pytest.raises(ValueError):
        jacobi_anger(1.0, 0.0, -1)
    for z, phi in ((math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="^jacobi_anger arguments must be finite$"):
            jacobi_anger(z, phi, 3)
    # orders and windows are integers, never truncated by int(): 2.5 is not 2
    for name, call in (("max_order", lambda v: bessel_table(1.0, v)),
                       ("n", lambda v: bessel_jn(v, 1.0)),
                       ("window", lambda v: jacobi_anger(1.0, 0.0, v))):
        for bad in (2.5, 2.0, "2", True, None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                call(bad)
        assert np.array_equal(call(np.int64(2)), call(2))


def test_unit_imaginary_power_exact():
    assert unit_imaginary_power(0) == 1
    assert unit_imaginary_power(1) == 1j
    assert unit_imaginary_power(-1) == -1j
    assert unit_imaginary_power(6) == -1
    assert unit_imaginary_power(-7) == 1j
    powers = unit_imaginary_power(np.array([-7, -1, 0, 1, 2, 3, 6, 4 * 10**12 + 1]))
    assert np.array_equal(powers, [1j, -1j, 1, 1j, -1, -1j, -1, 1j])


def test_jacobi_anger_window_zero():
    assert jacobi_anger(0.0, 0.7, 0) == 1.0


def test_jacobi_anger_at_phi_zero():
    assert jacobi_anger(1.0, 0.0, truncation_window(1.0)) == pytest.approx(
        np.exp(1j), abs=1e-10)


def test_jacobi_anger_identity():
    val = jacobi_anger(5.0, math.pi / 3.0, truncation_window(5.0))
    assert val == pytest.approx(np.exp(1j * 2.5), abs=1e-10)


def test_jacobi_anger_seeded_contract():
    # the points of `verify --suite bessel --seed 20240214`, drawn in its order
    rng = random.Random(20240214)
    for _ in range(20):
        z = rng.uniform(0.0, 20.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        val = jacobi_anger(z, phi, truncation_window(z))
        assert abs(val - np.exp(1j * z * math.cos(phi))) <= 1e-10


def test_jacobi_anger_negative_argument():
    val = jacobi_anger(-3.0, 0.9, truncation_window(3.0))
    assert val == pytest.approx(np.exp(-3j * math.cos(0.9)), abs=1e-10)


@given(n=st.integers(min_value=0, max_value=30),
       z=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_property_parity_and_bounds(n, z):
    value = bessel_jn(n, z)
    assert abs(value) <= 1.0 + 1e-14
    assert bessel_jn(-n, z) == (-1.0) ** n * value


@given(z=st.floats(min_value=0.1, max_value=200.0))
@settings(max_examples=40, deadline=None)
def test_property_recurrence(z):
    table = bessel_table(z, truncation_window(z) + 1)
    for n in (1, 2, max(3, int(z) // 2)):
        resid = table[n - 1] + table[n + 1] - (2.0 * n / z) * table[n]
        assert abs(resid) <= 1e-10


def test_cross_check_against_scipy():
    special = pytest.importorskip("scipy.special")
    for z in (0.5, 3.0, 40.0, 1234.5, 1.0e6):
        table = bessel_table(z, min(truncation_window(z), 64))
        for n in (0, 1, 7, 30, 64):
            if n < len(table):
                assert table[n] == pytest.approx(
                    float(special.jv(n, z)), abs=5e-13), (n, z)


def scalar_miller_reference(z, max_order):
    """The downward pass as one plain scalar loop that rescales all of
    work[n-1:] at every trigger, with the library's seed, factors and
    normalization: the reference for the blocked fill and the deferred
    rescale."""
    n_start = max(truncation_window(z), max_order) + 15
    work = np.zeros(n_start + 2)
    work[n_start] = 1.0
    j_hi, j_lo = 0.0, 1.0
    for n in range(n_start, 0, -1):
        j_prev = (2.0 * n / z) * j_lo - j_hi
        j_hi, j_lo = j_lo, j_prev
        work[n - 1] = j_prev
        if abs(j_prev) > bessel._RESCALE_THRESHOLD:
            j_hi *= bessel._RESCALE_FACTOR
            j_lo *= bessel._RESCALE_FACTOR
            work[n - 1:] *= bessel._RESCALE_FACTOR
    norm = work[0] + 2.0 * np.sum(work[2:n_start + 1:2])
    return work[:max_order + 1] / norm


@pytest.mark.parametrize("z, max_order", [
    (2e-8, 40), (1e-4, 3000), (0.01, 100), (1.0, 20000), (1.0, 0),
    (30.0, 5000), (300.0, 300), (2400.0, 2500), (2400.0, 0),
])
def test_scalar_schedule_is_the_plain_loop_bit_for_bit(z, max_order):
    # below the crossover there is no blocked fill, and deferring the
    # rescale factors to the end must not change a single bit
    assert bessel._blocked_schedule(z) == (0, 0)
    assert np.array_equal(bessel_table(z, max_order),
                          scalar_miller_reference(z, max_order))


@pytest.mark.parametrize("z", [2.5e3, 1e4, 1e5, 1e6])
def test_blocked_fill_agrees_with_scalar_schedule(z):
    assert bessel._blocked_schedule(z)[0] > 0
    blocked = bessel_table(z, truncation_window(z))
    scalar = scalar_miller_reference(z, truncation_window(z))
    assert np.max(np.abs(blocked - scalar)) <= 1e-14


_TABLE_ENDS = ("0", "1", "block - 1", "block", "block + 1",
               "n_fill - 1", "n_fill", "n_fill + 1", "W", "W + 100")


@pytest.mark.parametrize("end", _TABLE_ENDS)
@pytest.mark.parametrize("z", [2.5e3, 1e5])
def test_streaming_fill_keeps_the_blocks_a_table_needs(z, end):
    # tables ending at each edge of a block and of the blocked fill: the
    # kept blocks and the orders above the fill line up with the plain loop
    n_fill, block = bessel._blocked_schedule(z)
    window = truncation_window(z)
    max_order = {"0": 0, "1": 1, "block - 1": block - 1, "block": block,
                 "block + 1": block + 1, "n_fill - 1": n_fill - 1, "n_fill": n_fill,
                 "n_fill + 1": n_fill + 1, "W": window, "W + 100": window + 100}[end]
    values = bessel_table(z, max_order)
    assert values.shape == (max_order + 1,)
    reference = scalar_miller_reference(z, max_order)
    assert np.max(np.abs(values - reference)) <= 1e-14


@pytest.mark.parametrize("z, bound", [(1e6, 2**20), (1e7, 2 * 2**20)])
def test_low_orders_at_large_argument_take_little_memory(z, bound):
    # the orders the pass runs through are summed, not stored: a few
    # orders cost O(sqrt(z)) memory, where a z-long work array took 8 MB
    # at z = 1e6 and 81 MB at z = 1e7
    tracemalloc.start()
    try:
        values = bessel_table(z, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (3,)
    assert peak < bound


def test_rescales_above_blocked_fill(monkeypatch):
    # z = 5e3 with 1e5 orders: the pass from order 1e5 grows by ~1e116000,
    # so it rescales hundreds of times before the blocked fill takes over
    calls = []
    real = bessel._apply_rescales

    def spy(work, rescaled_at, lowest):
        calls.append(list(rescaled_at))
        real(work, rescaled_at, lowest)

    monkeypatch.setattr(bessel, "_apply_rescales", spy)
    z, max_order = 5e3, 100_000
    values = bessel_table(z, max_order)
    n_fill, _ = bessel._blocked_schedule(z)
    assert n_fill > 0
    (rescaled_at,) = calls
    assert len(rescaled_at) > 100
    assert min(rescaled_at) >= n_fill
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values) <= 1.0)
    assert np.all(values[20_000:] == 0.0)   # far below the smallest double
    total = values[0] + 2.0 * np.sum(values[2::2])
    assert total == pytest.approx(1.0, abs=1e-13)
    reference = scalar_miller_reference(z, max_order)
    assert np.max(np.abs(values - reference)) <= 1e-14
    window = truncation_window(z)
    assert np.max(np.abs(values[:window + 1]
                         - bessel_table(z, window))) <= 1e-14


@pytest.mark.parametrize("z", [2.5e3, 1e4, 1e5, 1e6])
def test_large_argument_against_mpmath(z):
    # the docstring's accuracy claim; mpmath's series converges in
    # milliseconds for orders well below z/10
    mpmath = pytest.importorskip("mpmath")
    table = bessel_table(z, truncation_window(z))
    with mpmath.workdps(30):
        for n in (0, 1, 17, math.isqrt(int(z))):
            want = float(mpmath.besselj(n, z))
            assert abs(table[n] - want) <= 1e-13, (n, z)


@pytest.mark.parametrize("z", [1e5, 1e6])
def test_free_vector_is_the_circle_step_of_a_delta_at_every_order(z):
    # on a circle of P >= 2W + 64 sites (a power of two) the periodic kernel is the
    # free one at orders |m| <= W + 4, since every image lies more than W sites
    # away; the FFT circle step shares no code with the Miller recurrence, so this
    # covers the orders near z that mpmath's series cannot reach.  Worst entries
    # measured: 2.97e-13 at z = 1e5 and 1.43e-12 at 1e6, 0.013 and 0.006 of z eps
    from polymerqm.propagators import _circle_step, _free_vector

    w = truncation_window(z)
    period = 1 << (2 * w + 63).bit_length()
    delta = np.zeros(period, dtype=complex)
    delta[0] = 1.0
    orders = np.arange(-w - 4, w + 5)
    circle = _circle_step(delta, z)[orders % period]
    assert np.max(np.abs(circle - _free_vector(z, w + 4)(orders))) <= z * np.finfo(float).eps / 20


def test_work_array_limit_admits_every_argument_in_use():
    # the accuracy tests and the benchmark go up to z = 1e6, 30 times
    # below the limit
    assert 30 * (truncation_window(1e6) + 15) < bessel._MAX_SIZE


@pytest.mark.parametrize("case", ["z at the limit", "order at the limit", "z = 1e18"])
def test_table_above_work_limit_raises_before_allocating(case):
    limit = bessel._MAX_SIZE
    z, max_order = {"z at the limit": (float(limit), 2),
                    "order at the limit": (1.0, limit),
                    "z = 1e18": (1e18, 0)}[case]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            bessel_table(z, max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"z = {z!r} " in str(exc.value) and f"limit {limit}" in str(exc.value)
    assert peak < 2**20


@pytest.mark.parametrize("z,count", [(1e300, "1e+300"), (1.7976931348623157e308, "1.8e+308")],
                         ids=["1e300", "largest"])
def test_a_z_out_of_range_is_refused_in_a_short_message(z, count):
    # the count of working orders was printed exactly: 301 digits at z = 1e300
    for call in (lambda: bessel_table(z, 0),
                 lambda: greens_residual_fd(PropagatorKernel.free(), 0, 1, [z], step=z / 10)):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"z = {z!r} is out of range: {count} working orders, above the limit ")) as exc:
            call()
        assert len(str(exc.value)) < 100


def test_an_order_beyond_any_float_is_refused_with_its_count():
    # a count that no float holds keeps every digit, as the order it comes from
    with pytest.raises(ValueError, match=f"^z = 1.0 at order {10**400} is out of range: "
                                         f"{10**400 + 15} working orders"):
        bessel_table(1.0, 10**400)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_truncation_window_refuses_a_z_that_is_not_finite(z):
    # inf raised OverflowError and NaN "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^Bessel argument z must be finite, got {abs(z)}$"):
        truncation_window(z)
