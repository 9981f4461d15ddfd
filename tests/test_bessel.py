import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymerqm.bessel import (
    bessel_jn,
    bessel_table,
    jacobi_anger,
    truncation_window,
    unit_imaginary_power,
)
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
        assert np.all(np.isfinite(table.values))
        assert np.all(np.abs(table.values) <= 1.0)
        for n in (0, 1, 5, min(20, table.max_order)):
            assert table.values[n] == pytest.approx(bessel_jn(n, z), abs=1e-13)


def test_table_trivial_at_zero():
    table = bessel_table(0.0, 4)
    assert list(table.values) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_normalization_identity():
    for z in (1.0, 10.0, 400.0):
        table = bessel_table(z, truncation_window(z))
        total = table.values[0] + 2.0 * np.sum(table.values[2::2])
        assert total == pytest.approx(1.0, abs=1e-13)


def test_sum_of_squares_is_unitarity():
    for z in (0.5, 1.0, 10.0, 100.0):
        table = bessel_table(z, truncation_window(z))
        total = table.values[0] ** 2 + 2.0 * np.sum(table.values[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_three_term_recurrence():
    for z in (0.5, 1.0, 5.0, 20.0, 100.0):
        table = bessel_table(z, truncation_window(z) + 1)
        for n in range(1, truncation_window(z) // 2 + 1):
            resid = table.values[n - 1] + table.values[n + 1] \
                - (2.0 * n / z) * table.values[n]
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
        assert np.all(np.isfinite(table.values))
        for n in (0, 1, 3):
            assert table.values[n] == pytest.approx(
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
    rng = np.random.default_rng(20240214)
    for _ in range(20):
        z = float(rng.uniform(0.0, 20.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        val = jacobi_anger(z, phi, truncation_window(z))
        assert abs(val - np.exp(1j * z * math.cos(phi))) <= 1e-10


def test_jacobi_anger_negative_argument():
    val = jacobi_anger(-3.0, 0.9, truncation_window(3.0))
    assert val == pytest.approx(np.exp(-3j * math.cos(0.9)), abs=1e-10)


@given(n=st.integers(min_value=0, max_value=30),
       z=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_property_parity_and_bounds(n, z):
    table = bessel_table(z, n)
    value = table.order(n)
    assert abs(value) <= 1.0 + 1e-14
    assert table.order(-n) == (-1.0) ** n * value


@given(z=st.floats(min_value=0.1, max_value=200.0))
@settings(max_examples=40, deadline=None)
def test_property_recurrence(z):
    table = bessel_table(z, truncation_window(z) + 1)
    for n in (1, 2, max(3, int(z) // 2)):
        resid = table.values[n - 1] + table.values[n + 1] \
            - (2.0 * n / z) * table.values[n]
        assert abs(resid) <= 1e-10


def test_cross_check_against_scipy():
    special = pytest.importorskip("scipy.special")
    for z in (0.5, 3.0, 40.0, 1234.5, 1.0e6):
        table = bessel_table(z, min(truncation_window(z), 64))
        for n in (0, 1, 7, 30, 64):
            if n <= table.max_order:
                assert table.values[n] == pytest.approx(
                    float(special.jv(n, z)), abs=5e-13), (n, z)
