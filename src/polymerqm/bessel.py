"""Integer-order Bessel functions of the first kind, J_n(z).

Self-contained evaluation by Miller's downward recurrence with the
J_0 + 2*sum(J_2k) = 1 normalization (Abramowitz & Stegun 9.1.46,
9.12). Everything downstream (propagator kernels, image sums,
Jacobi-Anger resummations) funnels through `bessel_table`, so this
module carries the accuracy budget for the whole library: absolute
error <= 1e-13 for z <= 1e6 and orders within the truncation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Rescale guard for the unnormalized downward pass.  The recurrence
# grows from the seed toward low orders; for tiny z the total growth
# can exceed the float64 range, so the pass renormalizes whenever the
# running values pass this threshold.
_RESCALE_THRESHOLD = 1e250
_RESCALE_FACTOR = 1e-250

# Below this argument the leading series term is exact to double
# precision and the 2n/z factor in the recurrence is ill-conditioned.
_SMALL_Z = 1e-8


def truncation_window(z: float) -> int:
    """Smallest order beyond which J_n(z) is negligible at double precision.

    J_n(z) decays super-exponentially once n exceeds the turning point
    n ~ z; the z**(1/3) term covers the Airy transition region and the
    constant covers small arguments.
    """
    z = abs(float(z))
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 20.0)


@dataclass(frozen=True, eq=False)
class BesselTable:
    """Values [J_0(z), J_1(z), ..., J_max_order(z)] for one fixed z >= 0."""

    z: float
    max_order: int
    values: np.ndarray = field(repr=False)

    def order(self, n: int) -> float:
        """J_n(z) for any integer n, using J_{-n}(z) = (-1)^n J_n(z)."""
        m = abs(int(n))
        if m > self.max_order:
            raise ValueError(f"order {n} outside table (max {self.max_order})")
        v = float(self.values[m])
        if n < 0 and m % 2 == 1:
            return -v
        return v


def _validate_argument(z: float) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"Bessel argument must be finite, got {z}")
    if z < 0.0:
        raise ValueError(
            f"Bessel argument must be >= 0, got {z}; "
            "use J_n(-z) = (-1)^n J_n(z) on the caller side"
        )
    return z


def _leading_series_values(z: float, max_order: int) -> np.ndarray:
    # (z/2)^n / n!; underflows to zero for large n, which is correct here.
    out = np.zeros(max_order + 1)
    term = 1.0
    out[0] = 1.0
    for n in range(1, max_order + 1):
        term *= 0.5 * z / n
        out[n] = term
        if term == 0.0:
            break
    return out


def bessel_table(z: float, max_order: int) -> BesselTable:
    """Evaluate J_0(z) ... J_max_order(z) in one downward-recurrence pass.

    The recurrence J_{n-1} = (2n/z) J_n - J_{n+1} is started from
    seed values (1, 0) well above the truncation window, where the
    true J_n are negligible, and the result is normalized with
    J_0(z) + 2*sum_k J_{2k}(z) = 1.  Upward recurrence is unstable for
    n > z, which is why the pass runs downward.
    """
    z = _validate_argument(z)
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    if z == 0.0:
        values = np.zeros(max_order + 1)
        values[0] = 1.0
        return BesselTable(z=z, max_order=max_order, values=values)
    if z < _SMALL_Z:
        return BesselTable(z=z, max_order=max_order,
                           values=_leading_series_values(z, max_order))

    n_start = max(truncation_window(z), max_order) + 15
    work = np.zeros(n_start + 2)
    work[n_start] = 1.0  # arbitrary seed scale; fixed by normalization
    j_hi = 0.0
    j_lo = 1.0
    for n in range(n_start, 0, -1):
        j_prev = (2.0 * n / z) * j_lo - j_hi
        j_hi = j_lo
        j_lo = j_prev
        work[n - 1] = j_prev
        if abs(j_prev) > _RESCALE_THRESHOLD:
            j_hi *= _RESCALE_FACTOR
            j_lo *= _RESCALE_FACTOR
            work[n - 1:] *= _RESCALE_FACTOR

    # J_0 + 2*(J_2 + J_4 + ...) = 1; pairwise np.sum keeps the
    # normalization deterministic and accurate for long tables.
    norm = work[0] + 2.0 * np.sum(work[2:n_start + 1:2])
    values = work[:max_order + 1] / norm
    return BesselTable(z=z, max_order=max_order, values=values)


def bessel_jn(n: int, z: float) -> float:
    """J_n(z) for integer n (any sign) and real z >= 0."""
    n = int(n)
    return bessel_table(z, abs(n)).order(n)


_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def unit_imaginary_power(m):
    """i**m, exact via m mod 4: a complex for an integer, an array for an array."""
    if np.ndim(m) == 0:
        return complex(_I_POWERS[int(m) % 4])
    return _I_POWERS[np.asarray(m, dtype=np.int64) % 4]


def jacobi_anger(z: float, phi: float, window: int) -> complex:
    """Truncated Jacobi-Anger sum: sum_{n=-window}^{window} i^n J_n(z) e^{i n phi}.

    For window >= truncation_window(z) this reproduces e^{iz cos(phi)}
    to better than 1e-10.
    """
    window = int(window)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    z = float(z)
    phi = float(phi)
    if not (math.isfinite(z) and math.isfinite(phi)):
        raise ValueError("jacobi_anger arguments must be finite")

    # J_n(-z) = (-1)^n J_n(z) is equivalent to shifting phi by pi.
    if z < 0.0:
        z, phi = -z, phi + math.pi

    table = bessel_table(z, window)
    if window == 0:
        return complex(table.values[0])
    # n and -n terms pair up to 2 i^n J_n(z) cos(n phi).
    n = np.arange(1, window + 1)
    terms = 2.0 * unit_imaginary_power(n) * table.values[1:] * np.cos(n * phi)
    return complex(table.values[0] + np.sum(terms))
