"""Integer-order Bessel functions of the first kind, J_n(z).

Self-contained evaluation by Miller's downward recurrence with the
J_0 + 2*sum(J_2k) = 1 normalization (Abramowitz & Stegun 9.1.46,
9.12). Everything downstream (propagator kernels, image sums,
Jacobi-Anger resummations) funnels through `bessel_table`, so this
module carries the accuracy budget for the whole library.

One recurrence, J_{n-1} = (2n/z) J_n - J_{n+1}, runs on two schedules.
A scalar loop with a rescale guard runs from the seed down to
32 z**(1/3) orders below the turning point n = z; above that point is
the only region where the values grow.  If at least 2048 orders are
left (z >= about 2500), they are filled in blocks of about sqrt(z)
orders: transfer matrices and refill are numpy steps over all blocks
at once, and only the chaining of block start pairs is a Python loop,
so a table of order z costs O(sqrt(z)) Python steps, not O(z).
Smaller tables are the scalar loop bit for bit.

Accuracy as tested (tests/test_bessel.py): absolute error <= 1e-13
against an exact-rational series (z <= 20.25, orders <= 12) and against
30-digit mpmath at z = 2.5e3, 1e4, 1e5, 1e6 for orders 0, 1, 17 and
floor(sqrt(z)), where the measured error is <= 2.2e-16; the blocked
fill agrees with the scalar loop over whole tables to <= 1e-14
(measured <= 7.7e-16 up to z = 1e6); the normalization, sum-of-squares
and three-term-recurrence identities hold over whole tables up to
z = 1e5.  Orders near z, where mpmath's series does not converge, are
covered by those identities only.
"""

from __future__ import annotations

import math

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

# The blocked fill starts this many z**(1/3) orders below the turning
# point n = z.  Closer to it the block transfer matrices have large
# entries and chaining through them amplifies rounding: starting 4
# z**(1/3) below gave 2.6e-15 from the scalar loop at z = 1e6, 32 gives
# 7.7e-16, and starting at the turning point itself breaks the 1e-14
# agreement that tests/test_bessel.py asserts.
_FILL_MARGIN = 32.0
# With fewer orders than this below that point the table stays on the
# scalar loop: measured, the two cost the same at about 2000 orders.
_BLOCKED_MIN_ORDERS = 2048
# Steps of the blocked refill buffered before they are copied into the
# table: 16 cut the copy from 9 ms to 2.7 ms at z = 1e6 with a buffer
# of 128 kB.  At least 3, so that a step never writes a row it reads.
_REFILL_STEPS = 16

# Most orders one Miller working array may hold: 2**25 float64 values,
# 256 MiB, which admits z up to about 3.3e7.  The tests and the benchmark
# go up to z = 1e6, a 33-fold margin; beyond the limit `bessel_table`
# raises before it allocates anything.
_MAX_WORK_ORDERS = 2 ** 25


def truncation_window(z: float) -> int:
    """Smallest order beyond which J_n(z) is negligible at double precision.

    J_n(z) decays super-exponentially once n exceeds the turning point
    n ~ z; the z**(1/3) term covers the Airy transition region and the
    constant covers small arguments.
    """
    z = abs(float(z))
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 20.0)


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


def _blocked_schedule(z: float) -> tuple[int, int]:
    """(n_fill, block): the blocked fill makes orders n_fill-1 ... 0 in
    n_fill // block blocks of `block` orders; (0, 0) means no blocked fill."""
    n_below = math.floor(z - _FILL_MARGIN * z ** (1.0 / 3.0))
    if n_below < _BLOCKED_MIN_ORDERS:
        return 0, 0
    block = math.isqrt(n_below)
    return block * (n_below // block), block


def _apply_rescales(work: np.ndarray, rescaled_at: list[int]) -> None:
    """Scale `work` as if every rescale had multiplied all of work[p:].

    rescaled_at holds the trigger positions p of the downward pass, which
    decrease.  Each value gets one factor per trigger at or below it, one
    multiplication at a time as the pass would have done.  Once the part
    still owed factors is exactly zero, further factors change nothing.
    No value exceeds the threshold by more than a factor 1 + 2n/z,
    so for any 2n/z below 1e170 three factors take every value to exactly
    0: the loop stops after about four passes over the table.
    """
    for p in reversed(rescaled_at):
        owed = work[p:]
        if not owed.any():
            break
        owed *= _RESCALE_FACTOR


def _blocked_fill(work: np.ndarray, z: float, top: int, block: int,
                  j_top: float, j_above: float) -> None:
    """Fill work[top-1] ... work[0] by the downward recurrence from
    (J_top, J_top+1) = (j_top, j_above), `block` orders at a time.

    Block b runs the recurrence from order n0 = top - b*block down to
    n0 - block.  Its 2x2 transfer matrix comes from running every block
    at once from the unit pairs; the block start pairs are chained
    through those matrices in plain Python; then every block runs again
    from its start pair.  Each step's factor 2n/z equals the scalar
    loop's bit for bit, so block 0 repeats the scalar loop exactly.
    Below the turning point the values oscillate with an amplitude that
    changes by a small factor only, so this part of the pass needs no
    rescale guard.
    """
    n_blocks = top // block
    twice_tops = 2.0 * (top - block * np.arange(n_blocks, dtype=float))
    factor = np.empty(n_blocks)

    def factor_at(k: int) -> np.ndarray:
        # 2*n0 - 2*k is exact, so this is the loop's 2.0 * n / z
        np.subtract(twice_tops, 2.0 * k, out=factor)
        return np.divide(factor, z, out=factor)

    # rows: coefficients of J_n0 and J_n0+1 in the running pair
    lo = np.zeros((2, n_blocks))
    hi = np.zeros((2, n_blocks))
    lo[0] = 1.0
    hi[1] = 1.0
    nxt = np.empty((2, n_blocks))
    for k in range(block):
        np.multiply(factor_at(k), lo, out=nxt)
        np.subtract(nxt, hi, out=nxt)
        lo, hi, nxt = nxt, lo, hi

    # memoryviews hand out Python floats one at a time, without a list
    # of all of them
    starts = np.empty((2, n_blocks))
    start_lo, start_hi = memoryview(starts[0]), memoryview(starts[1])
    a, b = j_top, j_above
    rows = zip(memoryview(lo[0]), memoryview(lo[1]),
               memoryview(hi[0]), memoryview(hi[1]))
    for i, (lo_p, lo_q, hi_p, hi_q) in enumerate(rows):
        start_lo[i] = a
        start_hi[i] = b
        a, b = lo_p * a + lo_q * b, hi_p * a + hi_q * b

    # by_block[b, k] is order n0 - 1 - k of block b.  Steps are collected
    # in `chunk` and copied out a few at a time, because writing one step
    # straight into by_block touches one cache line per block.
    by_block = work[top - 1::-1].reshape(n_blocks, block)
    chunk = np.empty((_REFILL_STEPS, n_blocks))
    lo, hi = starts
    for k0 in range(0, block, _REFILL_STEPS):
        steps = min(_REFILL_STEPS, block - k0)
        for j in range(steps):
            # lo and hi may be earlier rows of chunk, never row j
            np.multiply(factor_at(k0 + j), lo, out=chunk[j])
            np.subtract(chunk[j], hi, out=chunk[j])
            lo, hi = chunk[j], lo
        by_block[:, k0:k0 + steps] = chunk[:steps].T


def bessel_table(z: float, max_order: int) -> np.ndarray:
    """The array [J_0(z), J_1(z), ..., J_max_order(z)], in one downward pass.

    The recurrence J_{n-1} = (2n/z) J_n - J_{n+1} is started from
    seed values (1, 0) well above the truncation window, where the
    true J_n are negligible, and the result is normalized with
    J_0(z) + 2*sum_k J_{2k}(z) = 1.  Upward recurrence is unstable for
    n > z, which is why the pass runs downward.  A scalar loop with a
    rescale guard runs it down to 32 z**(1/3) orders below the turning
    point; when enough orders are left, `_blocked_fill` runs the rest.
    A table that needs more than _MAX_WORK_ORDERS orders is a ValueError.
    """
    z = _validate_argument(z)
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    n_start = max(truncation_window(z), max_order) + 15
    if n_start > _MAX_WORK_ORDERS:
        raise ValueError(f"Bessel table at z = {z!r} up to order {max_order} needs "
                         f"{n_start} orders, above the limit {_MAX_WORK_ORDERS}")

    if z == 0.0:
        values = np.zeros(max_order + 1)
        values[0] = 1.0
        return values
    if z < _SMALL_Z:
        return _leading_series_values(z, max_order)

    n_fill, block = _blocked_schedule(z)
    work = np.zeros(n_start + 2)
    work[n_start] = 1.0  # arbitrary seed scale; fixed by normalization
    j_hi = 0.0
    j_lo = 1.0
    rescaled_at = []
    for n in range(n_start, n_fill, -1):
        j_prev = (2.0 * n / z) * j_lo - j_hi
        j_hi = j_lo
        j_lo = j_prev
        work[n - 1] = j_prev
        if abs(j_prev) > _RESCALE_THRESHOLD:
            j_hi *= _RESCALE_FACTOR
            j_lo *= _RESCALE_FACTOR
            rescaled_at.append(n - 1)
    _apply_rescales(work, rescaled_at)
    if n_fill:
        _blocked_fill(work, z, n_fill, block, j_lo, j_hi)

    # J_0 + 2*(J_2 + J_4 + ...) = 1; pairwise np.sum keeps the
    # normalization deterministic and accurate for long tables.
    norm = work[0] + 2.0 * np.sum(work[2:n_start + 1:2])
    return work[:max_order + 1] / norm


def bessel_jn(n: int, z: float) -> float:
    """J_n(z) for integer n (any sign) and real z >= 0, via J_{-n} = (-1)^n J_n."""
    n = int(n)
    value = float(bessel_table(z, abs(n))[abs(n)])
    return -value if n < 0 and n % 2 else value


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
        return complex(table[0])
    # n and -n terms pair up to 2 i^n J_n(z) cos(n phi).
    n = np.arange(1, window + 1)
    terms = 2.0 * unit_imaginary_power(n) * table[1:] * np.cos(n * phi)
    return complex(table[0] + np.sum(terms))
