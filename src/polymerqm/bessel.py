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
left (z >= about 2480), they are filled in blocks of about sqrt(z)
orders: transfer matrices and refill are numpy steps over all blocks
at once, and only the chaining of block start pairs is a Python loop,
so a table of order z costs O(sqrt(z)) Python steps, not O(z).  The
blocked fill streams: it keeps only the blocks that reach max_order and
each block's sum of even orders for the normalization, so a table needs
O(max_order + sqrt(z)) memory, not O(z).  Tables without a blocked fill
are the scalar loop bit for bit.

Accuracy as tested (tests/test_bessel.py): absolute error <= 1e-13 against an
exact-rational series (z <= 20.25, orders <= 12) and against 30-digit mpmath at
z = 2.5e3, 1e4, 1e5, 1e6 for orders 0, 1, 17 and floor(sqrt(z)), where the measured
error is <= 2.2e-16; the blocked fill agrees with the scalar loop to <= 1e-14 over
whole tables and over tables ending at each block edge (measured <= 7.7e-16 up to
z = 1e6); the normalization, sum-of-squares and three-term-recurrence identities
hold over whole tables up to z = 1e5.  Every order, those near z included, is within
z*eps/20 of the FFT circle step of a delta at z = 1e5 and 1e6
(`test_free_vector_is_the_circle_step_of_a_delta_at_every_order`).
"""

from __future__ import annotations

import math
import operator

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
# Steps of the blocked refill made in one buffer, then summed and copied
# out: 16 cut the copy from 9 ms to 2.7 ms at z = 1e6 with a buffer of
# 128 kB.  At least 3, so that a step never writes a row it reads, and
# even, so that every buffer starts at an even step.
_REFILL_STEPS = 16

# The size limit, 2**25, refused by `_limit` alone: the orders max(W, max_order) + 15
# of one Miller pass (z up to about 3.3e7), the sites of an engine window or a circle 2N,
# and the entries each check route counts.  For orders it bounds work, not memory: three
# orders take 0.1 s at z = 1e7 and 0.23 s at the limit (one core of a 2-vCPU Xeon VM), in
# O(sqrt(z)) memory.  For the circle it bounds memory too: a circle step holds about 64
# bytes per site of 2N (128 MiB at 2N = 2**21), so about 2 GiB at 2N = 2**25.
_MAX_SIZE = 2 ** 25


def _limit(count, what: str, *args):
    """count, or above _MAX_SIZE the size refusal "<what.format(*args)> the limit 33554432"."""
    if count > _MAX_SIZE:
        raise ValueError(f"{what.format(*args)} the limit {_MAX_SIZE}")
    return count


def truncation_window(z: float) -> int:
    """Smallest order beyond which J_n(z) is negligible at double precision.

    J_n(z) decays super-exponentially once n exceeds the turning point
    n ~ z; the z**(1/3) term covers the Airy transition region and the
    constant covers small arguments.
    """
    z = abs(float(z))
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 20.0)


def _work_orders(z: float, max_order: int) -> int:
    """The orders max(W, max_order) + 15 of a Miller pass at z >= 0, counted by `_limit`:
    its refusal names z, and sets the z range of every system."""
    n_start = max(truncation_window(z), max_order) + 15
    at = "at order {1} " if max_order else ""
    return _limit(n_start, "z = {0!r} " + at + "is out of range: {2} working orders, above",
                  z, max_order, n_start)


def _integer(value, name: str, least: int | None = None) -> int:
    """value as an int: what operator.index takes, bool excepted, and at least
    `least` if given; else a ValueError naming the input (never a truncation)."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or (least is not None and number < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def _site_domain(lo, hi, name: str) -> None:
    """ValueError naming the sites lo..hi unless -2**62 < lo and hi < 2**62 (NaN fails).

    Then every j - r, j + r and window padded by W <= _MAX_SIZE fits in int64; at
    |site| = 2**62 itself, j - r = 2**62 - (-2**62) = 2**63 would wrap around.
    """
    if not (-2**62 < lo and hi < 2**62):
        raise ValueError(f"{name} {lo}..{hi} outside the site domain |site| < 2**62")


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


def _apply_rescales(work: np.ndarray, rescaled_at: list[int], lowest: int) -> None:
    """Scale work[i], order lowest + i, as if every rescale had multiplied
    all orders at or above its trigger; rescaled_at holds the trigger
    orders, which decrease.  Each value gets one factor per trigger at or
    below it, one multiplication at a time as the pass would have done.
    Once the part still owed factors is exactly zero, further factors
    change nothing.  No value exceeds the threshold by more than a factor
    1 + 2n/z, so for any 2n/z below 1e170 three factors take every value
    to exactly 0: the loop stops after about four passes over the region.
    """
    for p in reversed(rescaled_at):
        owed = work[p - lowest:]
        if not owed.any():
            break
        owed *= _RESCALE_FACTOR


def _blocked_fill(z: float, top: int, block: int, j_top: float, j_above: float,
                  max_order: int) -> tuple[np.ndarray, float]:
    """Orders top-1 ... 0 by the downward recurrence from
    (J_top, J_top+1) = (j_top, j_above), `block` orders at a time.

    Returns a table and the sum of all the even orders below top.  The
    table's first n_keep*block entries are orders 0, 1, ... of the fewest
    lowest blocks that reach max_order; it has room up to max_order for
    the caller to write the orders from top up.  No other order is kept.

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
    n_keep = min(n_blocks, max_order // block + 1)
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

    # Step k of block b is order n0 - 1 - k.  Each chunk of steps is added
    # to every block's sums of its even and odd steps (k0 is even, so row j
    # has the parity of step k0 + j); only the kept blocks are copied out:
    # kept[c, k] is order n0 - 1 - k of block n_blocks - n_keep + c.
    table = np.empty(max(n_keep * block, max_order + 1))
    kept = table[n_keep * block - 1::-1].reshape(n_keep, block)
    step_sums = np.zeros((2, n_blocks))
    chunk = np.empty((_REFILL_STEPS, n_blocks))
    lo, hi = starts
    for k0 in range(0, block, _REFILL_STEPS):
        steps = min(_REFILL_STEPS, block - k0)
        for j in range(steps):
            # lo and hi may be earlier rows of chunk, never row j
            np.multiply(factor_at(k0 + j), lo, out=chunk[j])
            np.subtract(chunk[j], hi, out=chunk[j])
            lo, hi = chunk[j], lo
        chunk[steps:] = 0.0  # the rows a short last chunk leaves stale
        step_sums += chunk.reshape(-1, 2, n_blocks).sum(axis=0)
        kept[:, k0:k0 + steps] = chunk[:steps, n_blocks - n_keep:].T
    # order n0 - 1 - k is even where k has the parity of n0 - 1
    parity = (top - 1 - block * np.arange(n_blocks)) % 2
    return table, float(np.sum(step_sums[parity, np.arange(n_blocks)]))


def bessel_table(z: float, max_order: int) -> np.ndarray:
    """The array [J_0(z), J_1(z), ..., J_max_order(z)], in one downward pass.

    The recurrence J_{n-1} = (2n/z) J_n - J_{n+1} is started from
    seed values (1, 0) well above the truncation window, where the
    true J_n are negligible, and the result is normalized with
    J_0(z) + 2*sum_k J_{2k}(z) = 1.  Upward recurrence is unstable for
    n > z, which is why the pass runs downward.  A scalar loop with a
    rescale guard runs it down to 32 z**(1/3) orders below the turning
    point; when enough orders are left, `_blocked_fill` runs the rest,
    keeping only orders up to max_order: memory is O(max_order + sqrt(z)).
    A pass over more orders than `_limit` allows is a ValueError.
    """
    z = _validate_argument(z)
    max_order = _integer(max_order, "max_order", 0)
    n_start = _work_orders(z, max_order)

    if z < _SMALL_Z:  # z = 0 included: the series is then 1, 0, 0, ...
        return _leading_series_values(z, max_order)

    # work[i] is order n_fill - 1 + i: one subtraction per step
    n_fill, block = _blocked_schedule(z)
    work = np.zeros(n_start + 3 - n_fill)
    work[n_start + 1 - n_fill] = 1.0  # arbitrary seed scale; fixed by normalization
    j_hi, j_lo = 0.0, 1.0
    rescaled_at = []
    for n in range(n_start, n_fill, -1):
        j_prev = (2.0 * n / z) * j_lo - j_hi
        j_hi = j_lo
        j_lo = j_prev
        work[n - n_fill] = j_prev
        if abs(j_prev) > _RESCALE_THRESHOLD:
            j_hi *= _RESCALE_FACTOR
            j_lo *= _RESCALE_FACTOR
            rescaled_at.append(n - 1)
    work = work[1:]  # from here on, work[i] is order n_fill + i
    _apply_rescales(work, rescaled_at, n_fill)
    if not n_fill:
        # J_0 + 2*(J_2 + J_4 + ...) = 1; pairwise np.sum keeps the
        # normalization deterministic and accurate for long tables.
        norm = work[0] + 2.0 * np.sum(work[2:n_start + 1:2])
        return work[:max_order + 1] / norm

    table, even_low = _blocked_fill(z, n_fill, block, j_lo, j_hi, max_order)
    # 2*(J_0 + J_2 + ...) - J_0 = 1, the even orders summed block by block
    norm = 2.0 * (even_low + np.sum(work[n_fill % 2::2])) - table[0]
    table = table[:max_order + 1]
    table[n_fill:] = work[:max(max_order + 1 - n_fill, 0)]
    table /= norm
    return table


def bessel_jn(n: int, z: float) -> float:
    """J_n(z) for integer n (any sign) and real z >= 0, via J_{-n} = (-1)^n J_n."""
    n = _integer(n, "n")
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
    window = _integer(window, "window", 0)
    z = float(z)
    phi = float(phi)
    if not (math.isfinite(z) and math.isfinite(phi)):
        raise ValueError("jacobi_anger arguments must be finite")

    # J_n(-z) = (-1)^n J_n(z) is equivalent to shifting phi by pi.
    if z < 0.0:
        z, phi = -z, phi + math.pi

    table = bessel_table(z, window)
    # n and -n terms pair up to 2 i^n J_n(z) cos(n phi); window 0 sums no pair.
    n = np.arange(1, window + 1)
    terms = 2.0 * unit_imaginary_power(n) * table[1:] * np.cos(n * phi)
    return complex(table[0] + np.sum(terms))
