"""The propagator engine: kernel tables and state evolution.

Systems (`PropagatorKernel.system`):

  free      i^(r-j) J_(r-j)(z) e^(-iz),  z = hbar*dt/(m*mu0^2)
  box       (2/N) sum_l sin(l pi j/N) sin(l pi r/N) e^(-iz(1-cos(l pi/N))),
            equal to twice the odd part of the periodic kernel
  periodic  sum over images k of the free kernel at r + 2kN

Caller sites j (output) and r (input) enter by one door, `_read`, one pass per grid: it checks
their windows (`_windows`: nonempty, |site| < 2^62, box sites in 0..N) and counts their table
(`_table`, a range by len()) before any copy.  `_plan` checks each time of an engine call once,
before any array, into one `_Plan(kernel, z, w, rows, cols)`; `_kernel_rows` reads the plan
alone, and each kind of kernel vector has one reader.  `_free_vector` gives every free kernel
value from one Bessel table of at most W(z) + 1 orders read by |m|, exactly 0 beyond W.
`_circle_read` reads every vector on Z_2N at min(d, 2N - d), so tables are symmetric bit for
bit: the circle step of a delta for periodic and box (an exact sum over 2N momenta by FFT,
the box its odd part).  `_on_circle` puts a periodic or box state on Z_2N for `evolve` and
`checks.apply_hamiltonian` alike: a fold, or a box's odd image made in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .bessel import (_integer, _limit, _site_domain, _work_orders, bessel_table,
                     truncation_window, unit_imaginary_power)
from .dynamics import _band, _box_size, _box_walls
from .lattice import Lattice, LatticeWavefunction, PhysicalParams, _fold, dimensionless_time

_SYSTEMS = ("free", "box", "periodic")
_AXES = (("output sites j", "output"), ("input sites r", "input"))  # j, r: name, side


def _free_vector(z: float, reach: int):
    """read(orders): the free kernel i^|m| J_|m|(z) e^{-iz} at integer orders |m| <= reach.

    One vector over the magnitudes 0..min(reach, W + 4), exactly 0 beyond
    the truncation window W; a negative z conjugates i^|m|.  Read by |m|
    (i^m J_m = i^|m| J_|m|), the kernel is symmetric in j and r bit for
    bit; an order beyond W reads the entry of W + 1..W + 4 with the same
    i^|m|, the same signed 0, so every call gives every entry the same bits.
    """
    w = truncation_window(abs(z))
    top = min(reach, w + 4)
    values = np.zeros(top + 1)
    values[:min(top, w) + 1] = bessel_table(abs(z), min(top, w))
    phases = unit_imaginary_power(np.arange(top + 1))
    if z < 0.0:
        phases = np.conj(phases)
    vector = phases * values * np.exp(-1j * z)

    def read(orders):
        mag = np.abs(orders)  # made the index in place: one order-sized array
        return vector[np.minimum(mag, w + 1 + (mag - w - 1) % 4, out=mag)]
    return read


# ---------------------------------------------------------------------------
# caller sites and the readers of kernel vectors
# ---------------------------------------------------------------------------

def _windows(rows, cols, n_box: int | None = None):
    """The windows (lo, hi) of j and r, else a ValueError naming one: each nonempty, of sites
    `bessel._limit` takes, inside `bessel._site_domain` and, given a box size N, `_in_box`."""
    for (name, side), (lo, hi) in zip(_AXES, (rows, cols)):
        if lo > hi:
            raise ValueError(f"empty range of {name}: {lo}..{hi}")
        _limit(hi - lo + 1, "{} window {} has more sites than", side, (lo, hi))
        _site_domain(lo, hi, name)
    return _in_box(rows, cols, n_box)


def _in_box(rows, cols, n_box: int | None):
    """(rows, cols), else, given a box size N, a ValueError if j or r leave the box 0..N."""
    if n_box is not None and (min(rows[0], cols[0]) < 0 or max(rows[1], cols[1]) > n_box):
        raise ValueError(f"sites j = {rows[0]}..{rows[1]}, r = {cols[0]}..{cols[1]} "
                         f"outside box 0..{n_box}")
    return rows, cols


def _table(*shape) -> None:
    """The size refusal of a table of that shape, its entries counted by `bessel._limit`."""
    _limit(math.prod(shape), "table of {}" + " x {}" * (len(shape) - 1) + " entries is over",
           *shape)


def _ends(v) -> tuple[int, int]:
    """(lo, hi) of caller sites, a range's from its two ends; (0, -1) if there are none."""
    if isinstance(v, range):
        return (min(v[0], v[-1]), max(v[0], v[-1])) if v else (0, -1)
    return (int(v.min()), int(v.max())) if v.size else (0, -1)


def _read(j, r, reader, n_box: int | None = None, outer: bool = False):
    """Every read's door, one pass per grid: j, r of integer dtypes only (not bool, floats,
    text; maybe > int64), their windows by `_windows` (a range's from its two ends), then
    read = reader(rows, cols, shape), which may refuse first, and `_table` of that broadcast
    shape (j with a last axis if outer), all before any cast; then read(js, rs) of int64 arrays
    (int64 ones not copied, a range by np.arange), a complex for two scalars."""
    scalar = not outer and not any(isinstance(v, range) or np.ndim(v) for v in (j, r))
    given = [v if isinstance(v, range) else np.atleast_1d(np.asarray(v)) for v in (j, r)]
    for (name, _), v in zip(_AXES, given):
        if not isinstance(v, range) and v.dtype.kind not in "iu":  # object arrays entry by entry
            for x in v.flat if v.dtype == object else v.flat[:1]:
                _integer(x, name)
    windows = _windows(*map(_ends, given), n_box)
    j_like, r_like = (np.broadcast_to(0, len(v)) if isinstance(v, range) else v for v in given)
    shape = np.broadcast(j_like[..., None] if outer else j_like, r_like).shape  # no array made
    read = reader(*windows, shape)
    _table(*shape)
    js, rs = ((np.arange(v.start, v.stop, v.step) if isinstance(v, range) else v)
              .astype(np.int64, copy=False) for v in given)
    values = read(js[..., None] if outer else js, rs)
    return complex(values.flat[0]) if scalar else values


def _circle_read(circle: np.ndarray, js, rs, mirror: bool) -> np.ndarray:
    """k(j, r) = circle[d], d = (j - r) mod 2N, from a kernel vector on Z_2N, js and rs broadcast.

    Read at min(d, 2N - d), as `_free_vector` reads by |m|: tables are symmetric bit
    for bit.  A box (mirror, sites 0..N): minus the entry at (j + r) mod 2N,
    the walls exactly 0, as j or r = 0 or N reads one entry twice: c[x] - c[x] = +0.
    """
    d = (js - rs) % circle.size
    values = circle[np.minimum(d, circle.size - d, out=d)]
    if mirror:
        d = (js + rs) % circle.size
        values -= circle[np.minimum(d, circle.size - d, out=d)]
    return values


# ---------------------------------------------------------------------------
# kernel objects and state evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagatorKernel:
    """A lattice system: free, a box with walls at sites 0 and n, or period 2n.

    kernel(j, r, dt) reads the engine of `kernel_table` and `evolve` through `_read`
    at integer sites or index arrays broadcast like numpy; `checks` has the closed forms.
    """

    system: str
    params: PhysicalParams
    n: int | None = None

    def __post_init__(self):
        if self.system not in _SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"expected one of {_SYSTEMS}")
        if not isinstance(self.params, PhysicalParams):
            raise ValueError(f"params must be a PhysicalParams, got {self.params!r}")
        if self.system != "free":
            object.__setattr__(self, "n", _box_size(self.n))
        elif self.n is not None:
            raise ValueError("free takes no box size")

    @classmethod
    def free(cls, params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("free", params)

    @classmethod
    def box(cls, n: int, params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("box", params, n=n)

    @classmethod
    def periodic(cls, n: int,
                 params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("periodic", params, n=n)

    def __call__(self, j, r, dt: float):
        return _read(j, r, partial(_engine, self, dt))  # box sites: checked by `_plan`


def _circle_step(psi: np.ndarray, z: float) -> np.ndarray:
    """Exact evolution of amplitudes on the circle Z_2N (the last axis), by FFT.

    Momentum q carries the phase e^{-iz(1 - cos(pi q/N))}, the band from
    `dynamics._band`, accurate for small gaps.  This is the periodic
    image sum over every image, untruncated.  Phase rounding gives an
    absolute error of about z * eps (2e-12 at z = 1e4; the Bessel-table
    check routes do not grow with z).  z = 0 returns psi.
    """
    if z == 0.0:
        return psi
    period = psi.shape[-1]
    phases = np.exp(-1j * z * _band(2.0 * math.pi * np.arange(period) / period))
    return np.fft.ifft(phases * np.fft.fft(psi))


def _state_params(psi: LatticeWavefunction, kernel: PropagatorKernel) -> PhysicalParams:
    """The kernel's params, once psi is a state of its system (a box's: `dynamics._box_walls`)."""
    if psi.lattice.params != kernel.params:
        raise ValueError("state and kernel carry different physical parameters")
    if kernel.system == "box":
        _box_walls(psi, kernel.n)
    return kernel.params


def _on_circle(psi: LatticeWavefunction, kernel: PropagatorKernel) -> np.ndarray:
    """A state on Z_2N: periodic, its fold (sites 2N apart add: any window is one state); box,
    its amplitudes inside the walls scattered onto 0..N, every bit kept (-0.0 too), and in
    place their odd image -psi_(2N - n) at n > N."""
    sites, amps, n = psi.lattice.sites, psi.amplitudes, kernel.n
    if kernel.system == "periodic":
        return _fold(sites, amps, 2 * n)
    circle, inside = np.zeros(2 * n, dtype=complex), (sites > 0) & (sites < n)
    circle[sites[inside]] = amps[inside]
    np.negative(circle[n - 1:0:-1], out=circle[n + 1:])
    return circle


class _Plan(NamedTuple):
    """One engine call at one time: kernel, z, its window W, and (lo, hi) of j (rows), r (cols)."""
    kernel: PropagatorKernel
    z: float
    w: int
    rows: tuple[int, int]
    cols: tuple[int, int]


def _plan(kernel: PropagatorKernel, dt: float, cols, rows=None, checked: bool = False) -> _Plan:
    """The `_Plan` of one engine call, every check run before any array is made.

    rows (output sites j) and cols (input sites r) are windows (lo, hi); rows default
    to `evolve`'s: the box 0..N, else cols padded by W, periodic cut to one period 2N.
    ValueError: a |z| `bessel_table` refuses (one z range for every system), rows not a
    pair, or `_windows` (`_in_box` alone if checked: windows the door `_read` checked).
    """
    z = dimensionless_time(kernel.params, dt)
    _work_orders(abs(z), 0)
    w = truncation_window(abs(z))
    (c_lo, c_hi), n = map(int, cols), kernel.n
    if rows is None:
        cap = c_lo - w + 2 * n - 1 if kernel.system == "periodic" else math.inf
        rows = (0, n) if kernel.system == "box" else (c_lo - w, min(c_hi + w, cap))
    if np.asarray(rows, dtype=object).shape != (2,):  # any entries: `_integer` names them
        raise ValueError(f"output window must be a pair (lo, hi), got {rows!r}")
    rows = tuple(_integer(v, "output window") for v in rows)
    check = _in_box if checked else _windows
    return _Plan(kernel, z, w, *check(rows, (c_lo, c_hi), n if kernel.system == "box" else None))


def _kernel_rows(plan: _Plan):
    """read(j, r) = k(j, r, dt) from the one kernel vector of a `_Plan`, j and r in its windows:
    free, `_free_vector` out to the largest |j - r| (a window corner), each entry bit for bit
    the whole grid's; periodic and box, `_circle_read` of a circle-stepped delta."""
    kernel, (j_lo, j_hi), (r_lo, r_hi) = plan.kernel, plan.rows, plan.cols
    if kernel.system == "free":
        read = _free_vector(plan.z, max(abs(j_lo - r_hi), abs(j_hi - r_lo)))
        return lambda j, r: read(np.subtract(j, r))
    circle = _circle_step((np.arange(2 * kernel.n) == 0).astype(complex), plan.z)
    return partial(_circle_read, circle, mirror=kernel.system == "box")


def _engine(kernel: PropagatorKernel, dt: float, rows, cols, *_):
    """read(j, r) of the engine at one time, planned when read: windows the door checked."""
    return lambda j, r: _kernel_rows(_plan(kernel, dt, cols, rows, checked=True))(j, r)


def kernel_table(kernel: PropagatorKernel, j_values, r_values, dt: float) -> np.ndarray:
    """k(j, r, dt) for j in j_values (rows) and r in r_values (columns): `_read` on the outer
    grid, then one plan and one kernel vector (`_engine`): free exactly 0 where |j - r| > W,
    box walls exactly 0, dt = 0 the exact identity."""
    return _read(j_values, r_values, partial(_engine, kernel, dt), outer=True)


def evolve(psi0: LatticeWavefunction, kernel: PropagatorKernel, dt: float,
           out_window: tuple[int, int] | None = None) -> LatticeWavefunction:
    """psi(x_j, t0+dt) = sum_r k(j, r, dt) psi_r, from one kernel vector.

    Planned first: `_plan` gives the default output window, before any array of the
    system.  Free: the orders j - r the window needs, clipped to |m| <= W (the kernel is
    exactly 0 beyond), in a full np.convolve cut to the window: at most
    (2W + 1) M multiply-adds for M input sites, wherever the window sits.
    Periodic and box: the exact circle step moves the state `_on_circle` and any window
    reads it mod 2N, a box at 0..N with the walls exactly 0.  Circle-step error is about
    z * eps (see _circle_step).  At dt = 0 every system returns its input exactly.
    """
    lat, params, amps = psi0.lattice, _state_params(psi0, kernel), psi0.amplitudes
    cols = (0, kernel.n) if kernel.system == "box" else (lat.n_min, lat.n_max)  # zeros past walls
    if kernel.system == "box" and (np.asarray(out_window, dtype=object).shape == (2,)
                                   and tuple(out_window) != cols):  # else `_plan` refuses it
        raise ValueError(f"box evolution always produces sites 0..{kernel.n}")
    plan = _plan(kernel, dt, cols, out_window)
    z, w, (lo, hi) = plan.z, plan.w, plan.rows
    if kernel.system != "free":
        out = _circle_step(_on_circle(psi0, kernel), z)[np.arange(lo, hi + 1) % (2 * kernel.n)]
        if kernel.system == "box":
            out[[0, -1]] = 0.0  # the walls, exactly
    else:
        # [-W, W] clipped into the orders the window needs: never empty,
        # and a lone order beyond W is exactly 0
        m_lo, m_hi = np.clip([-w, w], lo - lat.n_max, hi - lat.n_min)
        terms = _free_vector(z, int(max(-m_lo, m_hi)))(np.arange(m_lo, m_hi + 1))
        full = np.convolve(terms, amps)
        first = m_lo + lat.n_min  # site of full[0]
        full = np.pad(full, (max(first - lo, 0), max(hi - first - full.size + 1, 0)))
        out = full[max(lo - first, 0):][:hi - lo + 1]
    return LatticeWavefunction(Lattice(params, lo, hi), out)
