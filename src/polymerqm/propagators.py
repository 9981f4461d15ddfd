"""Closed-form propagator kernels and the consistency machinery around them.

Systems (`PropagatorKernel.system`):

  free      i^(r-j) J_(r-j)(z) e^(-iz),  z = hbar*dt/(m*mu0^2)
  box       (2/N) sum_l sin(l pi j/N) sin(l pi r/N) e^(-iz(1-cos(l pi/N))),
            equal to twice the odd part of the periodic kernel
  periodic  sum over images k of the free kernel at r + 2kN

Caller sites j, r enter by `_sites` (the check routes, `kernel_table` and the
checks), and `_windows` alone checks a window: integer arrays, nonempty,
|site| < 2^62, at most 2^25 sites, box sites in 0..N.  `_plan` sizes and checks
every engine call before any array is made, and each kind of kernel vector has
one reader.  `_free_vector` gives every free kernel value, from one Bessel table
of at most W(z) + 1 orders read by |m|, exactly 0 beyond the truncation window
W: `free_kernel` and free `kernel_table` read it on (j, r) grids, free `evolve`
convolves it and the image sums fold it onto Z_2N.  `_circle_read` reads every
vector on Z_2N: the circle step of a delta for periodic and box tables (an
exact sum over 2N momenta by FFT, the box its odd part, which also moves their
states), and the folded images, its check route beside the box spectral sum.
Identities (unitarity, composition, Green's residual, plane-wave phase)
check them, each returning its worst deviation as a float.
`apply_hamiltonian`, the generator of `evolve` in each system, and the
Green's residual share the stencil of `dynamics`.  `schrodinger_free_kernel`
and `schrodinger_box_evolve` are the continuum references.  Composition
sums (numpy's pairwise summation along a contiguous last axis) and the
image fold (in site order) add in a fixed order, independent of the
call's grid, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bessel import (_MAX_SIZE, _integer, _site_domain, _work_orders, bessel_table,
                     truncation_window, unit_imaginary_power)
from .dynamics import (_band, _box_interior_amplitudes, _box_modes, _box_size, _stencil,
                       dispersion_energy)
from .lattice import Lattice, LatticeWavefunction, PhysicalParams, _fold, dimensionless_time

_SYSTEMS = ("free", "box", "periodic")


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
# check-route kernels: integer sites or index arrays, broadcast like numpy
# ---------------------------------------------------------------------------

def _windows(rows, cols, n_box: int | None = None, names=("output sites j", "input sites r")):
    """The windows (lo, hi) of j and r, else a ValueError naming one: each must be
    nonempty, of at most `bessel._MAX_SIZE` sites, inside `bessel._site_domain`
    and, given a box size N, inside the box 0..N."""
    for name, (lo, hi) in zip(names, (rows, cols)):
        if lo > hi:
            raise ValueError(f"empty range of {name}: {lo}..{hi}")
        if hi - lo >= _MAX_SIZE:
            raise ValueError(f"{name.split()[0]} window {(lo, hi)} has more sites "
                             f"than the limit {_MAX_SIZE}")
        _site_domain(lo, hi, name)
    if n_box is not None and (min(rows[0], cols[0]) < 0 or max(rows[1], cols[1]) > n_box):
        raise ValueError(f"sites j = {rows[0]}..{rows[1]}, r = {cols[0]}..{cols[1]} "
                         f"outside box 0..{n_box}")
    return rows, cols


def _sites(j, r, n_box: int | None = None, names=("sites j", "sites r")):
    """(js, rs, windows, scalar): j, r as int64 arrays (>= 1-d), their windows checked by
    `_windows` before the cast, and whether both were scalars.  Integer dtypes only (bool,
    floats, text refused); an object array must hold Python ints, perhaps beyond int64."""
    arrays = [np.atleast_1d(np.asarray(v)) for v in (j, r)]
    for name, v in zip(names, arrays):
        if v.dtype.kind not in "iu":  # object arrays entry by entry, others by dtype
            for x in v.flat if v.dtype == object else v.flat[:1]:
                _integer(x, name)
    windows = _windows(*((int(v.min()), int(v.max())) if v.size else (0, -1)
                         for v in arrays), n_box, names)
    js, rs = (v.astype(np.int64) for v in arrays)
    return js, rs, windows, np.ndim(j) == 0 and np.ndim(r) == 0


def _finish(values: np.ndarray, scalar: bool):
    """values, or a complex for a scalar call."""
    return complex(values[0]) if scalar else values


def _circle_read(circle: np.ndarray, js, rs, n_box: int | None) -> np.ndarray:
    """k(j, r) = circle[(j - r) mod 2N] from a kernel vector on Z_2N, js and rs broadcast.

    A box (n_box not None, sites 0..N): minus circle[(j + r) mod 2N], with
    the walls exactly 0: r = 0 or N reads one entry twice, rows j = 0, N are set.
    """
    values = circle[(js - rs) % circle.size]
    if n_box is not None:
        values -= circle[(js + rs) % circle.size]
        np.copyto(values, 0.0, where=(js == 0) | (js == n_box))
    return values


def free_kernel(j, r, dt: float, params: PhysicalParams):
    """Free-particle propagator between sites j and r after time dt.

    One table of at most W(z) + 1 orders per call; |r - j| > W gives exactly 0.
    The order enters only through |r - j|, so the kernel is symmetric in
    (j, r) bit for bit; at dt = 0 it is exactly the Kronecker delta.
    """
    js, rs, _, scalar = _sites(j, r)
    read = _free_vector(dimensionless_time(params, dt), int(np.abs(rs - js).max()))
    return _finish(read(rs - js), scalar)


def _box_level_sum(js, rs, dt: float, n_box: int, params: PhysicalParams,
                   derivative: bool = False) -> np.ndarray:
    """sum_l m_l(j) w_l m_l(r) over the box modes m_l, broadcast over (j, r).

    w_l = e^{-i E_l dt/hbar}, times -i E_l/hbar for the time derivative.
    einsum contracts the level axis without a grid x levels array, so an
    array call holds O(grid + sites x levels) memory.
    """
    gaps = _band(np.arange(1, n_box) * math.pi / n_box)
    weights = np.exp(-1j * dimensionless_time(params, dt) * gaps)
    if derivative:
        weights = (-1j / params.hbar) * params.energy_scale * gaps * weights
    return np.einsum("...l,...l->...", _box_modes(n_box, js) * weights,
                     _box_modes(n_box, rs))


def box_spectral_kernel(j, r, dt: float, n_box: int, params: PhysicalParams):
    """Box propagator as the exact finite spectral sum over the N-1 levels."""
    n_box = _box_size(n_box)
    js, rs, _, scalar = _sites(j, r, n_box)
    return _finish(_box_level_sum(js, rs, dt, n_box, params), scalar)


def _image_sum(j, r, dt: float, n_box: int, params: PhysicalParams, mirror: bool):
    """sum_k of k_free(j, r + 2kN), minus k_free(j, -r + 2kN) if mirror: one fold.

    k_free is exactly 0 beyond the truncation window W, so the image sum is
    the free vector at orders -W..W folded onto Z_2N and `_circle_read`:
    O(W + N + grid), however many images the window spans.
    """
    n_box = _box_size(n_box)
    box = n_box if mirror else None
    js, rs, _, scalar = _sites(j, r, box)
    z = dimensionless_time(params, dt)
    w = truncation_window(abs(z))
    orders = np.arange(-w, w + 1)
    circle = _fold(orders, _free_vector(z, w)(orders), 2 * n_box)
    return _finish(_circle_read(circle, js, rs, box), scalar)


def periodic_kernel(j, r, dt: float, n_box: int, params: PhysicalParams):
    """Propagator with period 2*N*mu0, built from images of the free kernel."""
    return _image_sum(j, r, dt, n_box, params, mirror=False)


def box_images_kernel(j, r, dt: float, n_box: int, params: PhysicalParams):
    """Box propagator k_P(j, r) - k_P(j, -r), twice the odd part of the periodic kernel.

    Within 1e-10 of the spectral sum.
    """
    return _image_sum(j, r, dt, n_box, params, mirror=True)


def momentum_kernel_phase(p, dt: float, params: PhysicalParams):
    """Diagonal momentum-space phase e^{-i E(p) dt / hbar}.

    The delta-function prefactor of the momentum propagator is never
    materialized: evolving a momentum wavefunction IS pointwise
    multiplication by this phase.  p is a momentum or an array of them,
    each in the open zone; a scalar gives a complex.
    """
    p, dt = np.asarray(p, dtype=float), float(dt)
    if not math.isfinite(2.0 * params.energy_scale * dt / params.hbar):
        raise ValueError(f"dt must be finite, with E dt/hbar finite at the band top, got {dt}")
    edge = params.brillouin_edge
    outside = ~((-edge < p) & (p < edge))  # NaN compares false: outside
    if np.any(outside):
        raise ValueError(f"momentum {float(p[outside][0])} outside the open "
                         f"interval (-{edge}, {edge})")
    phase = np.exp(-1j * dispersion_energy(params, p) * dt / params.hbar)
    return complex(phase) if phase.ndim == 0 else phase


def schrodinger_free_kernel(xj: float, xr: float, dt: float,
                            params: PhysicalParams) -> complex:
    """Continuum free propagator sqrt(m/(2 pi i hbar dt)) e^{i m (xj-xr)^2/(2 hbar dt)}.

    Principal branch: sqrt(1/i) = e^{-i pi/4}.  Defined for dt > 0 only.
    """
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"Schrodinger kernel needs dt > 0, got {dt}")
    amp = math.sqrt(params.mass / (2.0 * math.pi * params.hbar * dt))
    phase = (params.mass * (float(xj) - float(xr)) ** 2
             / (2.0 * params.hbar * dt) - math.pi / 4.0)
    return complex(amp * np.exp(1j * phase))


# ---------------------------------------------------------------------------
# kernel objects and state evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagatorKernel:
    """A lattice system: free, a box with walls at sites 0 and n, or period 2n.

    Calling it as kernel(j, r, dt) evaluates the closed form (free Bessel
    term, box spectral sum, periodic image sum) for integer sites or
    index arrays: the check route that `evolve` and `kernel_table`, which
    share one kernel vector per dt, are tested against.
    """

    system: str
    params: PhysicalParams
    n: int | None = None

    def __post_init__(self):
        if self.system not in _SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"expected one of {_SYSTEMS}")
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
        if self.system == "free":
            return free_kernel(j, r, dt, self.params)
        if self.system == "box":
            return box_spectral_kernel(j, r, dt, self.n, self.params)
        return periodic_kernel(j, r, dt, self.n, self.params)


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


def _box_step(full: np.ndarray, z: float) -> np.ndarray:
    """States on sites 0..N (last axis) moved by the circle step of their odd extension."""
    odd = np.concatenate([full, -full[..., -2:0:-1]], axis=-1)
    out = _circle_step(odd, z)[..., :full.shape[-1]]
    out[..., [0, -1]] = 0.0  # the walls, exactly
    return out


def _shared_params(psi: LatticeWavefunction, kernel: PropagatorKernel) -> PhysicalParams:
    if psi.lattice.params != kernel.params:
        raise ValueError("state and kernel carry different physical parameters")
    return kernel.params


def _plan(kernel: PropagatorKernel, dt: float, cols, rows=None):
    """(z, W, rows, cols) of one engine call, every check run before any array is made.

    rows (output sites j) and cols (input sites r) are windows (lo, hi); rows default
    to `evolve`'s: the box 0..N, else cols padded by W, periodic cut to one period 2N.
    ValueError: a |z| `bessel_table` refuses (one z range for every system), or
    windows `_windows` refuses.
    """
    z = dimensionless_time(kernel.params, dt)
    _work_orders(abs(z), 0)
    w = truncation_window(abs(z))
    (c_lo, c_hi), n = map(int, cols), kernel.n
    if rows is None:
        cap = c_lo - w + 2 * n - 1 if kernel.system == "periodic" else math.inf
        rows = (0, n) if kernel.system == "box" else (c_lo - w, min(c_hi + w, cap))
    rows = tuple(_integer(v, "output window") for v in rows)
    return (z, w, *_windows(rows, (c_lo, c_hi), n if kernel.system == "box" else None))


def _kernel_rows(kernel: PropagatorKernel, plan, rs: np.ndarray):
    """rows(j) = k(j, r, dt) for r in rs and j in the plan's rows, from one kernel vector.

    Free: `_free_vector` out to the largest |j - r| (a grid corner), each entry bit
    for bit the whole grid's.  Periodic, box: `_circle_read` of a circle-stepped delta.
    """
    z, _, (j_lo, j_hi), (r_lo, r_hi) = plan
    if kernel.system == "free":
        read = _free_vector(z, max(abs(j_lo - r_hi), abs(j_hi - r_lo)))
        return lambda j: read(np.subtract.outer(j, rs))
    box = kernel.n if kernel.system == "box" else None
    circle = _circle_step((np.arange(2 * kernel.n) == 0).astype(complex), z)
    return lambda j: _circle_read(circle, np.asarray(j)[..., None], rs, box)


def kernel_table(kernel: PropagatorKernel, j_values, r_values, dt: float) -> np.ndarray:
    """k(j, r, dt) for j in j_values (rows) and r in r_values (columns).

    Planned (`_plan`), then gathered from one kernel vector per dt (`_kernel_rows`,
    which `polymerqm kernel` reads a block of rows at a time): free exactly 0
    where |j - r| > W, box walls exactly 0, dt = 0 the exact identity.
    """
    names = ("output sites j", "input sites r")  # the names `_plan` gives them
    js, rs, (rows, cols), _ = _sites(j_values, r_values, None, names)
    return _kernel_rows(kernel, _plan(kernel, dt, cols, rows), rs)(js)


def evolve(psi0: LatticeWavefunction, kernel: PropagatorKernel, dt: float,
           out_window: tuple[int, int] | None = None) -> LatticeWavefunction:
    """psi(x_j, t0+dt) = sum_r k(j, r, dt) psi_r, from one kernel vector.

    Planned first: `_plan` gives the default output window.  Free: the
    orders j - r the window needs, clipped to |m| <= W (the kernel is
    exactly 0 beyond), in a full np.convolve cut to the window: at most
    (2W + 1) M multiply-adds for M input sites, wherever the window sits.
    Periodic: a state is its fold onto Z_2N, where sites 2N apart add (so
    an input window wider than 2N is one state on the circle); the exact
    circle step moves the fold and any window reads it mod 2N.  Box: the
    circle step of the odd extension; it needs wall-free input and gives
    sites 0..N, walls exactly 0.  Circle-step error is about z * eps (see
    _circle_step).  At dt = 0 every system returns its input exactly.
    """
    lat, params, amps = psi0.lattice, _shared_params(psi0, kernel), psi0.amplitudes
    cols = (lat.n_min, lat.n_max)
    if kernel.system == "box":  # embedded first: sites outside 0..N may hold zeros
        if out_window is not None and tuple(out_window) != (0, kernel.n):
            raise ValueError(f"box evolution always produces sites 0..{kernel.n}")
        amps, cols = _box_interior_amplitudes(psi0, kernel.n), (0, kernel.n)
    z, w, (lo, hi), _ = _plan(kernel, dt, cols, out_window)
    if kernel.system == "box":
        out = _box_step(amps, z)
    elif kernel.system == "periodic":
        folded = _fold(lat.sites, amps, 2 * kernel.n)
        out = _circle_step(folded, z)[np.arange(lo, hi + 1) % (2 * kernel.n)]
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


def apply_hamiltonian(psi: LatticeWavefunction, kernel: PropagatorKernel) -> LatticeWavefunction:
    """H psi in the kernel's system (the generator of `evolve`) by `dynamics._stencil`.

    Free: amplitudes outside the window are 0, the output window grows by
    one site on each side.  Box: wall-free input, sites 0..N out, walls
    exactly 0.  Periodic: psi folded onto Z_2N as `evolve` folds it (sites
    2N apart add, so any window width is one state on the circle),
    gathered mod 2N on the input window widened by one site on each side.
    """
    lat, params = psi.lattice, _shared_params(psi, kernel)
    if kernel.system == "box":
        out = np.pad(_stencil(_box_interior_amplitudes(psi, kernel.n), params), 1)
        return LatticeWavefunction(Lattice(params, 0, kernel.n), out)
    wide = (np.pad(psi.amplitudes, 2) if kernel.system == "free" else
            _fold(lat.sites, psi.amplitudes, 2 * kernel.n)[
                np.arange(lat.n_min - 2, lat.n_max + 3) % (2 * kernel.n)])
    out = _stencil(wide, params)
    return LatticeWavefunction(Lattice(params, lat.n_min - 1, lat.n_max + 1), out)


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def composition_check(kernel: PropagatorKernel, j_values, r_values,
                      t0: float, t1: float, t: float) -> float:
    """Worst |k(j,t;r,t0) - sum_n k(j,t;n,t1) k(n,t1;r,t0)| over j x r.

    j_values (rows) and r_values (columns) are integers or index lists.
    The direct term is the closed-form check route, the two legs are
    `kernel_table` blocks, so two routes are compared.  The intermediate
    sites n are the whole system where it is finite, so the identity then
    holds to rounding: the box sums over its sites 0..N, the periodic
    system over one period 0..2N-1 (each image once).  For the free
    system the window pads the grid's [min(j, r), max(j, r)] by the
    truncation windows of both legs, outside of which the factors decay
    super-exponentially.
    """
    if not (t0 <= t1 <= t):
        raise ValueError(f"need t0 <= t1 <= t, got {t0}, {t1}, {t}")
    dt_late, dt_early = t - t1, t1 - t0
    js, rs, (rows, cols), _ = _sites(j_values, r_values)
    if kernel.system == "box":
        sites = np.arange(0, kernel.n + 1)
    elif kernel.system == "periodic":
        sites = np.arange(0, 2 * kernel.n)
    else:  # planned, so a window over the size limit is refused before the arange
        pad = sum(_plan(kernel, dt, (0, 0))[1] for dt in (dt_late, dt_early))
        span = (min(rows[0], cols[0]) - pad, max(rows[1], cols[1]) + pad)
        _plan(kernel, dt_late, span, rows)
        sites = np.arange(span[0], span[1] + 1)

    direct = kernel(js[:, None], rs, t - t0)
    late = kernel_table(kernel, js, sites, dt_late)
    early = np.ascontiguousarray(kernel_table(kernel, sites, rs, dt_early).T)
    paths = np.sum(late[:, None, :] * early[None, :, :], axis=-1)
    return float(np.max(np.abs(direct - paths)))


def _greens_worst(kernel: PropagatorKernel, j_values, r_values, dt_values,
                  dk_dt, min_dt: float = 0.0) -> float:
    """Worst |i hbar dk/dt - (H k)_j| over j x r x dt, H `dynamics._stencil` in j.

    k at rows j-1, j, j+1 comes from `kernel_table`; dk_dt(kernel, dt,
    js, rs) supplies the time derivative on the j x r grid.  Box stencil
    sites must be interior, so that j +- 1 stays inside 0..N.
    """
    dts = [float(dt) for dt in dt_values]
    if not dts:
        raise ValueError("empty time grid")
    if any(dt <= min_dt for dt in dts):
        raise ValueError(f"grid times must exceed {min_dt} (strictly after t0, "
                         "and beyond any differencing step)")
    js, rs, ((j_lo, j_hi), _), _ = _sites(j_values, r_values)
    if kernel.system == "box" and (j_lo < 1 or j_hi > kernel.n - 1):
        raise ValueError(f"stencil sites must be interior to the box 1..{kernel.n - 1}")
    worst = 0.0
    for dt in dts:  # rows j - 1, j, j + 1 on the last axis, where the stencil runs
        table = np.moveaxis(kernel_table(kernel, js[:, None] + np.arange(-1, 2), rs, dt), 1, -1)
        res = np.abs(1j * kernel.params.hbar * dk_dt(kernel, dt, js, rs)
                     - _stencil(table, kernel.params)[..., 0])
        worst = max(worst, float(np.max(res)))
    return worst


def _free_dk_dt(kernel: PropagatorKernel, dt: float, js, rs) -> np.ndarray:
    """(dz/dt) i^|m| e^{-iz} (J'_|m| - i J_|m|), m = j - r, from one table.

    The table stops at order W(z) + 1, one past the truncation window W
    that J' reaches; orders beyond it read as exact 0, so the cost never
    grows with |m|.
    """
    params = kernel.params
    z = dimensionless_time(params, dt)
    mag = np.abs(np.subtract.outer(js, rs))
    top = min(int(mag.max()), truncation_window(z)) + 1
    values = np.append(bessel_table(z, top), np.zeros(3))
    mag = np.minimum(mag, top + 2)  # beyond it, orders m - 1, m, m + 1 all read 0
    lower = np.where(mag == 0, -values[1], values[mag - 1])  # J_{-1} = -J_1
    deriv = 0.5 * (lower - values[mag + 1])
    rate = params.hbar / (params.mass * params.mu0**2)
    return (rate * unit_imaginary_power(mag) * np.exp(-1j * z)
            * (deriv - 1j * values[mag]))


def _box_dk_dt(kernel: PropagatorKernel, dt: float, js, rs) -> np.ndarray:
    """-(i/hbar) (2/N) sum_l sin(l pi j/N) sin(l pi r/N) E_l e^{-i E_l dt/hbar}."""
    return _box_level_sum(js[:, None], rs, dt, kernel.n, kernel.params, derivative=True)


def greens_residual(kernel: PropagatorKernel, j_values, r_values, dt_values) -> float:
    """The worst analytic Green's-function residual of the kernel for t > t0, a float.

    The time derivative is evaluated in closed form over whole index
    arrays: for the free kernel through dJ_n/dz = (J_{n-1} - J_{n+1})/2
    plus the e^{-iz} factor, and for the box through the energy-weighted
    spectral sum.  H is applied as the second-difference stencil in the
    outgoing index.  The periodic system has no analytic route here.
    """
    dk_dt = {"free": _free_dk_dt, "box": _box_dk_dt}.get(kernel.system)
    if dk_dt is None:
        raise ValueError(f"analytic residual not defined for system {kernel.system!r}")
    return _greens_worst(kernel, j_values, r_values, dt_values, dk_dt)


def greens_residual_fd(kernel: PropagatorKernel, j_values, r_values, dt_values,
                       step: float = 1e-6) -> float:
    """Finite-difference cross-check of `greens_residual` (central, step h): a float."""
    def dk_dt(kernel, dt, js, rs):
        return (kernel_table(kernel, js, rs, dt + step)
                - kernel_table(kernel, js, rs, dt - step)) / (2.0 * step)

    return _greens_worst(kernel, j_values, r_values, dt_values, dk_dt, min_dt=step)


# ---------------------------------------------------------------------------
# continuum limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One spacing in a continuum sweep at fixed physical separation."""

    mu0: float
    sites: int        # separation in lattice sites, dx / mu0
    z: float
    abs_error: float  # |k(sites, 0, dt)/mu0 - k_schrodinger(dx, 0, dt)|


def continuum_sweep(dx: float, dt: float, mu0_list,
                    hbar: float = 1.0, mass: float = 1.0) -> list[SweepPoint]:
    """Pointwise kernel error against the continuum propagator, per spacing.

    Each mu0 must divide the separation dx exactly so the endpoints stay
    on the lattice.  Note the pointwise error saturates at |k_S|: the
    lattice kernel carries a second, counter-propagating saddle, so that
    k/mu0 -> k_S + (-1)^l e^{-2iz} conj(k_S) with l = dx/mu0, and that
    term only vanishes after smearing.  Acceptance criterion 7b
    (tests/test_acceptance.py) asserts the convergence of the time-smeared
    error and of the error against this two-saddle limit;
    demos/05_continuum_limit.py also shows the packet-smeared comparison.
    """
    dx = float(dx)
    dt = float(dt)
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError("need dx > 0 and dt > 0")
    points = []
    for mu0 in mu0_list:
        mu0 = float(mu0)
        params = PhysicalParams(hbar=hbar, mass=mass, mu0=mu0)
        l_exact = dx / mu0
        sites = round(l_exact)
        if sites < 1 or abs(l_exact - sites) > 1e-9 * max(1.0, abs(l_exact)):
            raise ValueError(f"mu0 = {mu0} does not divide dx = {dx} evenly")
        z = dimensionless_time(params, dt)
        polymer = free_kernel(sites, 0, dt, params) / mu0
        continuum = schrodinger_free_kernel(dx, 0.0, dt, params)
        points.append(SweepPoint(mu0=mu0, sites=sites, z=z,
                                 abs_error=float(abs(polymer - continuum))))
    return points


def box_mode_coefficients(packet, length: float, num_modes: int) -> np.ndarray:
    """Continuum box-mode coefficients c_l = (2/L) integral sin(l pi y / L) f(y) dy."""
    length = float(length)
    try:
        num_modes = operator.index(num_modes)
    except TypeError:
        raise ValueError(f"num_modes must be an integer, got {num_modes!r}") from None
    if num_modes < 0:
        raise ValueError(f"num_modes must be >= 0, got {num_modes}")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"box length must be finite and > 0, got {length}")
    # trapezoid sums on K + 1 points, the highest mode far below their Nyquist
    # limit, all taken as one FFT of the odd extension of the samples
    y = np.linspace(0.0, length, max(4097, 8 * num_modes + 1))
    f = np.asarray(packet(y), dtype=complex)[1:-1]  # the sine is 0 at both ends
    odd = np.concatenate([[0.0], f, [0.0], -f[::-1]])
    return (1j / (y.size - 1)) * np.fft.fft(odd)[1:num_modes + 1]


def schrodinger_box_evolve(packet, x_eval, dt: float, length: float,
                           params: PhysicalParams) -> np.ndarray:
    """Continuum box evolution of a smooth packet by the spectral series.

    The pointwise kernel series does not converge; the packet-smeared
    series does, because the mode coefficients of a smooth packet decay
    fast.  Modes are added until the smallest retained coefficient is
    below 1e-14 of the largest.
    """
    dt, length = float(dt), float(length)
    num = 64
    prev_tail = math.inf
    while True:
        coeffs = box_mode_coefficients(packet, length, num)
        peak = float(np.max(np.abs(coeffs)))
        tail = float(np.max(np.abs(coeffs[-8:])))
        if peak == 0.0 or tail < 1e-14 * peak:
            break
        if tail > 0.25 * prev_tail or num >= 8192:
            # tail no longer decays geometrically: residual wall
            # mismatch or quadrature floor; more modes add nothing
            break
        prev_tail = tail
        num *= 2
    levels = np.arange(1, num + 1)
    energies = (levels * math.pi * params.hbar / length) ** 2 / (2.0 * params.mass)
    if not math.isfinite(float(energies[-1]) * dt / params.hbar):
        raise ValueError(f"dt must be finite, with E dt/hbar finite at the top mode, got {dt}")
    x = np.atleast_1d(np.asarray(x_eval, dtype=float))
    modes = np.sin(np.outer(x, levels) * math.pi / length)
    return modes @ (coeffs * np.exp(-1j * energies * dt / params.hbar))
