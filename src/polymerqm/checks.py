"""The check routes: closed forms, identities and continuum references.

`PropagatorKernel.__call__`, `kernel_table` and `evolve` read the engine.  Every route here
takes the `PropagatorKernel` it checks and reads integer sites or index arrays through the
engine's door `_read`, one pass per grid.  The closed forms are independent routes to the
same kernels: `spectral_sum` (the box's N-1 levels) and `image_sum` (periodic, and the box as
its odd part), which folds the engine's free vector onto Z_2N and reads it by `_circle_read`,
O(W + N + grid); each refuses a system it has no construction for.  Identities (composition,
Green's residual) check the engine, each folding its samples into one float by `_worst`, the
one reducer of `verify` too: a NaN anywhere makes it NaN, and so fails the check.
`apply_hamiltonian`, the generator of `evolve` in each system, and the Green's residual share
the stencil of `dynamics`.  `schrodinger_free_kernel`, `schrodinger_box_gaussian` (by images,
as the polymer box) and `momentum_kernel_phase` are the continuum and momentum references.
Sums add in a fixed order, independent of the call's grid: compositions by numpy's pairwise
summation along a contiguous last axis, image sums in site order or out from the packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _limit, truncation_window
from .dynamics import _band, _box_modes, _stencil
from .lattice import (Lattice, LatticeWavefunction, PhysicalParams, _gaussian_inputs,
                      dimensionless_time)
from .propagators import (PropagatorKernel, _circle_read, _engine, _free_vector, _kernel_rows,
                          _on_circle, _plan, _read, _state_params, _table, _windows)
from .spectral import dispersion_energy


# ---------------------------------------------------------------------------
# closed forms: integer sites or index arrays, broadcast like numpy
# ---------------------------------------------------------------------------

def _box_level_sum(kernel: PropagatorKernel, dt: float, js, rs,
                   derivative: bool = False) -> np.ndarray:
    """sum_l m_l(j) w_l m_l(r) over the box modes m_l, broadcast over (j, r).

    w_l = e^{-i E_l dt/hbar}, times -i E_l/hbar for the time derivative.
    einsum contracts the level axis without a grid x levels array, so an array call holds
    O(grid + sites x levels) memory; `bessel._limit` counts sites x levels before any mode.
    """
    n_box, params, sites = kernel.n, kernel.params, np.size(js) + np.size(rs)
    _limit(sites * (n_box - 1), "{} sites x {} levels is over", sites, n_box - 1)
    gaps = _band(np.arange(1, n_box) * math.pi / n_box)
    weights = np.exp(-1j * dimensionless_time(params, dt) * gaps)
    if derivative:
        weights = (-1j / params.hbar) * params.energy_scale * gaps * weights
    return np.einsum("...l,...l->...", _box_modes(n_box, js) * weights,
                     _box_modes(n_box, rs))


def spectral_sum(kernel: PropagatorKernel, j, r, dt: float):
    """The box kernel k(j, r, dt) as the exact finite spectral sum over its N-1 levels."""
    if kernel.system != "box":
        raise ValueError(f"spectral sum not defined for system {kernel.system!r}")
    return _read(j, r, lambda *_: lambda js, rs: _box_level_sum(kernel, dt, js, rs), kernel.n)


def image_sum(kernel: PropagatorKernel, j, r, dt: float):
    """The periodic kernel sum_k k_free(j, r + 2kN, dt), or the box kernel as its odd part
    k_P(j, r) - k_P(j, -r), from free-kernel images: a box within 1e-10 of its `spectral_sum`.

    k_free is exactly 0 beyond the truncation window W, so the image sum is the free vector
    at orders -W..W folded onto Z_2N, 2^16 orders at a time, and read by `_circle_read`:
    O(W + N + grid), however many images the window spans.
    """
    if kernel.system == "free":
        raise ValueError(f"image sum not defined for system {kernel.system!r}")
    mirror = kernel.system == "box"
    def fold():  # made once the door has counted the grid; it needs no windows
        read = _free_vector(z := dimensionless_time(kernel.params, dt),
                            w := truncation_window(abs(z)))
        circle = np.zeros(2 * kernel.n, dtype=complex)
        for lo in range(-w, w + 1, 2**16):  # in site order, as one `_fold` adds: its bits
            orders = np.arange(lo, min(lo + 2**16, w + 1))
            np.add.at(circle, orders % (2 * kernel.n), read(orders))
        return circle
    return _read(j, r, lambda *_: lambda js, rs: _circle_read(fold(), js, rs, mirror),
                 kernel.n if mirror else None)


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
    amp, dx = math.sqrt(params.mass / (2.0 * math.pi * params.hbar * dt)), float(xj) - float(xr)
    phase = params.mass * (dx * dx) / (2.0 * params.hbar * dt) - math.pi / 4.0  # ** raises
    if not (math.isfinite(amp) and math.isfinite(phase)):
        raise ValueError(f"Schrodinger kernel is not finite at dt = {dt}, xj - xr = {dx}")
    return complex(amp * np.exp(1j * phase))


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def _worst(*deviations) -> float:
    """The largest |d| over numbers and arrays of deviations, NaN if any entry is NaN.

    np.max keeps a NaN where the builtin max drops it (max(0.0, nan) is 0.0), so
    a deviation that cannot be evaluated fails its check.  The entries are copied
    into one array, so a caller with large samples passes each one's `_worst`.
    """
    return float(np.max(np.abs(np.concatenate([np.ravel(d) for d in deviations]))))


def apply_hamiltonian(psi: LatticeWavefunction, kernel: PropagatorKernel) -> LatticeWavefunction:
    """H psi in the kernel's system (the generator of `evolve`) by `dynamics._stencil`.

    Free: amplitudes outside the window are 0, the output window grows by
    one site on each side.  Periodic and box: psi `_on_circle` as `evolve` puts it, read
    mod 2N one site past each end of the output window: periodic, the input window grown
    by one site on each side; box, sites 0..N, each wall exactly +0 (psi_1 - psi_1).
    """
    lat, params = psi.lattice, _state_params(psi, kernel)
    lo, hi = (0, kernel.n) if kernel.system == "box" else (lat.n_min - 1, lat.n_max + 1)
    wide = (np.pad(psi.amplitudes, 2) if kernel.system == "free" else
            np.take(_on_circle(psi, kernel), np.arange(lo - 1, hi + 2), mode="wrap"))
    return LatticeWavefunction(Lattice(params, lo, hi), _stencil(wide, params))


def _outer_read(j_values, r_values, reader):
    """`_read` of j x r, each an integer or a 1-d index list, else a ValueError naming it."""
    for name, v in (("j_values", j_values), ("r_values", r_values)):
        if not isinstance(v, range) and np.ndim(v) > 1:
            raise ValueError(f"{name} must be an integer or a 1-d index list, not {np.ndim(v)}-d")
    return _read(j_values, r_values, reader, outer=True)


def composition_check(kernel: PropagatorKernel, j_values, r_values,
                      t0: float, t1, t: float) -> float:
    """Worst |k(j,t;r,t0) - sum_n k(j,t;n,t1) k(n,t1;r,t0)| over j x r and every t1.

    j_values (rows) and r_values (columns) are integers or index lists; t1 is one intermediate
    time or a 1-d sequence of them.  One door pass reads the grid and plans every leg of every
    t1, any system, in its reader; the legs' tables are counted before the direct term (the
    early leg read as k(r, n), as tables are symmetric bit for bit).  The intermediate sites n
    are the whole system where it is finite, so the identity then holds to rounding: the box
    sums over its sites 0..N, the periodic system over one period 0..2N-1 (each image once).
    For the free system the window pads the grid's [min(j, r), max(j, r)] by the truncation
    windows of both legs, outside of which the factors decay super-exponentially.
    """
    if np.ndim(t1) > 1 or np.size(t1) == 0:
        raise ValueError(f"t1 must be one time or a nonempty 1-d sequence, got {t1!r}")
    t1s = np.atleast_1d(t1).tolist()
    for mid in t1s:
        if not (t0 <= mid <= t):
            raise ValueError(f"need t0 <= t1 <= t, got {t0}, {mid}, {t}")

    def reader(rows, cols, _):
        def legs(mid):  # the plans of k(j, n; t - t1) and k(r, n; t1 - t0), n the sites
            late, early = (_plan(kernel, dt, (0, 0)) for dt in (t - mid, mid - t0))  # -W..W
            if kernel.system == "free":  # the grid padded by both legs' W
                pad = late.w + early.w
                n = _windows(rows, (min(rows[0], cols[0]) - pad, max(rows[1], cols[1]) + pad))[1]
            else:  # the whole system
                n = (0, kernel.n if kernel.system == "box" else 2 * kernel.n - 1)
            return late._replace(rows=rows, cols=n), early._replace(rows=cols, cols=n)
        plans = [legs(mid) for mid in t1s]  # refused before the count: free n grows with z

        def deviations(js, rs):  # one t1 at a time, O(R S) per row of paths
            for lo, hi in (late.cols for late, _ in plans):
                _table(js.size, hi - lo + 1)
                _table(hi - lo + 1, rs.size)
            values = _engine(kernel, t - t0, rows, cols)(js, rs)
            for late, early in plans:
                sites = np.arange(late.cols[0], late.cols[1] + 1)
                early = _kernel_rows(early)(rs[:, None], sites)
                yield _worst(values - np.array([np.sum(row * early, axis=-1) for row
                                                in _kernel_rows(late)(js, sites)]))
        return deviations
    return _worst(*_outer_read(j_values, r_values, reader))


def _greens_worst(kernel: PropagatorKernel, j_values, r_values, dt_values,
                  dk_dt, min_dt: float = 0.0) -> float:
    """Worst |i hbar dk/dt - (H k)_j| over j x r x dt, H `dynamics._stencil` in j.

    One door pass reads the grid and counts the table of the stencil's rows j - 1, j, j + 1;
    each dt is planned once.  dk_dt(kernel, dt, js, rs, windows) gives dk/dt on the grid.
    Box stencil sites must be interior, so that j +- 1 stays inside 0..N.
    """
    dts = [float(dt) for dt in dt_values]
    if not dts:
        raise ValueError("empty time grid")
    if any(dt <= min_dt for dt in dts):
        raise ValueError(f"grid times must exceed {min_dt} (strictly after t0, "
                         "and beyond any differencing step)")

    def reader(rows, cols, shape):
        if kernel.system == "box" and (rows[0] < 1 or rows[1] > kernel.n - 1):
            raise ValueError(f"stencil sites must be interior to the box 1..{kernel.n - 1}")
        wide = _windows((rows[0] - 1, rows[1] + 1), cols)
        _table(shape[0], 3, shape[1])

        def residual(js, rs, dt):  # rows j - 1, j, j + 1 on the last axis, where the stencil runs
            table = _engine(kernel, dt, *wide)(js[..., None] + np.arange(-1, 2), rs[:, None])
            return _worst(1j * kernel.params.hbar * dk_dt(kernel, dt, js, rs, (rows, cols))
                          - _stencil(table, kernel.params)[..., 0])
        return lambda js, rs: [residual(js, rs, dt) for dt in dts]
    return _worst(*_outer_read(j_values, r_values, reader))


def _free_dk_dt(kernel: PropagatorKernel, dt: float, js, rs, *_) -> np.ndarray:
    """(dz/dt)((n/z - i) k_n + i k_(n+1)), n = |j - r|, by dJ_n/dz = (n/z) J_n - J_(n+1) on
    the engine's k_n = i^n J_n e^{-iz} (`_free_vector`, exact 0 beyond W: cost free of n)."""
    params, z = kernel.params, dimensionless_time(kernel.params, dt)
    mag = np.abs(js - rs)
    read = _free_vector(z, int(mag.max()) + 1)
    rate = params.hbar / (params.mass * params.mu0**2)
    k = read(mag)  # n k_n / z: n / z overflows at far orders and tiny z, and inf x 0 is NaN
    return rate * (mag * k / z - 1j * k + 1j * read(mag + 1))


def greens_residual(kernel: PropagatorKernel, j_values, r_values, dt_values) -> float:
    """The worst analytic Green's-function residual of the kernel for t > t0, a float.

    The time derivative is in closed form over whole index arrays: free through
    dJ_n/dz = (n/z) J_n - J_{n+1} on the kernel's own values, box through the energy-
    weighted spectral sum; H is the stencil in the outgoing index; periodic has none.
    Free, it tests the recurrence of J_n, the phases i^|m| e^{-iz}, dz/dt and the stencil,
    not the scale: the equation is linear, so a uniformly rescaled table passes it.
    """
    dk_dt = {"free": _free_dk_dt, "box": lambda kernel, dt, js, rs, _: _box_level_sum(
        kernel, dt, js, rs, derivative=True)}.get(kernel.system)
    if dk_dt is None:
        raise ValueError(f"analytic residual not defined for system {kernel.system!r}")
    return _greens_worst(kernel, j_values, r_values, dt_values, dk_dt)


def greens_residual_fd(kernel: PropagatorKernel, j_values, r_values, dt_values,
                       step: float | None = None) -> float:
    """Finite-difference cross-check of `greens_residual` (central, step h; 1e-6 in z): a float."""
    if step is None:
        step = 1e-6 * (kernel.params.mu0**2 * kernel.params.mass / kernel.params.hbar)
    if not (math.isfinite(step) and step > 0.0):  # a NaN compares false: refused
        raise ValueError(f"step must be finite and > 0, got {step}")

    def dk_dt(kernel, dt, js, rs, windows):
        return (_engine(kernel, dt + step, *windows)(js, rs)
                - _engine(kernel, dt - step, *windows)(js, rs)) / (2.0 * step)

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
    dx, dt = float(dx), float(dt)
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError("need dx > 0 and dt > 0")
    for name, value in (("dx", dx), ("dt", dt)):
        if not math.isfinite(value):  # NaN and inf
            raise ValueError(f"{name} must be finite, got {value}")
    points = []
    for mu0 in mu0_list:
        mu0 = float(mu0)
        params = PhysicalParams(hbar=hbar, mass=mass, mu0=mu0)
        if not math.isfinite(l_exact := dx / mu0):
            raise ValueError(f"dx / mu0 = {dx} / {mu0} is not finite")
        sites = round(l_exact)
        if sites < 1 or abs(l_exact - sites) > 1e-9 * max(1.0, abs(l_exact)):
            raise ValueError(f"mu0 = {mu0} does not divide dx = {dx} evenly")
        z = dimensionless_time(params, dt)
        polymer = PropagatorKernel.free(params)(sites, 0, dt) / mu0
        continuum = schrodinger_free_kernel(dx, 0.0, dt, params)
        points.append(SweepPoint(mu0=mu0, sites=sites, z=z,
                                 abs_error=float(abs(polymer - continuum))))
    return points


def schrodinger_box_gaussian(x_eval, dt: float, length: float, center: float, sigma: float,
                             momentum: float, params: PhysicalParams) -> np.ndarray:
    """Continuum box evolution of exp(-(x - x0)^2/(4 sigma^2) + ipx/hbar) by images, x in [0, L].

    sum_k [G(x - 2kL; x0, p) - G(x - 2kL; -x0, -p)] = P(x) - P(-x), P the image sum of the
    free packet G(y) = a^(-1/2) exp(-(y - x0 - pt/m)^2/(4 sigma^2 a) + ip(y - pt/2m)/hbar),
    a = 1 + i hbar t/(2 m sigma^2).  Images are added from the one nearest the packet, each
    way up to the first whose term is exactly 0 at every point: O(points) each, at most
    55 s/L + 5 for the width s = sigma |a| (e^-746 underflows); `bessel._limit` counts terms.
    """
    center, sigma, momentum = _gaussian_inputs(center, sigma, momentum)
    dt, length, x = float(dt), float(length), np.asarray(x_eval, dtype=float)
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"box length must be finite and > 0, got {length}")
    if not np.all((0.0 <= x) & (x <= length)):  # NaN compares false: refused
        raise ValueError(f"points must lie in the box [0, {length}]")
    a = complex(1.0, params.hbar * dt / (2.0 * params.mass) / sigma / sigma)  # never / 0
    drift, lag = center + momentum * dt / params.mass, momentum * dt / (2.0 * params.mass)
    if not (math.isfinite(abs(a)) and math.isfinite(drift / length)):  # the image index too
        raise ValueError(f"dt must be finite, as must hbar dt/(m sigma^2) and (x0 + p dt/m)/L, "
                         f"got {dt}")
    terms = 2 * x.size * (55.0 * sigma * abs(a) / length + 5)
    _limit(terms, "{:.3g} image terms is over", terms)
    y, width = np.concatenate([x.ravel(), -x.ravel()]), 4.0 * sigma * sigma * a

    def image(k):  # a^(1/2) G(y - 2kL) at every point of y
        return np.exp(-(y - 2 * k * length - drift) ** 2 / width
                      + 1j * momentum * (y - 2 * k * length - lag) / params.hbar)

    total = image(first := round(-drift / (2.0 * length)))
    for step in (1, -1):  # past the image nearest the packet, each point's terms only fall
        k = first + step
        while np.any(term := image(k)):
            total, k = total + term, k + step
    return ((total[:x.size] - total[x.size:]) / np.sqrt(a)).reshape(x.shape)
