"""Closed-form propagator kernels and the consistency machinery around them.

Systems covered:

  free             i^(r-j) J_(r-j)(z) e^(-iz),  z = hbar*dt/(m*mu0^2)
  box-spectral     (2/N) sum_l sin(l pi j/N) sin(l pi r/N) e^(-iz(1-cos(l pi/N)))
  box-images       twice the odd part of the periodic kernel
  periodic         sum over images k of the free kernel at r + 2kN
  schrodinger-free sqrt(m/(2 pi i hbar dt)) exp(i m (x_j-x_r)^2 / (2 hbar dt))
  schrodinger-box-packet   truncated continuum mode sum (reference density)

The hot path (`evolve`, `kernel_table`) uses one kernel vector per
(system, dt): free orders applied by convolution, or the 2N-site circle,
where the image sum is an exact finite sum over 2N momenta applied by
FFT (the box is its odd part).  The scalar kernels are the independent
check routes; the two Schrodinger entries are continuum reference
densities.  Image and composition sums use numpy's pairwise summation
over a fixed index order, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_table, truncation_window, unit_imaginary_power, _I_POWERS
from .dynamics import dispersion_energy, _box_interior_amplitudes
from .lattice import (
    Lattice,
    LatticeWavefunction,
    PhysicalParams,
    dimensionless_time,
)

_POLYMER_SYSTEMS = ("free", "box-spectral", "box-images", "periodic")
_ALL_SYSTEMS = _POLYMER_SYSTEMS + ("schrodinger-free", "schrodinger-box-packet")


def _signed_terms(orders: np.ndarray, table, z: float) -> np.ndarray:
    """i^m J_m(z) for integer orders of any sign, from a table at |z|.

    J_{-m}(x) = (-1)^m J_m(x) makes i^m J_m(z) = i^|m| J_|m|(z), so the
    result depends only on |m| (the kernel symmetry in j and r is then
    bit-for-bit).  A negative argument flips i^|m| to its conjugate.
    """
    mag = np.abs(np.asarray(orders))
    phases = _I_POWERS[mag % 4]
    if z < 0.0:
        phases = np.conj(phases)
    return phases * table.values[mag]


# ---------------------------------------------------------------------------
# scalar kernels
# ---------------------------------------------------------------------------

def free_kernel(j: int, r: int, dt: float, params: PhysicalParams) -> complex:
    """Free-particle propagator between sites j and r after time dt.

    Symmetric in (j, r) by construction: the order enters only through
    |r - j|.  At dt = 0 this is exactly the Kronecker delta.
    """
    z = dimensionless_time(params, dt)
    m = int(r) - int(j)
    table = bessel_table(abs(z), abs(m))
    term = _signed_terms(np.array([m]), table, z)[0]
    return complex(term * np.exp(-1j * z))


def box_spectral_kernel(j: int, r: int, dt: float, n_box: int,
                        params: PhysicalParams) -> complex:
    """Box propagator as the exact finite spectral sum over the N-1 levels."""
    n_box = int(n_box)
    if n_box < 2:
        raise ValueError(f"box needs n >= 2, got {n_box}")
    j, r = int(j), int(r)
    if not (0 <= j <= n_box and 0 <= r <= n_box):
        raise ValueError(f"site indices ({j}, {r}) outside box 0..{n_box}")
    if j in (0, n_box) or r in (0, n_box):
        return 0.0 + 0.0j  # sin(l*pi*0/N) and sin(l*pi) vanish identically
    z = dimensionless_time(params, dt)
    levels = np.arange(1, n_box)
    terms = ((2.0 / n_box)
             * np.sin(levels * math.pi * j / n_box)
             * np.sin(levels * math.pi * r / n_box)
             * np.exp(-1j * z * (1.0 - np.cos(levels * math.pi / n_box))))
    return complex(np.sum(terms))


def minimal_image_cutoff(n_box: int, z: float, j: int, r: int) -> int:
    """Image count K whose dropped orders lie beyond the Bessel window W(z).

    K depends only on the separation |j - r|, so shifting both sites
    leaves it (and the cost of a check-route kernel) unchanged.  For
    |k| > K the direct order satisfies |j - r - 2kN| >= 2|k|N - |j - r|
    > W, where J_m(z) is below double-precision noise.  The box's mirror
    orders j + r - 2kN are covered too: there 0 <= j, r <= N, so
    j + r <= 2N, and the extra image in K adds 2N of reach, giving
    |j + r - 2kN| >= 2|k|N - 2N >= 2KN > W.
    """
    w = truncation_window(abs(z))
    return math.ceil((w + abs(int(j) - int(r))) / (2 * int(n_box))) + 1


def periodic_kernel(j: int, r: int, dt: float, n_box: int, params: PhysicalParams,
                    image_cutoff: int | None = None) -> complex:
    """Propagator with period 2*N*mu0, built from images of the free kernel."""
    n_box = int(n_box)
    if n_box < 2:
        raise ValueError(f"periodic system needs n >= 2, got {n_box}")
    j, r = int(j), int(r)
    z = dimensionless_time(params, dt)
    if image_cutoff is None:
        image_cutoff = minimal_image_cutoff(n_box, z, j, r)
    image_cutoff = int(image_cutoff)
    if image_cutoff < 1:
        raise ValueError(f"image_cutoff must be >= 1, got {image_cutoff}")
    ks = np.arange(-image_cutoff, image_cutoff + 1)
    orders = j - r - 2 * ks * n_box
    table = bessel_table(abs(z), int(np.max(np.abs(orders))))
    terms = _signed_terms(orders, table, z)
    return complex(np.sum(terms) * np.exp(-1j * z))


def box_images_kernel(j: int, r: int, dt: float, n_box: int, params: PhysicalParams,
                      image_cutoff: int | None = None) -> complex:
    """Box propagator as twice the odd part of the periodic kernel.

    Equals k_P(j, r) - k_P(j, -r); agrees with the spectral sum to
    better than 1e-10 for an adequate image cutoff.
    """
    n_box = int(n_box)
    if n_box < 2:
        raise ValueError(f"box needs n >= 2, got {n_box}")
    j, r = int(j), int(r)
    if not (0 <= j <= n_box and 0 <= r <= n_box):
        raise ValueError(f"site indices ({j}, {r}) outside box 0..{n_box}")
    if j in (0, n_box) or r in (0, n_box):
        return 0.0 + 0.0j  # the two image families cancel pairwise at the walls
    z = dimensionless_time(params, dt)
    if image_cutoff is None:
        image_cutoff = minimal_image_cutoff(n_box, z, j, r)
    image_cutoff = int(image_cutoff)
    if image_cutoff < 1:
        raise ValueError(f"image_cutoff must be >= 1, got {image_cutoff}")
    ks = np.arange(-image_cutoff, image_cutoff + 1)
    direct = j - r - 2 * ks * n_box
    mirror = j + r - 2 * ks * n_box
    table = bessel_table(abs(z), int(max(np.max(np.abs(direct)),
                                         np.max(np.abs(mirror)))))
    terms = _signed_terms(direct, table, z) - _signed_terms(mirror, table, z)
    return complex(np.sum(terms) * np.exp(-1j * z))


def momentum_kernel_phase(p: float, dt: float, params: PhysicalParams) -> complex:
    """Diagonal momentum-space phase e^{-i E(p) dt / hbar}.

    The delta-function prefactor of the momentum propagator is never
    materialized: evolving a momentum wavefunction IS pointwise
    multiplication by this phase.
    """
    p = float(p)
    edge = params.brillouin_edge
    if not math.isfinite(p) or not (-edge < p < edge):
        raise ValueError(f"momentum {p} outside the open interval (-{edge}, {edge})")
    energy = dispersion_energy(params, p)
    return complex(np.exp(-1j * energy * float(dt) / params.hbar))


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
    """Immutable kernel selector; call it as kernel(j, r, dt)."""

    system: str
    params: PhysicalParams
    n: int | None = None
    image_cutoff: int | None = None
    mode_cutoff: int | None = None

    def __post_init__(self):
        if self.system not in _ALL_SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"expected one of {_ALL_SYSTEMS}")
        needs_n = self.system in ("box-spectral", "box-images", "periodic",
                                  "schrodinger-box-packet")
        if needs_n:
            if self.n is None or int(self.n) < 2:
                raise ValueError(f"{self.system} needs n >= 2, got {self.n}")
            object.__setattr__(self, "n", int(self.n))
        elif self.n is not None:
            raise ValueError(f"{self.system} takes no box size")
        if self.image_cutoff is not None:
            if self.system not in ("box-images", "periodic"):
                raise ValueError(f"{self.system} takes no image cutoff")
            if int(self.image_cutoff) < 1:
                raise ValueError("image_cutoff must be >= 1")
        if self.system == "schrodinger-box-packet":
            if self.mode_cutoff is None or int(self.mode_cutoff) < 1:
                raise ValueError("schrodinger-box-packet needs mode_cutoff >= 1")
        elif self.mode_cutoff is not None:
            raise ValueError(f"{self.system} takes no mode cutoff")

    # constructors ---------------------------------------------------------
    @classmethod
    def free(cls, params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("free", params)

    @classmethod
    def box_spectral(cls, n: int,
                     params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("box-spectral", params, n=n)

    @classmethod
    def box_images(cls, n: int, params: PhysicalParams = PhysicalParams(),
                   image_cutoff: int | None = None) -> "PropagatorKernel":
        return cls("box-images", params, n=n, image_cutoff=image_cutoff)

    @classmethod
    def periodic(cls, n: int, params: PhysicalParams = PhysicalParams(),
                 image_cutoff: int | None = None) -> "PropagatorKernel":
        return cls("periodic", params, n=n, image_cutoff=image_cutoff)

    @classmethod
    def schrodinger_free(cls,
                         params: PhysicalParams = PhysicalParams()) -> "PropagatorKernel":
        return cls("schrodinger-free", params)

    @classmethod
    def schrodinger_box_packet(cls, n: int, mode_cutoff: int,
                               params: PhysicalParams = PhysicalParams()
                               ) -> "PropagatorKernel":
        return cls("schrodinger-box-packet", params, n=n, mode_cutoff=mode_cutoff)

    # evaluation -----------------------------------------------------------
    def __call__(self, j: int, r: int, dt: float) -> complex:
        if self.system == "free":
            return free_kernel(j, r, dt, self.params)
        if self.system == "box-spectral":
            return box_spectral_kernel(j, r, dt, self.n, self.params)
        if self.system == "box-images":
            return box_images_kernel(j, r, dt, self.n, self.params, self.image_cutoff)
        if self.system == "periodic":
            return periodic_kernel(j, r, dt, self.n, self.params, self.image_cutoff)
        if self.system == "schrodinger-free":
            mu0 = self.params.mu0
            return schrodinger_free_kernel(j * mu0, r * mu0, dt, self.params)
        # schrodinger-box-packet: truncated continuum mode sum (a density,
        # meaningful only smeared against a packet)
        length = self.n * self.params.mu0
        levels = np.arange(1, self.mode_cutoff + 1)
        energies = (levels * math.pi * self.params.hbar / length) ** 2 \
            / (2.0 * self.params.mass)
        terms = ((2.0 / length)
                 * np.sin(levels * math.pi * j / self.n)
                 * np.sin(levels * math.pi * r / self.n)
                 * np.exp(-1j * energies * float(dt) / self.params.hbar))
        return complex(np.sum(terms))

    def evaluates_on_lattice(self) -> bool:
        return self.system in _POLYMER_SYSTEMS


def _free_vector(z: float, m_lo: int, m_hi: int) -> np.ndarray:
    """Free kernel k(m) = i^|m| J_|m|(z) e^{-iz} for m = m_lo..m_hi, one table."""
    table = bessel_table(abs(z), max(abs(m_lo), abs(m_hi)))
    return _signed_terms(np.arange(m_lo, m_hi + 1), table, z) * np.exp(-1j * z)


def _circle_step(psi: np.ndarray, z: float) -> np.ndarray:
    """Exact evolution of amplitudes on the circle Z_2N, by FFT.

    Momentum q carries the phase e^{-iz(1 - cos(pi q/N))}, with 1 - cos
    taken as 2 sin^2 so that small gaps keep full relative accuracy.
    This is the periodic image sum with K -> infinity, no cutoff.  Phase
    rounding gives an absolute error of about z * eps (2e-12 at z = 1e4;
    the Bessel-table check routes do not grow with z).  z = 0 returns psi.
    """
    if z == 0.0:
        return psi
    period = len(psi)
    phases = np.exp(-2j * z * np.sin(math.pi * np.arange(period) / period) ** 2)
    return np.fft.ifft(phases * np.fft.fft(psi))


def _check_engine_kernel(kernel: PropagatorKernel) -> None:
    if not kernel.evaluates_on_lattice():
        raise ValueError(f"{kernel.system} is a continuum reference, not a lattice kernel")
    if kernel.image_cutoff is not None:
        raise ValueError("the circle step sums all images exactly; drop image_cutoff")


def kernel_table(kernel: PropagatorKernel, j_values, r_values,
                 dt: float) -> np.ndarray:
    """k(j, r, dt) for j in j_values (rows) and r in r_values (columns).

    Gathered from one kernel vector: the free orders j - r that occur, or
    the circle step of a delta, whose odd part is the box kernel.  Box
    walls are exactly 0; dt = 0 gives the exact identity.
    """
    _check_engine_kernel(kernel)
    js, rs = (np.asarray(v, dtype=np.int64) for v in (j_values, r_values))
    z = dimensionless_time(kernel.params, dt)
    diff = np.subtract.outer(js, rs)
    if kernel.system == "free":
        m_lo = int(diff.min())
        return _free_vector(z, m_lo, int(diff.max()))[diff - m_lo]
    n_box, period = kernel.n, 2 * kernel.n
    circle = _circle_step((np.arange(period) == 0).astype(complex), z)
    if kernel.system == "periodic":
        return circle[diff % period]
    if min(js.min(), rs.min()) < 0 or max(js.max(), rs.max()) > n_box:
        raise ValueError(f"site indices outside box 0..{n_box}")
    table = circle[diff % period] - circle[np.add.outer(js, rs) % period]
    table[(js == 0) | (js == n_box), :] = 0.0
    table[:, (rs == 0) | (rs == n_box)] = 0.0
    return table


def evolve(psi0: LatticeWavefunction, kernel: PropagatorKernel, dt: float,
           out_window: tuple[int, int] | None = None) -> LatticeWavefunction:
    """psi(x_j, t0+dt) = sum_r k(j, r, dt) psi_r, from one kernel vector.

    Free: np.convolve with the orders j - r the output window needs.
    Periodic: the exact circle step of psi folded onto Z_2N.  Their
    default output window pads the input by the Bessel truncation
    window, covering all amplitudes above double-precision noise.  Box
    (spectral and images alike): the circle step of the odd extension;
    it needs wall-free input and gives sites 0..N, walls exactly 0.
    Circle-step error is about z * eps (see _circle_step).  At dt = 0
    every system returns its input exactly.
    """
    _check_engine_kernel(kernel)
    lat = psi0.lattice
    params = lat.params
    if params != kernel.params:
        raise ValueError("state and kernel carry different physical parameters")
    z = dimensionless_time(params, dt)

    if kernel.system in ("box-spectral", "box-images"):
        n_box = kernel.n
        if out_window is not None and tuple(out_window) != (0, n_box):
            raise ValueError(f"box evolution always produces sites 0..{n_box}")
        full = _box_interior_amplitudes(psi0, n_box)
        out = _circle_step(np.concatenate([full, -full[-2:0:-1]]), z)[:n_box + 1]
        out[0] = out[n_box] = 0.0
        return LatticeWavefunction(Lattice(params, 0, n_box), out)

    if out_window is None:
        pad = truncation_window(abs(z))
        out_window = (lat.n_min - pad, lat.n_max + pad)
    lo, hi = int(out_window[0]), int(out_window[1])
    if lo > hi:
        raise ValueError(f"empty output window ({lo}, {hi})")
    if kernel.system == "periodic":
        period = 2 * kernel.n
        folded = np.zeros(period, dtype=complex)
        np.add.at(folded, lat.sites % period, psi0.amplitudes)
        out = _circle_step(folded, z)[np.arange(lo, hi + 1) % period]
    else:
        kvec = _free_vector(z, lo - lat.n_max, hi - lat.n_min)
        out = np.convolve(kvec, psi0.amplitudes, "valid")
    return LatticeWavefunction(Lattice(params, lo, hi), out)


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def composition_check(kernel: PropagatorKernel, j: int, r: int,
                      t0: float, t1: float, t: float,
                      window: tuple[int, int] | None = None) -> float:
    """|k(j,t;r,t0) - sum_n k(j,t;n,t1) k(n,t1;r,t0)| over the given window.

    Box systems use sites 0..N exactly (the sum is then finite and the
    identity holds to rounding).  For the free and periodic systems the
    default window pads [min(j,r), max(j,r)] by the truncation windows
    of both legs, outside of which the factors decay super-exponentially.
    """
    if not (t0 <= t1 <= t):
        raise ValueError(f"need t0 <= t1 <= t, got {t0}, {t1}, {t}")
    params = kernel.params
    dt_late = t - t1
    dt_early = t1 - t0
    direct = kernel(j, r, t - t0)

    if kernel.system in ("box-spectral", "box-images"):
        sites = np.arange(0, kernel.n + 1)
    else:
        if window is None:
            pad = (truncation_window(abs(dimensionless_time(params, dt_late)))
                   + truncation_window(abs(dimensionless_time(params, dt_early))))
            window = (min(j, r) - pad, max(j, r) + pad)
        sites = np.arange(int(window[0]), int(window[1]) + 1)

    late = np.array([kernel(j, int(n), dt_late) for n in sites])
    early = np.array([kernel(int(n), r, dt_early) for n in sites])
    return float(abs(direct - np.sum(late * early)))


@dataclass(frozen=True)
class GreenResidualReport:
    """Largest |i hbar dk/dt - (H k)_j| over a sample grid, and where it occurred."""

    max_abs_residual: float
    at: tuple[int, int, float]


def _check_positive_times(dt_values) -> list[float]:
    dts = [float(dt) for dt in dt_values]
    if not dts:
        raise ValueError("empty time grid")
    if any(dt <= 0.0 for dt in dts):
        raise ValueError("all grid times must be strictly after t0")
    return dts


def greens_residual(kernel: PropagatorKernel, j_values, r_values,
                    dt_values) -> GreenResidualReport:
    """Analytic Green's-function residual of the kernel for t > t0.

    The time derivative is evaluated in closed form: for the free kernel
    through dJ_n/dz = (J_{n-1} - J_{n+1})/2 plus the e^{-iz} factor, and
    for the box through the energy-weighted spectral sum.  H is applied
    as the second-difference stencil in the outgoing index.
    """
    dts = _check_positive_times(dt_values)
    params = kernel.params
    c_kin = 0.5 * params.energy_scale
    rate = params.hbar / (params.mass * params.mu0**2)  # dz/dt

    worst = 0.0
    worst_at = (int(j_values[0]), int(r_values[0]), dts[0])

    if kernel.system == "free":
        for dt in dts:
            z = dimensionless_time(params, dt)
            max_n = max(abs(int(r) - int(j)) for j in j_values for r in r_values) + 1
            table = bessel_table(abs(z), max_n)
            phase = np.exp(-1j * z)
            for j in j_values:
                for r in r_values:
                    m = int(r) - int(j)
                    jm = table.order(m)
                    djm = 0.5 * (table.order(m - 1) - table.order(m + 1))
                    ip = unit_imaginary_power(m)
                    dk_dt = rate * ip * phase * (djm - 1j * jm)
                    k0 = ip * table.order(m) * phase
                    kp = unit_imaginary_power(m - 1) * table.order(m - 1) * phase
                    km = unit_imaginary_power(m + 1) * table.order(m + 1) * phase
                    res = abs(1j * params.hbar * dk_dt
                              - c_kin * (2.0 * k0 - kp - km))
                    if res > worst:
                        worst, worst_at = res, (int(j), int(r), dt)
        return GreenResidualReport(worst, worst_at)

    if kernel.system == "box-spectral":
        n_box = kernel.n
        for j in j_values:
            if not (1 <= int(j) <= n_box - 1):
                raise ValueError(
                    f"stencil site {j} must be interior to the box 1..{n_box - 1}")
        levels = np.arange(1, n_box)
        gaps = 1.0 - np.cos(levels * math.pi / n_box)
        energies = params.energy_scale * gaps
        for dt in dts:
            z = dimensionless_time(params, dt)
            phases = np.exp(-1j * z * gaps)
            for j in j_values:
                for r in r_values:
                    sj = np.sin(levels * math.pi * int(j) / n_box)
                    sr = np.sin(levels * math.pi * int(r) / n_box)
                    coeff = (2.0 / n_box) * sj * sr
                    ihdk = np.sum(coeff * energies * phases)
                    k0 = box_spectral_kernel(int(j), int(r), dt, n_box, params)
                    kp = box_spectral_kernel(int(j) + 1, int(r), dt, n_box, params)
                    km = box_spectral_kernel(int(j) - 1, int(r), dt, n_box, params)
                    res = abs(ihdk - c_kin * (2.0 * k0 - kp - km))
                    if res > worst:
                        worst, worst_at = res, (int(j), int(r), dt)
        return GreenResidualReport(worst, worst_at)

    raise ValueError(f"analytic residual not defined for system {kernel.system!r}")


def greens_residual_fd(kernel: PropagatorKernel, j_values, r_values, dt_values,
                       step: float = 1e-6) -> GreenResidualReport:
    """Finite-difference cross-check of `greens_residual` (central, step h)."""
    dts = _check_positive_times(dt_values)
    if any(dt <= step for dt in dts):
        raise ValueError("grid times must exceed the differencing step")
    if not kernel.evaluates_on_lattice():
        raise ValueError(f"{kernel.system} is not a lattice kernel")
    params = kernel.params
    c_kin = 0.5 * params.energy_scale
    interior_only = kernel.system in ("box-spectral", "box-images")

    worst = 0.0
    worst_at = (int(j_values[0]), int(r_values[0]), dts[0])
    for dt in dts:
        for j in j_values:
            j = int(j)
            if interior_only and not (1 <= j <= kernel.n - 1):
                raise ValueError(f"stencil site {j} must be interior to the box")
            for r in r_values:
                r = int(r)
                dk_dt = (kernel(j, r, dt + step)
                         - kernel(j, r, dt - step)) / (2.0 * step)
                hk = c_kin * (2.0 * kernel(j, r, dt)
                              - kernel(j + 1, r, dt) - kernel(j - 1, r, dt))
                res = abs(1j * params.hbar * dk_dt - hk)
                if res > worst:
                    worst, worst_at = res, (j, r, dt)
    return GreenResidualReport(worst, worst_at)


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
    on the lattice.  Note the pointwise error saturates at the modulus
    of the counter-propagating lattice saddle, which only vanishes after
    smearing; see the demos for the packet-smeared comparison.
    """
    dx = float(dx)
    dt = float(dt)
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError("need dx > 0 and dt > 0")
    points = []
    for mu0 in mu0_list:
        mu0 = float(mu0)
        l_exact = dx / mu0
        sites = round(l_exact)
        if sites < 1 or abs(l_exact - sites) > 1e-9 * max(1.0, abs(l_exact)):
            raise ValueError(f"mu0 = {mu0} does not divide dx = {dx} evenly")
        params = PhysicalParams(hbar=hbar, mass=mass, mu0=mu0)
        z = dimensionless_time(params, dt)
        polymer = free_kernel(sites, 0, dt, params) / mu0
        continuum = schrodinger_free_kernel(dx, 0.0, dt, params)
        points.append(SweepPoint(mu0=mu0, sites=sites, z=z,
                                 abs_error=float(abs(polymer - continuum))))
    return points


def box_mode_coefficients(packet, length: float, num_modes: int,
                          num_quad: int | None = None) -> np.ndarray:
    """Continuum box-mode coefficients c_l = (2/L) integral sin(l pi y / L) f(y) dy."""
    num_modes = int(num_modes)
    if num_quad is None:
        # keep the highest mode far below the quadrature Nyquist limit
        num_quad = max(4097, 8 * num_modes + 1)
    y = np.linspace(0.0, float(length), int(num_quad))
    f = np.asarray(packet(y), dtype=complex)
    levels = np.arange(1, num_modes + 1)
    modes = np.sin(np.outer(levels, y) * math.pi / length)
    return (2.0 / length) * np.trapezoid(modes * f[None, :], y, axis=1)


def schrodinger_box_evolve(packet, x_eval, dt: float, length: float,
                           params: PhysicalParams,
                           mode_cutoff: int | None = None,
                           coeff_floor: float = 1e-14) -> np.ndarray:
    """Continuum box evolution of a smooth packet by the spectral series.

    The pointwise kernel series does not converge; the packet-smeared
    series does, because the mode coefficients of a smooth packet decay
    fast.  With mode_cutoff=None modes are added until the smallest
    retained coefficient is below coeff_floor of the largest.
    """
    dt = float(dt)
    length = float(length)
    if mode_cutoff is None:
        num = 64
        prev_tail = math.inf
        while True:
            coeffs = box_mode_coefficients(packet, length, num)
            peak = float(np.max(np.abs(coeffs)))
            tail = float(np.max(np.abs(coeffs[-8:])))
            if peak == 0.0 or tail < coeff_floor * peak:
                break
            if tail > 0.25 * prev_tail or num >= 8192:
                # tail no longer decays geometrically: residual wall
                # mismatch or quadrature floor; more modes add nothing
                break
            prev_tail = tail
            num *= 2
        mode_cutoff = num
    else:
        coeffs = box_mode_coefficients(packet, length, int(mode_cutoff))
    levels = np.arange(1, int(mode_cutoff) + 1)
    energies = (levels * math.pi * params.hbar / length) ** 2 / (2.0 * params.mass)
    x = np.atleast_1d(np.asarray(x_eval, dtype=float))
    modes = np.sin(np.outer(x, levels) * math.pi / length)
    return modes @ (coeffs * np.exp(-1j * energies * dt / params.hbar))
