"""Independent numpy-only references and the output checks built on them.

Nothing here imports polymerqm, so the library never checks itself:

- free and periodic kernels come from an FFT on the momentum circle,
  k(m) = (1/L) sum_q exp(-i z (1 - cos t_q)) exp(-i m t_q), t_q = 2 pi q / L,
  which is exact for the periodic system (L = 2N) and, for the free
  system, exact up to aliasing that the circle length pushes far below
  double precision;
- box kernels come from the eigendecomposition of the (N-1)-site
  tridiagonal Hamiltonian, computed by LAPACK rather than from the
  closed-form sine modes the library uses.

Each check parses the CLI's output file with the csv module and raises
`CheckFailed` on any mismatch; on success it returns the data row count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


class CheckFailed(Exception):
    """An output file is missing, malformed, or outside its tolerance."""


def kernel_tolerance(z: float) -> float:
    """Allowed |error| of one kernel value at dimensionless time z.

    The phases exp(-iz(1 - cos t)) carry a rounding error of order z*eps
    on both routes; the floor covers the library's own summation error.
    """
    return 1e-11 + 64.0 * abs(z) * EPS


def reach(z: float) -> int:
    """Order beyond which |J_n(z)| is far below double precision.

    Wider than the library's truncation window on purpose, so the
    reference does not inherit its cutoff.
    """
    z = abs(float(z))
    return math.ceil(z + 24.0 * z ** (1.0 / 3.0) + 40.0)


def circle_kernel(z: float, length: int) -> np.ndarray:
    """k(m) for m = 0..length-1 on a momentum circle of `length` points."""
    half_angles = np.pi * np.arange(length) / length
    # 1 - cos t = 2 sin^2(t/2) keeps small angles accurate
    phases = np.exp(-2j * z * np.sin(half_angles) ** 2)
    return np.fft.fft(phases) / length


def free_kernel_vector(z: float, m_max: int) -> np.ndarray:
    """Free kernel e^{-iz} i^|m| J_|m|(z) for m = -m_max..m_max."""
    need = m_max + reach(z) + 1
    length = 1 << max(6, math.ceil(math.log2(need)))
    full = circle_kernel(z, length)
    return full[np.arange(-m_max, m_max + 1) % length]


class BoxPropagator:
    """exp(-i z A) on the N-1 interior sites, A = tridiag(-1/2, 1, -1/2).

    The box Hamiltonian is (hbar^2/m mu0^2) A, so the propagator after dt
    depends only on z = hbar dt / (m mu0^2).
    """

    def __init__(self, n_box: int):
        size = n_box - 1
        a = np.diag(np.ones(size)) - 0.5 * np.diag(np.ones(size - 1), 1) \
            - 0.5 * np.diag(np.ones(size - 1), -1)
        self.levels, self.vectors = np.linalg.eigh(a)

    def matrix(self, z: float) -> np.ndarray:
        phases = np.exp(-1j * z * self.levels)
        return (self.vectors * phases) @ self.vectors.T

    def apply(self, z: float, interior: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * z * self.levels)
        return self.vectors @ (phases * (self.vectors.T @ interior))


def _read_rows(path: str, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path}: header {rows[:1]!r}, want {header!r}")
    return rows[1:]


def _floats(path: str, rows: list[list[str]], cols: slice) -> np.ndarray:
    try:
        return np.array([[float(v) for v in row[cols]] for row in rows])
    except ValueError as exc:
        raise CheckFailed(f"{path}: non-numeric field: {exc}") from exc


# ---------------------------------------------------------------------------
# expectations: one per job, built at set-up time
# ---------------------------------------------------------------------------

@dataclass
class StateExpect:
    """An evolved state file checked against reference amplitudes.

    `amplitudes` start at site `ref_min`; sites outside that range are
    zero. With `window` set the file must cover exactly those sites.
    Without it (free evolution on the library's default window) any
    window is accepted whose dropped amplitudes are within tol as well.
    """

    params: dict
    ref_min: int
    amplitudes: np.ndarray
    tol: float
    window: tuple | None

    def check(self, path: str) -> int:
        rows = _read_rows(path, ["n", "re", "im"])
        if not rows:
            raise CheckFailed(f"{path}: no sites")
        data = _floats(path, rows, slice(0, 3))
        lo, hi = int(data[0, 0]), int(data[-1, 0])
        if self.window is not None and (lo, hi) != tuple(self.window):
            raise CheckFailed(f"{path}: window {lo}..{hi}, want {self.window}")
        if not np.array_equal(data[:, 0], np.arange(lo, hi + 1)):
            raise CheckFailed(f"{path}: site column is not {lo}..{hi}")
        ref_max = self.ref_min + len(self.amplitudes) - 1
        want = np.zeros(hi - lo + 1, dtype=complex)
        a, b = max(lo, self.ref_min), min(hi, ref_max)
        if a <= b:
            want[a - lo:b - lo + 1] = self.amplitudes[a - self.ref_min:b - self.ref_min + 1]
        dev = float(np.max(np.abs(data[:, 1] + 1j * data[:, 2] - want)))
        if self.window is None:
            sites = np.arange(self.ref_min, ref_max + 1)
            dropped = np.abs(self.amplitudes[(sites < lo) | (sites > hi)])
            dev = max(dev, float(np.max(dropped, initial=0.0)))
        if not dev <= self.tol:
            raise CheckFailed(f"{path}: max deviation {dev:.3e} > tol {self.tol:.3e}")
        sidecar = path[:-len(".csv")] + ".json"
        try:
            with open(sidecar) as f:
                meta = json.load(f)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"bad sidecar {sidecar}: {exc}") from exc
        want_meta = dict(self.params, n_min=lo, n_max=hi)
        if meta != want_meta:
            raise CheckFailed(f"{sidecar}: {meta!r}, want {want_meta!r}")
        return len(rows)


@dataclass
class TableExpect:
    """A kernel table: one row per (dt, j, r) in order, values within tol."""

    system: str
    index: np.ndarray    # columns j, r, dt, z
    values: np.ndarray
    tol: np.ndarray      # per row

    def check(self, path: str) -> int:
        rows = _read_rows(path, ["system", "j", "r", "dt", "z", "re", "im"])
        if len(rows) != len(self.values):
            raise CheckFailed(f"{path}: {len(rows)} rows, want {len(self.values)}")
        if any(row[0] != self.system for row in rows):
            raise CheckFailed(f"{path}: system column is not {self.system!r}")
        data = _floats(path, rows, slice(1, 7))
        if not np.array_equal(data[:, :3], self.index[:, :3]):
            raise CheckFailed(f"{path}: (j, r, dt) columns differ from the job")
        if not np.allclose(data[:, 3], self.index[:, 3], rtol=1e-12, atol=0.0):
            raise CheckFailed(f"{path}: z column differs from hbar*dt/(m*mu0^2)")
        dev = np.abs(data[:, 4] + 1j * data[:, 5] - self.values)
        bad = np.flatnonzero(~(dev <= self.tol))
        if bad.size:
            i = int(bad[0])
            raise CheckFailed(f"{path}: row {i + 1} deviates by {dev[i]:.3e} "
                              f"> tol {self.tol[i]:.3e}")
        return len(rows)


@dataclass
class SweepExpect:
    """A continuum sweep: one row per spacing with its pointwise error."""

    mu0: np.ndarray
    sites: np.ndarray
    z: np.ndarray
    abs_error: np.ndarray
    tol: np.ndarray      # on abs_error

    def check(self, path: str) -> int:
        rows = _read_rows(path, ["mu0", "l", "z", "abs_error", "empirical_order"])
        if len(rows) != len(self.mu0):
            raise CheckFailed(f"{path}: {len(rows)} rows, want {len(self.mu0)}")
        data = _floats(path, rows, slice(0, 4))
        if not (np.array_equal(data[:, 0], self.mu0)
                and np.array_equal(data[:, 1], self.sites)
                and np.allclose(data[:, 2], self.z, rtol=1e-12, atol=0.0)):
            raise CheckFailed(f"{path}: (mu0, l, z) columns differ from the job")
        dev = np.abs(data[:, 3] - self.abs_error)
        if not np.all(dev <= self.tol):
            raise CheckFailed(f"{path}: abs_error deviates by {float(np.max(dev)):.3e}")
        # log2 of consecutive error ratios; its error follows from theirs
        rel = self.tol / self.abs_error
        for i, row in enumerate(rows):
            if i + 1 == len(rows):
                if row[4] != "":
                    raise CheckFailed(f"{path}: last row has an order {row[4]!r}")
                continue
            want = math.log2(self.abs_error[i] / self.abs_error[i + 1])
            try:
                got = float(row[4])
            except ValueError as exc:
                raise CheckFailed(f"{path}: bad order {row[4]!r}") from exc
            if not abs(got - want) <= 2.0 * (rel[i] + rel[i + 1]) / math.log(2.0):
                raise CheckFailed(f"{path}: row {i + 1} order {got!r}, want {want!r}")
        return len(rows)


class VerifyExpect:
    """A verify report: at least one check record and every record `pass`."""

    def check(self, path: str) -> int:
        rows = _read_rows(path, ["suite", "name", "deviation", "tolerance", "status"])
        if not rows:
            raise CheckFailed(f"{path}: no check records")
        failed = [f"{r[0]}/{r[1]}" for r in rows if len(r) != 5 or r[4] != "pass"]
        if failed:
            raise CheckFailed(f"{path}: checks not passing: {failed}")
        return len(rows)
