"""Wavefunction files: CSV amplitudes plus a JSON sidecar with lattice metadata.

Layout for a state stored at `state.csv`:

  state.csv   header `n,re,im`, one row per site, sites strictly increasing
  state.json  {"hbar": ..., "mass": ..., "mu0": ..., "n_min": ..., "n_max": ...}

The CSV is the command line's one format: CRLF line ends, floats as
shortest round-trip `repr`, no quoting, one f-string per line.  So a
load/save cycle is lossless.  A save holds the Python objects of one block
of `_BLOCK` sites, a load one array of the declared window, never more.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .lattice import Lattice, LatticeWavefunction, PhysicalParams

_HEADER = ["n", "re", "im"]
_BLOCK = 4096  # sites per formatted or parsed block; also cells per kernel-table gather


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_atomic(path: str | Path, chunks) -> None:
    """Write str chunks, as they come, to a temp file beside `path`, then rename it.

    The rename installs a new file: an old file's mode and owner, or a
    symlink at `path`, are replaced, not kept or written through.  The
    random temp name is created exclusively, so writers never share it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_lines(header: list[str], lines):
    """The header, then the given lines, each ended by CRLF."""
    yield ",".join(header) + "\r\n"
    for line in lines:
        yield line + "\r\n"


def save_wavefunction(psi: LatticeWavefunction, csv_path: str | Path) -> None:
    lat, amps = psi.lattice, psi.amplitudes
    lines = (f"{n},{re!r},{im!r}" for lo in range(0, amps.size, _BLOCK)
             for n, re, im in zip(range(lat.n_min + lo, lat.n_max + 1),
                                  amps[lo:lo + _BLOCK].real.tolist(),
                                  amps[lo:lo + _BLOCK].imag.tolist()))
    meta = {"hbar": lat.params.hbar, "mass": lat.params.mass, "mu0": lat.params.mu0,
            "n_min": lat.n_min, "n_max": lat.n_max}
    write_atomic(csv_path, _csv_lines(_HEADER, lines))
    write_atomic(sidecar_path(csv_path), [json.dumps(meta, indent=2) + "\n"])


def load_wavefunction(csv_path: str | Path) -> LatticeWavefunction:
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    if not meta_path.exists():
        raise ValueError(f"missing sidecar metadata file {meta_path}")
    with open(meta_path) as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed sidecar JSON {meta_path}: {exc}") from exc
    try:
        params = PhysicalParams(hbar=meta["hbar"], mass=meta["mass"], mu0=meta["mu0"])
        lattice = Lattice(params, n_min=meta["n_min"], n_max=meta["n_max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"sidecar {meta_path} missing or invalid field: {exc}") from exc

    # made once the file can hold 6 bytes a row ("n,0,0\n"); a malformed row outranks a mismatch
    mismatch = ValueError(f"{csv_path}: site column must be exactly {lattice.n_min}.."
                          f"{lattice.n_max} in increasing order")
    with open(csv_path) as f:  # no quoting in the format: a line splits on ","
        if os.fstat(f.fileno()).st_size < 6 * lattice.num_sites:
            raise mismatch
        amps, in_order, expected = np.empty(lattice.num_sites, complex), True, lattice.n_min - 1
        rows = (line.rstrip("\n").split(",") if line != "\n" else [] for line in f)
        header = next(rows, None)
        if header != _HEADER:
            raise ValueError(f"{csv_path}: expected header {','.join(_HEADER)!r}, "
                             f"got {header!r}")
        for expected, row in enumerate(rows, lattice.n_min):
            if len(row) != 3:
                raise ValueError(f"{csv_path}: malformed row {row!r}")
            try:
                site, amp = int(row[0]), complex(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise ValueError(f"{csv_path}: malformed row {row!r}") from exc
            if in_order and site == expected <= lattice.n_max:
                amps[expected - lattice.n_min] = amp
            else:
                in_order = False

    if not in_order or expected != lattice.n_max:
        raise mismatch
    return LatticeWavefunction(lattice, amps)
