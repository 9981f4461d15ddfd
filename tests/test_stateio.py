import json
import re
import tracemalloc

import numpy as np
import pytest

from polymerqm.lattice import Lattice, LatticeWavefunction, PhysicalParams
from polymerqm.stateio import load_wavefunction, save_wavefunction, sidecar_path, write_atomic


def _sample_state():
    lat = Lattice(PhysicalParams(hbar=0.5, mass=2.0, mu0=0.25), -2, 2)
    rng = np.random.default_rng(99)
    return LatticeWavefunction(lat, rng.normal(size=5) + 1j * rng.normal(size=5))


def test_roundtrip_exact(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    back = load_wavefunction(path)
    assert back.lattice == psi.lattice
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_save_load_save_is_byte_stable(tmp_path):
    psi = _sample_state()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_wavefunction(psi, first)
    save_wavefunction(load_wavefunction(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert sidecar_path(first).read_text() == sidecar_path(second).read_text()


def test_missing_sidecar(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    sidecar_path(path).unlink()
    with pytest.raises(ValueError, match="sidecar"):
        load_wavefunction(path)


def test_malformed_sidecar(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    sidecar_path(path).write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_wavefunction(path)


def test_sidecar_missing_field(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    meta = json.loads(sidecar_path(path).read_text())
    del meta["mu0"]
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_wavefunction(path)


def test_bad_header(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    lines = path.read_text().splitlines()
    lines[0] = "site,re,im"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="header"):
        load_wavefunction(path)


def test_site_column_must_match_window(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # break strict ordering
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="site column"):
        load_wavefunction(path)


def test_malformed_row(tmp_path):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    lines = path.read_text().splitlines()
    for row in ("0,1.0", "0,abc,0.0", '"0",1.0,0.0'):  # two fields; not a number; quoted
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"malformed row {row.split(',')!r}")):
            load_wavefunction(path)


def test_file_bytes_are_pinned(tmp_path):
    lat = Lattice(PhysicalParams(mu0=0.5), -1, 0)
    save_wavefunction(LatticeWavefunction(lat, [0.25 - 1j, 0.0]), tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == \
        b"n,re,im\r\n-1,0.25,-1.0\r\n0,0.0,0.0\r\n"
    assert (tmp_path / "s.json").read_text() == (
        '{\n  "hbar": 1.0,\n  "mass": 1.0,\n  "mu0": 0.5,\n'
        '  "n_min": -1,\n  "n_max": 0\n}\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.json"]


def test_failed_save_leaves_old_files_whole(tmp_path, monkeypatch):
    psi = _sample_state()
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("polymerqm.stateio.os.replace", no_rename)
    with pytest.raises(OSError):
        save_wavefunction(LatticeWavefunction(psi.lattice, np.ones(5)), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_atomic_takes_chunks_and_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "t.csv"
    write_atomic(path, (line + "\r\n" for line in ("a,b", "1,2")))
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"

    def failing():
        yield "partial\r\n"
        raise ValueError("row failed")

    with pytest.raises(ValueError, match="row failed"):
        write_atomic(path, failing())
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


# ---------------------------------------------------------------------------
# the reader and writer hold one block of sites at a time
# ---------------------------------------------------------------------------

BLOCK = 4096  # stateio._BLOCK


def _state(size, n_min=-3):
    lat = Lattice(PhysicalParams(hbar=0.5, mass=2.0, mu0=0.25), n_min, n_min + size - 1)
    rng = np.random.default_rng(size)
    return LatticeWavefunction(lat, rng.normal(size=size) + 1j * rng.normal(size=size))


def _saved(tmp_path, size):
    path = tmp_path / "state.csv"
    save_wavefunction(_state(size), path)
    return path, path.read_bytes().decode().split("\r\n")  # header, rows, ""


def _site_column_error(path, n_min, n_max):
    return pytest.raises(ValueError, match=re.escape(
        f"{path}: site column must be exactly {n_min}..{n_max} in increasing order"))


@pytest.mark.parametrize("size", [BLOCK, BLOCK + 1])
def test_one_block_and_one_more_row_roundtrip_byte_for_byte(tmp_path, size):
    path, lines = _saved(tmp_path, size)
    assert len(lines) == size + 2
    back = load_wavefunction(path)
    assert np.array_equal(back.amplitudes, _state(size).amplitudes)
    save_wavefunction(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_declared_window_is_refused_without_building_it(tmp_path):
    # the sites were compared with list(range(n_min, n_max + 1)): 411 MB of RSS
    # at n_max = 10^7, a MemoryError at 10^11
    path, _ = _saved(tmp_path, 3)
    meta = json.loads(sidecar_path(path).read_text())
    sidecar_path(path).write_text(json.dumps({**meta, "n_max": 10**11}))
    tracemalloc.start()
    try:
        with _site_column_error(path, -3, 10**11):
            load_wavefunction(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_malformed_row_after_the_first_block(tmp_path):
    path, lines = _saved(tmp_path, BLOCK + 10)
    lines[BLOCK + 5] = "4097,1.0"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=re.escape("malformed row ['4097', '1.0']")):
        load_wavefunction(path)


def test_malformed_row_anywhere_is_reported_before_a_site_mismatch(tmp_path):
    path, lines = _saved(tmp_path, BLOCK + 10)
    lines[1], lines[2] = lines[2], lines[1]  # out of order in the first block
    lines[BLOCK + 5] = "x,1.0,0.0"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=re.escape("malformed row ['x', '1.0', '0.0']")):
        load_wavefunction(path)


@pytest.mark.parametrize("edit", ["missing", "extra", "swapped"])
def test_site_mismatch_at_a_block_boundary(tmp_path, edit):
    path, lines = _saved(tmp_path, 2 * BLOCK)
    row = BLOCK + 1  # the first row of the second block; lines[0] is the header
    if edit == "missing":
        del lines[row]
    elif edit == "extra":
        lines.insert(-1, f"{BLOCK * 2 - 3},0.0,0.0")  # one row past n_max
    else:
        lines[row - 1], lines[row] = lines[row], lines[row - 1]
    path.write_text("\r\n".join(lines))
    with _site_column_error(path, -3, 2 * BLOCK - 4):
        load_wavefunction(path)


def test_save_and_load_peak_in_blocks(tmp_path):
    # 2^16 sites, 1 MiB of amplitudes: the whole-state lists peaked at 6.5 MiB
    # (save) and 7.3 MiB (load); per-block arrays and their concatenation at
    # 2.07 MiB.  One array of the declared window, filled row by row,
    # measured 1.07 MiB
    psi = _state(2**16)
    path = tmp_path / "state.csv"
    save_wavefunction(psi, path)
    peaks = []
    for call in (lambda: save_wavefunction(psi, path), lambda: load_wavefunction(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2**20
    assert peaks[1] < 1.5 * psi.amplitudes.nbytes
    assert np.array_equal(load_wavefunction(path).amplitudes, psi.amplitudes)


def test_rows_past_the_declared_window_are_not_kept(tmp_path):
    # a sidecar declaring 3 sites over a file of 8192 rows: the rows past n_max
    # are parsed for malformed cells, but their amplitudes are not held
    path, _ = _saved(tmp_path, 2 * BLOCK)
    meta = json.loads(sidecar_path(path).read_text())
    sidecar_path(path).write_text(json.dumps({**meta, "n_max": -1}))
    tracemalloc.start()
    try:
        with _site_column_error(path, -3, -1):
            load_wavefunction(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
