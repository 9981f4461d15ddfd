import json
import re

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
