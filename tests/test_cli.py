import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from polymerqm import SUITE_NAMES
from polymerqm.cli import _inputs_of, build_parser, main
from polymerqm.lattice import (Lattice, LatticeWavefunction, PhysicalParams, delta_state,
                               gaussian_packet)
from polymerqm.spectral import box_spectrum
from polymerqm.stateio import load_wavefunction, save_wavefunction


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_kernel_free_identity_row(tmp_path, capsys):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--system", "free", "--dt", "0",
               "--j-min", "0", "--j-max", "0", "--r-min", "0", "--r-max", "0",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["re"]) == 1.0
    assert float(rows[0]["im"]) == 0.0


def test_kernel_box_single_mode_phase(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--system", "box", "--N", "2", "--dt", repr(math.pi),
               "--j-min", "1", "--j-max", "1", "--r-min", "1", "--r-max", "1",
               "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert float(row["re"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(row["im"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["z"]) == pytest.approx(math.pi)


def test_kernel_periodic_system(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--system", "periodic", "--N", "3", "--dt", "0",
               "--j-min", "0", "--j-max", "6", "--r-min", "0", "--r-max", "0",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    by_j = {int(r["j"]): float(r["re"]) for r in rows}
    assert by_j[0] == pytest.approx(1.0)   # j = r = 0
    assert by_j[6] == pytest.approx(1.0)   # one period 2N = 6 away
    assert by_j[3] == pytest.approx(0.0, abs=1e-15)


def test_kernel_box_index_out_of_range(tmp_path):
    rc = main(["kernel", "--system", "box", "--N", "3", "--dt", "1",
               "--j-min", "0", "--j-max", "5", "--out", str(tmp_path / "k.csv")])
    assert rc == 2
    assert not (tmp_path / "k.csv").exists()


def test_kernel_json_format(tmp_path):
    out = tmp_path / "k.json"
    rc = main(["kernel", "--system", "free", "--dt", "1.0", "--format", "json",
               "--j-min", "-1", "--j-max", "1", "--r-min", "0", "--r-max", "0",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert rows[0]["system"] == "free"


def test_malformed_config_no_partial_output(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "k.csv"
    for text, named in (("{this is not json", "malformed config"),
                        ("[1]", "must hold a JSON object")):
        cfg.write_text(text)
        rc = main(["kernel", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("spacings,named", [
    (["--mu0-list", " , "], "argument --mu0-list: empty mu0 list"),  # blank tokens skipped
    ([], "error: sweep needs mu0_list (flag --mu0-list or config)"),
], ids=["blank list", "no list"])
def test_sweep_without_spacings_exits_2(tmp_path, capsys, spacings, named):
    out = tmp_path / "s.csv"
    assert _exit_code(["sweep", "--dx", "1", "--dt", "1", *spacings, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mu": 0.5}))
    rc = main(["kernel", "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("bad", [
    {"system": "box", "N": 3.9},
    {"system": "box", "N": "4"},
    {"system": "box", "N": True},
    {"seed": 1.5},
    {"seed": True},
    {"times": 5},
    {"times": "12"},
    {"times": [True]},
    {"mu0_list": "1/8"},
    {"mu0_list": [0.5, "x"]},
    {"dx": "1"},
    {"hbar": True},
    # too large for a float: math.isfinite raised an uncaught OverflowError, exit 1
    pytest.param({"hbar": 10**400}, id='{"hbar": 10**400}'),
    {"tolerances": 5},
    {"tolerances": {"free/unitarity": None}},
    {"tolerances": {"free/unitarity": True}},
], ids=lambda bad: json.dumps(bad))
def test_config_value_types_exit_2(tmp_path, capsys, bad):
    # run on a command that reads the key, so the type check fires rather
    # than the unread-key check; the last key of each case is the bad one
    key = list(bad)[-1]
    command = {"seed": "verify", "tolerances": "verify",
               "dx": "sweep", "mu0_list": "sweep"}.get(key, "kernel")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "k.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not out.exists()


def test_evolve_fractional_box_size_exits_2(tmp_path):
    # a float N used to be truncated to a smaller box
    spec = box_spectrum(4, PhysicalParams())
    src = tmp_path / "eig.csv"
    save_wavefunction(spec.eigenstate(1), src)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": "box", "N": 3.9}))
    dst = tmp_path / "out.csv"
    assert main(["evolve", str(src), "--config", str(cfg), "--dt", "1",
                 "--out", str(dst)]) == 2
    assert not dst.exists()


def test_config_with_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "box", "N": 2, "times": [0.0],
                               "format": "csv"}))
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--config", str(cfg), "--N", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert {int(r["j"]) for r in rows} == {0, 1, 2, 3}  # flag overrode N


def test_evolve_delta_identity_bytes(tmp_path):
    params = PhysicalParams()
    lat = Lattice(params, -3, 3)
    src = tmp_path / "delta.csv"
    save_wavefunction(delta_state(lat, 1), src)
    dst = tmp_path / "out.csv"
    rc = main(["evolve", str(src), "--system", "free", "--dt", "0",
               "--out-window=-3:3", "--out", str(dst)])
    assert rc == 0
    assert src.read_bytes() == dst.read_bytes()


def test_evolve_box_eigenvector_norms(tmp_path, capsys):
    spec = box_spectrum(5, PhysicalParams(mu0=0.5))
    src = tmp_path / "eig.csv"
    save_wavefunction(spec.eigenstate(2), src)
    dst = tmp_path / "out.csv"
    rc = main(["evolve", str(src), "--system", "box", "--N", "5",
               "--dt", "1.7", "--out", str(dst)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    before = float(lines[0].split("=")[1])
    after = float(lines[1].split("=")[1])
    assert abs(before - after) <= 1e-12


def test_evolve_output_reloads_identically(tmp_path):
    params = PhysicalParams()
    lat = Lattice(params, -4, 4)
    rng = np.random.default_rng(8)
    psi = LatticeWavefunction(lat, rng.normal(size=9) + 1j * rng.normal(size=9))
    src = tmp_path / "in.csv"
    save_wavefunction(psi, src)
    dst = tmp_path / "out.csv"
    rc = main(["evolve", str(src), "--system", "free", "--dt", "0.9",
               "--out", str(dst)])
    assert rc == 0
    evolved = load_wavefunction(dst)
    resaved = tmp_path / "resaved.csv"
    save_wavefunction(evolved, resaved)
    assert dst.read_bytes() == resaved.read_bytes()


def test_evolve_missing_sidecar(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("n,re,im\n0,1.0,0.0\n")
    rc = main(["evolve", str(src), "--system", "free", "--dt", "1",
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2


def test_evolve_wall_violation_exit_code(tmp_path):
    params = PhysicalParams()
    lat = Lattice(params, 0, 4)
    psi = LatticeWavefunction(lat, [0.5, 0.5, 0.5, 0.5, 0.5])
    src = tmp_path / "in.csv"
    save_wavefunction(psi, src)
    for dt in ("1", "1e18"):  # the wall check runs first: exit 3, not the z range's exit 2
        rc = main(["evolve", str(src), "--system", "box", "--N", "4", "--dt", dt,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 3


def test_verify_free_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "free", "--out", str(out)])
    assert rc == 0
    names = {row["name"] for row in read_csv(out)}
    assert {"unitarity", "composition", "greens-residual",
            "initial-condition"} <= names
    assert all(row["status"] == "pass" for row in read_csv(out))


def test_verify_box_suite(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "box", "--N", "6", "--out", str(out)])
    assert rc == 0
    names = {row["name"] for row in read_csv(out)}
    assert {"spectral-vs-images", "boundary-zeros", "eigenphase"} <= names


def test_verify_momentum_suite_compares_fft_and_dense_routes_last(tmp_path):
    # the new record follows the existing ones; its tolerance is 4 pi eps,
    # applied to differences scaled by (max|n| + 1) sum|psi_n|
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "momentum", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [row["name"] for row in rows] == [
        "phase-evolution", "parseval", "roundtrip", "periodicity", "fft-vs-dense"]
    assert rows[-1]["tolerance"] == repr(4.0 * math.pi * 2.0**-52)
    assert all(row["status"] == "pass" for row in rows)


@pytest.mark.parametrize("suite", ["all", "bessel"])
@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_rejects_box_size_below_two(tmp_path, capsys, suite, n):
    # N = 0 is a given size, not a missing one: no silent N = 8
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", suite, "--N", n, "--out", str(out)]) == 2
    assert "integer >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_verify_box_past_the_old_spectrum_limit_passes(tmp_path):
    # N = 5,793 was refused (exit 2) for eigenphase's dense box spectrum, which is gone
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "box", "--N", "5793", "--out", str(out)]) == 0
    assert out.read_bytes().count(b",pass\r\n") == 14


def test_verify_box_at_the_largest_n_names_the_table_limit(tmp_path, capsys):
    # N = 2^24 is a legal box (2N = 2^25), but boundary-zeros' two rows of N + 1
    # sites are over the entry limit: refused by name before the table is made
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "box", "--N", str(2**24), "--out", str(out)]) == 2
    assert "table of 2 x 16777217 entries is over the limit 33554432" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    *(["--mu0", f"{mu0:g}"] for mu0 in (1e-4, 1e-3, 1e-2, 0.05, 0.1, 1.0, 10.0, 100.0, 1e3)),
    *(["--hbar", f"{10.0**k:g}"] for k in range(-3, 4)),
    *(["--mass", f"{10.0**k:g}"] for k in range(-6, 5)),
    ["--hbar", "0.9", "--mass", "1.3"],
], ids=" ".join)
def test_verify_passes_in_the_papers_units(tmp_path, argv):
    # sample times and the differencing step are in z, energies and residuals in
    # hbar^2/(m mu0^2): mu0 = 0.01 and hbar = 100 exited 1, mu0 = 1e-3 and mass = 1e-6 exit 2
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "all", *argv, "--out", str(out)]) == 0
    assert ",fail" not in out.read_text()


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_rejects_a_negative_seed(tmp_path, capsys, suite):
    # random.Random(-s) is Random(s): a negative seed would alias its opposite
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [True, 1.5, "1"])
def test_run_suite_takes_only_an_integer_seed(seed):
    # operator.index took True as seed 1 and raised a TypeError for 1.5
    from polymerqm import verify

    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        verify.run_suite("continuum", seed=seed)


def test_verify_fails_a_record_with_a_nan_sample(tmp_path, monkeypatch):
    # z = 100 is the last sample of recurrence and sum-of-squares: the builtin max
    # dropped its NaN, and both records passed at 1.1e-16 and 2.2e-16
    from polymerqm import verify

    real = verify.bessel_table
    monkeypatch.setattr(verify, "bessel_table", lambda z, n: real(z, n) * (
        math.nan if z == 100.0 else 1.0))
    records = {r.name: r for r in verify.run_suite("bessel")}
    for name in ("recurrence", "sum-of-squares"):
        assert math.isnan(records[name].deviation) and not records[name].passed
    assert all(r.passed for r in records.values() if r.name not in ("recurrence", "sum-of-squares"))
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "bessel", "--out", str(out)]) == 1
    status = {row["name"]: (row["deviation"], row["status"]) for row in read_csv(out)}
    assert status["recurrence"] == status["sum-of-squares"] == ("nan", "fail")


def test_verify_accepts_a_seed_beyond_64_bits(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "bessel", "--seed", str(2**70),
                 "--out", str(out)]) == 0
    assert all(row["status"] == "pass" for row in read_csv(out))


def test_kernel_box_without_n_exits_2(capsys):
    assert main(["kernel", "--system", "box", "--dt", "1"]) == 2
    assert "N must be an integer >= 2, got None" in capsys.readouterr().err


def test_verify_corrupted_tolerance_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "momentum",
        "tolerances": {"momentum/roundtrip": 0.0},
    }))
    rc = main(["verify", "--config", str(cfg),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    rows = read_csv(tmp_path / "r.csv")
    bad = [r for r in rows if r["name"] == "roundtrip"]
    assert bad[0]["status"] == "fail"


def test_verify_tolerance_keys_name_one_record(tmp_path):
    # "greens-residual" is a record of both free and box: a suite/name key
    # loosens only the record it names, a bare name or an unknown key exits 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "all",
                               "tolerances": {"free/greens-residual": 1e-3}}))
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    tol = {(r["suite"], r["name"]): float(r["tolerance"]) for r in read_csv(out)}
    assert tol[("free", "greens-residual")] == 1e-3
    assert tol[("box", "greens-residual")] == 1e-10
    for key in ("greens-residual", "no-such-record"):
        cfg.write_text(json.dumps({"suite": "all", "tolerances": {key: 1e-3}}))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2


@pytest.mark.parametrize("flag", ["--hbar", "--mass", "--mu0"])
def test_evolve_rejects_physics_flags(tmp_path, flag):
    # the state's sidecar carries the physics, so evolve takes no such flag
    src = tmp_path / "in.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), -2, 2), 0), src)
    with pytest.raises(SystemExit) as exc:
        main(["evolve", str(src), "--system", "free", "--dt", "1", flag, "3",
              "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.csv").exists()


def test_sweep_outputs_and_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--dx", "1", "--dt", "1",
               "--mu0-list", "1/8,1/16,1/32,1/64", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    errors = [float(r["abs_error"]) for r in rows]
    assert all(errors[i] > errors[i + 1] for i in range(3))
    assert [int(r["l"]) for r in rows] == [8, 16, 32, 64]
    assert rows[-1]["empirical_order"] == ""
    for row in rows[:-1]:
        assert row["empirical_order"] != ""


def test_sweep_single_mu0_no_order(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--dx", "1", "--dt", "1", "--mu0-list", "0.125",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["empirical_order"] == ""


def test_sweep_non_divisor_exits_2(tmp_path):
    rc = main(["sweep", "--dx", "1", "--dt", "1", "--mu0-list", "0.3",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert not (tmp_path / "s.csv").exists()


_SWEEP_PAST_THE_FLOATS = {
    "dx inf": (["--dx", "inf"], "dx must be finite and > 0, got inf"),
    "dx / mu0 inf": (["--dx", "1e308"], "dx / mu0 = 1e+308 / 0.5 is not finite"),
    "dx nan": (["--dx", "nan"], "dx must be finite and > 0, got nan"),
    "kernel inf": (["--dt", "1e-320"], "Schrodinger kernel is not finite at dt = 1e-320"),
}


@pytest.mark.parametrize("argv,named", _SWEEP_PAST_THE_FLOATS.values(),
                         ids=_SWEEP_PAST_THE_FLOATS.keys())
def test_sweep_past_the_floats_exits_2_naming_the_input(tmp_path, capsys, argv, named):
    # an uncaught OverflowError from round(dx / mu0) (exit 1), numpy's "cannot convert float
    # NaN to integer", and rows of abs_error nan from an amplitude sqrt(m/(2 pi hbar dt))
    # past the floats (exit 0)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--dx", "1", "--dt", "1", *argv, "--mu0-list", "1/2,1/4",
               "--out", str(out)])
    assert rc == 2 and named in capsys.readouterr().err
    assert not out.exists()


def test_output_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "box", "N": 4, "times": [0.7, 1.9]}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["kernel", "--config", str(cfg), "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    va = tmp_path / "va.csv"
    vb = tmp_path / "vb.csv"
    for path in (va, vb):
        rc = main(["verify", "--suite", "momentum", "--seed", "7",
                   "--out", str(path)])
        assert rc == 0
    assert va.read_bytes() == vb.read_bytes()


def test_kernel_stdout_when_no_out(capsys):
    rc = main(["kernel", "--system", "free", "--dt", "0",
               "--j-min", "0", "--j-max", "0", "--r-min", "0", "--r-max", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "system,j,r,dt,z,re,im"
    assert "free,0,0,0.0,0.0,1.0,0.0" in out


# Exact bytes of small tables: CRLF line ends, repr floats (-0.0
# included), no quoting, an empty cell for None.
_FREE_BYTES = (
    b"system,j,r,dt,z,re,im\r\n"
    b"free,-36,-1,-1.0,-1.0,-0.0,0.0\r\nfree,-36,0,-1.0,-1.0,0.0,0.0\r\n"
    b"free,-35,-1,-1.0,-1.0,0.0,0.0\r\nfree,-35,0,-1.0,-1.0,-0.0,0.0\r\n"
    b"free,-36,-1,0.5,0.5,0.0,-0.0\r\nfree,-36,0,0.5,0.5,0.0,0.0\r\n"
    b"free,-35,-1,0.5,0.5,0.0,0.0\r\nfree,-35,0,0.5,0.5,0.0,-0.0\r\n")
_BOX_BYTES = (
    b"system,j,r,dt,z,re,im\r\n"
    b"box,0,0,0.0,0.0,0.0,0.0\r\nbox,0,1,0.0,0.0,0.0,0.0\r\nbox,0,2,0.0,0.0,0.0,0.0\r\n"
    b"box,1,0,0.0,0.0,0.0,0.0\r\nbox,1,1,0.0,0.0,1.0,0.0\r\nbox,1,2,0.0,0.0,0.0,0.0\r\n"
    b"box,2,0,0.0,0.0,0.0,0.0\r\nbox,2,1,0.0,0.0,0.0,0.0\r\nbox,2,2,0.0,0.0,0.0,0.0\r\n"
    b"box,0,0,0.5,2.0,0.0,0.0\r\nbox,0,1,0.5,2.0,0.0,0.0\r\nbox,0,2,0.5,2.0,0.0,0.0\r\n"
    b"box,1,0,0.5,2.0,0.0,0.0\r\n"
    b"box,1,1,0.5,2.0,-0.41614683654714235,-0.9092974268256817\r\n"
    b"box,1,2,0.5,2.0,0.0,0.0\r\n"
    b"box,2,0,0.5,2.0,0.0,0.0\r\nbox,2,1,0.5,2.0,0.0,0.0\r\nbox,2,2,0.5,2.0,0.0,0.0\r\n")


def _kernel_argv(tmp_path, system):
    """Two times and, for free, negative j and r with -0.0 cells beyond W."""
    cfg = tmp_path / "cfg.json"
    if system == "free":
        cfg.write_text(json.dumps({"times": [-1.0, 0.5]}))
        bounds = ["--j-min", "-36", "--j-max", "-35", "--r-min", "-1", "--r-max", "0"]
    else:
        cfg.write_text(json.dumps({"system": "box", "N": 2, "times": [0.0, 0.5]}))
        bounds = ["--mu0", "0.5"]  # the default box window 0..N, walls included
    return ["kernel", "--config", str(cfg), *bounds]


@pytest.mark.parametrize("system,expected", [("free", _FREE_BYTES), ("box", _BOX_BYTES)])
def test_kernel_csv_bytes_are_pinned(tmp_path, system, expected):
    out = tmp_path / "k.csv"
    assert main(_kernel_argv(tmp_path, system) + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected


# The same cells as JSON, byte for byte what json.dumps(rows, indent=2)
# writes: one object per cell, repr numbers, -0.0 kept.
_FREE_JSON = (
    b'[\n'
    b'  {\n    "system": "free",\n    "j": -36,\n    "r": -1,\n    "dt": -1.0,\n'
    b'    "z": -1.0,\n    "re": -0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -36,\n    "r": 0,\n    "dt": -1.0,\n'
    b'    "z": -1.0,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -35,\n    "r": -1,\n    "dt": -1.0,\n'
    b'    "z": -1.0,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -35,\n    "r": 0,\n    "dt": -1.0,\n'
    b'    "z": -1.0,\n    "re": -0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -36,\n    "r": -1,\n    "dt": 0.5,\n'
    b'    "z": 0.5,\n    "re": 0.0,\n    "im": -0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -36,\n    "r": 0,\n    "dt": 0.5,\n'
    b'    "z": 0.5,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -35,\n    "r": -1,\n    "dt": 0.5,\n'
    b'    "z": 0.5,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "free",\n    "j": -35,\n    "r": 0,\n    "dt": 0.5,\n'
    b'    "z": 0.5,\n    "re": 0.0,\n    "im": -0.0\n  }\n'
    b']\n')
_BOX_JSON = (
    b'[\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 0,\n    "dt": 0.0,\n'
    b'    "z": 0.0,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 1,\n    "dt": 0.0,\n'
    b'    "z": 0.0,\n    "re": 1.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 2,\n    "dt": 0.0,\n'
    b'    "z": 0.0,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 0,\n    "dt": 0.5,\n'
    b'    "z": 2.0,\n    "re": 0.0,\n    "im": 0.0\n  },\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 1,\n    "dt": 0.5,\n'
    b'    "z": 2.0,\n    "re": -0.41614683654714235,\n    "im": -0.9092974268256817\n  },\n'
    b'  {\n    "system": "box",\n    "j": 1,\n    "r": 2,\n    "dt": 0.5,\n'
    b'    "z": 2.0,\n    "re": 0.0,\n    "im": 0.0\n  }\n'
    b']\n')


@pytest.mark.parametrize("system,expected", [("free", _FREE_JSON), ("box", _BOX_JSON)])
def test_kernel_json_bytes_are_pinned(tmp_path, system, expected):
    out = tmp_path / "k.json"
    rows = ["--j-min", "1", "--j-max", "1"] if system == "box" else []
    assert main(_kernel_argv(tmp_path, system) + rows
                + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_kernel_stdout_bytes_are_pinned(tmp_path, capsysbinary):
    assert main(_kernel_argv(tmp_path, "free")) == 0
    assert capsysbinary.readouterr().out == _FREE_BYTES


def test_sweep_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--dx", "1", "--dt", "1", "--mu0-list", "1/2,1/4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"mu0,l,z,abs_error,empirical_order\r\n"
        b"0.5,2,4.0,0.4486192339676304,0.12410424189103941\r\n"
        b"0.25,4,16.0,0.4116411568654795,\r\n")


# the whole `verify --suite all` CSV at three configurations: every record's
# suite, name, order, tolerance and deviation bits
_VERIFY_ALL_CSV = {
    ('--N', '8', '--seed', '1'): (
        b"suite,name,deviation,tolerance,status\r\n"
        b"bessel,series-oracle,1.6653345369377348e-16,1e-13,pass\r\n"
        b"bessel,order-parity,0.0,0.0,pass\r\n"
        b"bessel,recurrence,1.1102230246251565e-16,1e-11,pass\r\n"
        b"bessel,derivative-identity,1.6864620810963515e-11,1e-07,pass\r\n"
        b"bessel,sum-of-squares,1.3322676295501878e-15,1e-12,pass\r\n"
        b"bessel,normalization,2.220446049250313e-16,1e-13,pass\r\n"
        b"bessel,jacobi-anger,2.6231021306560834e-15,1e-10,pass\r\n"
        b"free,initial-condition,0.0,1e-14,pass\r\n"
        b"free,unitarity,1.3322676295501878e-15,1e-10,pass\r\n"
        b"free,composition,1.1443916996305594e-16,1e-09,pass\r\n"
        b"free,greens-residual,1.1102230246251565e-16,1e-09,pass\r\n"
        b"free,greens-residual-fd,1.2078004126118433e-10,1e-05,pass\r\n"
        b"free,symmetry,0.0,0.0,pass\r\n"
        b"free,time-reversal,0.0,1e-13,pass\r\n"
        b"free,eigenstate-phase,6.661338147750939e-16,1e-08,pass\r\n"
        b"free,dispersion-roundtrip,5.551115123125783e-17,1e-12,pass\r\n"
        b"box,initial-condition,0.0,1e-14,pass\r\n"
        b"box,spectral-vs-images,1.942097114741681e-15,1e-10,pass\r\n"
        b"box,boundary-zeros,0.0,0.0,pass\r\n"
        b"box,eigenphase,8.881784197001252e-16,1e-12,pass\r\n"
        b"box,unitarity,8.604228440844963e-16,1e-12,pass\r\n"
        b"box,composition,5.661048867003677e-16,1e-12,pass\r\n"
        b"box,greens-residual,2.648585892402976e-15,1e-10,pass\r\n"
        b"box,greens-residual-fd,2.2399747679684184e-10,1e-05,pass\r\n"
        b"box,spectrum-oracle-energies,8.881784197001252e-16,1e-10,pass\r\n"
        b"box,spectrum-oracle-vectors,9.235667786100521e-15,1e-08,pass\r\n"
        b"box,eigen-residual,2.220446049250313e-16,1e-12,pass\r\n"
        b"box,symmetry,0.0,0.0,pass\r\n"
        b"box,time-reversal,5.117875266520904e-16,1e-14,pass\r\n"
        b"box,engine-vs-spectral,1.6946818973100074e-15,1e-13,pass\r\n"
        b"momentum,phase-evolution,2.4552312978479334e-16,1e-09,pass\r\n"
        b"momentum,parseval,0.0,3.7365573465126954e-11,pass\r\n"
        b"momentum,roundtrip,4.742874840267547e-16,1e-12,pass\r\n"
        b"momentum,periodicity,2.8435583831733384e-14,1e-10,pass\r\n"
        b"momentum,fft-vs-dense,2.0612222039708024e-16,2.7902947984069054e-15,pass\r\n"
        b"continuum,monotone-decrease,0.0,0.0,pass\r\n"
        b"continuum,deep-time-decay,0.0,0.0,pass\r\n"),
    ('--N', '48', '--mu0', '0.5', '--seed', '7919'): (
        b"suite,name,deviation,tolerance,status\r\n"
        b"bessel,series-oracle,1.6653345369377348e-16,1e-13,pass\r\n"
        b"bessel,order-parity,0.0,0.0,pass\r\n"
        b"bessel,recurrence,1.1102230246251565e-16,1e-11,pass\r\n"
        b"bessel,derivative-identity,1.6864620810963515e-11,1e-07,pass\r\n"
        b"bessel,sum-of-squares,1.3322676295501878e-15,1e-12,pass\r\n"
        b"bessel,normalization,2.220446049250313e-16,1e-13,pass\r\n"
        b"bessel,jacobi-anger,2.756060177257249e-15,1e-10,pass\r\n"
        b"free,initial-condition,0.0,1e-14,pass\r\n"
        b"free,unitarity,1.3322676295501878e-15,1e-10,pass\r\n"
        b"free,composition,1.1443916996305594e-16,1e-09,pass\r\n"
        b"free,greens-residual,1.1102230246251565e-16,1e-09,pass\r\n"
        b"free,greens-residual-fd,1.2078004126118433e-10,1e-05,pass\r\n"
        b"free,symmetry,0.0,0.0,pass\r\n"
        b"free,time-reversal,0.0,1e-13,pass\r\n"
        b"free,eigenstate-phase,6.661338147750939e-16,1e-08,pass\r\n"
        b"free,dispersion-roundtrip,5.551115123125783e-17,1e-12,pass\r\n"
        b"box,initial-condition,0.0,1e-14,pass\r\n"
        b"box,spectral-vs-images,1.942097114741681e-15,1e-10,pass\r\n"
        b"box,boundary-zeros,0.0,0.0,pass\r\n"
        b"box,eigenphase,8.881784197001252e-16,1e-12,pass\r\n"
        b"box,unitarity,8.604228440844963e-16,1e-12,pass\r\n"
        b"box,composition,5.661048867003677e-16,1e-12,pass\r\n"
        b"box,greens-residual,2.648585892402976e-15,1e-10,pass\r\n"
        b"box,greens-residual-fd,2.2399747679684184e-10,1e-05,pass\r\n"
        b"box,spectrum-oracle-energies,8.881784197001252e-16,1e-10,pass\r\n"
        b"box,spectrum-oracle-vectors,9.235667786100521e-15,1e-08,pass\r\n"
        b"box,eigen-residual,2.220446049250313e-16,1e-12,pass\r\n"
        b"box,symmetry,0.0,0.0,pass\r\n"
        b"box,time-reversal,5.117875266520904e-16,1e-14,pass\r\n"
        b"box,engine-vs-spectral,1.6946818973100074e-15,1e-13,pass\r\n"
        b"momentum,phase-evolution,2.0206364052201328e-16,1e-09,pass\r\n"
        b"momentum,parseval,3.552713678800501e-15,3.110585716902502e-11,pass\r\n"
        b"momentum,roundtrip,4.965068306494546e-16,1e-12,pass\r\n"
        b"momentum,periodicity,1.586492775187076e-14,1e-10,pass\r\n"
        b"momentum,fft-vs-dense,1.4155613443915072e-16,2.7902947984069054e-15,pass\r\n"
        b"continuum,monotone-decrease,0.0,0.0,pass\r\n"
        b"continuum,deep-time-decay,0.0,0.0,pass\r\n"),
    ('--N', '17', '--hbar', '0.9', '--mass', '1.3', '--seed', '3'): (
        b"suite,name,deviation,tolerance,status\r\n"
        b"bessel,series-oracle,1.6653345369377348e-16,1e-13,pass\r\n"
        b"bessel,order-parity,0.0,0.0,pass\r\n"
        b"bessel,recurrence,1.1102230246251565e-16,1e-11,pass\r\n"
        b"bessel,derivative-identity,1.6864620810963515e-11,1e-07,pass\r\n"
        b"bessel,sum-of-squares,1.3322676295501878e-15,1e-12,pass\r\n"
        b"bessel,normalization,2.220446049250313e-16,1e-13,pass\r\n"
        b"bessel,jacobi-anger,2.8700507116422944e-15,1e-10,pass\r\n"
        b"free,initial-condition,0.0,1e-14,pass\r\n"
        b"free,unitarity,1.3322676295501878e-15,1e-10,pass\r\n"
        b"free,composition,1.1443916996305594e-16,1e-09,pass\r\n"
        b"free,greens-residual,8.909197111189528e-17,1e-09,pass\r\n"
        b"free,greens-residual-fd,1.3428211302392478e-10,1e-05,pass\r\n"
        b"free,symmetry,0.0,0.0,pass\r\n"
        b"free,time-reversal,0.0,1e-13,pass\r\n"
        b"free,eigenstate-phase,2.3914935841127266e-15,1e-08,pass\r\n"
        b"free,dispersion-roundtrip,4.454598555594764e-17,1e-12,pass\r\n"
        b"box,initial-condition,0.0,1e-14,pass\r\n"
        b"box,spectral-vs-images,1.942097114741681e-15,1e-10,pass\r\n"
        b"box,boundary-zeros,0.0,0.0,pass\r\n"
        b"box,eigenphase,7.256454257126016e-16,1e-12,pass\r\n"
        b"box,unitarity,8.604228440844963e-16,1e-12,pass\r\n"
        b"box,composition,7.899680058268651e-16,1e-12,pass\r\n"
        b"box,greens-residual,2.6437395057902425e-15,1e-10,pass\r\n"
        b"box,greens-residual-fd,2.653289365742835e-10,1e-05,pass\r\n"
        b"box,spectrum-oracle-energies,1.4254715377903245e-15,1e-10,pass\r\n"
        b"box,spectrum-oracle-vectors,8.382183835919932e-15,1e-08,pass\r\n"
        b"box,eigen-residual,1.7818394222379056e-16,1e-12,pass\r\n"
        b"box,symmetry,0.0,0.0,pass\r\n"
        b"box,time-reversal,5.117875266520904e-16,1e-14,pass\r\n"
        b"box,engine-vs-spectral,1.6946818973100074e-15,1e-13,pass\r\n"
        b"momentum,phase-evolution,4.47545209131181e-16,1e-09,pass\r\n"
        b"momentum,parseval,7.105427357601002e-15,4.829330365319332e-11,pass\r\n"
        b"momentum,roundtrip,9.155133597044475e-16,1e-12,pass\r\n"
        b"momentum,periodicity,2.1846300548576003e-14,1e-10,pass\r\n"
        b"momentum,fft-vs-dense,2.1212321616336485e-16,2.7902947984069054e-15,pass\r\n"
        b"continuum,monotone-decrease,0.0,0.0,pass\r\n"
        b"continuum,deep-time-decay,0.0,0.0,pass\r\n"),
}


def test_verify_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--suite", "bessel", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"suite,name,deviation,tolerance,status\r\n"
        b"bessel,series-oracle,1.6653345369377348e-16,1e-13,pass\r\n"
        b"bessel,order-parity,0.0,0.0,pass\r\n"
        b"bessel,recurrence,1.1102230246251565e-16,1e-11,pass\r\n"
        b"bessel,derivative-identity,1.6864620810963515e-11,1e-07,pass\r\n"
        b"bessel,sum-of-squares,1.3322676295501878e-15,1e-12,pass\r\n"
        b"bessel,normalization,2.220446049250313e-16,1e-13,pass\r\n"
        b"bessel,jacobi-anger,4.4988012402835255e-15,1e-10,pass\r\n")
    for argv, expected in _VERIFY_ALL_CSV.items():
        assert main(["verify", "--suite", "all", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected, argv


def test_kernel_table_memory_is_not_per_cell(tmp_path):
    # a 151 x 151 table is formatted a row at a time: no dict per row and
    # no whole-table column of strings beside the text itself
    out = tmp_path / "k.csv"
    argv = ["kernel", "--dt", "20", "--j-min", "-75", "--j-max", "75",
            "--r-min", "-75", "--r-max", "75", "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes().count(b"\r\n") == 1 + 151 * 151
    assert peak < 9 * 2**20


def test_kernel_json_memory_is_not_per_cell(tmp_path):
    # the same table as JSON is written the same way, an f-string per
    # object: 9.8 MB peak, where a dict per cell and json.dumps of the
    # whole list peaked at 38.5 MB
    out = tmp_path / "k.json"
    argv = ["kernel", "--dt", "20", "--j-min", "-75", "--j-max", "75",
            "--r-min", "-75", "--r-max", "75", "--format", "json", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(out.read_bytes())) == 151 * 151
    assert peak < 12 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("j_max,r_max", [(4095, 63), (16383, 15)])
def test_kernel_table_memory_does_not_grow_with_rows(tmp_path, fmt, j_max, r_max):
    # 262,144 rows: the rows of j are gathered and written a block at a
    # time, so the peak is set by the columns, not by the rows
    out = tmp_path / f"k.{fmt}"
    argv = ["kernel", "--dt", "20", "--j-min", "0", "--j-max", str(j_max),
            "--r-min", "0", "--r-max", str(r_max), "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out, "rb") as f:
        lines = sum(1 for _ in f)
    assert lines == (1 + 262144 if fmt == "csv" else 2 + 262144 * 9)
    assert peak < 2 * 2**20


_FAILING_TABLES = {
    # the first time tabulates, the second is past the Bessel work limit
    "bessel-limit": ({"times": [1.0, 1e18]},
                     ["--j-min", "0", "--j-max", "2", "--r-min", "0", "--r-max", "2"]),
    # j = 4 is outside the box 0..3
    "box-domain": ({"system": "box", "N": 3, "times": [1.0, 2.0]},
                   ["--j-min", "0", "--j-max", "4"]),
}


@pytest.mark.parametrize("to_file", [True, False])
@pytest.mark.parametrize("case", sorted(_FAILING_TABLES))
def test_failed_table_writes_nothing(tmp_path, capsysbinary, case, to_file):
    # every kernel vector is built before the first byte is written
    config, bounds = _FAILING_TABLES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = ["--out", str(tmp_path / "k.csv")] if to_file else []
    assert main(["kernel", "--config", str(cfg), *bounds, *out]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b"" and captured.err.startswith(b"error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_kernel_beyond_bessel_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--dt", "1e18", "--j-min", "0", "--j-max", "0",
               "--r-min", "0", "--r-max", "0", "--out", str(out)])
    assert rc == 2
    assert "z = 1e+18" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system", ["box", "periodic"])
def test_circle_systems_beyond_bessel_limit_exit_2(tmp_path, capsys, system):
    # the circle step refuses the z that the free kernel's Bessel table refuses
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 4), 2), src)
    for argv in (["kernel", "--j-min", "1", "--j-max", "1", "--r-min", "1", "--r-max", "1"],
                 ["evolve", str(src)]):
        rc = main([*argv, "--system", system, "--N", "4", "--dt", "1e18", "--out", str(out)])
        assert rc == 2
        assert "z = 1e+18" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("system", ["free", "periodic"])
def test_evolve_huge_out_window_exits_2(tmp_path, capsys, system):
    # 10^10 + 1 sites, above the limit of 2^25, refused before allocating
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 4), 2), src)
    size = [] if system == "free" else ["--N", "4"]
    rc = main(["evolve", str(src), "--system", system, *size,
               "--out-window=0:10000000000", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "output window (0, 10000000000)" in err and "limit 33554432" in err
    assert not out.exists()


@pytest.mark.parametrize("window", ["5", "a:b", "5:1.5", "1:2:3"])
def test_evolve_malformed_out_window_is_a_usage_error(tmp_path, capsys, window):
    # "5" ended in "not enough values to unpack (expected 2, got 1)" and "a:b" and
    # "5:1.5" in int()'s "invalid literal": exit 2, but naming neither the flag nor its form
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 4), 2), src)
    assert _exit_code(["evolve", str(src), f"--out-window={window}", "--out", str(out)]) == 2
    assert (f"argument --out-window: expected lo:hi, two integers, got {window!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["--r-min", "0", "--r-max", "10000000000", "--j-min", "0", "--j-max", "0"],
     "input window (0, 10000000000) has more sites than the limit 33554432"),
    (["--system", "periodic", "--N", "10000000000", "--j-min", "0", "--j-max", "0",
      "--r-min", "0", "--r-max", "0"],
     "system size N = 10000000000 has 2N over the limit 33554432"),
], ids=["input window", "circle length"])
def test_kernel_oversize_inputs_exit_2_before_allocating(tmp_path, capsys, argv, named):
    # both used to reach numpy and fail with an uncaught _ArrayMemoryError
    out = tmp_path / "k.csv"
    tracemalloc.start()
    try:
        rc = main(["kernel", *argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("field,bad", [
    ("n_min", 0.9), ("n_min", "0"), ("n_min", True), ("n_max", 4.5), ("n_max", None),
    ("hbar", True), ("hbar", "1.0"), ("mass", False), ("mu0", [1.0]),
    pytest.param("hbar", 10**400, id="hbar-10**400"),  # was an OverflowError, exit 1
])
def test_evolve_refuses_a_sidecar_field_it_would_cast(tmp_path, capsys, field, bad):
    # "n_min": 0.9 or "0" used to be cast by int() into a state on a truncated window
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 4), 2), src)
    meta_path = src.with_suffix(".json")
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps(dict(meta, **{field: bad})))
    assert main(["evolve", str(src), "--dt", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sidecar {meta_path} missing or invalid field: {field} ")
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["--system", "periodic", "--N", "3", "--j-min=-9223372036854775808",
      "--j-max=-9223372036854775808", "--r-min", "1", "--r-max", "1"],
     "output sites j -9223372036854775808..-9223372036854775808"),
    (["--j-min", "18446744073709551616", "--j-max", "18446744073709551616"],
     "output sites j 18446744073709551616..18446744073709551616"),
], ids=["int64 min", "beyond int64"])
def test_kernel_sites_outside_the_site_domain_exit_2(tmp_path, capsys, argv, named):
    # -2^63 wrapped in j - r and printed 0.37050+0.23789j with exit 0;
    # 2^64 ended in an IndexError, exit 1
    out = tmp_path / "k.csv"
    assert main(["kernel", "--dt", "1", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {named} outside the site domain "
                                       "|site| < 2**62\n")
    assert not out.exists()


def test_evolve_of_a_state_beyond_the_site_domain_exits_2(tmp_path, capsys):
    # the files a library without the site domain saved at 2^63 - 13 .. 2^63 - 10;
    # evolve's window arithmetic raised an OverflowError on them, exit 1
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    first = 2**63 - 13
    src.write_text("n,re,im\r\n" + "".join(f"{first + i},{float(i == 1)!r},0.0\r\n"
                                           for i in range(4)))
    src.with_suffix(".json").write_text(json.dumps(
        {"hbar": 1.0, "mass": 1.0, "mu0": 1.0, "n_min": first, "n_max": first + 3}))
    assert main(["evolve", str(src), "--dt", "0.5", "--out", str(out)]) == 2
    assert "lattice sites 9223372036854775795..9223372036854775798 outside the site " \
        "domain" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system,argv,c", [("free", [], 1), ("periodic", ["--N", "8"], 16),
                                           ("box", ["--N", "8"], 32)])
def test_evolve_of_a_state_whose_step_would_overflow_exits_2(tmp_path, capsys, system, argv, c):
    # nine sites of 1e308 (box: seven) printed overflow warnings, then "amplitudes must be
    # finite" (exit 2), and free exited 0 printing norm_before=inf; a state whose bound
    # c sum|psi| is just below 2^1023 evolves without a warning
    lo, hi = (1, 7) if system == "box" else (0, 8)
    sites = hi - lo + 1
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    for amp, rc in ((1e308, 2), (2.0**1023 / (c * sites) * (1.0 + 2.0**-20), 2),
                    (2.0**1023 / (c * sites) * (1.0 - 2.0**-20), 0)):
        save_wavefunction(LatticeWavefunction(Lattice(PhysicalParams(), lo, hi),
                                              np.full(sites, amp)), src)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evolve", str(src), "--system", system, *argv, "--dt", "0.5",
                         "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert out.exists() == (rc == 0)
        assert ("psi0 too large to evolve" in captured.err) == (rc == 2)
        assert rc == 2 or "norm_before=inf" not in captured.out


def test_evolve_of_a_state_shorter_than_its_declared_window_exits_2(tmp_path, capsys):
    # the reader built list(range(n_min, n_max + 1)) of the sidecar's window to
    # compare the sites with: at n_max = 10^11 a MemoryError, exit 1
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 2), 1), src)
    meta_path = src.with_suffix(".json")
    meta_path.write_text(json.dumps(dict(json.loads(meta_path.read_text()), n_max=10**11)))
    assert main(["evolve", str(src), "--dt", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {src}: site column must be exactly "
                                       "0..100000000000 in increasing order\n")
    assert not out.exists()


def test_kernel_memory_does_not_grow_with_times(tmp_path):
    # each time's kernel vector is built as its rows are written: one time
    # peaks at 8.05 MiB (the circle step at N = 65,536), eight at 10.05 MiB,
    # where holding every time's vector first peaked at 22.05 MiB
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "periodic", "N": 65536,
                               "times": [0.5 + t for t in range(8)]}))
    argv = ["kernel", "--config", str(cfg), "--j-min", "0", "--j-max", "0",
            "--r-min", "0", "--r-max", "0", "--out", str(tmp_path / "k.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_csv(tmp_path / "k.csv")) == 8
    assert peak < 12 * 2**20


def test_evolve_periodic_default_window_keeps_the_norm(tmp_path, capsys):
    # a 31-site packet at N = 16 comes out on one period from its first
    # site less W = 39; the uncut window printed norm_after=1.7370946086482342
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(gaussian_packet(Lattice(PhysicalParams(), -15, 15), 0.0, 4.0), src)
    assert main(["evolve", str(src), "--system", "periodic", "--N", "16", "--dt", "2.5",
                 "--out", str(dst)]) == 0
    before, after = (float(line.split("=")[1]) for line in capsys.readouterr().out.split())
    assert abs(after - before) <= 1e-14
    assert [int(row["n"]) for row in read_csv(dst)] == list(range(-54, -22))


def test_evolve_prints_the_finite_norm_of_a_large_state(tmp_path, capsys):
    # nine sites of 1e200 printed norm_before=inf: the sum of squares overflowed
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    save_wavefunction(LatticeWavefunction(Lattice(PhysicalParams(), 0, 8), np.full(9, 1e200)), src)
    assert main(["evolve", str(src), "--system", "free", "--dt", "0.5", "--out", str(dst)]) == 0
    before, after = capsys.readouterr().out.split()
    assert before == "norm_before=3e+200"
    assert float(after.split("=")[1]) == pytest.approx(3e200, rel=1e-13)


def test_evolve_requires_out(tmp_path):
    src = tmp_path / "in.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), 0, 1), 0), src)
    rc = main(["evolve", str(src), "--system", "free", "--dt", "1"])
    assert rc == 2


@pytest.mark.parametrize("system", ["free", "box", "box-images", "periodic"])
def test_kernel_dt_zero_is_exact_identity(tmp_path, system):
    out = tmp_path / "k.csv"
    size = [] if system == "free" else ["--N", "3"]
    rc = main(["kernel", "--system", system, *size, "--dt", "0",
               "--j-min", "0", "--j-max", "3", "--r-min", "0", "--r-max", "3",
               "--out", str(out)])
    assert rc == 0
    for row in read_csv(out):
        j, r = int(row["j"]), int(row["r"])
        on = j == r and (system in ("free", "periodic") or 0 < j < 3)
        assert float(row["re"]) == (1.0 if on else 0.0)
        assert float(row["im"]) == 0.0


def test_kernel_box_images_is_alias_of_box(tmp_path):
    # both spellings run the one box engine; each keeps its own label
    rows = {}
    for system in ("box", "box-images"):
        cfg = tmp_path / f"{system}.json"
        cfg.write_text(json.dumps({"system": system, "N": 5,
                                   "times": [0.0, 1.3, 40.0]}))
        out = tmp_path / f"{system}.csv"
        assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
        rows[system] = read_csv(out)
    assert [(r["re"], r["im"]) for r in rows["box"]] == \
        [(r["re"], r["im"]) for r in rows["box-images"]]
    for system, table in rows.items():
        assert {r["system"] for r in table} == {system}


def test_image_cutoff_flag_and_key_are_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--system", "periodic", "--N", "4", "--image-cutoff", "3"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "periodic", "N": 4, "image_cutoff": 3}))
    assert main(["kernel", "--config", str(cfg)]) == 2


def test_failed_table_write_keeps_old_file(tmp_path, monkeypatch):
    out = tmp_path / "k.csv"
    out.write_text("old\n")

    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("polymerqm.stateio.os.replace", no_rename)
    rc = main(["kernel", "--system", "free", "--dt", "1", "--out", str(out)])
    assert rc == 2
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["k.csv"]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag the command does not take
        return exc.code


# the inputs each command reads; everything else exits 2
_READS = {
    "kernel": {"hbar", "mass", "mu0", "system", "N", "times", "format"},
    "evolve": {"system", "N", "times"},
    "verify": {"hbar", "mass", "mu0", "N", "seed", "format", "suite", "tolerances"},
    "sweep": {"hbar", "mass", "times", "format", "dx", "mu0_list"},
}
# a valid value for every config key, so an unread key is the only fault
_VALID = {"hbar": 1.0, "mass": 1.0, "mu0": 0.5, "system": "periodic", "N": 4,
          "times": [1.0], "format": "json", "seed": 3, "suite": "bessel",
          "tolerances": {}, "dx": 1.0, "mu0_list": [0.5]}
_REMOVED_FLAGS = {
    "kernel": [["--seed", "3"]],
    "evolve": [["--format", "json"], ["--seed", "3"]],
    "verify": [["--system", "box"], ["--dt", "7"]],
    "sweep": [["--mu0", "0.3"], ["--N", "5"], ["--system", "box"], ["--seed", "3"]],
}


def _base_argv(command, tmp_path):
    """A run of `command` that succeeds as it stands."""
    if command == "evolve":
        state = tmp_path / "in.csv"
        save_wavefunction(delta_state(Lattice(PhysicalParams(), -2, 2), 0), state)
        return ["evolve", str(state)]
    return {"kernel": ["kernel"], "verify": ["verify", "--suite", "bessel"],
            "sweep": ["sweep", "--mu0-list", "0.5"]}[command]


@pytest.mark.parametrize("command", sorted(_READS))
def test_base_runs_accept_every_key_they_read(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: _VALID[key] for key in _READS[command]}))
    out = tmp_path / "out.csv"
    assert main(_base_argv(command, tmp_path) + ["--config", str(cfg),
                                                 "--out", str(out)]) == 0
    assert out.exists()


def _case(command, flags=(), config=None):
    label = " ".join([command, *flags] + ([json.dumps(config)] if config else []))
    return pytest.param(command, list(flags), config, id=label)


_UNREAD_CASES = (
    [_case(command, config={key: _VALID[key]})
     for command, reads in _READS.items() for key in sorted(set(_VALID) - reads)]
    + [_case(command, flags) for command, flagsets in _REMOVED_FLAGS.items()
       for flags in flagsets]
    + [_case("evolve", config={"times": [1.0, 5.0, 9.0]}),
       _case("sweep", config={"times": [1.0, 2.0]}),
       _case("kernel", ["--N", "4"]), _case("evolve", config={"N": 4})])


@pytest.mark.parametrize("command,flags,config", _UNREAD_CASES)
def test_inputs_a_command_does_not_read_exit_2(tmp_path, command, flags, config):
    # an input the command would ignore, a second time for evolve or sweep,
    # and a box size for the free system are errors, not silently dropped
    argv = _base_argv(command, tmp_path) + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--mu0", "1e-200", "--dt", "1"],               # m mu0^2 underflows to 0
    ["verify", "--mu0", "1e-200"],
    ["kernel", "--mass", "1e-300", "--mu0", "1e-5", "--dt", "1"],  # hbar^2/(m mu0^2) = inf
    ["sweep", "--mu0-list", "1/0"],
    ["sweep", "--mu0-list", "0.5,0"],                         # a zero spacing
], ids=" ".join)
def test_zero_or_infinite_scales_exit_2(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_suite_choices_are_the_verify_suites():
    from polymerqm import verify

    assert _inputs_of("verify")["suite"].parse is verify.SUITE_NAMES  # one tuple
    parser = build_parser()
    for name in verify.SUITE_NAMES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "periodic"])


def test_suite_names_are_the_suites_of_run_suite():
    # one list: the CLI's choices (read from the package, which does not load
    # the suites) are the keys of verify's suite table, then "all"
    from polymerqm import verify

    assert tuple(verify._SUITES) + ("all",) == SUITE_NAMES
    with pytest.raises(ValueError, match="^unknown suite 'periodic'; expected one of "):
        verify.run_suite("periodic")


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports polymerqm from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_the_check_suites_unloaded(tmp_path):
    # kernel and evolve load only the engine, sweep loads the check routes but
    # never verify.py; verify loads it itself.  One fresh interpreter: modules
    # only accumulate, so each check also holds for every earlier step.
    state = tmp_path / "psi.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), -3, 3), 0), state)
    engine = ["numpy", "argparse", "json"] + [
        f"polymerqm.{m}" for m in ("bessel", "lattice", "dynamics", "propagators", "stateio")]
    off_path = ["polymerqm.checks", "polymerqm.spectral", "polymerqm.verify"]
    steps = [
        ("import", None, off_path),
        ("kernel", ["kernel", "--dt", "1", "--out", f"{tmp_path}/k.csv"], off_path),
        ("evolve", ["evolve", str(state), "--dt", "0.5", "--out", f"{tmp_path}/out.csv"],
         off_path),
        ("sweep", ["sweep", "--dt", "1", "--mu0-list", "1/2,1/4", "--out", f"{tmp_path}/s.csv"],
         ["polymerqm.verify"]),
    ]
    code = ["import sys, polymerqm.cli",
            f"missing = [m for m in {engine!r} if m not in sys.modules]",
            "assert not missing, f'not loaded by the import: {missing}'"]
    for step, argv, unloaded in steps:
        if argv is not None:
            code.append(f"assert polymerqm.cli.main({argv!r}) == 0, {step!r}")
        code += [f"loaded = [m for m in {unloaded!r} if m in sys.modules]",
                 f"assert not loaded, f'{step} loaded {{loaded}}'"]
    done = _run_fresh("\n".join(code))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["kernel", "--dt", "1"],
    ["evolve", "{state}", "--dt", "0.5", "--out", "{tmp}/out.csv"],
    ["verify", "--suite", "all", "--out", "{tmp}/verify.csv"],
    ["sweep", "--dt", "1", "--mu0-list", "1/2,1/4"],
], ids=lambda argv: argv[0])
def test_no_command_loads_numpy_random(tmp_path, argv):
    # a fresh interpreter, since pytest itself loads numpy.random; verify
    # draws its samples from the stdlib random module numpy already imports
    state = tmp_path / "psi.csv"
    save_wavefunction(delta_state(Lattice(PhysicalParams(), -3, 3), 0), state)
    argv = [arg.format(state=state, tmp=tmp_path) for arg in argv]
    done = _run_fresh("import sys; from polymerqm.cli import main; "
                      f"assert main({argv!r}) == 0, 'failed'; "
                      "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'")
    assert done.returncode == 0, done.stderr


def test_readme_command_table_matches_parser():
    # the README row of each command lists exactly the flags its parser
    # registers and the config keys it reads, so the docs cannot drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {m[1]: (set(re.findall(r"`(--[\w-]+)`", m[2])), set(re.findall(r"`(\w+)`", m[3])))
            for m in re.finditer(r"^\| `(\w+)[^|]*\|([^|]*)\|([^|]*)\|$", readme, re.M)}
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(rows) == set(subs.choices)
    for command, sub in subs.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert rows[command] == (flags - {"-h", "--help"}, set(_inputs_of(command))), command
