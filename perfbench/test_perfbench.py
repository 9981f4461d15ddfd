"""Tests of the benchmark itself: python -m pytest perfbench (from the repo root)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import (CheckFailed, circle_kernel,  # noqa: E402
                       free_kernel_vector)

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")


def cli(workdir, argv):
    return subprocess.run([sys.executable, "-m", "polymerqm.cli"] + argv, cwd=workdir,
                          env=ENV, capture_output=True).returncode


def one_job(workload, job_id, tmp_path):
    jobs = workloads.build(workload, 0, str(tmp_path))
    job = next(j for j in jobs if j.job_id == job_id)
    assert cli(tmp_path, job.argv) == 0
    return job


def perturb(path, row, col, delta):
    with open(path) as f:
        lines = f.read().splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload, tmp_path):
    hashes = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        jobs = workloads.build(workload, seed, str(tmp_path / sub))
        hashes.append(workloads.job_list_hash(jobs, str(tmp_path / sub)))
    assert hashes[0] == hashes[1] != hashes[2]


def test_free_reference_matches_bessel_values():
    # J_0(1) and J_1(1) from Abramowitz & Stegun table 9.1
    k = free_kernel_vector(1.0, 1)
    phase = np.exp(-1j)
    assert abs(k[1] - 0.7651976865579666 * phase) < 1e-15
    assert abs(k[2] - 1j * 0.4400505857449335 * phase) < 1e-15
    assert abs(k[0] - k[2]) < 1e-15


def test_periodic_reference_is_unitary():
    kp = circle_kernel(7.3, 16)
    idx = np.arange(16)
    u = kp[(idx[:, None] - idx[None, :]) % 16]
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-13)


@pytest.mark.parametrize("workload, job_id, row, col", [
    ("evolve", "box0", 5, 1),        # state amplitude
    ("tabulate", "table4", 3, 5),    # kernel entry
    ("deep-time", "sweep0", 2, 3),   # sweep error
])
def test_perturbed_output_counts_as_failed(workload, job_id, row, col, tmp_path):
    job = one_job(workload, job_id, tmp_path)
    tally = bench.Tally()
    tally.add(job, 0.1, 50.0, 0, False, str(tmp_path))
    assert tally.failed == 0 and tally.rows > 0
    perturb(tmp_path / job.out, row, col, 1e-7)
    tally.add(job, 0.1, 50.0, 0, False, str(tmp_path))
    assert tally.failed == 1
    assert "deviat" in tally.failures[0]
    assert tally.failed / len(tally.latencies) == 0.5


def test_failed_verify_row_counts_as_failed(tmp_path):
    job = one_job("verify", "verify5", tmp_path)
    path = tmp_path / job.out
    job.expect.check(str(path))
    text = path.read_text().replace(",pass", ",fail", 1)
    path.write_text(text)
    with pytest.raises(CheckFailed):
        job.expect.check(str(path))


def test_exit_code_and_timeout_count_as_failed(tmp_path):
    job = one_job("verify", "verify5", tmp_path)
    tally = bench.Tally()
    tally.add(job, 0.1, 50.0, 2, False, str(tmp_path))
    tally.add(job, 0.1, 50.0, -9, True, str(tmp_path))
    tally.add(job, 0.1, 50.0, 0, False, str(tmp_path))
    assert tally.failed == 2 and len(tally.latencies) == 3


def test_quantile_reads_the_order_statistic_it_estimates():
    values = [float(i) for i in range(101)]
    assert bench.quantile(values, 0.5) == pytest.approx(50.0)
    assert bench.quantile(values, 0.9) == pytest.approx(90.0, abs=0.5)
    assert bench.quantile([3.0, 3.0, 3.0], 0.25) == pytest.approx(3.0)


def test_tail_has_ten_jobs_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, pct = bench.tail(latencies, 100)
    assert pct == 90.0
    assert 89.0 < value < 90.0      # ten of the hundred lie above 89
    assert bench.tail([1.0, 2.0], 2) == (2.0, 100.0)


def test_tail_percentile_does_not_depend_on_run_length():
    # two passes' worth of jobs fix the percentile; a third pass refines it
    latencies = [float(i) for i in range(60)]
    value, pct = bench.tail(latencies, 40)
    assert pct == 75.0
    assert 44.0 < value < 45.0


def test_speed_scale_maps_probe_time_to_reference():
    ref = bench.SPEED_REF_S
    assert bench.speed_scale([ref, 2 * ref, 2 * ref]) == 0.5
    tally = bench.Tally()
    tally.latencies = [1.0, 3.0]
    tally.probes = [(1, 0.5)]
    tally.speed = [[ref / 2], [ref / 2], [ref / 3, ref / 3]]
    assert tally.scaled() == [2.0, 9.0]
    assert tally.scaled_probes() == [1.5]


def test_self_time_and_entries():
    # main(0..10) -> evolve(1..8) -> bessel(2..5); evolve -> evolve-nested(6..7)
    parent = np.array([-1, 0, 1, 1])
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 8.0, 5.0, 7.0])
    own = layers.self_times(parent, start, end)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    lay = ["cli", "propagators.evolve", "bessel", "propagators.evolve"]
    assert layers.entries(parent, lay).tolist() == [0, 1, 2, 1]


def test_trace_runner_records_spans_and_memory(tmp_path):
    job = one_job("deep-time", "deep0", tmp_path)
    runner = os.path.join(HERE, "trace_runner.py")
    for flags, name in (([], "s.npz"), (["--memory"], "m.npz")):
        rc = subprocess.run([sys.executable, runner, name] + flags + ["--"] + job.argv,
                            cwd=tmp_path, env=ENV).returncode
        assert rc == 0
    job.expect.check(str(tmp_path / job.out))
    totals = layers.LayerTotals()
    with np.load(tmp_path / "s.npz") as f:
        spans = dict(f)
    totals.add_job(spans)
    with np.load(tmp_path / "m.npz") as f:
        totals.add_memory(f["evolve_peak_bytes"])
    m = totals.metrics(traced_wall=1.0, untraced_wall=0.9)
    names = spans["names"][spans["name_id"]].tolist()
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    assert m["propagators.evolve.calls"]["value"] == 1
    assert m["propagators.evolve.sites_out"]["value"] == workloads._DEEP_STATE + 32
    assert m["stateio.rows"]["value"] == 2 * workloads._DEEP_STATE + 32
    assert m["bessel.orders_returned"]["value"] > 0
    assert m["propagators.evolve.peak_mb"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert not os.path.exists(tmp_path / run.WORKDIR)


def test_result_line_contract(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.METRICS)
