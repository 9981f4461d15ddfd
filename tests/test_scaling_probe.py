import importlib.util
import json
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "scaling_probe.py"
_spec = importlib.util.spec_from_file_location("scaling_probe", _PATH)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


def test_slope_of_power_laws():
    sizes = [2, 4, 8, 16]
    assert probe.slope(sizes, [3 * n for n in sizes]) == pytest.approx(1.0)
    assert probe.slope(sizes, [n * n for n in sizes]) == pytest.approx(2.0)
    assert probe.slope(sizes, [5.0] * 4) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("sizes", [[2**16], [8, 8, 8]])
def test_slope_refuses_fewer_than_two_distinct_sizes(sizes):
    # one point used to give np.polyfit's RankWarning and a meaningless slope
    with pytest.raises(ValueError, match="at least two distinct sizes"):
        probe.slope(sizes, [1.0] * len(sizes))
    with pytest.raises(ValueError, match="at least two distinct sizes"):
        probe.run_case("kernel_table_free", sizes)


@pytest.mark.parametrize("name", sorted(probe.CASES))
def test_every_case_runs_at_its_two_smallest_sizes(name):
    sizes = probe.CASES[name][1][:2]
    case = probe.run_case(name, sizes)
    assert [p["size"] for p in case["points"]] == sizes
    assert all(p["time_s"] > 0 and p["peak_bytes"] > 0 for p in case["points"])


# a peak may exceed its law by this factor: tracemalloc peaks of one call vary by about 2%
# between runs, and a doubling that breaks the law (a linear case turned quadratic, or a
# constant one linear) overshoots it by a factor of 2
_MEMORY_MARGIN = 1.25


@pytest.mark.parametrize("name", sorted(probe.CASES))
def test_every_case_keeps_its_memory_law(name):
    # peak(s2) <= (s2/s1)**law * peak(s1) * margin at two sizes past the fixed overhead;
    # s1 runs once untraced first, and its traced call warms the code for s2
    case = probe.CASES[name]
    (s1, s2), law = case.gate, case.memory
    assert s1 < s2 and {s1, s2} <= set(case.sizes) and law in (0.0, 0.5, 1.0, 2.0)
    first = case.make(s1)
    first()
    peaks = [probe.peak(first), probe.peak(case.make(s2))]
    assert peaks[1] <= (s2 / s1) ** law * peaks[0] * _MEMORY_MARGIN, peaks


def test_state_io_case_peaks_below_three_amplitude_arrays():
    # save plus load holds one block of Python objects at a time; the whole-state
    # lists peaked at 7.3 MiB for 2^16 sites (1 MiB of amplitudes)
    case = probe.run_case("state_io", [2**15, 2**16])
    assert case["size"] == "M"
    assert all(p["peak_bytes"] < 3 * 16 * p["size"] for p in case["points"])


def test_report_holds_source_machine_and_baseline(tmp_path):
    base = tmp_path / "base.json"
    assert probe.main(["--case", "kernel_table_free", "--out", str(base)]) == 0
    out = tmp_path / "out.json"
    assert probe.main(["--case", "kernel_table_free", "--out", str(out),
                       "--baseline", str(base)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] > 0 and report["machine"]["cpus"] >= 1
    assert set(report["cases"]) == {"kernel_table_free"}
    assert report["baseline"]["cases"] == json.loads(base.read_text())["cases"]


def test_perfbench_results_of_both_checkouts(tmp_path):
    # result lines of the same workload on two checkouts land in two places
    runs = {}
    for name, wall in (("change", 2.0), ("parent", 3.0)):
        runs[name] = tmp_path / f"{name}.txt"
        runs[name].write_text(
            json.dumps({"info": {"workload": "deep-time"}}) + "\n"
            + json.dumps({"metrics": {"wall_s": {"value": wall, "unit": "s"}}}) + "\n")
    out = tmp_path / "out.json"
    assert probe.main(["--case", "kernel_table_free", "--out", str(out),
                       "--perfbench", str(runs["change"]),
                       "--baseline-perfbench", str(runs["parent"])]) == 0
    report = json.loads(out.read_text())
    assert report["perfbench"]["deep-time"]["metrics"]["wall_s"]["value"] == 2.0
    assert report["baseline"]["perfbench"]["deep-time"]["metrics"]["wall_s"]["value"] == 3.0


@pytest.mark.parametrize("kept,missing", [("metrics", "info"), ("info", "metrics")])
def test_perfbench_output_without_a_result_line_raises(tmp_path, kept, missing):
    # a file with no info line used to end the map by StopIteration: "perfbench": {}, exit 0
    lines = {"info": {"workload": "deep-time"},
             "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    run = tmp_path / "run.txt"
    run.write_text(json.dumps({kept: lines[kept]}) + "\n")
    out = tmp_path / "out.json"
    with pytest.raises(ValueError, match=f"^{re.escape(str(run))}: no perfbench {missing} line$"):
        probe.main(["--case", "kernel_table_free", "--out", str(out), "--perfbench", str(run)])
    assert not out.exists()


def test_startup_record_of_each_command():
    # kernel and evolve load only the engine; verify loads every module
    record = probe.startup()
    commands = record["commands"]
    assert set(commands) == set(probe.STARTUP) and record["runs"] == probe.STARTUP_RUNS
    for name, run in commands.items():
        assert run["rc"] == 0 and run["import_s"] > 0 and run["src_lines"] > 0, name
        assert run["peak_rss_mb"] is None or run["peak_rss_mb"] > 0, name
    for name in ("kernel", "evolve"):
        assert "polymerqm.propagators" in commands[name]["modules"]
        assert not {"polymerqm.checks", "polymerqm.spectral", "polymerqm.verify"} & set(
            commands[name]["modules"])
        assert commands[name]["src_lines"] < commands["verify"]["src_lines"]
    assert "polymerqm.verify" in commands["verify"]["modules"]
