"""Tests of the benchmark itself, on its smoke mode (tiny passes).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    record = tmp_path / "result.jsonl"
    line = result_line(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "0.5", "--trace", trace,
                                 "--smoke", "--record", str(record)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    full = json.loads(record.read_text())
    assert full["stamp"]["seed"] == 3 and full["stamp"]["src_lines"] > 0
    if trace == "1":
        assert line["metrics"]["trace.coverage_min"]["value"] >= 0.95


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = result_line(run_bench(
            "--workload", "noisy_alpha_scan", "--seed", "5", "--seconds",
            "0.2", "--trace", "1", "--smoke"))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".elems", ".bytes",
                                      "repeat_frac", "solver.iterations"))})
    assert counts[0] == counts[1]
    assert counts[0]["model.sensitivity_tables.repeat_frac"] == 0.5


def test_tracer_rebinds_every_import_site():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers

    sites = set(layers.Tracer().import_sites())
    for site in ("heatsource.solver.cost", "heatsource.solver.gradient",
                 "heatsource.solver.residuals",
                 "heatsource.model.exp_moment_stack",
                 "heatsource.model.sine_moment_stack",
                 "heatsource.model.sin_modes", "heatsource.model.mode_count",
                 "heatsource.harness.write_csv", "heatsource.cli.write_csv",
                 "heatsource.cli.sensitivity_tables",
                 "heatsource.harness.phi_response_history",
                 "heatsource.harness.theta_response_profile"):
        assert site in sites


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_reports_bounds(tmp_path):
    files = []
    for label in ("a", "b"):
        path = tmp_path / f"{label}.jsonl"
        result_line(run_bench("--workload", "curve_export", "--seed", "1",
                              "--seconds", "0.2", "--trace", "0", "--smoke",
                              "--record", str(path)))
        files.append(str(path))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), *files],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "pass_s" in proc.stdout and "setup_s" in proc.stdout
