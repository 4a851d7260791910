"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import diskbem
import harness
import run
import workloads as wl
from tracing import Span, import_costs, per_op_totals, self_times

LOOSE = {problem_id: (1.0, 1.0) for problem_id in diskbem.PROBLEM_IDS}
# cli_reference is already small (n=30, m=11); its process cost does not depend on size
TINY = {
    "cli_reference": wl.WORKLOADS["cli_reference"],
    "boundary_large": replace(wl.WORKLOADS["boundary_large"], n=40, m=11, ceilings=LOOSE),
    "field_dense": replace(wl.WORKLOADS["field_dense"], n=16, m=9, ceilings=LOOSE),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_each_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv, workload_table=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    for metric, unit in expected.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    details = json.loads(next(line for line in lines if line.startswith("details "))[8:])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas_thread_cap", "seed", "git_commit"} <= set(
        details["machine"]
    )


def test_all_runs_every_workload_in_its_own_process():
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "all", "--seed", "1", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 2 * len(wl.WORKLOADS)
    assert set(result["metrics"]) == {f"{w}.{m}" for w in wl.WORKLOADS for m in harness.END_TO_END}


def test_a_corrupted_flux_is_counted_as_a_failure(monkeypatch, tmp_path):
    real = diskbem.solve_flux
    calls = []

    def corrupt_first(system):
        solution = real(system)
        calls.append(1)
        if len(calls) > 1:
            return solution
        return replace(solution, q_nodes=-solution.q_nodes)

    monkeypatch.setattr(diskbem, "solve_flux", corrupt_first)
    result = harness.run_workload(TINY["field_dense"], seed=1, seconds=0.3, trace=False, out_dir=tmp_path)
    assert result.failed == 1 and not result.correct
    assert result.notes["fail_ratio"] == pytest.approx(1 / result.attempted)
    assert "err_flux" in result.notes["failures"][0]
    assert result.metrics["ok_ratio"][0] == pytest.approx(1 - 1 / result.attempted)


def test_an_exception_is_counted_and_the_run_goes_on(monkeypatch, tmp_path):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(diskbem, "evaluate_field", broken)
    result = harness.run_workload(TINY["field_dense"], seed=1, seconds=0.2, trace=False, out_dir=tmp_path)
    assert result.failed == result.attempted >= 2
    assert "RuntimeError: boom" in result.notes["failures"][0]


@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    workload = wl.WORKLOADS["cli_reference"]
    ctx = wl.build_context(workload.n, workload.m, workload.k)
    out_dir = tmp_path_factory.mktemp("cli") / "out"
    argv = wl.cli_argv(ctx, 1, out_dir)
    subprocess.run(
        [sys.executable, "-m", "diskbem", *argv], env=harness.child_env(), check=True,
        capture_output=True, timeout=120,
    )
    return workload, ctx, out_dir


def _corrupt_cell(path, column, row, text):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_outputs_pass_then_corruptions_fail(cli_output, tmp_path):
    workload, ctx, out_dir = cli_output
    outcome = wl.check_cli_outputs(workload, ctx, 1, out_dir)
    assert outcome.reasons == []
    assert outcome.errors["err_interior"] < 3.5e-3

    corrupt = shutil.copytree(out_dir, tmp_path / "nan")
    _corrupt_cell(corrupt / "boundary_flux.csv", "q_bem", 3, "nan")
    assert "non-finite flux" in wl.check_cli_outputs(workload, ctx, 1, corrupt).reasons

    shifted = shutil.copytree(out_dir, tmp_path / "shifted")
    _corrupt_cell(shifted / "interior.csv", "u_bem", 35, "1.5")
    reasons = wl.check_cli_outputs(workload, ctx, 1, shifted).reasons
    assert any("err_interior_far" in r for r in reasons)
    assert not any("criterion 1" in r for r in reasons)  # report.json still holds the old value
    assert any("report.json max_abs" in r for r in reasons)

    (shifted / "report.json").unlink()
    assert wl.check_cli_outputs(workload, ctx, 1, shifted).reasons == ["missing outputs: report.json"]


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 4.0, 0, 7),
        Span(2, "a.child", 2.0, 3.0, 1, 7),
        Span(3, "b", 3.0, 6.0, 0, 7),  # overlaps a: the union [1, 6] is covered once
        Span(4, "c", 9.0, 12.0, 0, 7),  # runs past root: only [9, 10] counts for root
        Span(5, "a", 0.0, 0.5, None, 8, {"work": 3}),
        Span(6, "a", 1.0, 1.25, None, 8, {"work": 4}),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0, 5: 0.5, 6: 0.25})
    totals = per_op_totals(spans)
    assert sorted(totals["a.self"]) == pytest.approx([0.75, 2.0])
    assert sorted(totals["a.total"]) == pytest.approx([0.75, 3.0])
    assert totals["work"] == [7]
    assert totals["root.self"] == pytest.approx([4.0])


def test_import_costs_from_importtime_output():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       re",
        "import time:         5 |          5 |       scipy._lib",
        "import time:        30 |         55 |     scipy.linalg",
        "import time:         5 |         60 |   scipy",
        "import time:        10 |        220 | diskbem",
    ])
    assert import_costs(text, "numpy") == pytest.approx((150e-6, 150e-6))
    assert import_costs(text, "scipy") == pytest.approx((60e-6, 40e-6))
    assert import_costs(text, "diskbem") == pytest.approx((220e-6, 10e-6))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(30, 0, -1))) == (20, "p67 of 30")
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 (fewer than 11 samples)")


def test_problem_sequence_repeats_per_seed_and_covers_every_block():
    first = [next(s) for s in [wl.problem_sequence(5)] for _ in range(10)]
    again = [next(s) for s in [wl.problem_sequence(5)] for _ in range(10)]
    assert first == again
    assert sorted(first[:5]) == sorted(first[5:]) == list(diskbem.PROBLEM_IDS)


def test_without_the_package_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field_dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
