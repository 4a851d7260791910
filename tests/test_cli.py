"""Command-line interface: parsing, file outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import diskbem.cli as cli
from diskbem import FieldReport, SolveError
from diskbem.cli import main, parse_args, run


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def test_defaults():
    config = parse_args(["--problem", "1"])
    assert config.problem == 1
    assert config.boundary_nodes == 30
    assert config.interior_grid == 11
    assert config.quad_order == 8
    assert config.mode == "solve"
    assert config.n_list is None
    assert config.output_dir == "./out"


def test_explicit_arguments():
    config = parse_args(
        [
            "--problem", "3",
            "--boundary-nodes", "60",
            "--interior-grid", "5",
            "--quad-order", "12",
            "--mode", "convergence",
            "--n-list", "15,30,60",
            "--output-dir", "/tmp/somewhere",
        ]
    )
    assert config.problem == 3
    assert config.boundary_nodes == 60
    assert config.interior_grid == 5
    assert config.quad_order == 12
    assert config.mode == "convergence"
    assert config.n_list == (15, 30, 60)
    assert config.output_dir == "/tmp/somewhere"


@pytest.mark.parametrize(
    "argv",
    [
        [],                                         # --problem is required
        ["--problem", "9"],                         # unknown id
        ["--problem", "1", "--boundary-nodes", "2"],
        ["--problem", "1", "--interior-grid", "1"],
        ["--problem", "1", "--quad-order", "0"],
        ["--problem", "1", "--quad-order", "65"],
        ["--problem", "1", "--mode", "convergence"],       # missing --n-list
        ["--problem", "1", "--mode", "convergence", "--n-list", "15,2"],
        ["--problem", "1", "--n-list", "15,abc"],
        ["--problem", "1", "--mode", "nonsense"],
    ],
)
def test_usage_errors_exit_with_code_two(argv):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(argv)
    assert excinfo.value.code == 2


def test_usage_errors_write_no_files(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit):
        main(["--problem", "1", "--boundary-nodes", "2", "--output-dir", str(out)])
    assert not out.exists()


# ----------------------------------------------------------------------
# solve mode outputs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory, capfd_unavailable=None):
    out = tmp_path_factory.mktemp("solve") / "out"
    config = parse_args(["--problem", "1", "--output-dir", str(out)])
    report = run(config)
    return out, report


def test_solve_mode_writes_the_three_artifacts(solve_run):
    out, _ = solve_run
    assert sorted(p.name for p in out.iterdir()) == [
        "boundary_flux.csv",
        "interior.csv",
        "report.json",
    ]


def test_boundary_flux_csv_layout(solve_run):
    out, _ = solve_run
    lines = (out / "boundary_flux.csv").read_text().splitlines()
    assert lines[0] == "node,x,y,theta,q_bem,q_exact,abs_err"
    assert len(lines) == 31  # header + one row per node
    first = lines[1].split(",")
    assert first[0] == "1"
    last = lines[-1].split(",")
    assert last[0] == "30"
    # the last node sits at angle 2*pi, i.e. (1, 0), with exact flux 2
    assert float(last[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(last[3]) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert float(last[5]) == pytest.approx(2.0, abs=1e-12)
    assert float(last[6]) == pytest.approx(abs(float(last[4]) - float(last[5])), abs=1e-15)


def test_interior_csv_layout(solve_run):
    out, _ = solve_run
    lines = (out / "interior.csv").read_text().splitlines()
    assert lines[0] == "k,x,y,u_bem,u_exact,abs_err,rel_err"
    assert len(lines) == 70  # header + 69 interior lattice points
    # row 35 is the origin, where u1 = 1
    origin = lines[35].split(",")
    assert origin[0] == "35"
    assert float(origin[1]) == 0.0
    assert float(origin[2]) == 0.0
    assert float(origin[3]) == pytest.approx(1.0, abs=1e-6)  # u_bem
    assert float(origin[4]) == 1.0                           # u_exact
    assert float(origin[5]) <= 1e-6                          # abs_err


def test_csv_floats_round_trip(solve_run):
    out, _ = solve_run
    for name in ("boundary_flux.csv", "interior.csv"):
        lines = (out / name).read_text().splitlines()[1:]
        for line in lines:
            for cell in line.split(",")[1:]:
                if cell:
                    assert repr(float(cell)) == cell


def test_report_json_round_trips(solve_run):
    out, report = solve_run
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report


def test_report_json_contents(solve_run):
    _, report = solve_run
    assert report["config"]["problem"] == 1
    assert report["config"]["boundary_nodes"] == 30
    stats = report["interior_stats"]
    assert stats["n_points"] == 69
    assert stats["n_rel_excluded"] == 0
    assert 0.0 < stats["mean_abs"] <= stats["max_abs"] < 1e-2
    assert report["flux_stats"]["n_points"] == 30
    assert report["near_boundary_points"] == []
    assert report["wall_time_s"] > 0.0


def test_outputs_use_lf_line_endings(solve_run):
    out, _ = solve_run
    for name in ("boundary_flux.csv", "interior.csv", "report.json"):
        data = (out / name).read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


def test_identical_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--problem", "2", "--output-dir", str(out_a)]) == 0
    assert main(["--problem", "2", "--output-dir", str(out_b)]) == 0
    for name in ("boundary_flux.csv", "interior.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # report.json differs only in timing and the configured output paths
    report_a = json.loads((out_a / "report.json").read_text())
    report_b = json.loads((out_b / "report.json").read_text())
    for report in (report_a, report_b):
        report.pop("wall_time_s")
        report["config"].pop("output_dir")
    assert report_a == report_b


def test_stdout_summary_mentions_all_four_statistics(tmp_path, capsys):
    assert main(["--problem", "1", "--output-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr().out
    for token in ("max_abs=", "max_rel=", "mean_abs=", "mean_rel=", "wall time"):
        assert token in captured


# ----------------------------------------------------------------------
# convergence mode
# ----------------------------------------------------------------------


def test_convergence_mode_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "--problem", "1",
            "--mode", "convergence",
            "--n-list", "15,30,60",
            "--interior-grid", "7",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "boundary_flux.csv",
        "convergence.csv",
        "interior.csv",
        "report.json",
    ]
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,max_abs,max_rel,mean_abs,mean_rel,wall_time_s"
    assert [row.split(",")[0] for row in lines[1:]] == ["15", "30", "60"]
    maxima = [float(row.split(",")[1]) for row in lines[1:]]
    assert maxima[0] > maxima[1] > maxima[2]

    report = json.loads((out / "report.json").read_text())
    assert [row["n"] for row in report["convergence"]] == [15, 30, 60]
    assert all(row["error"] is None for row in report["convergence"])

    captured = capsys.readouterr().out
    assert "observed orders between rows:" in captured


def test_a_failed_convergence_row_is_reported_and_left_out(tmp_path, capsys):
    # the triangle leaves lattice points outside it, so the n=3 row fails
    out = tmp_path / "out"
    argv = ["--problem", "2", "--mode", "convergence", "--n-list", "3,30"]
    assert main([*argv, "--output-dir", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("convergence row n=3 failed: ")
    assert err[0].endswith("not strictly inside the boundary polygon")
    lines = (out / "convergence.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["30"]
    failed = json.loads((out / "report.json").read_text())["convergence"][0]
    assert failed["n"] == 3
    assert failed["stats"] is None
    assert failed["error"]


def test_a_default_run_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys\n"
        "from diskbem.cli import main\n"
        f"code = main(['--problem', '1', '--output-dir', {str(tmp_path / 'out')!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_large_boundary_completes(tmp_path):
    # dense H and G alone would need 6.4 GB at this size
    out = tmp_path / "out"
    argv = ["--problem", "1", "--boundary-nodes", "20000", "--interior-grid", "3"]
    assert main(argv + ["--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "boundary_flux.csv",
        "interior.csv",
        "report.json",
    ]
    rows = np.loadtxt(out / "boundary_flux.csv", delimiter=",", skiprows=1)
    assert rows.shape == (20000, 7)
    assert np.max(np.abs(rows[:, 4] - rows[:, 5])) <= 1e-4


# ----------------------------------------------------------------------
# failure handling
# ----------------------------------------------------------------------


def test_solve_failure_exits_one_with_diagnostics(tmp_path, monkeypatch, capsys):
    def broken(system):
        raise SolveError("influence matrix is numerically singular", smallest_pivot=3e-17)

    monkeypatch.setattr(cli, "solve_flux", broken)
    out = tmp_path / "out"
    code = main(["--problem", "1", "--output-dir", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "solve failed" in captured.err
    assert "smallest pivot: 3.000000e-17" in captured.err
    assert not out.exists() or not any(out.iterdir())


def test_evaluation_failure_exits_one(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("interior evaluation exploded")

    monkeypatch.setattr(cli, "evaluate_field", broken)
    code = main(["--problem", "1", "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "interior evaluation exploded" in capsys.readouterr().err


def test_points_outside_the_boundary_polygon_exit_one(tmp_path, capsys):
    # the 11-point lattice keeps points beyond the chords of the square
    out = tmp_path / "out"
    argv = ["--problem", "1", "--boundary-nodes", "4", "--interior-grid", "11"]
    code = main([*argv, "--output-dir", str(out)])
    assert code == 1
    assert "is not strictly inside the boundary polygon" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_one_with_a_one_line_error(tmp_path, monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.16 TiB for an array with shape (400000, 400000)")

    monkeypatch.setattr(cli, "assemble", too_large)
    code = main(["--problem", "1", "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Unable to allocate" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------


def test_interior_csv_leaves_undefined_relative_errors_empty():
    report = FieldReport(
        points=np.array([[0.0, 0.0], [0.1, 0.2]]),
        u_bem=np.array([1e-7, 0.25]),
        u_exact=np.array([0.0, 0.2]),
        near_boundary=np.array([False, False]),
    )
    lines = cli._interior_csv(report).splitlines()
    first = lines[1].split(",")
    assert first[-1] == ""  # rel_err column is empty, not nan
    second = lines[2].split(",")
    assert float(second[-1]) == pytest.approx(0.25, rel=1e-12)


def test_atomic_writer_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "file.txt"
    cli._write_atomic(str(target), "first\n")
    cli._write_atomic(str(target), "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
