"""The benchmark's workloads, the operations they repeat and the checks on each.

An operation solves one Dirichlet problem end to end: either a cold
``python -m diskbem`` process (``cli`` kind) or, in process, ``assemble`` ->
``solve_flux`` -> ``evaluate_field`` -> ``error_stats`` and
``flux_error_stats`` (``library`` kind).  The benchmark computes its own
reference values from the problems' exact solutions in set-up and checks each
operation's output against them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import diskbem
from tracing import NullTracer, layer_api

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NULL_TRACER = NullTracer()

# Criterion 1 of the acceptance suite: problem 1 at the CLI defaults.
CRITERION_1_MAX_ABS = 2.853584374131024e-3
CLI_DEFAULTS = (30, 11, 8)
CLI_OUTPUTS = ("boundary_flux.csv", "interior.csv", "report.json")
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" or "library"
    n: int  # boundary nodes
    m: int  # interior lattice size
    k: int  # Gauss order
    # problem id -> (err_interior_far ceiling, err_flux ceiling)
    ceilings: dict


# One workload per stage, because the stages scale differently: assembly is
# O(n^2 K), the dense solve O(n^3) and evaluation O(P n K) for P points.
# Ceilings are twice the value each problem gave at the seed commit, rounded up
# to two digits.  err_interior, over all points, has none: near-boundary points
# lose their accuracy at the seed, and the benchmark shows that, not hides it.
WORKLOADS = {
    w.name: w
    for w in (
        # Cold CLI processes at the defaults: mostly the import of numpy and
        # scipy, which every CLI call pays; assembly and solve sizes do not show.
        Workload(
            "cli_reference", "cli", 30, 11, 8,
            {1: (3.5e-3, 1.6e-2), 2: (3.0e-3, 2.1e-2), 3: (2.8e-2, 9.7e-2),
             4: (1.4e-1, 2.8e-1), 5: (2.7e-2, 1.1e-1)},
        ),
        # Large n, few points: dense assembly and LU are over 80% of an
        # operation, so circulant assembly and an FFT solve show here.
        Workload(
            "boundary_large", "library", 1500, 11, 8,
            {1: (1.2e-6, 7.3e-6), 2: (9.5e-7, 1.1e-5), 3: (8.6e-6, 5.3e-5),
             4: (4.1e-5, 1.6e-4), 5: (9.5e-6, 5.2e-5)},
        ),
        # Small n, 7825 points of which 392 are near the boundary: evaluation
        # is over 90% of an operation, so batched or closed-form evaluation
        # shows here and a change that only helps large n cannot hide.
        Workload(
            "field_dense", "library", 120, 101, 8,
            {1: (2.4e-4, 1.1e-3), 2: (2.3e-4, 1.6e-3), 3: (2.4e-3, 7.8e-3),
             4: (1.0e-2, 2.4e-2), 5: (2.6e-3, 7.7e-3)},
        ),
    )
}


def problem_sequence(seed: int):
    """Problem ids from the seed: each block of five is a shuffle of 1..5."""
    rng = random.Random(seed)
    while True:
        block = list(diskbem.PROBLEM_IDS)
        rng.shuffle(block)
        yield from block


@dataclass(frozen=True)
class Reference:
    problem: object
    u: np.ndarray  # exact u on the grid
    q: np.ndarray  # exact flux on the nodes


@dataclass(frozen=True)
class Context:
    n: int
    m: int
    k: int
    rule: object
    mesh: object
    grid: object
    refs: dict  # problem id -> Reference
    far: np.ndarray  # grid points farther than half an element from the circle


def build_context(n: int, m: int, k: int, tracer=NULL_TRACER) -> Context:
    """Set-up of a workload: rule, mesh, grid and each problem's exact values."""
    api = layer_api(tracer, diskbem)
    rule = api["gauss_legendre"](k)
    mesh = api["discretize_circle"](n)
    grid = api["interior_grid"](m)
    refs = {}
    for problem_id in diskbem.PROBLEM_IDS:
        problem = diskbem.get_problem(problem_id)
        with tracer.span("problems.u"):
            u = np.asarray(problem.u(grid.points), dtype=float)
        with tracer.span("problems.q"):
            q = np.asarray(problem.q(mesh.nodes), dtype=float)
        refs[problem_id] = Reference(problem, u, q)
    # The near-boundary rule of the seed's solver, fixed here so that the
    # meaning of err_interior_far does not move with the library's flags.
    far = 1.0 - np.hypot(grid.points[:, 0], grid.points[:, 1]) >= math.sin(math.pi / n)
    return Context(n, m, k, rule, mesh, grid, refs, far)


@dataclass
class Outcome:
    errors: dict  # err_interior, err_interior_far, err_flux (absent when unknown)
    reasons: list  # why the operation counts as failed; empty when it passed


def _relative_max(error: np.ndarray, exact: np.ndarray) -> float:
    return float(np.max(np.abs(error)) / np.max(np.abs(exact)))


def check_fields(workload: Workload, ctx: Context, problem_id: int, q, u_bem) -> Outcome:
    """Compare an operation's fluxes and interior values with the exact solution."""
    ref = ctx.refs[problem_id]
    q = np.asarray(q, dtype=float)
    u_bem = np.asarray(u_bem, dtype=float)
    if q.shape != ref.q.shape or u_bem.shape != ref.u.shape:
        return Outcome({}, [f"output shapes {q.shape}, {u_bem.shape} do not match the inputs"])
    errors = {
        "err_interior": _relative_max(u_bem - ref.u, ref.u),
        "err_interior_far": _relative_max(u_bem[ctx.far] - ref.u[ctx.far], ref.u[ctx.far]),
        "err_flux": _relative_max(q - ref.q, ref.q),
    }
    reasons = []
    if not np.all(np.isfinite(q)):
        reasons.append("non-finite flux")
    if not np.all(np.isfinite(u_bem)):
        reasons.append("non-finite interior value")
    far_ceiling, flux_ceiling = workload.ceilings[problem_id]
    # written as "not <=" so that NaN fails
    if not errors["err_interior_far"] <= far_ceiling:
        reasons.append(f"err_interior_far {errors['err_interior_far']:.3e} > {far_ceiling:.3e}")
    if not errors["err_flux"] <= flux_ceiling:
        reasons.append(f"err_flux {errors['err_flux']:.3e} > {flux_ceiling:.3e}")
    return Outcome(errors, reasons)


def _agrees(value: float, expected: float, rtol: float = 1e-9) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


@dataclass
class LibraryResult:
    q: np.ndarray
    report: object  # diskbem.FieldReport
    interior: object  # diskbem.ErrorStats of the interior field
    flux: object  # diskbem.ErrorStats of the boundary flux


def library_op(ctx: Context, problem_id: int, tracer=NULL_TRACER) -> LibraryResult:
    """One operation: assemble -> solve_flux -> evaluate_field -> error statistics."""
    api = layer_api(tracer, diskbem)
    problem = ctx.refs[problem_id].problem
    solution = api["solve_flux"](api["assemble"](ctx.mesh, problem, ctx.rule))
    report = api["evaluate_field"](solution, ctx.grid, problem, ctx.rule)
    interior = api["error_stats"](report)
    flux = api["flux_error_stats"](solution, problem)
    return LibraryResult(solution.q_nodes, report, interior, flux)


def check_library(workload: Workload, ctx: Context, problem_id: int, result: LibraryResult) -> Outcome:
    """The field checks, plus agreement of the library's own statistics."""
    ref = ctx.refs[problem_id]
    report = result.report
    outcome = check_fields(workload, ctx, problem_id, result.q, report.u_bem)
    if not outcome.errors:
        return outcome
    if not np.allclose(report.u_exact, ref.u, rtol=1e-12, atol=0.0):
        outcome.reasons.append("report.u_exact differs from the exact solution")
    if not _agrees(result.interior.max_abs, float(np.max(np.abs(report.u_bem - ref.u)))):
        outcome.reasons.append(f"error_stats max_abs {result.interior.max_abs!r} is inconsistent")
    if not _agrees(result.flux.max_abs, float(np.max(np.abs(result.q - ref.q)))):
        outcome.reasons.append(f"flux_error_stats max_abs {result.flux.max_abs!r} is inconsistent")
    return outcome


def cli_argv(ctx: Context, problem_id: int, out_dir: Path) -> list:
    return [
        "--problem", str(problem_id),
        "--boundary-nodes", str(ctx.n),
        "--interior-grid", str(ctx.m),
        "--quad-order", str(ctx.k),
        "--output-dir", str(out_dir),
    ]


def _csv_columns(path: Path, names: tuple) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return np.array([[float(row[name]) for name in names] for row in rows]).reshape(-1, len(names))


def check_cli_outputs(workload: Workload, ctx: Context, problem_id: int, out_dir: Path) -> Outcome:
    """Check the three files a successful CLI run writes."""
    missing = [name for name in CLI_OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return Outcome({}, [f"missing outputs: {', '.join(missing)}"])
    try:
        report = json.loads((out_dir / "report.json").read_text())
        q = _csv_columns(out_dir / "boundary_flux.csv", ("q_bem",))[:, 0]
        interior = _csv_columns(out_dir / "interior.csv", ("x", "y", "u_bem"))
        reported_max_abs = float(report["interior_stats"]["max_abs"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome({}, [f"unreadable outputs: {exc!r}"])
    if interior.shape[0] != len(ctx.grid) or not np.array_equal(interior[:, :2], ctx.grid.points):
        return Outcome({}, ["interior.csv points differ from the interior grid"])
    outcome = check_fields(workload, ctx, problem_id, q, interior[:, 2])
    own_max_abs = float(np.max(np.abs(interior[:, 2] - ctx.refs[problem_id].u)))
    if not _agrees(reported_max_abs, own_max_abs):
        outcome.reasons.append(f"report.json max_abs {reported_max_abs!r} is inconsistent")
    if problem_id == 1 and (ctx.n, ctx.m, ctx.k) == CLI_DEFAULTS:
        if not _agrees(reported_max_abs, CRITERION_1_MAX_ABS):
            outcome.reasons.append(
                f"problem 1 max_abs {reported_max_abs!r} != criterion 1's {CRITERION_1_MAX_ABS!r}"
            )
    return outcome


@dataclass
class CliRun:
    start: float
    end: float
    peak_rss_mb: float
    bytes_written: int
    spans: list  # span records written by a traced child; empty when untraced
    outcome: Outcome


def cli_op(
    workload: Workload, ctx: Context, problem_id: int, work_dir: Path, env: dict, traced: bool
) -> CliRun:
    """One cold CLI process, timed from spawn to exit, then its outputs checked."""
    out_dir = work_dir / "out"
    spans_path = work_dir / "spans.json"
    stderr_path = work_dir / "stderr.txt"
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path.unlink(missing_ok=True)
    argv = cli_argv(ctx, problem_id, out_dir)
    if traced:
        command = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_path), "--", *argv]
    else:
        command = [sys.executable, "-m", "diskbem", *argv]
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        # wait4 rather than proc.wait: it also gives this child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)

    bytes_written = sum(path.stat().st_size for path in out_dir.glob("*")) if out_dir.is_dir() else 0
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        outcome = Outcome({}, [f"exit code {proc.returncode}: {' '.join(tail)}"])
    else:
        outcome = check_cli_outputs(workload, ctx, problem_id, out_dir)
    spans = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else []
    return CliRun(start, end, usage.ru_maxrss / 1024.0, bytes_written, spans, outcome)
