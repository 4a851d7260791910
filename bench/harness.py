"""Runs one workload for a fixed time and turns what it measured into metrics.

Load is a closed loop with one client: the next operation starts when the
previous one has finished.  The first operation is a warm-up; it is checked
but not timed.  With tracing on, timed operations alternate between untraced
and traced, so that the tracing overhead is the difference of two medians
taken under the same conditions.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import workloads as wl
from tracing import Tracer, import_costs, per_op_totals
from workloads import BENCH_DIR, NULL_TRACER, ROOT, Outcome

SETUP_REPEATS = 6  # fresh interpreters per run for setup_s; in-process set-up rounds when traced
IMPORT_REPEATS = 3  # python -X importtime children per traced run
TAIL_BEYOND = 10  # op_s.tail is the highest percentile with this many samples beyond it

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "err_interior": "ratio",
    "err_interior_far": "ratio",
    "err_flux": "ratio",
    "ok_ratio": "ratio",
}

# per-layer metric -> (key in tracing.per_op_totals, unit); the median over operations
SPAN_METRICS = {
    "geometry.discretize_circle_s": ("geometry.discretize_circle.self", "s"),
    "geometry.interior_grid_s": ("geometry.interior_grid.self", "s"),
    "quadrature.gauss_legendre_s": ("quadrature.gauss_legendre.self", "s"),
    "problems.u_s": ("problems.u.self", "s"),
    "problems.q_s": ("problems.q.self", "s"),
    "assembly.assemble_s": ("assembly.assemble.self", "s"),
    "assembly.kernel_evals": ("assembly.kernel_evals", "count"),
    "assembly.matrix_bytes": ("assembly.matrix_bytes", "B"),
    "solver.solve_flux_s": ("solver.solve_flux.self", "s"),
    "solver.evaluate_field_s": ("solver.evaluate_field.self", "s"),
    "solver.points": ("solver.points", "count"),
    "solver.near_boundary_points": ("solver.near_boundary_points", "count"),
    "solver.kernel_evals": ("solver.kernel_evals", "count"),
    "analysis.error_stats_s": ("analysis.error_stats.self", "s"),
    "analysis.flux_error_stats_s": ("analysis.flux_error_stats.self", "s"),
    "import.diskbem_s": ("import.self", "s"),
    "cli.run_s": ("cli.run.total", "s"),
    "cli.run_self_s": ("cli.run.self", "s"),
    "cli.bytes_written": ("cli.bytes_written", "B"),
    "process.interpreter_s": ("process.self", "s"),
}
PER_LAYER = {
    **{name: unit for name, (_, unit) in SPAN_METRICS.items()},
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.diskbem_own_s": "s",
    "solver.points_per_s": "1/s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # Only this checkout's own .git: a plain export has none, and git would
    # otherwise search the directories above it.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(seed: int, thread_cap: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": thread_cap,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def tail(values: list) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and its name.

    Sorted ascending, the sample with exactly TAIL_BEYOND samples after it is
    at percentile 100 * (count - TAIL_BEYOND) / count.  With fewer samples
    than that needs, the maximum is reported and named as such.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], f"max of {count} (fewer than {TAIL_BEYOND + 1} samples)"
    percentile = 100.0 * (count - TAIL_BEYOND) / count
    return ordered[count - TAIL_BEYOND - 1], f"p{percentile:.0f} of {count}"


def measure_setup(workload: wl.Workload, env: dict, repeats: int) -> list:
    """Seconds to import diskbem and build the workload's set-up, per fresh interpreter."""
    command = [
        sys.executable, str(BENCH_DIR / "child.py"), "setup",
        str(workload.n), str(workload.m), str(workload.k),
    ]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure_imports(env: dict, repeats: int) -> dict:
    """Median import costs from ``python -X importtime -c 'import diskbem'``."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diskbem"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append({
            "import.numpy_s": import_costs(done.stderr, "numpy")[0],
            "import.scipy_s": import_costs(done.stderr, "scipy")[0],
            "import.diskbem_own_s": import_costs(done.stderr, "diskbem")[1],
        })
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


@dataclass
class RunResult:
    workload: str
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Loop:
    """Runs and checks operations, keeping what each one measured."""

    def __init__(self, workload, ctx, seed, tracer, env, work_dir):
        self.workload = workload
        self.ctx = ctx
        self.problems = wl.problem_sequence(seed)
        self.tracer = tracer
        self.env = env
        self.work_dir = work_dir
        self.outcomes: list[Outcome] = []
        self.problem_ids: list[int] = []
        self.cli_rss_mb: list[float] = []

    def attempt(self, index: int, traced: bool, kind: str) -> float:
        """Run and check one operation; return its wall time."""
        problem_id = next(self.problems)
        tracer = self.tracer if traced else NULL_TRACER
        tracer.op = index
        start = time.perf_counter()
        try:
            if kind == "cli":
                run = wl.cli_op(self.workload, self.ctx, problem_id, self.work_dir, self.env, traced)
                start, end = run.start, run.end
                self.cli_rss_mb.append(run.peak_rss_mb)
                if traced:
                    process = tracer.record(
                        "process", run.start, run.end, {"cli.bytes_written": run.bytes_written}
                    )
                    tracer.adopt(run.spans, parent=process.id)
                outcome = run.outcome
            else:
                with tracer.span("op"):
                    result = wl.library_op(self.ctx, problem_id, tracer)
                end = time.perf_counter()
                outcome = wl.check_library(self.workload, self.ctx, problem_id, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            end = time.perf_counter()
            outcome = Outcome({}, [f"{type(exc).__name__}: {exc}"])
        self.outcomes.append(outcome)
        self.problem_ids.append(problem_id)
        return end - start

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.reasons)

    def worst_error(self, name: str) -> float:
        values = [o.errors[name] for o in self.outcomes if np.isfinite(o.errors.get(name, np.nan))]
        # 1.0 (all accuracy lost) when no operation produced a finite value
        return max(values, default=1.0)


def run_workload(
    workload: wl.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
) -> RunResult:
    env = child_env()
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, env, work_dir, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, env, work_dir, out_dir) -> RunResult:
    tracer = Tracer() if trace else NULL_TRACER
    for round_ in range(SETUP_REPEATS if trace else 1):
        tracer.op = -1 - round_  # set-up rounds are the operations of the set-up layers
        ctx = wl.build_context(workload.n, workload.m, workload.k, tracer)
    # setup_s is sampled half before and half after the timed loop, so that its
    # median spans more than one stretch of the host's speed, which drifts.
    before = 0 if trace else SETUP_REPEATS // 2
    setup_samples = measure_setup(workload, env, before)

    loop = _Loop(workload, ctx, seed, tracer, env, work_dir)
    loop.attempt(0, False, workload.kind)  # warm-up
    walls, traced_walls = [], []
    start = time.perf_counter()
    index = 1
    while len(walls) + len(traced_walls) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 0
        (traced_walls if traced else walls).append(loop.attempt(index, traced, workload.kind))
        index += 1
    elapsed = time.perf_counter() - start

    notes = {"samples": len(walls), "problems": dict(sorted(
        (pid, loop.problem_ids.count(pid)) for pid in set(loop.problem_ids)))}
    if trace:
        if workload.kind != "cli":
            # the CLI layer at this workload's sizes, so every layer is measured here
            loop.attempt(index, True, "cli")
        metrics = _per_layer(tracer, walls, traced_walls, env, workload, notes)
        spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.records()))
        notes["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        setup_samples += measure_setup(workload, env, SETUP_REPEATS - before)
        tail_value, tail_name = tail(walls)
        notes["op_s.tail"] = tail_name
        notes["setup_samples"] = len(setup_samples)
        if workload.kind == "cli":
            peak_rss = max(loop.cli_rss_mb, default=0.0)
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s": statistics.median(walls),
            "op_s.tail": tail_value,
            "ops_per_s": len(walls) / elapsed,
            "peak_rss_mb": peak_rss,
            "err_interior": loop.worst_error("err_interior"),
            "err_interior_far": loop.worst_error("err_interior_far"),
            "err_flux": loop.worst_error("err_flux"),
            "ok_ratio": 1.0 - loop.failed / len(loop.outcomes),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    notes["fail_ratio"] = loop.failed / len(loop.outcomes)
    failures = [
        f"op {i} (problem {pid}): {'; '.join(o.reasons)}"
        for i, (pid, o) in enumerate(zip(loop.problem_ids, loop.outcomes))
        if o.reasons
    ]
    if failures:
        notes["failures"] = failures[:5]
    return RunResult(workload.name, metrics, len(loop.outcomes), loop.failed, notes)


def _per_layer(tracer, walls, traced_walls, env, workload, notes) -> dict:
    totals = per_op_totals(tracer.spans)
    values = {}
    for name, (key, _) in SPAN_METRICS.items():
        if key in totals:
            values[name] = statistics.median(totals[key])
        else:
            values[name] = 0.0
            notes.setdefault("missing", []).append(name)
    values.update(measure_imports(env, IMPORT_REPEATS))
    evaluate_s = values["solver.evaluate_field_s"]
    values["solver.points_per_s"] = values["solver.points"] / evaluate_s if evaluate_s > 0 else 0.0
    values["trace.op_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.op_s"] - statistics.median(walls)
    notes["traced_samples"] = len(traced_walls)
    op_s = values["trace.op_s"]
    notes["shares_of_traced_op_s"] = {
        "assembly+solve_flux": (values["assembly.assemble_s"] + values["solver.solve_flux_s"]) / op_s,
        "evaluate_field": values["solver.evaluate_field_s"] / op_s,
        **({"import": values["import.diskbem_s"] / op_s} if workload.kind == "cli" else {}),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
