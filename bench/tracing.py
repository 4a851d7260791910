"""Spans recorded by the benchmark around its own calls into diskbem.

A span has a name, a start and an end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so spans written by a child process line
up with the parent's), the id of the span that caused it and the id of the
operation it belongs to.  Spans are kept in memory and written out when the
benchmark ends.  A span may also carry counts measured at the same boundary.

This module uses only the standard library: the traced CLI child imports it
before it starts timing the import of diskbem.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``op`` tags the spans opened next."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def record(self, name: str, start: float, end: float, counts: dict) -> Span:
        """Append a span whose interval was measured by the caller."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, start, end, parent, self.op, dict(counts))
        self.spans.append(span)
        return span

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans written by a child process under the span ``parent``."""
        offset = len(self.spans)
        for record in records:
            own_parent = record["parent"]
            self.spans.append(
                Span(
                    id=offset + record["id"],
                    name=record["name"],
                    start=record["start"],
                    end=record["end"],
                    parent=parent if own_parent is None else offset + own_parent,
                    op=self.op,
                    counts=dict(record["counts"]),
                )
            )

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


class NullTracer:
    """Tracing off: a span is a throwaway context and nothing is recorded."""

    enabled = False
    op = 0

    def span(self, name: str):
        return nullcontext(Span(-1, name, 0.0, 0.0, None, -1))


def traced(tracer, name: str, fn, counts=None):
    """Wrap ``fn`` in a span; ``counts(args, result)`` gives counts to attach."""

    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span.counts.update(counts(args, result))
        return result

    return wrapper


def _assemble_counts(args, system) -> dict:
    mesh, _, rule = args[:3]
    return {
        "assembly.kernel_evals": 2 * mesh.n * mesh.n * rule.order,
        "assembly.matrix_bytes": system.H.nbytes + system.G.nbytes,
    }


def _evaluate_counts(args, report) -> dict:
    solution, grid, _, rule = args[:4]
    points = len(grid)
    return {
        "solver.points": points,
        "solver.near_boundary_points": int(report.near_boundary.sum()),
        "solver.kernel_evals": 2 * points * solution.mesh.n * rule.order,
    }


# Public diskbem functions the benchmark calls (and diskbem.cli imports), with
# the span name of each: the module that implements it, then the function.
# Kernel-evaluation counts are computed from the sizes, not counted in the code.
LAYER_CALLS = {
    "gauss_legendre": ("quadrature.gauss_legendre", None),
    "discretize_circle": ("geometry.discretize_circle", None),
    "interior_grid": ("geometry.interior_grid", None),
    "assemble": ("assembly.assemble", _assemble_counts),
    "solve_flux": ("solver.solve_flux", None),
    "evaluate_field": ("solver.evaluate_field", _evaluate_counts),
    "error_stats": ("analysis.error_stats", None),
    "flux_error_stats": ("analysis.flux_error_stats", None),
}


# The calls an operation makes, after set-up.
OP_CALLS = ("assemble", "solve_flux", "evaluate_field", "error_stats", "flux_error_stats")


def layer_api(tracer, module, attrs=tuple(LAYER_CALLS)) -> dict:
    """The named LAYER_CALLS functions of ``module``, wrapped in spans when tracing."""
    api = {}
    for attr in attrs:
        name, counts = LAYER_CALLS[attr]
        fn = getattr(module, attr)
        api[attr] = traced(tracer, name, fn, counts) if tracer.enabled else fn
    return api


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, [])
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def per_op_totals(spans: list[Span]) -> dict[str, list[float]]:
    """Per name, one value per operation: the summed self time, duration and counts.

    Keys are ``<name>.self``, ``<name>.total`` and each count name.  An
    operation contributes to a key only if it recorded a span or count for it.
    """
    own = self_times(spans)
    by_op: dict[int, dict[str, float]] = {}
    for span in spans:
        totals = by_op.setdefault(span.op, {})
        for key, value in (
            (span.name + ".self", own[span.id]),
            (span.name + ".total", span.duration),
            *span.counts.items(),
        ):
            totals[key] = totals.get(key, 0.0) + value
    merged: dict[str, list[float]] = {}
    for totals in by_op.values():
        for key, value in totals.items():
            merged.setdefault(key, []).append(value)
    return merged


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_costs(stderr: str, package: str) -> tuple[float, float]:
    """Seconds spent importing ``package``, from ``python -X importtime`` output.

    Returns (subtree, own).  ``subtree`` is the cumulative time of every import
    subtree rooted at one of the package's modules and not nested in another
    of them, so what the package imports (standard library included) counts
    towards it.  ``own`` is the summed self time of the package's modules.
    """
    entries = []  # (depth, name, self_us, cumulative_us), in completion order
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            own_us, cumulative_us, indent, name = match.groups()
            entries.append((len(indent) // 2, name, int(own_us), int(cumulative_us)))
    own = sum(e[2] for e in entries if _in_package(e[1], package))
    subtree = sum(
        cumulative
        for index, (_, name, _, cumulative) in enumerate(entries)
        if _in_package(name, package) and not _nested_in(entries, index, package)
    )
    return subtree * 1e-6, own * 1e-6


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _nested_in(entries, index: int, package: str) -> bool:
    # output is post-order: an entry's parent is the next later one less deep
    depth = entries[index][0]
    for later_depth, name, _, _ in entries[index + 1:]:
        if later_depth < depth:
            if _in_package(name, package):
                return True
            depth = later_depth
    return False
