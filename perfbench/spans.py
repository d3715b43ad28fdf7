"""Span tracing of membrane_opt from outside the package.

The tracer replaces public functions at the namespace each caller binds
them in (``optimizer.first_eigenpair`` is what ``minimize`` calls, not
``eigen.first_eigenpair``), records one span per call, and restores the
originals on exit.  A span is (name, parent span, instance id, start, end,
error class, info), where ``info`` is a small digest of the return value
or exception, such as the outer-iteration count of an eigensolve.  Spans
stay in memory until ``write`` is called.

A target that a later version of the package no longer defines is skipped
and its metrics read 0; a target that is defined but never called also
reads 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Artifact formatters the CLI calls while exporting a solution; their
# spans sum to ``cli.export.s``.
EXPORT_WRITERS = ("density_csv", "eigenfunction_csv", "grid_csv", "trace_text",
                  "partition_text", "contour_csv", "pgm_bytes")

# (span name, module, attribute): each function is wrapped where its
# caller looks it up, so a call through any listed namespace is traced.
TARGETS = (
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
    ("grid.build_grid", "cli", "build_grid"),
    ("operators.assemble_stiffness", "optimizer", "assemble_stiffness"),
    ("optimizer.multi_start", "optimizer", "multi_start"),
    ("optimizer.minimize", "optimizer", "minimize"),
    ("optimizer.minimize", "cli", "minimize"),
    ("optimizer.bathtub_rearrange", "optimizer", "bathtub_rearrange"),
    ("optimizer.classify_solutions", "optimizer", "classify_solutions"),
    ("optimizer.classify_solutions", "cli", "classify_solutions"),
    ("eigen.first_eigenpair", "optimizer", "first_eigenpair"),
    ("eigen.solve_spd", "eigen", "solve_spd"),
    ("verify.extract_contour", "cli", "extract_contour"),
    ("verify.count_components", "verify", "count_components"),
    *(("cli.export", "cli", writer) for writer in EXPORT_WRITERS),
)


def _eigen_digest(pair) -> dict:
    return {"iterations": int(pair.iterations), "residual": float(pair.residual)}


def _stiffness_digest(stiffness) -> dict:
    return {"nnz": int(stiffness.matrix.nnz)}


def _minimize_digest(result) -> dict:
    trace = result[3]
    return {"alternations": len(trace), "status": trace.status}


def _minimize_error_digest(exc) -> dict:
    # minimize hands the trace so far to the caller on a solver failure
    return {"alternations": len(getattr(exc, "partial_trace", ()))}


_DIGESTS = {
    "eigen.first_eigenpair": _eigen_digest,
    "operators.assemble_stiffness": _stiffness_digest,
    "optimizer.minimize": _minimize_digest,
}
_ERROR_DIGESTS = {"optimizer.minimize": _minimize_error_digest}

# span fields
NAME, PARENT, INSTANCE, START, END, ERROR, INFO = range(7)


class Tracer:
    """Collects spans for the instances run inside ``traced``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._instance: int | None = None

    def _wrap(self, name: str, fn):
        digest = _DIGESTS.get(name)
        error_digest = _ERROR_DIGESTS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, self._instance,
                    time.perf_counter(), None, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                if error_digest is not None:
                    span[INFO] = error_digest(exc)
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if digest is not None:
                span[INFO] = digest(result)
            return result

        return traced

    @contextmanager
    def traced(self, instance: int):
        """Wrap every target present in the package for one instance."""
        saved = []
        self._instance = instance
        try:
            for name, module_name, attr in TARGETS:
                module = self.modules[module_name]
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                self.wrapped.add(name)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._instance = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": span_id, "name": span[NAME], "parent": span[PARENT],
                    "instance": span[INSTANCE], "start": span[START],
                    "end": span[END], "error": span[ERROR], "info": span[INFO],
                }) + "\n")

    def layer_metrics(self, instance: int) -> dict:
        """Per-layer metrics of one instance, from its spans alone."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[INSTANCE] == instance]
        for _, span in mine:
            duration = span[END] - span[START]
            total[span[NAME]] += duration
            calls[span[NAME]] += 1
            if span[PARENT] is not None:
                child_time[span[PARENT]] += duration

        def self_time(name: str) -> float:
            return sum(s[END] - s[START] - child_time[i]
                       for i, s in mine if s[NAME] == name)

        def infos(name: str, key: str) -> list:
            return [s[INFO][key] for _, s in mine
                    if s[NAME] == name and s[INFO] is not None and key in s[INFO]]

        outer = sum(infos("eigen.first_eigenpair", "iterations"))
        return {
            "grid.build_grid.s": total["grid.build_grid"],
            "operators.assemble_stiffness.s": total["operators.assemble_stiffness"],
            "operators.stiffness_nnz": max(infos("operators.assemble_stiffness", "nnz"),
                                           default=0),
            "eigen.first_eigenpair.s": total["eigen.first_eigenpair"],
            "eigen.first_eigenpair.calls": calls["eigen.first_eigenpair"],
            "eigen.outer_iterations": outer,
            "eigen.solve_spd.s": total["eigen.solve_spd"],
            "eigen.solve_spd.calls": calls["eigen.solve_spd"],
            "eigen.inner_per_outer": calls["eigen.solve_spd"] / outer if outer else 0.0,
            "eigen.residual_max": max(infos("eigen.first_eigenpair", "residual"),
                                      default=0.0),
            "eigen.failures": sum(1 for _, s in mine
                                  if s[NAME] == "eigen.first_eigenpair" and s[ERROR]),
            "optimizer.minimize.self_s": self_time("optimizer.minimize"),
            "optimizer.alternations": sum(infos("optimizer.minimize", "alternations")),
            "optimizer.bathtub_rearrange.s": total["optimizer.bathtub_rearrange"],
            "optimizer.bathtub_rearrange.calls": calls["optimizer.bathtub_rearrange"],
            "optimizer.classify_solutions.s": total["optimizer.classify_solutions"],
            "verify.extract_contour.s": total["verify.extract_contour"],
            "verify.count_components.s": total["verify.count_components"],
            "cli.parse_config.self_s": self_time("cli.parse_config"),
            "cli.export.s": total["cli.export"],
        }

    def reconcile(self, metrics: dict, seeded_starts: int) -> list[str]:
        """Count identities that must hold for one instance; returns the
        violations.  A check whose functions are not wrapped is skipped."""
        problems = []
        alternations = metrics["optimizer.alternations"]
        if {"eigen.first_eigenpair", "optimizer.minimize"} <= self.wrapped:
            expected = alternations + metrics["eigen.failures"]
            if metrics["eigen.first_eigenpair.calls"] != expected:
                problems.append(
                    f"first_eigenpair calls {metrics['eigen.first_eigenpair.calls']} "
                    f"!= alternations {alternations} + failed calls "
                    f"{metrics['eigen.failures']}")
        if {"optimizer.bathtub_rearrange", "optimizer.minimize"} <= self.wrapped:
            expected = alternations + seeded_starts
            if metrics["optimizer.bathtub_rearrange.calls"] != expected:
                problems.append(
                    f"bathtub_rearrange calls "
                    f"{metrics['optimizer.bathtub_rearrange.calls']} != alternations "
                    f"{alternations} + seeded starts {seeded_starts}")
        return problems
