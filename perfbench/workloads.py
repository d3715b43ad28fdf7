"""The benchmark's workloads: inputs, one unit of work each, output checks.

Every workload drives membrane_opt through its public functions and CLI
entry points (``cli.parse_config`` + ``cli.run`` is exactly what
``membrane-opt <subcommand>`` does after reading the config file).  The
package functions are looked up as module attributes at call time, so the
span tracer in ``spans.py`` sees every call.

A unit's timed region covers the config parse (which builds the grid),
the solve and, on CLI paths, the artifact export; its output checks run
after the timed region.  An instance fails on a non-zero exit code, a
SolverError or a failed check; a unit with a failed instance has no
wall time.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from membrane_opt import cli, eigen, grid, optimizer, verify

# Classes merge at the eigenvalue scale of the dumbbell acceptance test;
# the discrete fixed points cluster within ~1e-6 relative on this grid.
CLASS_MU_RTOL = 1e-6
EIGEN_RTOL = 1e-8
MONOTONE_SLACK = 1e-9


@dataclass
class Outcome:
    """One unit of work: timings, instance counts and what the checks saw."""

    elapsed_s: float
    setup_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    observed: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float | None:
        """Timed-region length; None when an instance failed, so that a
        failure turning into a success never reads as a slowdown."""
        return None if self.failed else self.elapsed_s


def _config_text(root: Path, name: str, **overrides: str) -> str:
    """A repository config with whole ``key = value`` lines replaced."""
    text = (root / "configs" / name).read_text()
    for key, value in overrides.items():
        text, count = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        if count != 1:
            raise ValueError(f"config {name}: expected one '{key} =' line, found {count}")
    return text


def _eigen_problem(label: str, mu: float, reference: float) -> list[str]:
    rel = abs(mu - reference) / abs(reference)
    if rel > EIGEN_RTOL:
        return [f"{label}: eigenvalue {mu!r} differs from reference {reference!r} "
                f"by {rel:.2e} relative"]
    return []


@contextmanager
def _capturing(module, attr: str):
    """Collect the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    seen: list = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(module, attr, capture)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


def _mirror_pair(classes, g) -> tuple | None:
    """Two classes with equal eigenvalues whose low regions differ on at
    least 10% of the nodes and map onto each other under the x-mirror up
    to 1% of the nodes (the symmetry-breaking acceptance criterion)."""
    n = g.node_count
    perm = grid.mirror_permutation(g, axis=0)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            mu_a, mu_b = a.eigenpair.eigenvalue, b.eigenpair.eigenvalue
            if abs(mu_a - mu_b) > CLASS_MU_RTOL * max(abs(mu_a), abs(mu_b)):
                continue
            if np.setxor1d(a.partition.low_nodes, b.partition.low_nodes).size < 0.10 * n:
                continue
            mirrored = np.sort(perm[a.partition.low_nodes])
            if np.setxor1d(mirrored, b.partition.low_nodes).size <= 0.01 * n:
                return a.seed, b.seed
    return None


class DumbbellMultistart:
    """``configs/dumbbell_sweep.cfg`` through ``optimizer.multi_start``.

    The starts are the config's seeds, so every run does the same work
    and matches one set of reference eigenvalues; the benchmark seed sets
    the order in which the starts run, which decides each class's
    representative.  Other start seeds do different amounts of work, so
    they would make runs at different benchmark seeds incomparable.
    """

    name = "dumbbell-multistart"

    def __init__(self, root: Path, seed: int, reference: dict):
        self.text = _config_text(root, "dumbbell_sweep.cfg")
        self.order = list(cli.parse_config(self.text, subcommand="sweep").seeds)
        random.Random(seed).shuffle(self.order)
        self.seeded_starts = len(self.order)
        self.reference = reference

    def setup_only(self) -> float:
        start = perf_counter()
        cli.parse_config(self.text, subcommand="sweep")
        return perf_counter() - start

    def unit(self) -> Outcome:
        with _capturing(optimizer, "minimize") as runs, warnings.catch_warnings():
            # the near-degeneracy warning is expected on this domain
            warnings.simplefilter("ignore", RuntimeWarning)
            start = perf_counter()
            config = cli.parse_config(self.text, subcommand="sweep")
            setup = perf_counter() - start
            try:
                classes = optimizer.multi_start(
                    config.problem, self.order, opts=config.solver,
                    max_alternations=config.max_alternations, mu_rtol=CLASS_MU_RTOL)
            except eigen.SolverError as exc:
                return Outcome(perf_counter() - start, setup, 1, 1,
                               [f"{type(exc).__name__}: {exc}"])
            elapsed = perf_counter() - start
        problems = self._check(config, runs, classes)
        observed = {
            "classes": [list(c.member_seeds) for c in classes],
            "seed_eigenvalues": {str(s): r[1].eigenvalue for s, r in zip(self.order, runs)},
            "alternations": {str(s): len(r[3]) for s, r in zip(self.order, runs)},
        }
        return Outcome(elapsed, setup, 1, 1 if problems else 0, problems,
                       observed=observed)

    def _check(self, config, runs, classes) -> list[str]:
        problems = []
        if len(runs) != len(self.order):
            problems.append(f"{len(runs)} minimize runs for {len(self.order)} seeds")
        references = self.reference["seed_eigenvalues"]
        for seed, (_, pair, _, trace) in zip(self.order, runs):
            if trace.status not in (optimizer.CONVERGED, optimizer.CYCLING):
                problems.append(f"seed {seed}: terminal status {trace.status}")
            if str(seed) not in references:
                problems.append(f"seed {seed}: no reference eigenvalue")
            else:
                problems += _eigen_problem(f"seed {seed}", pair.eigenvalue,
                                           references[str(seed)])
        if len(classes) < 2:
            problems.append(f"{len(classes)} solution class(es), expected at least 2")
        elif _mirror_pair(classes, config.grid) is None:
            problems.append("no mirror pair among the solution classes")
        for c in classes:
            ok, margin = verify.sublevel_check(c.eigenpair.vector, c.partition)
            if not ok:
                problems.append(f"class of seed {c.seed}: not a sub-level set "
                                f"(margin {margin:.3e})")
            if not c.trace.is_monotone(MONOTONE_SLACK):
                problems.append(f"class of seed {c.seed}: eigenvalue trace not monotone")
        return problems


def _trace_eigenvalues(path: Path) -> list[float]:
    return [entry["mu"] for entry in map(json.loads, path.read_text().splitlines())
            if entry["type"] == "record"]


def _status_detail(out: Path) -> str:
    path = out / "status.txt"
    if not path.exists():
        return "no status.txt"
    for line in path.read_text().splitlines():
        if line.startswith("detail = "):
            return line[len("detail = "):]
    return "no detail line"


class CliWorkload:
    """Runs of the ``solve``/``plate`` CLI path, one instance per rung.

    A rung is (label, subcommand, config text); the unit of work runs every
    rung in order and writes each into its own output directory.
    """

    def __init__(self, name: str, rungs: list[tuple[str, str, str]], workdir: Path,
                 reference: dict, one_component: bool = False):
        self.name = name
        self.rungs = rungs
        self.workdir = workdir
        self.reference = reference
        self.one_component = one_component
        self.seeded_starts = 0

    def setup_only(self) -> float:
        total = 0.0
        for label, subcommand, text in self.rungs:
            start = perf_counter()
            cli.parse_config(text, subcommand=subcommand, out_override=str(self._out(label)))
            total += perf_counter() - start
        return total

    def _out(self, label: str) -> Path:
        return self.workdir / re.sub(r"[^0-9A-Za-z]+", "_", label)

    def unit(self) -> Outcome:
        outcome = Outcome(0.0, 0.0, 0, 0)
        for label, subcommand, text in self.rungs:
            out = self._out(label)
            shutil.rmtree(out, ignore_errors=True)
            start = perf_counter()
            config = cli.parse_config(text, subcommand=subcommand, out_override=str(out))
            parsed = perf_counter()
            code = cli.run(config)
            end = perf_counter()
            outcome.setup_s += parsed - start
            outcome.elapsed_s += end - start
            outcome.attempted += 1
            problems = self._check(label, config, code, out, outcome.observed)
            outcome.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            if problems:
                outcome.failed += 1
                outcome.problems += problems
        return outcome

    def _check(self, label: str, config, code: int, out: Path, observed: dict) -> list[str]:
        seen = observed[label] = {"exit": code, "detail": _status_detail(out)}
        if code != 0:
            return [f"{label}: exit code {code} ({seen['detail']})"]
        # exit code 0 means the run ended converged or cycling
        mus = _trace_eigenvalues(out / "trace.txt")
        seen.update(eigenvalue=mus[-1] if mus else None, alternations=len(mus))
        if not mus:
            return [f"{label}: empty trace"]
        problems = []
        if any(b > a + MONOTONE_SLACK * abs(a) for a, b in zip(mus, mus[1:])):
            problems.append(f"{label}: eigenvalue trace not monotone")
        if label not in self.reference:
            problems.append(f"{label}: no reference entry")
        elif self.reference[label] is not None:
            # null: the rung failed when references were recorded
            problems += _eigen_problem(label, mus[-1], self.reference[label])
        if self.one_component:
            low = [int(line) for line in (out / "partition.txt").read_text().splitlines()
                   if line and not line.startswith("#")]
            parts = verify.count_components(low, config.grid)
            seen["low_components"] = parts
            if parts != 1:
                problems.append(f"{label}: low region has {parts} components, expected 1")
        return problems


def _plate_rung(root: Path, k: int) -> tuple[str, str, str]:
    # M = |Omega| = ((k - 1) h)^2 on the unit square at h = 1/k
    mass = ((k - 1) / k) ** 2
    return (f"h=1/{k}", "plate",
            _config_text(root, "plate_square.cfg", h=f"1/{k}", M=repr(mass)))


def make(name: str, root: Path, seed: int, workdir: Path, references: dict):
    """Build a workload's inputs; only the dumbbell depends on ``seed``."""
    reference = references[name]
    if name == "dumbbell-multistart":
        return DumbbellMultistart(root, seed, reference)
    if name == "disk-export":
        rungs = [("h=1/128", "solve", _config_text(root, "disk.cfg", h="1/128"))]
        return CliWorkload(name, rungs, workdir, reference, one_component=True)
    if name == "plate-4d":
        rungs = [("h=1/10", "plate", _config_text(root, "plate_4d.cfg"))]
        return CliWorkload(name, rungs, workdir, reference)
    if name == "plate-ladder":
        rungs = [_plate_rung(root, k) for k in (16, 32, 48, 64)]
        return CliWorkload(name, rungs, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")
