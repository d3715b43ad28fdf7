"""Configuration parsing, experiment orchestration, and file exports.

Configs are plain ``key = value`` text, one pair per line, ``#`` comments
allowed; unknown keys are rejected.  One table, ``_KEYS``, gives each key
its parser and default; the parsed table, with the density box in place of
``A``/``lam``/``Lam`` and the derived order ``p`` and exponent ``n``, is the
payload of the config hash.  The subcommand fixes the operator order, and
the order is the exponent n of rho = e^(n u): ``plate`` is the order-4
run, every other subcommand is of order 2.  Subcommands:

    solve   single run from the uniform density; exports fields, trace,
            partition, contours, and PGM images
    oracle  brute-force enumeration cross-checked against multi-start
    sweep   one seeded run per seed, a single CSV row each
    check   round-hemisphere conformal, regularity, and symmetry reports
    plate   order-4 (clamped bilaplacian) run with the solve export set

Exit codes: 0 success, 1 input or usage error, 2 solver non-convergence.
Every emitted file carries header comments with the config hash, grid
size, and density bounds; identical configs byte-reproduce identical
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .eigen import SolverError, SolverOptions, first_eigenpair
from .grid import (
    Disk,
    Grid,
    GridSpec,
    Rectangle,
    annulus_spec,
    box_spec,
    build_grid,
    disk_spec,
    dumbbell_spec,
    mirror_permutation,
    square_spec,
)
from .operators import assemble_weight
from .optimizer import (
    MAX_ITER,
    DensityField,
    LevelSetPartition,
    OptimizationTrace,
    ProblemSpec,
    classify_solutions,
    conformal_bounds,
    minimize,
)
from .verify import (
    ContourSet,
    check_oracle_input,
    enumerate_optimal,
    extract_contour,
    ladder,
    regularity_trend,
    round_hemisphere,
    sublevel_check,
)

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

SUBCOMMANDS = ("solve", "oracle", "sweep", "check", "plate")


class ConfigError(ValueError):
    pass


def _parse_text(key: str, text: str) -> str:
    return text


def _parse_number(key: str, text: str) -> float:
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"key '{key}': not a number: {text!r}") from exc


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': not an integer: {text!r}") from exc


def _parse_floats(key: str, text: str) -> tuple[float, ...]:
    return tuple(_parse_number(key, part.strip()) for part in text.split(","))


def _parse_ints(key: str, text: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part.strip()) for part in text.split(","))


def _parse_bbox(key: str, text: str) -> tuple[tuple[float, float], ...]:
    flat = _parse_floats(key, text)
    if len(flat) % 2:
        raise ConfigError(f"key '{key}': needs an even number of entries (lo,hi per axis)")
    return tuple(zip(flat[::2], flat[1::2]))


# Every config key with its parser and its default text.  A default of None
# leaves an absent key None: A, lam and Lam are alternatives.  _REQUIRED
# keys must be given.
_REQUIRED = object()
_KEYS = {
    "subcommand": (_parse_text, "solve"),
    "d": (_parse_int, "2"),
    "shape": (_parse_text, _REQUIRED),
    "h": (_parse_number, _REQUIRED),
    "side": (_parse_number, "1.0"),
    "bbox": (_parse_bbox, None),
    "center": (_parse_floats, None),
    "radius": (_parse_number, "1.0"),
    "r_in": (_parse_number, None),
    "r_out": (_parse_number, None),
    "bell": (_parse_number, "1.0"),
    "neck_length": (_parse_number, "0.5"),
    "neck_width": (_parse_number, "0.125"),
    "bump_amplitude": (_parse_number, "0.0"),
    "A": (_parse_number, None),
    "lam": (_parse_number, None),
    "Lam": (_parse_number, None),
    "M": (_parse_number, _REQUIRED),
    "eig_tol": (_parse_number, "1e-9"),
    "max_power_iterations": (_parse_int, "500"),
    "max_alternations": (_parse_int, "200"),
    "seeds": (_parse_ints, "0"),
    "out": (_parse_text, "out"),
    "check_levels": (_parse_int, "3"),
}


def _smooth_bump(center: np.ndarray, radius: float, amplitude: float):
    """Compactly supported mollifier bump, value ``amplitude`` at the center,
    as an array background: (N, d) points to (N,) exponents w."""
    def w(points: np.ndarray) -> np.ndarray:
        s2 = np.sum((points - center) ** 2, axis=1) / radius**2
        inside = s2 < 1.0
        # math.exp, not np.exp: the two differ in the last bit on some inputs,
        # and the weights of curved runs are pinned to the former
        exponent = (1.0 - 1.0 / (1.0 - s2[inside])).tolist()
        out = np.zeros(points.shape[0])
        out[inside] = amplitude * np.fromiter(map(math.exp, exponent), float,
                                              len(exponent))
        return out
    return w


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully validated run description with its problem built.

    ``raw`` is the parsed key table, with the density box ``rho_min``/
    ``rho_max`` in place of ``A``/``lam``/``Lam`` and the derived ``p`` and
    ``n``; it is what ``config_hash`` hashes.  The fields after it are its
    entries of the same name.
    """

    problem: ProblemSpec
    solver: SolverOptions
    raw: dict
    subcommand: str
    max_alternations: int
    seeds: tuple[int, ...]
    out: str
    check_levels: int

    @property
    def grid(self) -> Grid:
        return self.problem.grid

    @property
    def config_hash(self) -> str:
        payload = {k: v for k, v in self.raw.items() if k != "out"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def header_lines(self, what: str) -> list[str]:
        return [
            f"membrane-opt {what}",
            f"config={self.config_hash} subcommand={self.subcommand}",
            f"nodes={self.grid.node_count} lattice={'x'.join(str(c + 1) for c in self.grid.lattice_cells)} h={self.grid.spacing!r}",
            f"rho_min={self.problem.rho_min!r} rho_max={self.problem.rho_max!r} M={self.problem.mass!r} p={self.problem.order}",
        ]

    def trace_header(self) -> dict:
        """Header fields of ``trace.txt``, complete or partial."""
        return {
            "config": self.config_hash, "nodes": self.grid.node_count,
            "rho_min": self.problem.rho_min, "rho_max": self.problem.rho_max,
            "M": self.problem.mass, "p": self.problem.order,
        }


def _build_grid_spec(values: dict) -> GridSpec:
    """Flat spec of the configured shape; ``_with_bump`` curves it."""
    d = values["d"]
    shape = values["shape"]
    h = values["h"]
    center = values["center"] or (0.0,) * d
    if shape in ("disk", "annulus") and len(center) != d:
        raise ConfigError(f"key 'center': needs {d} components")
    if shape == "square":
        return square_spec(h, side=values["side"], dimension=d)
    if shape == "rectangle":
        if values["bbox"] is None:
            raise ConfigError("key 'bbox': required for shape rectangle")
        spec = box_spec(h, values["bbox"])
        if spec.dimension != d:
            raise ConfigError(f"key 'bbox': gives {spec.dimension} axes, d = {d}")
        return spec
    if shape == "disk":
        return disk_spec(h, radius=values["radius"], center=center, dimension=d)
    if shape == "annulus":
        if values["r_in"] is None or values["r_out"] is None:
            raise ConfigError("keys 'r_in'/'r_out': required for shape annulus")
        return annulus_spec(h, values["r_in"], values["r_out"], center=center,
                            dimension=d)
    if shape == "dumbbell":
        if d != 2:
            raise ConfigError("key 'shape': dumbbell requires d = 2")
        return dumbbell_spec(h, bell=values["bell"],
                             neck_length=values["neck_length"],
                             neck_width=values["neck_width"])
    raise ConfigError(
        f"key 'shape': unknown shape {shape!r} "
        "(square | rectangle | disk | annulus | dumbbell)"
    )


def _with_bump(spec: GridSpec, amplitude: float) -> GridSpec:
    """``spec`` under a smooth background bump of the given amplitude (flat
    for 0): on a disk its center and radius, on a box the box midpoint and
    half the shortest side."""
    if amplitude == 0.0:
        return spec
    if isinstance(spec.shape, Disk):
        center, radius = spec.shape.center, spec.shape.radius
    elif isinstance(spec.shape, Rectangle):
        center = [(lo + hi) / 2.0 for lo, hi in spec.bounds]
        radius = min((hi - lo) / 2.0 for lo, hi in spec.bounds)
    else:
        raise ConfigError("key 'bump_amplitude': not supported on "
                          f"{type(spec.shape).__name__.lower()}")
    return replace(spec, background=_smooth_bump(np.asarray(center), radius, amplitude))


def parse_config(text: str, subcommand: str | None = None,
                 out_override: str | None = None) -> RunConfig:
    """Validate ``key = value`` text into a RunConfig, defaults applied.

    Unknown or duplicate keys are rejected; errors name the offending key
    and the violated constraint.  Infeasible (A, M) combinations surface
    here because the grid is built during validation.
    """
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        pairs[key] = value

    if subcommand and pairs.setdefault("subcommand", subcommand) != subcommand:
        raise ConfigError(
            f"key 'subcommand': config says {pairs['subcommand']!r}, "
            f"command line says {subcommand!r}"
        )
    if out_override:
        pairs["out"] = out_override

    values: dict = {}
    for key, (parse, default) in _KEYS.items():
        given = pairs.get(key, default)
        if given is _REQUIRED:
            raise ConfigError(f"key '{key}': required but missing")
        values[key] = None if given is None else parse(key, given)

    sub = values["subcommand"]
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"key 'subcommand': unknown subcommand {sub!r}")
    bound_exponent, lam, big_lam = (values.pop(key) for key in ("A", "lam", "Lam"))
    if bound_exponent is not None and (lam is not None or big_lam is not None):
        raise ConfigError("keys 'A'/'lam': give either A or explicit (lam, Lam), not both")
    if bound_exponent is None and (lam is None or big_lam is None):
        raise ConfigError("key 'A': required (or give both lam and Lam)")

    # the subcommand fixes the order p, and the exponent n of rho = e^(n u)
    # is p.  Both stay in the hashed table, as rho_min/rho_max do: a config
    # hash, and every artifact that carries it, must not depend on whether
    # a value is given or derived
    p = values["p"] = values["n"] = 4 if sub == "plate" else 2

    try:
        flat_spec = _build_grid_spec(values)
        grid = build_grid(_with_bump(flat_spec, values["bump_amplitude"]))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"grid construction failed: {exc}") from exc

    if bound_exponent is not None:
        try:
            lam, big_lam = conformal_bounds(bound_exponent, p)
        except ValueError as exc:
            raise ConfigError(f"key 'A': {exc}") from exc
    elif not 0.0 < lam <= big_lam < math.inf:
        raise ConfigError("keys 'lam'/'Lam': need 0 < lam <= Lam < inf, "
                          f"got ({lam}, {big_lam})")
    values.update(rho_min=lam, rho_max=big_lam)

    try:
        problem = ProblemSpec(grid=grid, rho_min=lam, rho_max=big_lam, mass=values["M"],
                              order=p)
    except ValueError as exc:
        key = "bump_amplitude" if "background" in str(exc) else "M"
        raise ConfigError(f"key '{key}': {exc}") from exc

    solver = SolverOptions()
    for key, name in (("eig_tol", "eig_rel_tol"), ("max_power_iterations", "max_iterations")):
        try:
            solver = replace(solver, **{name: values[key]})
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from exc
    if values["max_alternations"] < 1:
        raise ConfigError("key 'max_alternations': must be >= 1")
    if min(values["seeds"]) < 0:
        raise ConfigError(f"key 'seeds': seeds must be >= 0, got {min(values['seeds'])}")
    if values["check_levels"] < 2:
        raise ConfigError("key 'check_levels': need at least 2 refinement levels")

    if sub == "oracle":
        try:
            check_oracle_input(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    settings = {f.name: values[f.name] for f in fields(RunConfig) if f.name in values}
    return RunConfig(problem=problem, solver=solver, raw=values, **settings)


# ---------------------------------------------------------------------------
# artifact writers

def _comment_block(lines) -> str:
    return "".join(f"# {line}\n" for line in lines)


# rows a table writer formats per write, so that the memory an export takes
# stays bounded however many rows the table has
_CHUNK_ROWS = 2048


def _rows(stream, columns) -> None:
    """One comma-separated line per index of equal-length columns, formatted
    and written ``_CHUNK_ROWS`` rows at a time.  On Python ints and floats
    ``str`` is ``repr`` (shortest round-trip digits), which keeps tables
    byte-stable; text and None go unquoted."""
    columns = [np.asarray(column) for column in columns]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = (map(str, column[start:start + _CHUNK_ROWS].tolist())
                 for column in columns)
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _table(stream, header_lines, names, *columns) -> None:
    """Comment block, column names, then one row per index."""
    stream.write(_comment_block(header_lines) + ",".join(names) + "\n")
    _rows(stream, columns)


def _report(stream, header_lines, fields: dict) -> None:
    """Comment block, then one ``key = value`` line per field (``str``)."""
    stream.write(_comment_block(header_lines)
                 + "".join(f"{k} = {v}\n" for k, v in fields.items()))


def density_csv(stream, density: DensityField, exponent: int, header_lines) -> None:
    values = density.values
    _table(stream, header_lines, ("node", "rho", "u"), np.arange(values.shape[0]),
           values, density.conformal_factor(exponent))


def eigenfunction_csv(stream, phi: np.ndarray, header_lines) -> None:
    _table(stream, header_lines, ("node", "phi"), np.arange(len(phi)), phi)


def grid_csv(stream, grid: Grid, header_lines=()) -> None:
    """One row per node: integer coords, physical coords, e^(dw) as ``e2w``."""
    axes = range(grid.dimension)
    names = [f"i{k}" for k in axes] + [f"x{k}" for k in axes] + ["e2w"]
    _table(stream, header_lines, names, *grid.nodes.T, *grid.coordinates().T, grid.e2w)


def contour_csv(stream, contours: ContourSet, header_lines=()) -> None:
    """Polylines as CSV rows (curve id, x, y); closed ids in a header comment."""
    polylines = contours.polylines
    closed_ids = [k for k, p in enumerate(polylines) if p.closed]
    head = [*header_lines, f"closed_curves={closed_ids!r}",
            f"region_components={contours.region_components}"]
    curve = np.repeat(np.arange(len(polylines)), [len(p.points) for p in polylines])
    points = np.concatenate([np.empty((0, 2)), *(p.points for p in polylines)])
    _table(stream, head, ("curve", "x", "y"), curve, *points.T)


def trace_text(stream, trace: OptimizationTrace, header: dict) -> None:
    lines = [json.dumps({"type": "header", **header}, sort_keys=True)]
    for r in trace.records:
        lines.append(json.dumps({
            "type": "record", "iteration": r.iteration, "mu": r.eigenvalue,
            "threshold": r.threshold, "set_change": r.set_change,
            "residual": r.residual, "steps": r.steps,
        }, sort_keys=True))
    lines.append(json.dumps({"type": "status", "status": trace.status}, sort_keys=True))
    stream.write("\n".join(lines) + "\n")


def partition_text(stream, partition: LevelSetPartition, header_lines) -> None:
    """Comment block, then one low-region node index per line (a single
    empty line when the low region is empty)."""
    stream.write(_comment_block([
        *header_lines,
        f"threshold={partition.threshold!r}",
        f"fractional_node={partition.fractional_node}",
        f"low_count={partition.low_count} high_count={partition.high_count}",
        "one low-region node index per line",
    ]))
    if partition.low_nodes.size:
        _rows(stream, [partition.low_nodes])
    else:
        stream.write("\n")


def pgm_bytes(grid: Grid, values: np.ndarray, what: str, header_lines) -> bytes:
    """Binary P5 image of nodal values on the 2D lattice.

    Linear min-max scaling to 0..255 over interior nodes; pixels outside
    the domain are 0.  Row r is lattice row j = (height - 1 - r), column c
    is lattice column i = c, so the y axis points up.
    """
    if grid.dimension != 2:
        raise ValueError("PGM export requires a two-dimensional grid")
    n0, n1 = grid.lattice_cells
    width, height = n0 + 1, n1 + 1
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    span = vmax - vmin
    scaled = np.zeros(values.shape, dtype=np.uint8) if span == 0.0 else \
        np.round((values - vmin) / span * 255.0).astype(np.uint8)
    image = np.zeros((height, width), dtype=np.uint8)
    rows = (n1 - grid.nodes[:, 1]).astype(np.int64)
    cols = grid.nodes[:, 0].astype(np.int64)
    image[rows, cols] = scaled
    comments = list(header_lines) + [
        f"{what}: linear min-max scaling min={vmin!r} max={vmax!r} -> 0..255",
        "row r = lattice j (height-1-r), col c = lattice i (y axis up)",
    ]
    head = "P5\n" + _comment_block(comments) + f"{width} {height}\n255\n"
    return head.encode() + image.tobytes()


def _write(path: Path, writer, *args) -> None:
    """Create the text file ``path`` and let ``writer(stream, *args)`` fill it."""
    with path.open("w") as stream:
        writer(stream, *args)


def _status_file(out: Path, config: RunConfig, ok: bool, detail: str) -> None:
    state = "ok" if ok else "incomplete"
    _write(out / "status.txt", _report,
           [f"config={config.config_hash} subcommand={config.subcommand} "
            f"nodes={config.grid.node_count}"], {"status": state, "detail": detail})


def _finish(out: Path, config: RunConfig, traces, detail: str) -> int:
    """Write ``status.txt`` after the reports and return the exit code: a
    ``minimize`` run that ended at the alternation cap makes the status
    incomplete and the exit code 2."""
    ok = all(trace.status != MAX_ITER for trace in traces)
    _status_file(out, config, ok, detail)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# subcommand drivers

def _export_solution(config: RunConfig, out: Path, density, pair, partition, trace) -> None:
    head = config.header_lines
    _write(out / "density.csv", density_csv,
           density, config.problem.order, head("density field"))
    _write(out / "eigenfunction.csv", eigenfunction_csv, pair.vector,
           head(f"eigenfunction mu={pair.eigenvalue!r} residual={pair.residual!r}"))
    _write(out / "grid.csv", grid_csv, config.grid, head("grid nodes"))
    _write(out / "trace.txt", trace_text, trace, config.trace_header())
    _write(out / "partition.txt", partition_text, partition, head("low-region partition"))
    if config.grid.dimension == 2:
        contours = extract_contour(pair.vector, partition.threshold, config.grid)
        _write(out / "contours.csv", contour_csv,
               contours, head(f"level curves at threshold={partition.threshold!r}"))
        (out / "phi.pgm").write_bytes(
            pgm_bytes(config.grid, pair.vector, "phi", head("eigenfunction image")))
        indicator = np.zeros(config.grid.node_count)
        indicator[partition.low_nodes] = 1.0
        (out / "region.pgm").write_bytes(
            pgm_bytes(config.grid, indicator, "low-region indicator",
                      head("low-region image")))


def _run_solve(config: RunConfig, out: Path) -> int:
    density, pair, partition, trace = minimize(
        config.problem, opts=config.solver, max_alternations=config.max_alternations)
    _export_solution(config, out, density, pair, partition, trace)
    return _finish(out, config, [trace], f"terminal status {trace.status}")


def _seed_runs(config: RunConfig) -> list:
    """One ``minimize`` result per configured seed, in seed order."""
    return [minimize(config.problem, init=seed, opts=config.solver,
                     max_alternations=config.max_alternations)
            for seed in config.seeds]


def _run_oracle(config: RunConfig, out: Path) -> int:
    oracle = enumerate_optimal(config.problem)
    results = _seed_runs(config)
    best = min(r[1].eigenvalue for r in results)
    rel = abs(best - oracle.eigenvalue) / abs(oracle.eigenvalue)
    verdict = "MATCH" if rel <= 1e-10 else "MISMATCH"
    ok_sub, margin = sublevel_check(oracle.eigenvector, oracle.partition)

    _write(out / "oracle_report.txt", _report, config.header_lines("oracle cross-check"), {
        "candidates": len(oracle.ranking), "oracle_mu": oracle.eigenvalue,
        "multi_start_best_mu": best, "rel_diff": rel, "verdict": verdict,
        "oracle_sublevel_ok": ok_sub, "oracle_sublevel_margin": margin})

    ranking = oracle.ranking
    _write(out / "ranking.csv", _table,
           config.header_lines("oracle ranking"), ("mu", "high_nodes", "fractional_node"),
           [c.eigenvalue for c in ranking],
           [";".join(map(str, c.high_nodes)) for c in ranking],
           [c.fractional_node for c in ranking])
    return _finish(out, config, [r[3] for r in results], f"verdict {verdict}")


def _run_sweep(config: RunConfig, out: Path) -> int:
    results = _seed_runs(config)
    classes, labels = classify_solutions(config.seeds, results)
    head = config.header_lines("seed sweep") + [f"solution_classes={len(classes)}"]
    _, pairs, partitions, traces = zip(*results)
    _write(out / "sweep.csv", _table,
           head, ("seed", "class", "status", "iterations", "mu", "threshold",
                  "low_count", "fractional_node"),
           config.seeds, labels, [t.status for t in traces], [len(t) for t in traces],
           [p.eigenvalue for p in pairs], [q.threshold for q in partitions],
           [q.low_count for q in partitions], [q.fractional_node for q in partitions])
    return _finish(out, config, traces, f"{len(classes)} solution classes")


def _run_check(config: RunConfig, out: Path) -> int:
    head = config.header_lines
    problem = config.problem

    # conformal: the stereographic disk against the round hemisphere
    hemisphere = round_hemisphere(opts=config.solver,
                                  max_alternations=config.max_alternations)
    fields = {"levels": list(hemisphere["uniform"].ladder.levels)}
    for name, study in hemisphere.items():
        fields.update({f"{name}_{key}": value for key, value in (
            ("reference", study.reference), ("mus", list(study.ladder.mus)),
            ("errors", list(study.errors)), ("ratios", list(study.ratios)))})
    first_order = all(study.first_order() for study in hemisphere.values())
    fields["verdict"] = "PASS" if first_order else "FAIL"
    _write(out / "check_conformal.txt", _report,
           head("conformal check: stereographic disk against the round hemisphere"), fields)

    # regularity: the config's problem at h, h/2, ...
    refined = ladder(problem, [config.grid.spacing / 2**k for k in range(config.check_levels)],
                     opts=config.solver, max_alternations=config.max_alternations)
    report = regularity_trend(refined.solutions)
    _write(out / "check_regularity.txt", _report,
           head("second-difference regularity trend"), {
               "levels": list(refined.levels), "sups": list(report.sups),
               "ratios": list(report.ratios),
               "verdict": "PASS" if report.bounded() else "FAIL"})

    # symmetry: reflected converged densities give the same eigenvalue; the
    # solution of the config's own problem is regularity level 0
    mirrors = {}
    for axis in range(config.grid.dimension):
        try:
            mirrors[axis] = mirror_permutation(config.grid, axis)
        except ValueError:
            pass
    fields = {"symmetric_axes": list(mirrors)}
    equivariant = True
    density, pair, _, _ = refined.solutions[0]
    for axis, perm in mirrors.items():
        reflected = np.empty_like(density.values)
        reflected[perm] = density.values
        mu_ref = first_eigenpair(
            problem.stiffness, assemble_weight(config.grid, reflected),
            config.solver).eigenvalue
        rel = abs(mu_ref - pair.eigenvalue) / abs(pair.eigenvalue)
        fields[f"axis_{axis}_reflected_mu_rel_diff"] = rel
        equivariant = equivariant and rel <= 1e-10
    fields["verdict"] = "PASS" if equivariant else "FAIL"
    _write(out / "check_symmetry.txt", _report, head("mirror symmetry check"), fields)

    ladders = [study.ladder for study in hemisphere.values()] + [refined]
    traces = [solution[3] for each in ladders for solution in each.solutions]
    return _finish(out, config, traces, "checks written")


def run(config: RunConfig) -> int:
    """Execute a validated config; writes artifacts, returns the exit code."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if config.subcommand in ("solve", "plate"):
            return _run_solve(config, out)
        if config.subcommand == "oracle":
            return _run_oracle(config, out)
        if config.subcommand == "sweep":
            return _run_sweep(config, out)
        return _run_check(config, out)
    except SolverError as exc:
        partial = getattr(exc, "partial_trace", None)
        if partial is not None:
            partial.status = "aborted"
            _write(out / "trace.txt", trace_text, partial, config.trace_header())
        _status_file(out, config, False, f"solver failure: {exc}")
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="membrane-opt",
        description="eigenvalue minimization over two-valued densities",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True, help="path to key = value config")
        sub.add_argument("--out", default=None, help="output directory override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code that here means
        # non-convergence; --help exits 0
        return 1 if exc.code else 0

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, subcommand=args.subcommand,
                              out_override=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
