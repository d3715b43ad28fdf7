"""Configuration parsing, experiment orchestration, and file exports.

Configs are plain ``key = value`` text, one pair per line, ``#`` comments
allowed; unknown keys are rejected.  One table, ``_KEYS``, gives each key
its parser and default; the parsed table, with the density box in place of
``A``/``lam``/``Lam``, is the payload of the config hash.  Subcommands:

    solve   single run from the uniform density; exports fields, trace,
            partition, contours, and PGM images
    oracle  brute-force enumeration cross-checked against multi-start
    sweep   one seeded run per seed, a single CSV row each
    check   conformal-invariance, regularity, and symmetry reports
    plate   order-4 (clamped bilaplacian) run with the solve export set

Exit codes: 0 success, 1 input error, 2 solver non-convergence.  Every
emitted file carries header comments with the config hash, grid size, and
density bounds; identical configs byte-reproduce identical artifacts.
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
    domain_volume,
    dumbbell_spec,
    mirror_permutation,
    square_spec,
)
from .operators import assemble_stiffness, assemble_weight
from .optimizer import (
    CONVERGED,
    CYCLING,
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
    regularity_trend,
    sublevel_check,
)

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

SUBCOMMANDS = ("solve", "oracle", "sweep", "check", "plate")

# background bump of the curved run in check on a flat config
_CHECK_BUMP = 0.3


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


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"key '{key}': not a boolean: {text!r}")


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
# leaves an absent key None: parse_config then fills p, n and cg_tol from
# other keys, and A, lam and Lam are alternatives.  _REQUIRED keys must be
# given.
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
    "n": (_parse_int, None),
    "p": (_parse_int, None),
    "cg_tol": (_parse_number, None),
    "eig_tol": (_parse_number, "1e-9"),
    "max_power_iterations": (_parse_int, "500"),
    "max_alternations": (_parse_int, "200"),
    "seeds": (_parse_ints, "0"),
    "out": (_parse_text, "out"),
    "check_levels": (_parse_int, "3"),
    "oracle_cap": (_parse_int, "20"),
    "export_fields": (_parse_bool, "true"),
    "export_trace": (_parse_bool, "true"),
    "export_contours": (_parse_bool, "true"),
    "export_images": (_parse_bool, "true"),
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
    ``rho_max`` in place of ``A``/``lam``/``Lam``; it is what
    ``config_hash`` hashes.  The fields after it are its entries of the
    same name.
    """

    problem: ProblemSpec
    solver: SolverOptions
    raw: dict
    subcommand: str
    max_alternations: int
    seeds: tuple[int, ...]
    out: str
    export_fields: bool
    export_trace: bool
    export_contours: bool
    export_images: bool
    check_levels: int
    oracle_cap: int

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
        if len(center) != d:
            raise ConfigError(f"key 'center': needs {d} components")
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
    if spec.dimension != 2:
        raise ConfigError(f"key 'bump_amplitude': needs d = 2, got d = {spec.dimension}")
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
                 out_override: str | None = None,
                 seeds_override: str | None = None) -> RunConfig:
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
    for key, override in (("out", out_override), ("seeds", seeds_override)):
        if override:
            pairs[key] = override

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

    if values["p"] is None:
        values["p"] = 4 if sub == "plate" else 2
    p = values["p"]
    if p not in (2, 4):
        raise ConfigError(f"key 'p': operator order must be 2 or 4, got {p}")
    if sub == "plate" and p != 4:
        raise ConfigError("key 'p': the plate subcommand is the order-4 run, p must be 4")
    if p == 4 and sub not in ("plate", "solve"):
        raise ConfigError(f"key 'p': order 4 is only valid for solve or plate, not {sub}")
    if values["n"] is None:
        values["n"] = 2 if p == 2 else 4
    n = values["n"]
    if n < 2:
        raise ConfigError(f"key 'n': exponent must be >= 2, got {n}")
    if values["cg_tol"] is None:
        values["cg_tol"] = 1e-12 if p == 4 else 1e-10
    if p == 4 and values["bump_amplitude"] != 0.0:
        raise ConfigError("key 'bump_amplitude': order 4 needs a flat background "
                          f"(w = 0), got amplitude {values['bump_amplitude']!r}")

    try:
        flat_spec = _build_grid_spec(values)
        grid = build_grid(_with_bump(flat_spec, values["bump_amplitude"]))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"grid construction failed: {exc}") from exc
    if sub == "check":
        # the conformal-invariance report reruns the problem on a curved copy
        try:
            _with_bump(flat_spec, values["bump_amplitude"] or _CHECK_BUMP)
        except ConfigError as exc:
            raise ConfigError(f"check needs a curved background: {exc}") from exc

    if bound_exponent is not None:
        try:
            lam, big_lam = conformal_bounds(bound_exponent, n)
        except ValueError as exc:
            raise ConfigError(f"key 'A': {exc}") from exc
    elif not 0.0 < lam <= big_lam < math.inf:
        raise ConfigError("keys 'lam'/'Lam': need 0 < lam <= Lam < inf, "
                          f"got ({lam}, {big_lam})")
    values.update(rho_min=lam, rho_max=big_lam)

    try:
        problem = ProblemSpec(grid=grid, rho_min=lam, rho_max=big_lam,
                              mass=values["M"], order=p, exponent=n)
    except ValueError as exc:
        raise ConfigError(f"key 'M': {exc}") from exc

    try:
        solver = SolverOptions(cg_rel_tol=values["cg_tol"], eig_rel_tol=values["eig_tol"],
                               max_iterations=values["max_power_iterations"])
    except ValueError as exc:
        raise ConfigError(f"solver options: {exc}") from exc
    if values["max_alternations"] < 1:
        raise ConfigError("key 'max_alternations': must be >= 1")
    if min(values["seeds"]) < 0:
        raise ConfigError(f"key 'seeds': seeds must be >= 0, got {min(values['seeds'])}")
    if values["check_levels"] < 2:
        raise ConfigError("key 'check_levels': need at least 2 refinement levels")
    if values["oracle_cap"] < 1:
        raise ConfigError(f"key 'oracle_cap': must be >= 1, got {values['oracle_cap']}")

    if sub == "oracle":
        try:
            check_oracle_input(grid, values["oracle_cap"])
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
    """One row per node: integer coords, physical coords, e^(2w)."""
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
            "residual": r.residual,
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


# ---------------------------------------------------------------------------
# subcommand drivers

def _export_solution(config: RunConfig, out: Path, density, pair, partition, trace) -> None:
    head = config.header_lines
    if config.export_fields:
        _write(out / "density.csv", density_csv,
               density, config.problem.exponent, head("density field"))
        _write(out / "eigenfunction.csv", eigenfunction_csv, pair.vector,
               head(f"eigenfunction mu={pair.eigenvalue!r} residual={pair.residual!r}"))
        _write(out / "grid.csv", grid_csv, config.grid, head("grid nodes"))
    if config.export_trace:
        _write(out / "trace.txt", trace_text, trace, config.trace_header())
    _write(out / "partition.txt", partition_text, partition, head("low-region partition"))
    if config.export_contours and config.grid.dimension == 2:
        contours = extract_contour(pair.vector, partition.threshold, config.grid)
        _write(out / "contours.csv", contour_csv,
               contours, head(f"level curves at threshold={partition.threshold!r}"))
    if config.export_images and config.grid.dimension == 2:
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
    ok = trace.status in (CONVERGED, CYCLING)
    _status_file(out, config, ok, f"terminal status {trace.status}")
    return 0 if ok else 2


def _seed_runs(config: RunConfig) -> list:
    """One ``minimize`` result per configured seed, in seed order."""
    return [minimize(config.problem, init=seed, opts=config.solver,
                     max_alternations=config.max_alternations)
            for seed in config.seeds]


def _run_oracle(config: RunConfig, out: Path) -> int:
    oracle = enumerate_optimal(config.problem, node_cap=config.oracle_cap)
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
    _status_file(out, config, True, f"verdict {verdict}")
    return 0


def _run_sweep(config: RunConfig, out: Path) -> int:
    results = _seed_runs(config)
    classes, labels = classify_solutions(config.seeds, results,
                                         config.grid.node_count)
    head = config.header_lines("seed sweep") + [f"solution_classes={len(classes)}"]
    _, pairs, partitions, traces = zip(*results)
    _write(out / "sweep.csv", _table,
           head, ("seed", "class", "status", "iterations", "mu", "threshold",
                  "low_count", "fractional_node"),
           config.seeds, labels, [t.status for t in traces], [len(t) for t in traces],
           [p.eigenvalue for p in pairs], [q.threshold for q in partitions],
           [q.low_count for q in partitions], [q.fractional_node for q in partitions])
    bad = any(t.status == MAX_ITER for t in traces)
    _status_file(out, config, not bad, f"{len(classes)} solution classes")
    return 2 if bad else 0


def _run_check(config: RunConfig, out: Path) -> int:
    head = config.header_lines

    # conformal invariance: bump background against its flat reweighting
    amplitude = config.raw["bump_amplitude"] or _CHECK_BUMP
    flat_spec = replace(config.grid.spec, background=None)
    curved = build_grid(_with_bump(flat_spec, amplitude))
    flat = build_grid(flat_spec)

    fraction = config.problem.mass / domain_volume(flat)
    curved_problem = ProblemSpec(
        grid=curved, rho_min=config.problem.rho_min, rho_max=config.problem.rho_max,
        mass=fraction * domain_volume(curved), order=2,
        exponent=config.problem.exponent)

    a_curved = curved_problem.stiffness
    a_flat = assemble_stiffness(flat, order=2)
    bit_identical = (
        np.array_equal(a_curved.matrix.indptr, a_flat.matrix.indptr)
        and np.array_equal(a_curved.matrix.indices, a_flat.matrix.indices)
        and np.array_equal(a_curved.matrix.data, a_flat.matrix.data)
    )

    rho_uniform = np.full(curved.node_count, fraction)
    w_curved = assemble_weight(curved, rho_uniform)
    w_flat = assemble_weight(flat, rho_uniform * curved.e2w)
    weight_rel = float(np.max(np.abs(w_curved - w_flat) / np.abs(w_curved)))

    mu_curved = first_eigenpair(a_curved, w_curved, config.solver).eigenvalue
    mu_flat = first_eigenpair(a_flat, w_flat, config.solver).eigenvalue
    uniform_rel = abs(mu_curved - mu_flat) / abs(mu_flat)

    density, pair, _, _ = minimize(curved_problem, opts=config.solver,
                                   max_alternations=config.max_alternations)
    mu_reweighted = first_eigenpair(
        a_flat, assemble_weight(flat, density.values * curved.e2w),
        config.solver).eigenvalue
    converged_rel = abs(pair.eigenvalue - mu_reweighted) / abs(mu_reweighted)

    conformal_ok = bit_identical and uniform_rel <= 1e-12 and converged_rel <= 1e-12
    _write(out / "check_conformal.txt", _report,
           head("conformal invariance check") + [f"bump_amplitude={amplitude!r}"], {
               "stiffness_bit_identical": bit_identical, "weight_max_rel_diff": weight_rel,
               "mu_uniform_rel_diff": uniform_rel, "mu_converged_rel_diff": converged_rel,
               "verdict": "PASS" if conformal_ok else "FAIL"})

    # regularity: the same composite problem at h, h/2, ...; on a flat config
    # level 0 is the config's own problem, whose solution the symmetry check
    # below reuses
    levels = [config.grid.spacing / 2**k for k in range(config.check_levels)]
    flat_config = config.grid.flat

    def problem_at(h: float) -> ProblemSpec:
        if flat_config and h == levels[0]:
            return config.problem
        g = build_grid(replace(flat_spec, spacing=h))
        return ProblemSpec(grid=g, rho_min=config.problem.rho_min,
                           rho_max=config.problem.rho_max,
                           mass=fraction * domain_volume(g),
                           order=config.problem.order,
                           exponent=config.problem.exponent)

    report = regularity_trend(problem_at, levels, opts=config.solver,
                              max_alternations=config.max_alternations)
    _write(out / "check_regularity.txt", _report,
           head("second-difference regularity trend"), {
               "levels": list(report.levels), "sups": list(report.sups),
               "ratios": list(report.ratios),
               "verdict": "PASS" if report.bounded() else "FAIL"})

    # symmetry: reflected converged densities give the same eigenvalue
    symmetric_axes = []
    for axis in range(config.grid.dimension):
        try:
            mirror_permutation(config.grid, axis)
            symmetric_axes.append(axis)
        except ValueError:
            pass
    fields = {"symmetric_axes": symmetric_axes}
    equivariant = True
    if symmetric_axes:
        if flat_config:
            density, pair, _, _ = report.solutions[0]
        else:
            density, pair, _, _ = minimize(config.problem, opts=config.solver,
                                           max_alternations=config.max_alternations)
        for axis in symmetric_axes:
            perm = mirror_permutation(config.grid, axis)
            reflected = np.empty_like(density.values)
            reflected[perm] = density.values
            mu_ref = first_eigenpair(
                config.problem.stiffness, assemble_weight(config.grid, reflected),
                config.solver).eigenvalue
            rel = abs(mu_ref - pair.eigenvalue) / abs(pair.eigenvalue)
            fields[f"axis_{axis}_reflected_mu_rel_diff"] = rel
            equivariant = equivariant and rel <= 1e-10
    fields["verdict"] = "PASS" if equivariant else "FAIL"
    _write(out / "check_symmetry.txt", _report, head("mirror symmetry check"), fields)

    _status_file(out, config, True, "checks written")
    return 0


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
        if partial is not None and config.export_trace:
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
        sub.add_argument("--seed-list", default=None,
                         help="comma-separated seed override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, subcommand=args.subcommand,
                              out_override=args.out,
                              seeds_override=args.seed_list)
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
