import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import membrane_opt as mo
from membrane_opt import cli
from membrane_opt.cli import (
    ConfigError,
    contour_csv,
    density_csv,
    eigenfunction_csv,
    grid_csv,
    main,
    parse_config,
    run,
)

MINIMAL = """
shape = square
h = 1/8
A = 0.5
M = 0.766
"""


def test_minimal_config_defaults():
    rc = parse_config(MINIMAL)
    assert rc.subcommand == "solve"
    assert rc.grid.node_count == 49
    assert rc.problem.order == 2
    assert rc.problem.exponent == 2
    assert rc.seeds == (0,)
    assert rc.solver.cg_rel_tol == 1e-10
    assert rc.export_fields and rc.export_trace


def test_bound_exponent_echoes_derived_box():
    rc = parse_config("shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 0.766\n")
    assert rc.problem.rho_min == pytest.approx(0.25, rel=1e-14)
    assert rc.problem.rho_max == pytest.approx(4.0, rel=1e-14)


def test_explicit_bounds_accepted():
    rc = parse_config("shape = square\nh = 1/8\nlam = 0.5\nLam = 2.0\nM = 0.766\n")
    assert rc.problem.rho_min == 0.5
    assert rc.problem.rho_max == 2.0


def test_infeasible_mass_names_constraint():
    text = "shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 99.0\n"
    with pytest.raises(ConfigError, match="mass outside conformal box"):
        parse_config(text)


@pytest.mark.parametrize("text,match", [
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nwibble = 3\n", "unknown key"),
    ("shape = square\nh = 1/8\nA = 0.5\n", "key 'M'"),
    ("shape = square\nh = 1/8\nM = 0.7\n", "key 'A'"),
    ("shape = square\nh = 1/8\nA = 0.5\nlam = 1\nLam = 2\nM = 0.7\n", "not both"),
    ("shape = square\nh = 1/8\nh = 1/4\nA = 0.5\nM = 0.7\n", "duplicate"),
    ("shape = square\nh = 1/8\nA = -1\nM = 0.7\n", "key 'A'"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\np = 3\n", "key 'p'"),
    ("shape = rhombus\nh = 1/8\nA = 0.5\nM = 0.7\n", "shape"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\np = 4\nsubcommand = sweep\n", "order 4"),
    ("shape = square\nh = 1/8\nA = 400\nM = 0.7\n", "key 'A': density box"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nseeds = 3,-1\n", "key 'seeds': .* >= 0"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = inf\n", "key 'M': mass must be finite"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = -inf\n", "key 'M': mass must be finite"),
    ("shape = square\nside = inf\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "grid construction failed: .* not finite"),
    ("shape = disk\nradius = inf\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "grid construction failed: .* not finite"),
    ("shape = rectangle\nbbox = 0,1,-inf,1\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "grid construction failed: .* not finite"),
    ("shape = square\nh = 1/4\nlam = 0.5\nLam = 2\nM = 0.6\np = 4\n"
     "bump_amplitude = 0.3\n", "key 'bump_amplitude': order 4 needs a flat background"),
    ("subcommand = plate\nshape = square\nh = 1/4\nlam = 0.5\nLam = 2\nM = 0.6\n"
     "bump_amplitude = 0.3\n", "key 'bump_amplitude': order 4 needs a flat background"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\noracle_cap = -1\n",
     "key 'oracle_cap': must be >= 1"),
    ("subcommand = oracle\nshape = square\nh = 1/4\nA = 0.5\nM = 0.5\noracle_cap = 0\n",
     "key 'oracle_cap': must be >= 1"),
    ("shape = square\nh = 1/8\nlam = 0\nLam = 2\nM = 0.7\n",
     "keys 'lam'/'Lam': need 0 < lam <= Lam < inf"),
    ("shape = square\nh = 1/8\nlam = -1\nLam = 2\nM = 0.7\n",
     "keys 'lam'/'Lam': need 0 < lam <= Lam < inf"),
    ("shape = square\nh = 1/8\nlam = nan\nLam = 2\nM = 0.7\n",
     "keys 'lam'/'Lam': need 0 < lam <= Lam < inf"),
    ("shape = square\nh = 1/8\nlam = 0.5\nLam = inf\nM = 0.7\n",
     "keys 'lam'/'Lam': need 0 < lam <= Lam < inf"),
    ("shape = square\nh = 1/8\nlam = 2\nLam = 1\nM = 0.7\n",
     "keys 'lam'/'Lam': need 0 < lam <= Lam < inf"),
    ("shape = square\nh = 1/x\nA = 0.5\nM = 0.7\n", "key 'h': not a number"),
    ("shape = square\nd = two\nh = 1/8\nA = 0.5\nM = 0.7\n", "key 'd': not an integer"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nexport_fields = maybe\n",
     "key 'export_fields': not a boolean"),
    ("shape = rectangle\nbbox = 0,1,0\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': needs an even number of entries"),
    ("shape = rectangle\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': required for shape rectangle"),
    ("shape = rectangle\nbbox = 0,1,0,1,0,1\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': gives 3 axes, d = 2"),
    ("shape = disk\ncenter = 0,0,0\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'center': needs 2 components"),
    ("shape = annulus\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "keys 'r_in'/'r_out': required for shape annulus"),
    ("shape = dumbbell\nd = 3\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'shape': dumbbell requires d = 2"),
    ("shape square\nh = 1/8\nA = 0.5\nM = 0.7\n", "line 1: expected 'key = value'"),
    ("shape = square\nh =\nA = 0.5\nM = 0.7\n", "line 2: empty value for key 'h'"),
    ("subcommand = relax\nshape = square\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'subcommand': unknown subcommand 'relax'"),
    ("subcommand = plate\nshape = square\nh = 1/8\nA = 0.5\nM = 0.7\np = 2\n",
     "key 'p': the plate subcommand is the order-4 run"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nn = 1\n", "key 'n': exponent must be >= 2"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nmax_power_iterations = 0\n",
     "solver options: iteration cap must be >= 1"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nmax_alternations = 0\n",
     "key 'max_alternations': must be >= 1"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\ncheck_levels = 1\n",
     "key 'check_levels': need at least 2"),
])
def test_config_rejections(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_config_subcommand_must_match_the_command_line():
    with pytest.raises(ConfigError, match="key 'subcommand': config says 'sweep', "
                                          "command line says 'solve'"):
        parse_config(MINIMAL + "subcommand = sweep\n", subcommand="solve")


def test_plate_subcommand_defaults_to_order_4():
    rc = parse_config("shape = square\nh = 1/8\nA = 0.25\nM = 0.766\n",
                      subcommand="plate")
    assert rc.problem.order == 4
    assert rc.problem.exponent == 4
    assert rc.solver.cg_rel_tol == 1e-12


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_writes_expected_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    expected = {"density.csv", "eigenfunction.csv", "grid.csv", "trace.txt",
                "partition.txt", "contours.csv", "phi.pgm", "region.pgm",
                "status.txt"}
    assert expected <= {p.name for p in out.iterdir()}
    assert "status = ok" in (out / "status.txt").read_text()
    header = (out / "density.csv").read_text().splitlines()[0:4]
    assert any("config=" in line for line in header)
    assert (out / "phi.pgm").read_bytes().startswith(b"P5\n")


def test_export_toggles_respected(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL + "export_images = false\nexport_contours = false\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "phi.pgm" not in names and "contours.csv" not in names


def test_identical_configs_byte_reproduce(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_solve_a_zero_square_trace_length_one(tmp_path):
    text = "shape = square\nh = 1/64\nA = 0\nM = 0.968994140625\n"  # M = vol = 63^2/64^2
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    records = [line for line in (out / "trace.txt").read_text().splitlines()
               if '"record"' in line]
    assert len(records) == 1
    import json
    mu = json.loads(records[0])["mu"]
    assert abs(mu - 2.0 * math.pi**2) <= 0.01 * 2.0 * math.pi**2


def test_oracle_subcommand_matches(tmp_path):
    text = ("shape = square\nside = 4\nh = 1\nlam = 1\nLam = 2\nM = 12\n"
            "seeds = 0,1,2,3,4,5,6,7\ncg_tol = 1e-13\neig_tol = 1e-12\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "oracle_report.txt").read_text()
    assert "verdict = MATCH" in report
    assert "oracle_sublevel_ok = True" in report
    rows = [line for line in (out / "ranking.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "mu,high_nodes,fractional_node"
    assert all(re.fullmatch(r"[-.e\d]+,\d+(;\d+)*,(\d+|None)", row) for row in rows[1:])



@pytest.mark.parametrize("text, match", [
    # configs/square.cfg: a 63 x 63 grid, far above the default cap of 20
    (None, "oracle scale exceeded: 3969 nodes > cap 20"),
    ("shape = square\nside = 4\nh = 1\nlam = 1\nLam = 2\nM = 14\n"
     "bump_amplitude = 0.3\n", "oracle requires uniform node volumes"),
])
def test_oracle_input_errors_exit_1_without_output(tmp_path, capsys, text, match):
    if text is None:
        text = (Path(__file__).resolve().parents[1] / "configs" / "square.cfg").read_text()
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, match", [
    ("shape = dumbbell\nh = 1/16\nA = 0.69\nM = 1.5\n", "not supported on dumbbell"),
    ("shape = annulus\nr_in = 0.5\nr_out = 1\nh = 1/8\nA = 0.69\nM = 2\n",
     "not supported on annulus"),
    ("shape = square\nd = 3\nh = 1/4\nA = 0.69\nM = 0.4\n", "needs d = 2, got d = 3"),
])
def test_check_input_errors_exit_1_without_output(tmp_path, capsys, text, match):
    # the conformal report of check needs a curved copy of the grid
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_module_entry_point_prints_one_error_line(tmp_path):
    # `python -m membrane_opt.cli` must not import the module a second time
    cfg = _write_cfg(tmp_path, SYMMETRIC_DUMBBELL)
    env = {**os.environ, "PYTHONPATH": str(Path(mo.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "membrane_opt.cli", "check", "--config", cfg],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_sweep_rows_and_classes(tmp_path):
    text = ("shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 0.766\n"
            "seeds = 0,1,2,3\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0].startswith("seed,class,status,")
    assert len(rows) == 1 + 4
    assert all(row.split(",")[2] in ("converged", "cycling") for row in rows[1:])
    assert any(line.startswith("# solution_classes=") for line in lines)


def test_seed_list_override(tmp_path):
    text = ("shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 0.766\nseeds = 0\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--seed-list", "3,4"]) == 0
    rows = [line for line in (out / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("seed")]
    assert [row.split(",")[0] for row in rows] == ["3", "4"]


def test_exit_code_on_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "shape = square\nh = 1/8\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_on_missing_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_exit_code_on_non_convergence(tmp_path):
    text = ("shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 0.766\n"
            "max_alternations = 1\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "incomplete" in (out / "status.txt").read_text()
    # partial artifacts still land
    assert (out / "trace.txt").exists()


def test_plate_run_end_to_end(tmp_path):
    text = "shape = square\nh = 1/8\nA = 0.25\nM = 0.765625\n"  # M = vol
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["plate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "partition.txt").exists()


def test_plate_square_refined_to_h32_converges(tmp_path):
    # configs/plate_square.cfg one refinement down, M = |Omega| = (31/32)^2;
    # refinement must not fail at the default solver settings
    text = (Path(__file__).resolve().parents[1] / "configs" / "plate_square.cfg").read_text()
    text = text.replace("h = 1/16", "h = 1/32").replace(
        "M = 0.87890625", "M = 0.9384765625")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["plate", "--config", cfg, "--out", str(out)]) == 0
    assert "status = ok" in (out / "status.txt").read_text()
    assert parse_config(text).grid.node_count == 31 * 31


def test_check_subcommand_reports(tmp_path):
    text = ("shape = square\nh = 1/8\nA = 0.6931471805599453\nM = 0.766\n"
            "check_levels = 2\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    conformal = (out / "check_conformal.txt").read_text()
    assert "stiffness_bit_identical = True" in conformal
    assert "verdict = PASS" in conformal
    regularity = (out / "check_regularity.txt").read_text()
    assert "ratios" in regularity
    symmetry = (out / "check_symmetry.txt").read_text()
    assert "symmetric_axes = [0, 1]" in symmetry
    assert "verdict = PASS" in symmetry


def test_check_solves_the_flat_problem_once(tmp_path, monkeypatch):
    # configs/square.cfg with two levels: the curved run, regularity at h and
    # h/2, and the symmetry check, which reuses the flat level-0 solution
    from membrane_opt import cli, verify

    calls = []

    def counted(minimize):
        def wrapper(spec, *args, **kwargs):
            calls.append(spec.grid.node_count)
            return minimize(spec, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "minimize", counted(cli.minimize))
    monkeypatch.setattr(verify, "minimize", counted(verify.minimize))
    text = (Path(__file__).resolve().parents[1] / "configs" / "square.cfg").read_text()
    cfg = _write_cfg(tmp_path, text + "check_levels = 2\n")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [3969, 3969, 16129]
    assert (out / "check_symmetry.txt").read_text().count("verdict = PASS") == 1


def test_pgm_dimensions(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    import io
    stream = io.BytesIO((out / "phi.pgm").read_bytes())
    assert stream.readline() == b"P5\n"
    line = stream.readline()
    while line.startswith(b"#"):
        line = stream.readline()
    width, height = (int(v) for v in line.split())
    assert (width, height) == (9, 9)
    assert int(stream.readline()) == 255
    assert len(stream.read()) == width * height


def test_run_config_hash_excludes_out_dir():
    rc1 = parse_config(MINIMAL, out_override="/tmp/a")
    rc2 = parse_config(MINIMAL, out_override="/tmp/b")
    assert rc1.config_hash == rc2.config_hash


# the symmetric dumbbell under uniform density has a nearly degenerate
# leading pair (mu1 ~ mu2)
SYMMETRIC_DUMBBELL = "shape = dumbbell\nh = 1/16\nA = 0.6931471805599453\nM = 1.921875\n"


def test_solver_failure_writes_partial_trace(tmp_path):
    cfg = _write_cfg(tmp_path, SYMMETRIC_DUMBBELL + "max_power_iterations = 1\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    status = (out / "status.txt").read_text()
    assert "incomplete" in status and "solver failure" in status
    trace = (out / "trace.txt").read_text()
    assert '"status": "aborted"' in trace


def test_symmetric_dumbbell_solves_at_default_settings(tmp_path):
    # single-vector inverse iteration exceeded the default cap of 500 steps
    # here; the block iteration of the factored path converges at mu1/mu3
    cfg = _write_cfg(tmp_path, SYMMETRIC_DUMBBELL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "status = ok" in (out / "status.txt").read_text().splitlines()


def test_disk_with_background_bump_parses_and_checks(tmp_path):
    text = ("shape = disk\nradius = 1\nh = 1/8\nA = 0.6931471805599453\n"
            "M = 3.0\nbump_amplitude = 0.3\ncheck_levels = 2\n")
    rc = parse_config(text, subcommand="check")
    assert not rc.grid.flat
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, text)
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "verdict = PASS" in (out / "check_conformal.txt").read_text()


# ---------------------------------------------------------------------------
# artifact writers against per-row f-string references

HEADER = ["membrane-opt probe", "config=0123456789abcdef subcommand=solve"]


def _streamed(writer, *args) -> str:
    """What a writer streams into a text file, as one string."""
    stream = io.StringIO()
    writer(stream, *args)
    return stream.getvalue()


def _ref_table(header, names, rows):
    return "".join(f"# {line}\n" for line in header) + "\n".join([names, *rows]) + "\n"


def _bump(points):
    return 0.3 * np.exp(-np.sum((points - 0.5) ** 2, axis=1))


@pytest.mark.parametrize("spec", [
    mo.square_spec(1.0 / 6, background=_bump),
    mo.disk_spec(1.0 / 5, center=(0.1, -0.3), background=_bump),
    mo.square_spec(1.0 / 4, dimension=4),
], ids=["curved-square", "curved-disk", "4d"])
def test_node_tables_match_row_references(spec):
    g = mo.build_grid(spec)
    rng = np.random.default_rng(g.node_count)
    rho = rng.uniform(0.25, 4.0, g.node_count)
    phi = rng.standard_normal(g.node_count)
    density = mo.DensityField(grid=g, values=rho)
    u = density.conformal_factor(4)
    coords = g.coordinates()
    d = g.dimension

    assert _streamed(density_csv, density, 4, HEADER) == _ref_table(
        HEADER, "node,rho,u",
        [f"{i},{float(rho[i])!r},{float(u[i])!r}" for i in range(g.node_count)])
    assert _streamed(eigenfunction_csv, phi, HEADER) == _ref_table(
        HEADER, "node,phi", [f"{i},{float(v)!r}" for i, v in enumerate(phi)])
    names = ",".join([f"i{k}" for k in range(d)] + [f"x{k}" for k in range(d)] + ["e2w"])
    rows = [",".join([*(str(int(v)) for v in g.nodes[i]),
                      *(repr(float(v)) for v in coords[i]), repr(float(g.e2w[i]))])
            for i in range(g.node_count)]
    assert _streamed(grid_csv, g, HEADER) == _ref_table(HEADER, names, rows)


def _polyline(points, closed):
    points = np.asarray(points, dtype=float)
    points.setflags(write=False)
    return mo.Polyline(points=points, closed=closed)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_contour_table_matches_row_reference(count):
    rng = np.random.default_rng(count)
    polylines = tuple(_polyline(rng.standard_normal((k + 2, 2)) / 7.0, k % 2 == 0)
                      for k in range(count))
    contours = mo.ContourSet(polylines=polylines, region_components=count + 1)
    closed = [k for k, p in enumerate(polylines) if p.closed]
    header = HEADER + [f"closed_curves={closed!r}", f"region_components={count + 1}"]
    rows = [f"{k},{float(x)!r},{float(y)!r}"
            for k, p in enumerate(polylines) for x, y in p.points]
    assert _streamed(contour_csv, contours, HEADER) == _ref_table(header, "curve,x,y", rows)


def test_grid_csv_memory_does_not_grow_with_rows(tmp_path):
    g = mo.build_grid(mo.disk_spec(1.0 / 128))
    tracemalloc.start()
    try:
        with (tmp_path / "grid.csv").open("w") as stream:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grid_csv(stream, g, HEADER)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(lines) == len(HEADER) + 1 + g.node_count


# ---------------------------------------------------------------------------
# the config key table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CURVED_DISK = ("shape = disk\nradius = 1\nh = 1/8\nA = 0.6931471805599453\n"
               "M = 3.0\nbump_amplitude = 0.3\ncheck_levels = 2\n")


@pytest.mark.parametrize("text, subcommand, digest", [
    ((CONFIGS / "disk.cfg").read_text(), "solve", "99b4b1eec118fb6e"),
    ((CONFIGS / "dumbbell_sweep.cfg").read_text(), "sweep", "5817ad2b9a429cdc"),
    ((CONFIGS / "plate_4d.cfg").read_text(), "plate", "fabef2f62c6150a2"),
    (CURVED_DISK, "check", "9606fbbd8187af10"),
], ids=["disk", "dumbbell-sweep", "plate-4d", "curved-disk-check"])
def test_config_hash_is_pinned(text, subcommand, digest):
    # every artifact header carries this hash of the parsed keys, so a
    # change to the parser must leave it alone
    assert parse_config(text, subcommand=subcommand).config_hash == digest


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(documented) == sorted(cli._KEYS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude, mass", [(400, 3), (-400, 0.3)],
                         ids=["overflow", "underflow"])
def test_extreme_background_weight_exits_1_without_output(tmp_path, capsys,
                                                          amplitude, mass):
    # e^(2w) is inf or 0 in double precision at w = +-400
    cfg = _write_cfg(tmp_path, "shape = disk\nh = 1/8\nlam = 0.5\nLam = 2\n"
                               f"M = {mass}\nbump_amplitude = {amplitude}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid construction failed: background weight")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("shape = square\nM = inf\n", "key 'M': mass must be finite"),
    ("shape = square\nM = -inf\n", "key 'M': mass must be finite"),
    ("shape = square\nside = inf\nM = 0.7\n", "grid construction failed: bounding box"),
], ids=["M=inf", "M=-inf", "side=inf"])
def test_non_finite_input_exits_1_without_output(tmp_path, capsys, lines, message):
    cfg = _write_cfg(tmp_path, f"h = 1/8\nA = 0.5\n{lines}")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, order", [("plate", ""), ("solve", "p = 4\n")],
                         ids=["plate", "solve-p4"])
def test_curved_order_4_exits_1_without_output(tmp_path, capsys, subcommand, order):
    cfg = _write_cfg(tmp_path, "shape = square\nh = 1/4\nlam = 0.5\nLam = 2\nM = 0.6\n"
                               f"bump_amplitude = 0.3\n{order}")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'bump_amplitude': order 4 needs a flat background")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _per_point_bump_e2w(grid, center, radius, amplitude):
    """e^(2w) of the mollifier bump, one ``math.exp`` per node center."""
    w = []
    for point in grid.coordinates():
        s2 = float(np.sum((point - np.asarray(center)) ** 2)) / radius**2
        w.append(amplitude * math.exp(1.0 - 1.0 / (1.0 - s2)) if s2 < 1.0 else 0.0)
    return np.exp(2.0 * np.array(w))


@pytest.mark.parametrize("shape, center, radius", [
    ("shape = disk\ncenter = 0.1,-0.2\nradius = 0.9", (0.1, -0.2), 0.9),
    ("shape = rectangle\nbbox = 0,1.5,0,1", (0.75, 0.5), 0.5),
], ids=["disk", "rectangle"])
def test_bump_weights_match_per_point_reference_bitwise(shape, center, radius):
    rc = parse_config(f"{shape}\nh = 1/16\nlam = 0.5\nLam = 2\nM = 2.0\n"
                      "bump_amplitude = 0.3\n")
    assert np.count_nonzero(rc.grid.e2w != 1.0) > 0.5 * rc.grid.node_count
    assert rc.grid.e2w.tobytes() == \
        _per_point_bump_e2w(rc.grid, center, radius, 0.3).tobytes()
