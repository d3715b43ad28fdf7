import hashlib
import io
import json
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
    # the derived order and exponent stay in the hashed key table
    assert rc.raw["p"] == rc.raw["n"] == 2
    assert rc.seeds == (0,)
    assert rc.solver == mo.SolverOptions()


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
    ("shape = rhombus\nh = 1/8\nA = 0.5\nM = 0.7\n", "shape"),
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
    ("subcommand = plate\nshape = square\nh = 1/4\nlam = 0.5\nLam = 2\nM = 0.6\n"
     "bump_amplitude = 0.3\n", "key 'bump_amplitude': a curved background needs "
     "operator order p = d, got p = 4 in d = 2"),
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
    ("shape = rectangle\nbbox = 0,1,0\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': needs an even number of entries"),
    ("shape = rectangle\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': required for shape rectangle"),
    ("shape = rectangle\nbbox = 0,1,0,1,0,1\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'bbox': gives 3 axes, d = 2"),
    ("shape = disk\ncenter = 0,0,0\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'center': needs 2 components"),
    ("shape = annulus\ncenter = 0,0,0\nr_in = 0.5\nr_out = 1\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'center': needs 2 components"),
    ("shape = annulus\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "keys 'r_in'/'r_out': required for shape annulus"),
    ("shape = dumbbell\nd = 3\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'shape': dumbbell requires d = 2"),
    ("shape square\nh = 1/8\nA = 0.5\nM = 0.7\n", "line 1: expected 'key = value'"),
    ("shape = square\nh =\nA = 0.5\nM = 0.7\n", "line 2: empty value for key 'h'"),
    ("subcommand = relax\nshape = square\nh = 1/8\nA = 0.5\nM = 0.7\n",
     "key 'subcommand': unknown subcommand 'relax'"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\nmax_power_iterations = 0\n",
     "key 'max_power_iterations': iteration cap must be >= 1"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\neig_tol = 0\n",
     r"key 'eig_tol': eig_rel_tol must lie in \(0, 1\), got 0\.0"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\neig_tol = 1\n",
     r"key 'eig_tol': eig_rel_tol must lie in \(0, 1\), got 1\.0"),
    ("shape = square\nh = 1/8\nA = 0.5\nM = 0.7\neig_tol = nan\n",
     r"key 'eig_tol': eig_rel_tol must lie in \(0, 1\), got nan"),
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
    assert rc.raw["p"] == rc.raw["n"] == 4
    assert rc.problem.stiffness.order == 4


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


def test_partition_of_an_empty_low_region_is_one_empty_line(tmp_path):
    # M = Lam |Omega| = 4 * 49/64: every node is high
    cfg = _write_cfg(tmp_path, "shape = square\nh = 1/8\nlam = 0.25\nLam = 4\nM = 3.0625\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "status = ok" in (out / "status.txt").read_text()
    head, body = (out / "partition.txt").read_text().split(
        "# one low-region node index per line\n")
    assert "# low_count=0 high_count=49\n" in head
    assert body == "\n"


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


def test_trace_records_the_steps_of_each_eigensolve(tmp_path, monkeypatch):
    # configs/plate_4d.cfg at h = 1/6, where some alternations stop early
    from membrane_opt import optimizer

    pairs = []

    def recorded(*args, **kwargs):
        pairs.append(mo.first_eigenpair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(optimizer, "first_eigenpair", recorded)
    text = ("shape = square\nd = 4\nh = 1/6\nlam = 0.5\nLam = 2\n"
            "M = 0.4822530864197532\neig_tol = 1e-8\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["plate", "--config", cfg, "--out", str(out)]) == 0
    records = [r for r in map(json.loads, (out / "trace.txt").read_text().splitlines())
               if r["type"] == "record"]
    steps = [r["steps"] for r in records]
    assert steps == [p.iterations for p in pairs]
    assert sum(steps) == sum(p.iterations for p in pairs)
    assert len(set(steps)) > 1


def test_oracle_subcommand_matches(tmp_path):
    text = ("shape = square\nside = 4\nh = 1\nlam = 1\nLam = 2\nM = 12\n"
            "seeds = 0,1,2,3,4,5,6,7\neig_tol = 1e-12\n")
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


@pytest.mark.parametrize("text", [
    "shape = dumbbell\nh = 1/16\nA = 0.69\nM = 1.5\n",
    "shape = annulus\nr_in = 0.5\nr_out = 1\nh = 1/8\nA = 0.69\nM = 2\n",
    "shape = square\nd = 3\nh = 1/4\nA = 0.69\nM = 0.4\n",
    "shape = disk\nradius = 1\nh = 1/8\nA = 0.6931471805599453\nM = 3.0\n"
    "bump_amplitude = 1e-20\ncheck_levels = 2\n",
], ids=["dumbbell", "annulus", "d3", "tiny-bump"])
def test_check_runs_on_configs_without_a_curved_copy(tmp_path, text):
    # the conformal report solves the stereographic disk, not a curved copy
    # of the config's problem, so check takes shapes that no bump curves, any
    # d, and a bump that leaves every weight e^(dw) at 1
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    for name in ("check_conformal.txt", "check_regularity.txt", "check_symmetry.txt"):
        assert "\nverdict = " in (out / name).read_text(), name
    assert "status = ok" in (out / "status.txt").read_text().splitlines()


def test_module_entry_point_prints_one_error_line(tmp_path):
    # `python -m membrane_opt.cli` must not import the module a second time
    cfg = _write_cfg(tmp_path, SYMMETRIC_DUMBBELL + "check_levels = 1\n")
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


def test_exit_code_on_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "shape = square\nh = 1/8\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_on_missing_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "--config", "run.cfg", "--wibble"],
    ["solve", "--config", "run.cfg", "--seed-list", "3,4"],
    ["relax", "--config", "run.cfg"],
    [],
], ids=["no-config", "unknown-flag", "seed-list", "unknown-subcommand", "empty"])
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv):
    # exit code 2 is reserved for solver non-convergence
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, MINIMAL)
    argv = [cfg if arg == "run.cfg" else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


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
    conformal = (out / "check_conformal.txt").read_text().splitlines()
    assert "levels = [0.125, 0.0625, 0.03125]" in conformal
    assert "uniform_reference = 2.0" in conformal
    assert "composite_reference = 0.8680037457129489" in conformal
    for field in ("mus", "errors", "ratios"):
        assert sum(line.split(" = ")[0].endswith("_" + field) for line in conformal) == 2
    assert "verdict = PASS" in conformal
    regularity = (out / "check_regularity.txt").read_text()
    assert "ratios" in regularity
    symmetry = (out / "check_symmetry.txt").read_text()
    assert "symmetric_axes = [0, 1]" in symmetry
    assert "verdict = PASS" in symmetry


# node counts of the stereographic disk at h = 1/8, 1/16, 1/32, once for the
# uniform and once for the composite problem of the conformal report
HEMISPHERE_SOLVES = [193, 793, 3205] * 2


def _check_minimize_calls(tmp_path, monkeypatch, text):
    """The problems that a ``check`` run hands to ``minimize``, in order:
    "own" for the config's own problem, the node count for any other."""
    from membrane_opt import cli, verify

    calls, configs = [], []

    def parsed(*args, **kwargs):
        configs.append(parse_config(*args, **kwargs))
        return configs[-1]

    def counted(minimize):
        def wrapper(spec, *args, **kwargs):
            calls.append("own" if spec is configs[0].problem else spec.grid.node_count)
            return minimize(spec, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_config", parsed)
    monkeypatch.setattr(cli, "minimize", counted(cli.minimize))
    monkeypatch.setattr(verify, "minimize", counted(verify.minimize))
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "check_symmetry.txt").read_text().count("verdict = PASS") == 1
    return calls


def test_check_solves_the_flat_problem_once(tmp_path, monkeypatch):
    # configs/square.cfg with two levels: the six hemisphere levels, then
    # regularity at h, the config's own problem, whose solution the symmetry
    # check reuses, and at h/2
    text = (Path(__file__).resolve().parents[1] / "configs" / "square.cfg").read_text()
    calls = _check_minimize_calls(tmp_path, monkeypatch, text + "check_levels = 2\n")
    assert calls == HEMISPHERE_SOLVES + ["own", 16129]


def test_check_solves_the_curved_problem_once(tmp_path, monkeypatch):
    # on a curved config regularity refines the curved problem itself; its
    # 193 nodes are as many as the coarsest stereographic disk has
    calls = _check_minimize_calls(tmp_path, monkeypatch, CURVED_DISK)
    assert calls == HEMISPHERE_SOLVES + ["own", 793]


def _half_background(monkeypatch):
    # w / 2 for the stereographic w: e^w in place of e^(2w)
    from membrane_opt import verify

    stereographic = verify.stereographic
    monkeypatch.setattr(verify, "stereographic", lambda points: stereographic(points) / 2.0)


def _flat_cell_volumes(monkeypatch):
    # h^d without the conformal factor e^(2w)
    monkeypatch.setattr(mo.Grid, "cell_volumes", property(
        lambda grid: np.full(grid.node_count, grid.spacing**grid.dimension)))


def _unweighted(monkeypatch):
    # the eigenproblem weight rho in place of rho e^(2w)
    from membrane_opt import optimizer

    monkeypatch.setattr(optimizer, "assemble_weight",
                        lambda grid, rho: np.asarray(rho, dtype=float))


@pytest.mark.parametrize("mutate, verdict", [
    (None, "PASS"), (_half_background, "FAIL"), (_flat_cell_volumes, "FAIL"),
    (_unweighted, "FAIL"),
], ids=["unmutated", "half-background", "flat-cell-volumes", "unweighted"])
def test_check_conformal_report_fails_under_each_conformal_mutation(tmp_path, monkeypatch,
                                                                   mutate, verdict):
    # the flat-cell-volume mutation leaves the uniform ladder unchanged (a
    # point box has no mass to place) and shows in the composite one alone
    if mutate is not None:
        mutate(monkeypatch)
    cfg = _write_cfg(tmp_path, CURVED_DISK)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "check_conformal.txt").read_text().splitlines()
    assert f"verdict = {verdict}" in report


FLAT_SQUARE_CHECK = ("shape = square\nh = 1/16\nA = 0.6931471805599453\n"
                     "M = 0.87890625\ncheck_levels = 2\n")


@pytest.mark.parametrize("subcommand, text, reports", [
    ("oracle", (Path(__file__).resolve().parents[1] / "configs" / "oracle_3x3.cfg").read_text(),
     ["oracle_report.txt", "ranking.csv"]),
    ("check", FLAT_SQUARE_CHECK,
     ["check_conformal.txt", "check_regularity.txt", "check_symmetry.txt"]),
], ids=["oracle", "check"])
def test_report_subcommands_exit_2_when_a_run_hits_the_cap(tmp_path, subcommand, text,
                                                          reports):
    # exit 2 means non-convergence for every subcommand, as it does for solve
    # and sweep; the reports are still written
    cfg = _write_cfg(tmp_path, text + "max_alternations = 1\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "status = incomplete" in (out / "status.txt").read_text().splitlines()
    for name in reports:
        assert (out / name).exists(), name


@pytest.mark.parametrize("text, finer", [
    (FLAT_SQUARE_CHECK, 961),
    ("shape = disk\nradius = 1\nh = 1/8\nA = 0.6931471805599453\nM = 3.0\n"
     "bump_amplitude = 0.3\ncheck_levels = 2\n", 793),
], ids=["flat-square", "curved-disk"])
def test_check_builds_and_assembles_the_config_grid_sparingly(tmp_path, monkeypatch, text,
                                                            finer):
    # the config's grid is built once, when the config is parsed, and its
    # problem assembles its stiffness once; the hemisphere builds each
    # stereographic disk once (the coarsest has as many nodes as the curved
    # config disk), and its uniform and composite problems share that
    # level's one stiffness
    from membrane_opt import optimizer, verify

    built, cli_built, assembled = [], [], []

    def counted(fn, log):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append(result)
            return result
        return wrapper

    assemble_stiffness = optimizer.assemble_stiffness

    def assembles(grid, *args, **kwargs):
        assembled.append(grid)
        return assemble_stiffness(grid, *args, **kwargs)

    monkeypatch.setattr(cli, "build_grid", counted(cli.build_grid, cli_built))
    monkeypatch.setattr(verify, "build_grid", counted(verify.build_grid, built))
    monkeypatch.setattr(optimizer, "assemble_stiffness", assembles)
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    [own] = cli_built
    assert [grid.node_count for grid in built] == [193, 793, 3205, finer]
    assert ["own" if grid is own else grid.node_count for grid in assembled] == \
        [193, 793, 3205, "own", finer]
    assert assembled[:3] == built[:3]


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


def test_check_measures_the_mass_fraction_on_the_config_grid(tmp_path):
    # M = 14 fits the box on the config's curved disk (weighted volume 3.96,
    # so M <= 15.84) but not on the flat disk (volume 3.02, M <= 12.06); the
    # finer regularity level is the curved disk at h/2, at the fraction
    # measured on the config's grid
    text = ("shape = disk\nradius = 1\nh = 1/8\nlam = 0.25\nLam = 4\nM = 14.0\n"
            "bump_amplitude = 0.3\ncheck_levels = 2\n")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    for name in ("check_conformal.txt", "check_regularity.txt", "check_symmetry.txt",
                 "status.txt"):
        assert (out / name).exists(), name


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


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_build_grid_memory_stays_off_coordinate_tables():
    # the h=1/128 disk, 51429 of 65025 inner-box points: the float centers
    # and the shape's temporaries, then the lattice and the nodes (2.1 MB
    # traced, 1.36 MB of it the grid), not an int64 coordinate table of the
    # box with its shifted and float copies next to a flat-index vector (4.0 MB)
    g, peak = _traced_peak(mo.build_grid, mo.disk_spec(1.0 / 128))
    assert g.node_count == 51429
    assert peak < 2_500_000


def test_count_components_memory_stays_off_coordinate_tables():
    # an annulus of about the disk's low region: 41000 of 51429 nodes.  The
    # count allocates a few int32 vectors (2.5 MB traced), not (m, 2) int64
    # coordinate tables and int64 labels (7.4 MB)
    g = mo.build_grid(mo.disk_spec(1.0 / 128))
    ring = np.flatnonzero(np.sum(g.coordinates() ** 2, axis=1) > 0.45**2)
    count, peak = _traced_peak(mo.count_components, ring, g)
    assert count == 1
    assert peak < 4_000_000


def test_extract_contour_memory_stays_off_the_cell_table():
    # a radial field whose level curve is the circle r = 0.45: corner values
    # are gathered for the crossing cells alone (1.8 MB traced with the
    # component count), not for every lattice cell (6.0 MB)
    g = mo.build_grid(mo.disk_spec(1.0 / 128))
    phi = 1.0 - np.sum(g.coordinates() ** 2, axis=1)
    contours, peak = _traced_peak(mo.extract_contour, phi, 1.0 - 0.45**2, g)
    assert contours.closed_count == 1
    assert contours.region_components == 1
    assert peak < 3_500_000


def _power_steps(stiffness, weights, steps):
    """The error that ``first_eigenpair`` raises after ``steps`` steps."""
    try:
        mo.first_eigenpair(stiffness, weights, mo.SolverOptions(max_iterations=steps))
    except mo.EigenConvergenceError as exc:
        return exc
    return None


def test_power_steps_allocate_the_solve_and_few_vectors():
    # three conjugate-gradient power steps on the disk's 51429 nodes, two of
    # them warm-started.  A step holds the iterate, W x and the solve's x, r,
    # p and one product A p (2.5 MB traced), not a fresh right-hand side,
    # warm start and scratch next to two live products (4.9 MB)
    g = mo.build_grid(mo.disk_spec(1.0 / 128))
    stiffness = mo.assemble_stiffness(g)
    error, peak = _traced_peak(_power_steps, stiffness, np.ones(g.node_count), 3)
    assert error is not None and error.best.iterations >= 2
    assert peak < 2_800_000


def test_bathtub_ranks_without_index_and_budget_copies():
    # one stable argsort of -phi^2 and one (n + 1) budget buffer (1.3 MB
    # traced), not a lexsort with an index key and concatenated, appended
    # copies of the budget (2.9 MB)
    g = mo.build_grid(mo.disk_spec(1.0 / 128))
    spec = mo.ProblemSpec(g, 0.5, 2.0, mo.domain_volume(g))
    phi = 1.0 - np.sum(g.coordinates() ** 2, axis=1)
    (density, partition), peak = _traced_peak(mo.bathtub_rearrange, phi, spec)
    density.validate(spec, two_valued=True)
    assert partition.high_count > 0 and partition.low_count > 0
    assert peak < 1_600_000


# ---------------------------------------------------------------------------
# the config key table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CURVED_DISK = ("shape = disk\nradius = 1\nh = 1/8\nA = 0.6931471805599453\n"
               "M = 3.0\nbump_amplitude = 0.3\ncheck_levels = 2\n")


@pytest.mark.parametrize("text, subcommand, digest", [
    ((CONFIGS / "disk.cfg").read_text(), "solve", "e5f4bdd1bf387f1d"),
    ((CONFIGS / "dumbbell_sweep.cfg").read_text(), "sweep", "7a8824bb02c96b5b"),
    ((CONFIGS / "plate_4d.cfg").read_text(), "plate", "e77f178a3514a8ff"),
    (CURVED_DISK, "check", "4a14bd611c342561"),
], ids=["disk", "dumbbell-sweep", "plate-4d", "curved-disk-check"])
def test_config_hash_is_pinned(text, subcommand, digest):
    # every artifact header carries this hash of the parsed keys, so a
    # change to the parser must leave it alone
    assert parse_config(text, subcommand=subcommand).config_hash == digest


ANNULUS = ("shape = annulus\nr_in = 0.3\nr_out = 1\nh = 1/32\nA = 0.6931471805599453\n"
           "M = 2.8588493147667116\n")
FLAT_BALL_4D = "shape = disk\nd = 4\nh = 1/5\nlam = 0.5\nLam = 2\nM = 8\n"


@pytest.mark.parametrize("text, subcommand, digest", [
    ((CONFIGS / "disk.cfg").read_text().replace("h = 1/64", "h = 1/128"), "solve",
     "25f53511ffa01acea44a55e851f254110c2e0993456921c18912a31cd2581473"),
    ((CONFIGS / "dumbbell_sweep.cfg").read_text(), "sweep",
     "663a9f4d8ba062d3eda4e73f3dde7ffcf8c68c714eae629bbc7cbff880b5f630"),
    ((CONFIGS / "plate_4d.cfg").read_text(), "plate",
     "6dc11aa4a633616470ed4d6e0c27ae12354b5e996ecf5ac56e195798b225dc9d"),
    (ANNULUS, "solve", "df331320e374449acd4145817ed3367b1733252d6520c8bc2f91eefa287c5216"),
    (CURVED_DISK, "check", "9e221a7e18d31a1bb1acc31e57a3448332b0bd9a8af62a494177e8fcce773b10"),
    (FLAT_BALL_4D, "plate", "0eacc435e1dfe5e46f49cdaf88eb55b6551e51f65930d151e791d1e7e147538f"),
], ids=["disk-h128", "dumbbell-sweep", "plate-4d", "annulus", "curved-disk", "flat-ball-4d"])
def test_grid_bytes_are_pinned(text, subcommand, digest):
    # grid.csv and the node and lattice arrays of each grid, so that a change
    # to the grid build must leave every grid bit-identical
    grid = parse_config(text, subcommand=subcommand).grid
    stream = io.StringIO()
    grid_csv(stream, grid)
    payload = stream.getvalue().encode() + grid.nodes.tobytes() + grid.lattice.tobytes()
    assert hashlib.sha256(payload).hexdigest() == digest


@pytest.mark.parametrize("line", [
    "export_fields = true", "export_trace = true", "export_contours = true",
    "export_images = true", "oracle_cap = 20", "cg_tol = 1e-10", "p = 4", "n = 2",
])
def test_removed_keys_exit_1(tmp_path, capsys, line):
    cfg = _write_cfg(tmp_path, MINIMAL + line + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown key" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(documented) == sorted(cli._KEYS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, lines, amplitude, mass", [
    ("solve", "", 400, 3), ("solve", "", -400, 0.3), ("plate", "d = 4\n", 200, 8),
], ids=["overflow", "underflow", "overflow-4d"])
def test_extreme_background_weight_exits_1_without_output(tmp_path, capsys, subcommand,
                                                          lines, amplitude, mass):
    # e^(dw) is inf or 0 in double precision at w = +-400 in 2D, and at w = 200
    # in 4D, where e^(2w) would still be finite
    cfg = _write_cfg(tmp_path, f"shape = disk\n{lines}h = 1/8\nlam = 0.5\nLam = 2\n"
                               f"M = {mass}\nbump_amplitude = {amplitude}\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid construction failed: background weight")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("shape = square\nM = inf\n", "key 'M': mass must be finite"),
    ("shape = square\nM = -inf\n", "key 'M': mass must be finite"),
    ("shape = square\nside = inf\nM = 0.7\n", "grid construction failed: bounding box"),
    # a NaN neck fails every comparison; the dumbbell must not split in two
    ("shape = dumbbell\nneck_width = nan\nM = 0.7\n",
     "grid construction failed: dumbbell neck width"),
], ids=["M=inf", "M=-inf", "side=inf", "neck_width=nan"])
def test_non_finite_input_exits_1_without_output(tmp_path, capsys, lines, message):
    cfg = _write_cfg(tmp_path, f"h = 1/8\nA = 0.5\n{lines}")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["plate"])
def test_curved_order_4_exits_1_without_output(tmp_path, capsys, subcommand):
    cfg = _write_cfg(tmp_path, "shape = square\nh = 1/4\nlam = 0.5\nLam = 2\nM = 0.6\n"
                               "bump_amplitude = 0.3\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'bump_amplitude': a curved background needs "
                          "operator order p = d, got p = 4 in d = 2")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("d", [3, 4])
def test_curved_order_2_off_2d_exits_1_without_output(tmp_path, capsys, d):
    cfg = _write_cfg(tmp_path, f"shape = disk\nd = {d}\nh = 1/4\nlam = 0.5\nLam = 2\n"
                               "M = 3\nbump_amplitude = 0.3\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: key 'bump_amplitude': a curved background needs "
                   f"operator order p = d, got p = 2 in d = {d}\n")
    assert not out.exists()


def test_curved_plate_in_4d_byte_reproduces(tmp_path):
    # the Paneitz class problem: order 4 on a curved 4-ball, weight rho e^(4w)
    cfg = _write_cfg(tmp_path, "shape = disk\nd = 4\nh = 1/4\nlam = 0.5\nLam = 2\n"
                               "M = 8\nbump_amplitude = 0.5\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["plate", "--config", cfg, "--out", str(out)]) == 0
    assert "status = ok" in (outs[0] / "status.txt").read_text()
    for path in sorted(outs[0].iterdir()):
        assert path.read_bytes() == (outs[1] / path.name).read_bytes(), path.name


def _per_point_bump_e2w(grid, center, radius, amplitude, d):
    """e^(dw) of the mollifier bump, one ``math.exp`` per node center."""
    w = []
    for point in grid.coordinates():
        s2 = float(np.sum((point - np.asarray(center)) ** 2)) / radius**2
        w.append(amplitude * math.exp(1.0 - 1.0 / (1.0 - s2)) if s2 < 1.0 else 0.0)
    return np.exp(d * np.array(w))


@pytest.mark.parametrize("shape, center, radius, d", [
    ("shape = disk\ncenter = 0.1,-0.2\nradius = 0.9\nh = 1/16\nM = 2.0",
     (0.1, -0.2), 0.9, 2),
    ("shape = rectangle\nbbox = 0,1.5,0,1\nh = 1/16\nM = 2.0", (0.75, 0.5), 0.5, 2),
    ("subcommand = plate\nshape = disk\nd = 4\ncenter = 0.1,-0.2,0,0.05\nradius = 0.9\n"
     "h = 1/5\nM = 4.0",
     (0.1, -0.2, 0.0, 0.05), 0.9, 4),
], ids=["disk", "rectangle", "disk-4d"])
def test_bump_weights_match_per_point_reference_bitwise(shape, center, radius, d):
    rc = parse_config(f"{shape}\nlam = 0.5\nLam = 2\nbump_amplitude = 0.3\n")
    assert rc.grid.dimension == d
    assert np.count_nonzero(rc.grid.e2w != 1.0) > 0.5 * rc.grid.node_count
    assert rc.grid.e2w.tobytes() == \
        _per_point_bump_e2w(rc.grid, center, radius, 0.3, d).tobytes()
