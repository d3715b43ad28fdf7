"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy experiments
(disk and dumbbell multi-starts, plate runs) are computed once in module
fixtures and shared across criteria.
"""

import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import membrane_opt as mo
from membrane_opt.cli import main as cli_main
from membrane_opt.optimizer import CONVERGED, CYCLING

TWO_PI_SQ = 2.0 * math.pi**2

# classes are merged at the eigenvalue scale criterion 6 itself uses; the
# discrete fixed points cluster within ~1e-6 relative on these grids
CLASS_MU_RTOL = 1e-6


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@dataclass
class Experiment:
    solutions: list
    grid: object
    spec: object
    elapsed: float


@pytest.fixture(scope="module")
def disk_experiment():
    start = time.time()
    grid = mo.build_grid(mo.disk_spec(1.0 / 64))
    spec = mo.ProblemSpec(grid=grid, rho_min=0.25, rho_max=4.0, mass=math.pi)
    solutions = mo.multi_start(spec, range(8), mu_rtol=CLASS_MU_RTOL)
    return Experiment(solutions, grid, spec, time.time() - start)


@pytest.fixture(scope="module")
def dumbbell_experiment():
    start = time.time()
    grid = mo.build_grid(mo.dumbbell_spec(1.0 / 32))
    lo, hi = mo.conformal_bounds(math.log(2.0))
    spec = mo.ProblemSpec(grid=grid, rho_min=lo, rho_max=hi,
                          mass=mo.domain_volume(grid))
    solutions = mo.multi_start(spec, range(8), mu_rtol=CLASS_MU_RTOL)
    return Experiment(solutions, grid, spec, time.time() - start)


@pytest.fixture(scope="module")
def oracle_runs():
    """The four oracle configurations with their per-seed minimize results."""
    start = time.time()
    opts = mo.SolverOptions(eig_rel_tol=1e-12)
    out = []
    for side, mass in ((3.0, 5.0), (3.0, 5.5), (4.0, 12.0), (4.0, 12.5)):
        grid = mo.build_grid(mo.square_spec(1.0, side=side))
        spec = mo.ProblemSpec(grid=grid, rho_min=1.0, rho_max=2.0, mass=mass)
        oracle = mo.enumerate_optimal(spec)
        runs = [mo.minimize(spec, init=seed, opts=opts) for seed in range(8)]
        out.append((spec, oracle, runs))
    return out, time.time() - start


@pytest.fixture(scope="module")
def regularity_report():
    start = time.time()

    g = mo.build_grid(mo.square_spec(1.0 / 32))
    problem = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=mo.domain_volume(g))
    report = mo.regularity_trend(mo.ladder(problem, [1.0 / 32, 1.0 / 64, 1.0 / 128]).solutions)
    return report, time.time() - start


@pytest.fixture(scope="module")
def plate_runs(tmp_path_factory):
    start = time.time()
    out = {}

    # self-convergence of the uniform-density plate eigenvalue
    mus = {}
    for k, opts in ((8, mo.SolverOptions(eig_rel_tol=1e-10, max_iterations=4000)),
                    (16, mo.SolverOptions(eig_rel_tol=2e-10, max_iterations=4000)),
                    (32, mo.SolverOptions(eig_rel_tol=1e-8, max_iterations=4000))):
        g = mo.build_grid(mo.square_spec(1.0 / k))
        a = mo.assemble_stiffness(g, order=4)
        mus[k] = mo.first_eigenpair(a, np.ones(g.node_count), opts).eigenvalue
    out["mus"] = mus

    # dense direct oracle on the h = 1/16 grid
    import scipy.linalg
    g16 = mo.build_grid(mo.square_spec(1.0 / 16))
    a16 = mo.assemble_stiffness(g16, order=4)
    out["dense_mu"] = float(scipy.linalg.eigh(
        a16.matrix.toarray(), np.diag(np.ones(g16.node_count)),
        subset_by_index=[0, 0])[0][0])
    out["iterative_mu"] = mo.first_eigenpair(
        a16, np.ones(g16.node_count),
        mo.SolverOptions(eig_rel_tol=2e-10, max_iterations=4000)).eigenvalue

    # composite plate through the CLI, with its exports
    plate_dir = tmp_path_factory.mktemp("plate")
    cfg = plate_dir / "plate.cfg"
    cfg.write_text(
        "shape = square\nh = 1/16\nlam = 0.25\nLam = 4\nM = 0.87890625\n"
    )  # M = vol = 225/256
    plate_out = plate_dir / "out2d"
    out["plate_exit"] = cli_main(["plate", "--config", str(cfg),
                                  "--out", str(plate_out)])
    out["plate_out"] = plate_out

    # coarse four-dimensional run, end to end
    cfg4 = plate_dir / "plate4.cfg"
    cfg4.write_text(
        "shape = square\nd = 4\nh = 1/10\nlam = 0.5\nLam = 2\nM = 0.6561\n"
        "eig_tol = 1e-8\n"
    )  # M = vol = 9^4 / 10^4
    out4 = plate_dir / "out4d"
    # the run warns of nothing: a RuntimeWarning, as of near-degeneracy, fails it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out["plate4_exit"] = cli_main(["plate", "--config", str(cfg4),
                                       "--out", str(out4)])
    out["plate4_out"] = out4
    return out, time.time() - start


# ---------------------------------------------------------------------------
# criterion 1: eigenvalue correctness and convergence order

def test_criterion_1_eigen_correctness():
    start = time.time()
    errors = {}
    mu64 = None
    for k in (16, 32, 64):
        g = mo.build_grid(mo.square_spec(1.0 / k))
        a = mo.assemble_stiffness(g)
        mu = mo.first_eigenpair(a, np.ones(g.node_count)).eigenvalue
        errors[k] = abs(mu - TWO_PI_SQ)
        if k == 64:
            mu64 = mu
    elapsed = time.time() - start
    orders = [math.log2(errors[16] / errors[32]), math.log2(errors[32] / errors[64])]
    within = abs(mu64 - TWO_PI_SQ) <= 0.01 * TWO_PI_SQ
    ok = within and all(1.7 <= o <= 2.3 for o in orders) and elapsed < 10.0
    _report(1, ok, f"mu(1/64)={mu64:.6f} vs 2pi^2={TWO_PI_SQ:.6f}, "
                   f"orders={orders[0]:.3f},{orders[1]:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on tiny grids

def test_criterion_2_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    details = []
    ok = elapsed < 60.0
    for spec, oracle, results in runs:
        best = min(r[1].eigenvalue for r in results)
        rel = abs(best - oracle.eigenvalue) / abs(oracle.eigenvalue)
        sub_ok, margin = mo.sublevel_check(oracle.eigenvector, oracle.partition)
        ok = ok and rel <= 1e-10 and sub_ok
        details.append(f"M={spec.mass}: rel={rel:.2e} sublevel={sub_ok}")
    _report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: monotone descent and exact terminal invariants

def test_criterion_3_monotone_descent(disk_experiment, dumbbell_experiment,
                                      oracle_runs):
    traces = 0
    ok = True
    worst = 0.0
    for experiment in (disk_experiment, dumbbell_experiment):
        for sol in experiment.solutions:
            traces += 1
            ok = ok and sol.trace.is_monotone(1e-9)
            mus = sol.trace.eigenvalues()
            if len(mus) > 1:
                worst = max(worst, float(np.max((mus[1:] - mus[:-1]) / np.abs(mus[:-1]))))
            sol.density.validate(experiment.spec, two_valued=True)
            ok = ok and abs(sol.density.mass - experiment.spec.mass) \
                <= 1e-12 * experiment.spec.mass
    for spec, _, results in oracle_runs[0]:
        for density, _, _, trace in results:
            traces += 1
            ok = ok and trace.is_monotone(1e-9)
            mus = trace.eigenvalues()
            if len(mus) > 1:
                worst = max(worst, float(np.max((mus[1:] - mus[:-1]) / np.abs(mus[:-1]))))
            density.validate(spec, two_valued=True)
    _report(3, ok, f"{traces} traces monotone (worst step {worst:.2e}), "
                   "terminal densities within box/mass invariants")


# ---------------------------------------------------------------------------
# criterion 4: conformal invariance

def test_criterion_4_conformal_invariance():
    # the stereographic disk is the round hemisphere, so under the class weight
    # rho e^(2w) the uniform and composite membranes there must rise to their
    # round-metric eigenvalues, at first order; that the stiffness does not see
    # the background is test_operators' bitwise check
    start = time.time()
    hemisphere = mo.round_hemisphere()
    elapsed = time.time() - start
    ok = all(study.first_order() for study in hemisphere.values()) and elapsed < 10.0
    _report(4, ok, "; ".join(
        f"{name}: errors {', '.join(f'{e:.2e}' for e in study.errors)}, "
        f"ratios {', '.join(f'{r:.2f}' for r in study.ratios)}"
        for name, study in hemisphere.items()) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: disk structure

def test_criterion_5_disk_structure(disk_experiment):
    exp = disk_experiment
    one_class = len(exp.solutions) == 1
    sol = exp.solutions[0]
    deviation = mo.radial_deviation(sol.partition.low_nodes, exp.grid)
    min_radius = float(np.min(np.linalg.norm(
        exp.grid.coordinates()[sol.partition.low_nodes], axis=1)))
    contours = mo.extract_contour(sol.eigenpair.vector, sol.partition.threshold,
                                  exp.grid)
    high_components = mo.count_components(sol.partition.high_nodes, exp.grid)
    curves_match = contours.closed_count == high_components
    ok = (one_class and deviation <= 0.02 and min_radius > 0.2
          and curves_match and exp.elapsed < 300.0)
    _report(5, ok, f"classes={len(exp.solutions)}, radial_dev={deviation:.4f}, "
                   f"min|x| in D={min_radius:.3f}, closed_curves="
                   f"{contours.closed_count} vs components(D^c)={high_components}, "
                   f"{exp.elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: symmetry breaking on the dumbbell

def test_criterion_6_symmetry_breaking(dumbbell_experiment):
    exp = dumbbell_experiment
    n = exp.grid.node_count
    perm = mo.mirror_permutation(exp.grid, axis=0)
    mirror_pair = None
    for i, a in enumerate(exp.solutions):
        for b in exp.solutions[i + 1:]:
            mu_a, mu_b = a.eigenpair.eigenvalue, b.eigenpair.eigenvalue
            if abs(mu_a - mu_b) > 1e-6 * max(abs(mu_a), abs(mu_b)):
                continue
            diff = np.setxor1d(a.partition.low_nodes, b.partition.low_nodes).size
            if diff < 0.10 * n:
                continue
            mirrored = np.sort(perm[a.partition.low_nodes])
            mapped = np.setxor1d(mirrored, b.partition.low_nodes).size
            if mapped <= 0.01 * n:
                mirror_pair = (a, b, diff, mapped)
                break
        if mirror_pair:
            break
    ok = (len(exp.solutions) >= 2 and mirror_pair is not None
          and exp.elapsed < 300.0)
    detail = f"classes={len(exp.solutions)}, {exp.elapsed:.0f}s"
    if mirror_pair:
        a, b, diff, mapped = mirror_pair
        detail += (f", mirror pair seeds ({a.seed},{b.seed}): symdiff="
                   f"{diff / n:.2f} of nodes, mirror-mapped residue={mapped}")
    _report(6, ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: connectivity of the low region

def test_criterion_7_connectivity(disk_experiment, dumbbell_experiment):
    disk_parts = [mo.count_components(s.partition.low_nodes, disk_experiment.grid)
                  for s in disk_experiment.solutions]
    bell_parts = [mo.count_components(s.partition.low_nodes, dumbbell_experiment.grid)
                  for s in dumbbell_experiment.solutions]
    ok = all(c == 1 for c in disk_parts + bell_parts)
    _report(7, ok, f"components(D): disk={disk_parts}, dumbbell={bell_parts}")


# ---------------------------------------------------------------------------
# criterion 8: regularity trend plus detector validity

def test_criterion_8_regularity_trend(regularity_report):
    report, elapsed = regularity_report
    bounded = report.bounded()

    # detector validity: a profile with a gradient kink blows up at order 2
    kink_sups = []
    for k in (32, 64, 128):
        g = mo.build_grid(mo.square_spec(1.0 / k))
        xy = g.coordinates()
        tent = np.minimum(xy[:, 0], 1.0 - xy[:, 0]) * np.sin(math.pi * xy[:, 1])
        kink_sups.append(mo.pure_difference_sup(g, tent / np.max(np.abs(tent))))
    kink_ratios = [kink_sups[i + 1] / kink_sups[i] for i in range(2)]
    detector_fires = all(r >= 1.8 for r in kink_ratios)
    ok = bounded and detector_fires and elapsed < 600.0
    _report(8, ok, f"solution ratios={[f'{r:.3f}' for r in report.ratios]} "
                   f"(bound 1.5), kink ratios={[f'{r:.2f}' for r in kink_ratios]}, "
                   f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: order-4 flat case

def test_criterion_9_order4(plate_runs):
    out, elapsed = plate_runs
    mus = out["mus"]
    d1 = abs(mus[16] - mus[8])
    d2 = abs(mus[32] - mus[16])
    self_converges = d1 / d2 >= 3.0

    dense_rel = abs(out["iterative_mu"] - out["dense_mu"]) / abs(out["dense_mu"])
    dense_ok = dense_rel <= 1e-8

    plate_ok = out["plate_exit"] == 0
    trace_lines = [json.loads(line) for line in
                   (out["plate_out"] / "trace.txt").read_text().splitlines()]
    mu_seq = [r["mu"] for r in trace_lines if r["type"] == "record"]
    monotone = all(mu_seq[i + 1] <= mu_seq[i] + 1e-9 * abs(mu_seq[i])
                   for i in range(len(mu_seq) - 1))
    status = next(r["status"] for r in trace_lines if r["type"] == "status")
    exported = (out["plate_out"] / "partition.txt").exists()

    plate4_ok = out["plate4_exit"] == 0 and \
        (out["plate4_out"] / "partition.txt").exists()

    ok = (self_converges and dense_ok and plate_ok and monotone
          and status in (CONVERGED, CYCLING) and exported and plate4_ok
          and elapsed < 600.0)
    _report(9, ok, f"self-convergence ratio={d1 / d2:.2f} (>=3), dense rel="
                   f"{dense_rel:.2e}, composite plate status={status} "
                   f"monotone={monotone}, 4d exit={out['plate4_exit']}, "
                   f"{elapsed:.0f}s")
