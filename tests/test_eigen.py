import dataclasses
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import membrane_opt as mo
from membrane_opt import operators
from membrane_opt.cli import parse_config
from membrane_opt.eigen import (
    CGStagnationError,
    EigenConvergenceError,
    _Lobpcg,
    solve_spd,
)
from membrane_opt.operators import FACTOR_MAX_NODES, StiffnessMatrix
from shapes import Region

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _laplacian(h):
    g = mo.build_grid(mo.square_spec(h))
    return g, mo.assemble_stiffness(g)


def _cg_copy(a):
    """A copy of the stiffness ``a`` that solves by conjugate gradients,
    though its grid would be factored."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "FACTOR_MAX_NODES", 0)
        copy = dataclasses.replace(a)
        assert copy.factor is None
    return copy


def test_solve_single_node():
    _, a = _laplacian(0.5)
    x = solve_spd(a, np.array([1.0]), 1e-12)
    assert x == pytest.approx([0.25 / 4.0])


def test_solve_zero_rhs():
    _, a = _laplacian(0.25)
    assert np.array_equal(solve_spd(a, np.zeros(a.shape[0]), 1e-12), np.zeros(a.shape[0]))


def test_solve_recovers_manufactured_solution():
    g, a = _laplacian(1.0 / 16)
    rng = np.random.default_rng(7)
    x_true = rng.standard_normal(g.node_count)
    b = a.matrix @ x_true
    x = solve_spd(a, b, 1e-12)
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-8


def test_solve_honors_warm_start():
    g, a = _laplacian(1.0 / 16)
    b = np.ones(g.node_count)
    x = solve_spd(a, b, 1e-10)
    again = solve_spd(a, b, 1e-10, x0=x)
    assert np.linalg.norm(a.matrix @ again - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_rejects_indefinite():
    bad = StiffnessMatrix(sp.csr_matrix(np.diag([1.0, -1.0])), dimension=1, order=2)
    with pytest.raises(CGStagnationError, match="CG stagnation"):
        solve_spd(bad, np.array([1.0, 1.0]), 1e-12)


def test_solve_raises_past_its_cap():
    # on the 1D clamped plate CG does not reach 1e-12 within its 10 n steps
    g = mo.build_grid(mo.square_spec(1.0 / 64, dimension=1))
    a = mo.assemble_stiffness(g, order=4)
    assert g.node_count == 63 and a.factor is None
    with pytest.raises(CGStagnationError,
                       match=r"^CG stagnation: cap of 630 iterations exceeded "
                             r"\(relative residual 1\.798e-09, target 1\.000e-12\)$"):
        solve_spd(a, np.ones(g.node_count), 1e-12)


def test_solve_rejects_nonfinite_rhs():
    _, a = _laplacian(0.5)
    with pytest.raises(ValueError, match="finite"):
        solve_spd(a, np.array([np.nan]), 1e-10)


def _diag_stiffness(values):
    return StiffnessMatrix(sp.csr_matrix(np.diag(np.asarray(values, dtype=float))),
                           dimension=1, order=2)


def test_first_eigenpair_diagonal_identity_weight():
    pair = mo.first_eigenpair(_diag_stiffness([1.0, 2.0]), np.ones(2))
    assert pair.eigenvalue == pytest.approx(1.0, rel=1e-12)
    assert pair.vector == pytest.approx([1.0, 0.0], abs=1e-6)


def test_first_eigenpair_generalized_quotient():
    pair = mo.first_eigenpair(_diag_stiffness([4.0, 4.0]), np.array([1.0, 2.0]))
    assert pair.eigenvalue == pytest.approx(2.0, rel=1e-12)
    assert pair.vector == pytest.approx([0.0, 1.0 / math.sqrt(2.0)], abs=1e-6)


def test_unit_square_against_closed_forms():
    h = 1.0 / 64
    g, a = _laplacian(h)
    pair = mo.first_eigenpair(a, np.ones(g.node_count))
    discrete = 8.0 / h**2 * math.sin(math.pi * h / 2.0) ** 2
    assert pair.eigenvalue == pytest.approx(discrete, rel=1e-8)
    assert pair.eigenvalue == pytest.approx(2.0 * math.pi**2, rel=0.01)


def test_rayleigh_quotient_matches_returned_eigenvalue():
    g, a = _laplacian(1.0 / 16)
    w = np.linspace(0.5, 2.0, g.node_count)
    pair = mo.first_eigenpair(a, w)
    quotient = float(pair.vector @ (a.matrix @ pair.vector)) / float(pair.vector @ (w * pair.vector))
    assert abs(quotient - pair.eigenvalue) <= 1e-12 * abs(pair.eigenvalue)


def test_w_normalization_and_sign_convention():
    g, a = _laplacian(1.0 / 16)
    w = np.linspace(0.5, 2.0, g.node_count)
    pair = mo.first_eigenpair(a, w)
    assert abs(float(pair.vector @ (w * pair.vector)) - 1.0) <= 1e-12
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0.0


def test_membrane_eigenvector_strictly_positive():
    for spec in (mo.square_spec(1.0 / 16), mo.disk_spec(1.0 / 16)):
        g = mo.build_grid(spec)
        a = mo.assemble_stiffness(g)
        pair = mo.first_eigenpair(a, np.ones(g.node_count))
        assert np.all(pair.vector > 0.0)


def test_eigenvalue_invariant_under_start_rescaling():
    g, a = _laplacian(1.0 / 16)
    w = np.ones(g.node_count)
    base = mo.first_eigenpair(a, w)
    scaled = mo.first_eigenpair(a, w, start=7.3 * np.ones(g.node_count))
    assert abs(scaled.eigenvalue - base.eigenvalue) <= 1e-10 * abs(base.eigenvalue)


@given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_eigenvalue_monotone_in_weight(bumps):
    g = mo.build_grid(mo.square_spec(0.25))
    a = mo.assemble_stiffness(g)
    w = np.ones(g.node_count)
    w_up = w * (1.0 + np.asarray(bumps))
    mu = mo.first_eigenpair(a, w).eigenvalue
    mu_up = mo.first_eigenpair(a, w_up).eigenvalue
    assert mu_up <= mu * (1.0 + 5e-9)


def test_nonconvergence_carries_best_iterate():
    g, a = _laplacian(1.0 / 8)
    with pytest.raises(EigenConvergenceError) as info:
        mo.first_eigenpair(a, np.ones(g.node_count),
                           mo.SolverOptions(max_iterations=1))
    best = info.value.best
    assert best.vector.shape == (g.node_count,)
    assert best.residual > 0.0


def test_residual_is_as_measured():
    g, a = _laplacian(1.0 / 16)
    w = np.linspace(1.0, 3.0, g.node_count)
    pair = mo.first_eigenpair(a, w)
    wx = w * pair.vector
    recomputed = np.linalg.norm(a.matrix @ pair.vector - pair.eigenvalue * wx) / np.linalg.norm(wx)
    assert recomputed == pytest.approx(pair.residual, rel=1e-9)
    assert pair.residual <= 10.0 * 1e-9


def test_solver_options_validate():
    with pytest.raises(ValueError):
        mo.SolverOptions(eig_rel_tol=0.0)
    with pytest.raises(ValueError):
        mo.SolverOptions(eig_rel_tol=1.5)
    with pytest.raises(ValueError):
        mo.SolverOptions(max_iterations=0)


def test_weight_must_be_positive():
    _, a = _laplacian(0.25)
    with pytest.raises(ValueError, match="positive"):
        mo.first_eigenpair(a, np.zeros(a.shape[0]))


@pytest.mark.parametrize("factored", [True, False])
@pytest.mark.parametrize("weights, message", [
    (np.ones(48), r"weight vector must have shape \(49,\), got \(48,\)"),
    (np.ones(50), r"weight vector must have shape \(49,\), got \(50,\)"),
    (np.ones((49, 1)), r"weight vector must have shape \(49,\), got \(49, 1\)"),
    (np.append(np.ones(48), np.inf), "weight vector must be finite"),
    (np.append(np.ones(48), np.nan), "weight vector must be finite"),
], ids=["short", "long", "column", "inf", "nan"])
def test_weight_vector_is_validated_before_any_solve(factored, weights, message,
                                                     monkeypatch):
    g, a = _laplacian(1.0 / 8)
    assert g.node_count == 49

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spd called on invalid weights")

    monkeypatch.setattr(mo.eigen, "solve_spd", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            mo.first_eigenpair(a if factored else _cg_copy(a), weights)


def test_nonconvergence_names_the_method():
    g, a = _laplacian(1.0 / 8)
    w = np.ones(g.node_count)
    one_step = mo.SolverOptions(max_iterations=1)
    with pytest.raises(EigenConvergenceError, match="^LOBPCG did not converge"):
        mo.first_eigenpair(a, w, one_step)
    with pytest.raises(EigenConvergenceError, match="^power iteration did not converge"):
        mo.first_eigenpair(_cg_copy(a), w, one_step)


@pytest.mark.parametrize("factored", [True, False])
@pytest.mark.parametrize("start, message", [
    (np.ones(3), r"start vector must have shape \(49,\), got \(3,\)"),
    (np.ones((49, 1)), r"start vector must have shape \(49,\), got \(49, 1\)"),
    (np.full(49, np.nan), "start vector must be finite"),
    (np.zeros(49), "start vector must have a non-zero W-norm"),
])
def test_start_vector_is_validated(factored, start, message):
    g, a = _laplacian(1.0 / 8)
    assert g.node_count == 49
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            mo.first_eigenpair(a if factored else _cg_copy(a), np.ones(49), start=start)


# ---------------------------------------------------------------------------
# the factored backend against conjugate gradients and a dense oracle

_MASK_H = 1.0 / 8
_MASK_CELLS = [(i, j) for i in range(1, 8) for j in range(1, 8)]


def _assert_backends_agree(a, w, opts=mo.SolverOptions()):
    assert a.factor is not None
    factored = mo.first_eigenpair(a, w, opts)
    plain = mo.first_eigenpair(_cg_copy(a), w, opts)
    values, vectors = scipy.linalg.eigh(a.matrix.toarray(), np.diag(w))
    dense = vectors[:, 0] * np.sign(vectors[np.argmax(np.abs(vectors[:, 0])), 0])
    for pair in (factored, plain):
        assert abs(pair.eigenvalue - values[0]) <= 1e-9 * values[0]
        assert np.max(np.abs(pair.vector - dense)) <= 1e-6 * np.max(np.abs(dense))


@given(st.lists(st.booleans(), min_size=len(_MASK_CELLS), max_size=len(_MASK_CELLS)),
       st.lists(st.floats(min_value=0.5, max_value=2.0),
                min_size=len(_MASK_CELLS), max_size=len(_MASK_CELLS)))
@settings(max_examples=30, deadline=None)
# one node, whose two block columns are parallel, and two adjacent nodes
@example([True] + [False] * (len(_MASK_CELLS) - 1), [1.0] * len(_MASK_CELLS))
@example([True, True] + [False] * (len(_MASK_CELLS) - 2),
         [0.5, 2.0] + [1.0] * (len(_MASK_CELLS) - 2))
def test_factored_cg_and_dense_agree_on_random_masks(inside, weights):
    members = [cell for cell, keep in zip(_MASK_CELLS, inside) if keep]
    assume(members)
    g = mo.build_grid(mo.GridSpec(2, _MASK_H, ((0.0, 1.0), (0.0, 1.0)),
                                  Region.cells(_MASK_H, members)))
    a = mo.assemble_stiffness(g)
    w = np.asarray(weights[:g.node_count])
    # power iteration needs a gap; disconnected masks can have none
    values = scipy.linalg.eigvalsh(a.matrix.toarray(), np.diag(w))
    assume(values.size == 1 or values[1] >= 1.1 * values[0])
    _assert_backends_agree(a, w)


def test_cg_warm_start_does_not_stall_inverse_iteration():
    # mu ~ 165 on three nodes: once the eigen-residual over mu drops below
    # the CG tolerance, a warm start returned unchanged would pin the
    # residual near mu times that tolerance, above the 10 * eig_rel_tol
    # stopping target
    g = mo.build_grid(mo.GridSpec(2, _MASK_H, ((0.0, 1.0), (0.0, 1.0)),
                                  Region.cells(_MASK_H, [(7, 5), (7, 6), (7, 7)])))
    _assert_backends_agree(mo.assemble_stiffness(g), np.ones(g.node_count))


def test_factored_cg_and_dense_agree_on_plate():
    g = mo.build_grid(mo.square_spec(_MASK_H))
    a = mo.assemble_stiffness(g, order=4)
    w = np.linspace(0.5, 2.0, g.node_count)
    _assert_backends_agree(a, w)


def test_backend_rule_factors_small_2d_grids_only():
    dumbbell = mo.assemble_stiffness(mo.build_grid(mo.dumbbell_spec(1.0 / 32)))
    plate = mo.assemble_stiffness(mo.build_grid(mo.square_spec(1.0 / 64)), order=4)
    assert dumbbell.factor is not None and plate.factor is not None

    # the rule is read without building these factors
    config = parse_config(_CONFIGS.joinpath("plate_4d.cfg").read_text(), subcommand="plate")
    plate_4d = config.problem.stiffness
    assert config.problem.order == 4 and plate_4d.dimension == 4 and not plate_4d.factored
    big = mo.assemble_stiffness(mo.build_grid(mo.square_spec(1.0 / 130)))
    assert big.dimension == 2 and big.shape[0] > FACTOR_MAX_NODES
    assert not big.factored
    assert plate_4d.factor is None and big.factor is None


def test_factored_solve_rejects_nonfinite_rhs():
    g, a = _laplacian(1.0 / 8)
    assert a.factor is not None
    b = np.ones(g.node_count)
    b[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve_spd(a, b, 1e-10)


def test_factored_solve_is_direct():
    g, a = _laplacian(1.0 / 16)
    rng = np.random.default_rng(3)
    x_true = rng.standard_normal(g.node_count)
    x = solve_spd(a, a.matrix @ x_true, 0.5, x0=np.zeros(g.node_count))
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)
    block_true = rng.standard_normal((g.node_count, 2))
    block = solve_spd(a, a.matrix @ block_true, 0.5)
    assert np.linalg.norm(block - block_true) <= 1e-12 * np.linalg.norm(block_true)


def test_cg_solve_rejects_block_rhs():
    g, a = _laplacian(1.0 / 8)
    with pytest.raises(ValueError, match="one right-hand side"):
        solve_spd(_cg_copy(a), np.ones((g.node_count, 2)), 1e-10)


def _textbook_cg(mat, b, tol, x0=None):
    """Conjugate gradients as allocating textbook updates, with solve_spd's
    stopping rule and 50-step refresh; returns x and the step count."""
    norm_b = float(np.linalg.norm(b))
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - mat @ x
    p = r.copy()
    rs = float(r @ r)
    for it in range(10 * b.shape[0]):
        if np.sqrt(rs) <= tol * norm_b and (it > 0 or rs == 0.0):
            return x, it
        ap = mat @ p
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        if (it + 1) % 50 == 0:
            r = b - mat @ x
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise AssertionError("reference loop hit its cap")


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("grid_spec, order", [
    (mo.disk_spec(1.0 / 32), 2),
    (mo.square_spec(1.0 / 16), 4),
], ids=["disk", "plate"])
def test_cg_loop_matches_textbook_loop_bitwise(grid_spec, order, warm):
    g = mo.build_grid(grid_spec)
    a = _cg_copy(mo.assemble_stiffness(g, order=order))
    mat = a.matrix
    rng = np.random.default_rng(11)
    b = rng.random(g.node_count) + 0.5
    # a warm start near the solution, as inverse iteration hands CG one
    x0 = _textbook_cg(mat, b, 1e-4)[0] if warm else None
    expected, steps = _textbook_cg(mat, b, 1e-10, x0)
    # the periodic residual refresh runs at least once
    assert steps > 50
    assert solve_spd(a, b, 1e-10, x0).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# block LOBPCG on near-degenerate factored problems

def _symmetric_dumbbell():
    g = mo.build_grid(mo.dumbbell_spec(1.0 / 16))
    return g, mo.assemble_stiffness(g)


def test_block_path_resolves_symmetric_dumbbell():
    # mu2 exceeds mu1 by 1.6e-7 relative; a start tilted toward one bell
    # carries a mu2 component that power iteration damps by 1 - 1.6e-7 a step
    g, a = _symmetric_dumbbell()
    w = np.ones(g.node_count)
    start = 1.0 + g.coordinates()[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = mo.first_eigenpair(a, w, start=start)
    values = scipy.linalg.eigvalsh(a.matrix.toarray(), np.diag(w))
    assert abs(pair.eigenvalue - values[0]) <= 1e-9 * values[0]
    assert pair.residual <= 10.0 * mo.SolverOptions().eig_rel_tol
    with pytest.raises(EigenConvergenceError):
        mo.first_eigenpair(_cg_copy(a), w, start=start)


def test_block_path_needs_a_fifth_of_the_power_steps():
    g, a = _symmetric_dumbbell()
    x = g.coordinates()[:, 0]
    # a 3% weight tilt opens the leading gap to 1.9%: power iteration then
    # converges, in ~900 steps
    w = 1.0 + 0.03 * (x - x.mean()) / np.ptp(x)
    block = mo.first_eigenpair(a, w)
    power = mo.first_eigenpair(_cg_copy(a), w, mo.SolverOptions(max_iterations=5000))
    assert 5 * block.iterations <= power.iterations
    assert abs(block.eigenvalue - power.eigenvalue) <= 1e-9 * power.eigenvalue


def test_lobpcg_needs_at_most_fifteen_steps_on_the_dumbbell():
    g = mo.build_grid(mo.dumbbell_spec(1.0 / 32))
    a = mo.assemble_stiffness(g)
    assert a.factor is not None
    assert mo.first_eigenpair(a, np.ones(g.node_count)).iterations <= 15


def test_lobpcg_from_the_exact_eigenvector_drops_the_vanished_column():
    # A^-1 W x is parallel to x, so Y loses a column to W-orthogonalization
    g, a = _laplacian(1.0 / 8)
    w = np.linspace(0.5, 2.0, g.node_count)
    values, vectors = scipy.linalg.eigh(a.matrix.toarray(), np.diag(w))
    pair = mo.first_eigenpair(a, w, start=vectors[:, 0])
    assert pair.iterations <= 2
    assert np.all(np.isfinite(pair.vector)) and np.isfinite(pair.residual)
    assert abs(pair.eigenvalue - values[0]) <= 1e-9 * values[0]


@pytest.mark.parametrize("h, node", [(0.5, 0), (1.0 / 8, 10)],
                         ids=["one-node-grid", "one-node-start"])
def test_width_one_block_agrees_with_dense(h, node):
    # the two start columns x and x * ramp are parallel when x lives on one
    # node, so the block keeps one column for the whole run
    g, a = _laplacian(h)
    w = np.linspace(0.5, 2.0, g.node_count)
    start = np.zeros(g.node_count)
    start[node] = 1.0
    assert _Lobpcg(start, w).width == 1
    values = scipy.linalg.eigvalsh(a.matrix.toarray(), np.diag(w))
    for pair in (mo.first_eigenpair(a, w, start=start),
                 mo.first_eigenpair(_cg_copy(a), w, start=start)):
        assert abs(pair.eigenvalue - values[0]) <= 1e-9 * values[0]
        assert pair.residual <= 10.0 * mo.SolverOptions().eig_rel_tol


def test_krylov_levels_resolve_the_tilted_symmetric_dumbbell_in_four_steps():
    g, a = _symmetric_dumbbell()
    start = 1.0 + g.coordinates()[:, 0]
    assert mo.first_eigenpair(a, np.ones(g.node_count), start=start).iterations <= 4


def test_krylov_levels_resolve_the_fine_dumbbell_in_four_steps():
    g = mo.build_grid(mo.dumbbell_spec(1.0 / 32))
    a = mo.assemble_stiffness(g)
    assert a.factor is not None
    assert mo.first_eigenpair(a, np.ones(g.node_count)).iterations <= 4


def test_krylov_levels_keep_the_bilaplacian_residual_in_reach():
    # levels W-orthogonalized against X alone form a power basis whose new
    # directions cancel: there this clamped plate needs 406 steps to bring
    # the residual (mu ~ 1025, entries of A ~ h^-4) under 1e-8
    g = mo.build_grid(mo.square_spec(1.0 / 32))
    a = mo.assemble_stiffness(g, order=4)
    assert a.factor is not None
    w = np.random.default_rng(4).uniform(0.5, 2.0, g.node_count)
    assert mo.first_eigenpair(a, w).iterations <= 6


def _exact_rayleigh_quotient(a, w, x):
    """x'Ax / x'Wx in rational arithmetic: the double quotient rounds at
    about eps |x|'|A||x| / x'Ax relative, 1e-13 for the bilaplacian here"""
    m = a.matrix.tocoo()
    xs = [Fraction(v) for v in x.tolist()]
    num = sum(Fraction(v) * xs[i] * xs[j]
              for v, i, j in zip(m.data.tolist(), m.row.tolist(), m.col.tolist()))
    return num / sum(Fraction(wi) * xi * xi for wi, xi in zip(w.tolist(), xs))


@pytest.mark.parametrize("order", [2, 4])
def test_lobpcg_ritz_value_never_rises_step_by_step(order):
    # the capped runs replay the same iterates, so the best pair at cap j is
    # the lowest-residual Ritz pair of steps 1..j: either the one at cap j - 1
    # or the pair after step j
    g = mo.build_grid(mo.square_spec(1.0 / 24))
    a = mo.assemble_stiffness(g, order=order)
    assert a.factor is not None
    w = np.random.default_rng(order).uniform(0.5, 2.0, g.node_count)
    pairs = []
    for cap in range(1, 50):
        try:
            pairs.append(mo.first_eigenpair(a, w, mo.SolverOptions(max_iterations=cap)))
            break
        except EigenConvergenceError as exc:
            pairs.append(exc.best)
    assert len(pairs) >= 3
    exact = [_exact_rayleigh_quotient(a, w, pair.vector) for pair in pairs]
    slack = 1 + Fraction(1e-14)
    assert all(later <= earlier * slack for earlier, later in zip(exact, exact[1:]))
    for pair, quotient in zip(pairs, exact):
        assert abs(pair.eigenvalue - float(quotient)) <= 1e-11 * pair.eigenvalue
    if order == 2:
        mus = [pair.eigenvalue for pair in pairs]
        assert all(later <= earlier * (1.0 + 1e-14) for earlier, later in zip(mus, mus[1:]))


def test_capped_run_carries_its_lowest_residual_iterate():
    # no step meets an eig_rel_tol of 1e-15 on this plate, and at the
    # rounding floor a step can leave a worse residual than the one before
    g = mo.build_grid(mo.square_spec(1.0 / 24))
    a = mo.assemble_stiffness(g, order=4)
    assert a.factor is not None
    w = np.random.default_rng(4).uniform(0.5, 2.0, g.node_count)
    bests = []
    for cap in range(1, 13):
        with pytest.raises(EigenConvergenceError) as info:
            mo.first_eigenpair(a, w, mo.SolverOptions(eig_rel_tol=1e-15, max_iterations=cap))
        bests.append(info.value.best)
    for cap, (earlier, later) in enumerate(zip(bests, bests[1:]), start=2):
        assert later.residual <= earlier.residual
        if later.iterations < cap:
            assert later.iterations == earlier.iterations
            assert np.array_equal(later.vector, earlier.vector)
    assert any(best.iterations < cap for cap, best in enumerate(bests, start=1))


def test_factored_solve_of_a_zero_block_makes_no_factor_call(monkeypatch):
    # a vanished Krylov level hands the next level's solve a zero block
    g, a = _laplacian(1.0 / 8)
    assert a.factor is not None

    class Refusing:
        def solve(self, b):
            raise AssertionError("factor called on a zero block")

    monkeypatch.setitem(a.__dict__, "factor", Refusing())
    x = solve_spd(a, np.zeros((g.node_count, 2)), 1e-10)
    assert x.shape == (g.node_count, 2) and not x.any()


class _CountingProducts:
    """A matrix stand-in that counts its vector products."""

    def __init__(self, mat):
        self.mat = mat
        self.shape = mat.shape
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x


@pytest.mark.parametrize("order", [2, 4])
def test_cg_eigenpair_takes_diagonal_products_bitwise(order):
    # the CG path on a 3D box: its diagonal storage against the same matrix
    # stored as CSR, on a weight that makes W non-trivial
    g = mo.build_grid(mo.square_spec(1.0 / 7, dimension=3))
    a = mo.assemble_stiffness(g, order=order)
    assert a.factor is None and isinstance(a.stored, sp.dia_array)
    w = np.random.default_rng(order).uniform(0.5, 2.0, g.node_count)
    opts = mo.SolverOptions(eig_rel_tol=1e-10, max_iterations=4000)
    csr = StiffnessMatrix(a.matrix, a.dimension, a.order)
    got = mo.first_eigenpair(a, w, opts)
    want = mo.first_eigenpair(csr, w, opts)
    assert got.eigenvalue == want.eigenvalue
    assert got.vector.tobytes() == want.vector.tobytes()
    assert got.residual == want.residual
    assert got.iterations == want.iterations > 1
    # every product of the run goes through the stored diagonals, and the
    # CSR form is never built
    spied = dataclasses.replace(a, stored=_CountingProducts(a.stored))
    again = mo.first_eigenpair(spied, w, opts)
    assert again.vector.tobytes() == want.vector.tobytes()
    assert spied.stored.products > again.iterations and "matrix" not in vars(spied)


def test_cg_solve_takes_diagonal_products_bitwise():
    # cold and warm starts, each long enough for the periodic residual refresh
    g = mo.build_grid(mo.square_spec(1.0 / 7, dimension=3))
    a = mo.assemble_stiffness(g, order=4)
    assert a.factor is None and isinstance(a.stored, sp.dia_array)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(g.node_count)
    csr = StiffnessMatrix(a.matrix, a.dimension, a.order)
    for guess in (None, rng.standard_normal(g.node_count)):
        spied = dataclasses.replace(a, stored=_CountingProducts(a.stored))
        want = solve_spd(csr, b, 1e-12, x0=guess).tobytes()
        assert solve_spd(a, b, 1e-12, x0=guess).tobytes() == want
        assert solve_spd(spied, b, 1e-12, x0=guess).tobytes() == want
        assert spied.stored.products > 50 and "matrix" not in vars(spied)
