import math

import numpy as np
import pytest

from heatsource.errors import DegenerateDirectionError, DivergenceError
from heatsource.kernels import TruncationPolicy
from heatsource.model import (Geometry, MeasurementMesh, PolyParams,
                              sensitivity_tables)
from heatsource.objective import (Measurements, ObjectiveConfig, cost,
                                  gradient, ridge_solve)
from heatsource.solver import (IterationTrace, SolverConfig, solve,
                               stationarity_check, step_size)
from oracles import golden_minimize

TR = TruncationPolicy()


@pytest.fixture(scope="module")
def poly_problem():
    geom = Geometry(offset=0.0, length=2.0, t_final=1.0, sensor=1.25)
    mesh = MeasurementMesh.regular(geom, 40, 40)
    tables = sensitivity_tables(geom, mesh, 3, 2, TR)
    truth = PolyParams(phi=np.array([1.0, 1.0]),
                       theta=np.array([0.0, 2.0, -1.0]))
    u_f, u_s = tables.predict(truth)
    meas = Measurements(u_f=u_f, u_star=u_s)
    return geom, mesh, tables, truth, meas


@pytest.fixture(scope="module")
def example_problem():
    geom = Geometry(offset=-math.pi / 2, length=2 * math.pi, t_final=2.0,
                    sensor=2.97)
    mesh = MeasurementMesh.regular(geom, 100, 100)
    tables = sensitivity_tables(geom, mesh, 6, 5, TR)
    x_phys = geom.to_physical(mesh.x_interior)
    meas = Measurements(
        u_f=(np.sin(x_phys) + 1.0) * np.exp(-geom.t_final),
        u_star=(np.sin(geom.sensor) + 1.0) * np.exp(-mesh.t_interior),
    )
    return geom, mesh, tables, meas


def _short_solve(problem, **solver_kwargs):
    geom, mesh, tables, meas = problem
    cfg = ObjectiveConfig(alpha=1e-6)
    return solve(meas, geom, mesh, 6, 5, cfg,
                 SolverConfig(epsilon=1e-30, **solver_kwargs), tables=tables)


class TestFrCoefficients:
    """The Fletcher-Reeves momentum that solve records in its trace."""

    def test_first_iteration_zero(self, example_problem):
        _, trace, _ = _short_solve(example_problem, max_iters=6)
        assert trace.gamma_phi[1] == 0.0 and trace.gamma_theta[1] == 0.0

    def test_norm_squared_ratio(self, example_problem):
        # row n holds the momentum of update n: the stacked squared
        # gradient norm before it over the one before the previous update
        _, trace, _ = _short_solve(example_problem, max_iters=6)
        assert len(trace) == 7
        sq = [a * a + b * b
              for a, b in zip(trace.grad_phi_norm, trace.grad_theta_norm)]
        for n in range(2, len(trace)):
            assert trace.gamma_phi[n] == pytest.approx(sq[n - 1] / sq[n - 2],
                                                       rel=1e-12)
            assert trace.gamma_theta[n] == trace.gamma_phi[n]


def _steepest_descent(problem, n_steps):
    _, _, tables, meas = problem
    cfg = ObjectiveConfig(alpha=1e-6)
    params = PolyParams.zeros(6, 5)
    for _ in range(n_steps):
        g = gradient(params, meas, cfg, tables)
        beta = step_size(params, g, meas, cfg, tables)
        params = PolyParams(phi=params.phi - beta * g[0],
                            theta=params.theta - beta * g[1])
    return params


class TestDescentDirections:
    """The search direction solve takes when the momentum is zero."""

    def test_first_iteration_is_gradient(self, example_problem):
        params, _, _ = _short_solve(example_problem, max_iters=1)
        expected = _steepest_descent(example_problem, 1)
        np.testing.assert_array_equal(params.phi, expected.phi)
        np.testing.assert_array_equal(params.theta, expected.theta)

    def test_zero_momentum_restart(self, example_problem):
        params, trace, _ = _short_solve(example_problem, max_iters=3,
                                        restart_period=1)
        assert trace.gamma_phi == [0.0] * 4
        expected = _steepest_descent(example_problem, 3)
        np.testing.assert_array_equal(params.phi, expected.phi)
        np.testing.assert_array_equal(params.theta, expected.theta)


def _solver_states(tables, meas, cfg, n_states, seed):
    """Realistic line-search states: a random iterate, one exact step along
    the gradient, then the Fletcher-Reeves direction the solver takes next."""
    rng = np.random.default_rng(seed)
    scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
    scale_phi = 1.0 / np.abs(tables.final_phi).max(axis=0)
    states = []
    for _ in range(n_states):
        params = PolyParams(
            phi=rng.standard_normal(tables.n_t) * scale_phi,
            theta=rng.standard_normal(tables.n_x) * scale_theta,
        )
        g_prev = gradient(params, meas, cfg, tables)
        beta_prev = step_size(params, g_prev, meas, cfg, tables)
        params = PolyParams(phi=params.phi - beta_prev * g_prev[0],
                            theta=params.theta - beta_prev * g_prev[1])
        g_now = gradient(params, meas, cfg, tables)
        gamma = (sum(float(g @ g) for g in g_now)
                 / sum(float(g @ g) for g in g_prev))
        dirs = (g_now[0] + gamma * g_prev[0], g_now[1] + gamma * g_prev[1])
        states.append((params, dirs))
    return states


def _moved(params, dirs, s):
    return PolyParams(phi=params.phi - s * dirs[0],
                      theta=params.theta - s * dirs[1])


class TestStepSizes:
    def test_matches_golden_section(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        states = _solver_states(tables, meas, cfg, 20, seed=2024)
        for params, dirs in states:
            beta = step_size(params, dirs, meas, cfg, tables)

            def cost_along(s):
                return cost(_moved(params, dirs, s), meas, cfg, tables)

            lo, hi = sorted((0.0, 2.0 * beta))
            span = hi - lo if hi > lo else 1.0
            found = golden_minimize(cost_along, lo, hi, tol=1e-9 * span)
            assert abs(found - beta) < 1e-8

    def test_zero_residual_gives_zero_steps(self, poly_problem):
        _, _, tables, truth, meas = poly_problem
        cfg = ObjectiveConfig(alpha=0.0)
        dirs = (np.array([1.0, -0.5]), np.array([0.3, 0.0, 1.0]))
        beta = step_size(truth, dirs, meas, cfg, tables)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_sampled_optimality(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        (params, dirs), = _solver_states(tables, meas, cfg, 1, seed=7)
        beta = step_size(params, dirs, meas, cfg, tables)
        rng = np.random.default_rng(9)
        best = cost(_moved(params, dirs, beta), meas, cfg, tables)
        for _ in range(100):
            s = rng.uniform(0.0, 2.0 * beta)
            trial = cost(_moved(params, dirs, s), meas, cfg, tables)
            assert best <= trial * (1.0 + 1e-12) + 1e-15

    def test_zero_direction_gives_zero_step(self, poly_problem):
        _, _, tables, truth, meas = poly_problem
        dirs = (np.zeros(2), np.zeros(3))
        assert step_size(truth, dirs, meas, ObjectiveConfig(0.0), tables) == 0.0

    def test_invisible_direction_raises(self, poly_problem):
        # A direction orthogonal to every response and penalty row can only
        # be built on a deficient table; fake one by zeroing the tables.
        geom, mesh, tables, truth, meas = poly_problem
        import dataclasses

        blind = dataclasses.replace(
            tables,
            final_phi=np.zeros_like(tables.final_phi),
            sensor_phi=np.zeros_like(tables.sensor_phi),
            penalty_t=np.zeros_like(tables.penalty_t),
        )
        dirs = (np.array([1.0, 0.0]), np.zeros(3))
        with pytest.raises(DegenerateDirectionError):
            step_size(truth, dirs, meas, ObjectiveConfig(alpha=1e-6), blind)


class TestSolve:
    def test_self_consistent_recovery(self, poly_problem):
        geom, mesh, tables, truth, meas = poly_problem
        cfg = SolverConfig(epsilon=1e-22, max_iters=2000)
        params, trace, report = solve(meas, geom, mesh, 3, 2,
                                      ObjectiveConfig(alpha=0.0), cfg,
                                      tables=tables)
        assert np.max(np.abs(params.phi - truth.phi)) <= 1e-4
        assert np.max(np.abs(params.theta - truth.theta)) <= 1e-4
        oracle = ridge_solve(meas, ObjectiveConfig(alpha=0.0), tables)
        assert np.max(np.abs(params.phi - oracle.phi)) <= 1e-4
        assert np.max(np.abs(params.theta - oracle.theta)) <= 1e-4

    def test_agrees_with_direct_solver(self, example_problem):
        geom, mesh, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        oracle = ridge_solve(meas, cfg, tables)
        params, _, _ = solve(meas, geom, mesh, 6, 5, cfg,
                             SolverConfig(epsilon=1e-12, max_iters=12_000),
                             tables=tables)
        assert np.max(np.abs(params.phi - oracle.phi)) <= 1e-4
        assert np.max(np.abs(params.theta - oracle.theta)) <= 1e-4

    def test_monotone_descent_and_convergence(self, example_problem):
        geom, mesh, tables, meas = example_problem
        params, trace, report = solve(
            meas, geom, mesh, 6, 5, ObjectiveConfig(alpha=1e-6),
            SolverConfig(), tables=tables)
        assert report.converged
        assert report.final_cost < 1e-3
        costs = np.array(trace.cost)
        rises = np.diff(costs)
        allowed = 1e-12 * np.maximum(1.0, costs[:-1])
        assert np.all(rises <= allowed)
        assert len(trace) == report.iterations + 1

    def test_fast_decrease_on_full_rank_instances(self, poly_problem):
        # Conjugate directions on an n-dimensional quadratic settle in about
        # n steps; allow a float-tolerant margin of five extra iterations.
        geom, mesh, tables, _, _ = poly_problem
        rng = np.random.default_rng(77)
        for trial in range(5):
            truth = PolyParams(phi=rng.standard_normal(2),
                               theta=rng.standard_normal(3))
            u_f, u_s = tables.predict(truth)
            meas = Measurements(u_f=u_f, u_star=u_s)
            budget = 3 + 2 + 5
            params, trace, report = solve(
                meas, geom, mesh, 3, 2, ObjectiveConfig(alpha=0.0),
                SolverConfig(epsilon=1e-300, max_iters=budget),
                tables=tables)
            assert trace.cost[-1] <= 1e-2 * trace.cost[0]

    def test_zero_iteration_budget(self, example_problem):
        geom, mesh, tables, meas = example_problem
        params, trace, report = solve(
            meas, geom, mesh, 6, 5, ObjectiveConfig(alpha=1e-6),
            SolverConfig(max_iters=0), tables=tables)
        assert report.status == "not_converged"
        assert report.iterations == 0
        assert len(trace) == 1
        assert np.all(params.phi == 0.0) and np.all(params.theta == 0.0)

    def test_custom_init(self, poly_problem):
        geom, mesh, tables, truth, meas = poly_problem
        cfg = SolverConfig(epsilon=1e-20, max_iters=0, init=truth)
        params, _, report = solve(meas, geom, mesh, 3, 2,
                                  ObjectiveConfig(alpha=0.0), cfg,
                                  tables=tables)
        np.testing.assert_array_equal(params.phi, truth.phi)

    def test_stationary_stop_at_exact_start(self, poly_problem):
        geom, mesh, tables, truth, meas = poly_problem
        cfg = SolverConfig(epsilon=1e-300, max_iters=50, init=truth)
        params, trace, report = solve(meas, geom, mesh, 3, 2,
                                      ObjectiveConfig(alpha=0.0), cfg,
                                      tables=tables)
        assert report.status == "stationary"
        np.testing.assert_allclose(params.phi, truth.phi, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_detection(self, poly_problem):
        geom, mesh, tables, _, meas = poly_problem
        huge = PolyParams(phi=np.full(2, 1e200), theta=np.full(3, 1e200))
        with pytest.raises(DivergenceError) as err:
            solve(meas, geom, mesh, 3, 2, ObjectiveConfig(alpha=0.0),
                  SolverConfig(init=huge), tables=tables)
        trace = err.value.trace
        assert trace is not None
        assert all(math.isfinite(c) for c in trace.cost)

    def test_restart_period_still_converges(self, example_problem):
        geom, mesh, tables, meas = example_problem
        params, trace, report = solve(
            meas, geom, mesh, 6, 5, ObjectiveConfig(alpha=1e-6),
            SolverConfig(restart_period=7), tables=tables)
        assert report.converged

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)
        with pytest.raises(ValueError):
            SolverConfig(restart_period=0)


class TestStationarityCheck:
    def test_holds_at_direct_minimizer(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        minimizer = ridge_solve(meas, cfg, tables)
        check = stationarity_check(minimizer, meas, cfg, tables, n_trials=20)
        assert check.holds_mixed
        assert check.holds_symmetric

    def test_holds_at_converged_solver_minimizer(self, example_problem):
        # The condition is a property of minimizers, so the iteration must
        # run to depth; an early epsilon stop is not a minimizer and its
        # report may legitimately record a violation.
        geom, mesh, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        params, _, report = solve(
            meas, geom, mesh, 6, 5, cfg,
            SolverConfig(epsilon=1e-12, max_iters=12_000), tables=tables)
        assert report.stationarity.holds_mixed
        assert report.stationarity.holds_symmetric

    def test_violated_far_from_minimizer(self, example_problem):
        # Far from the minimizer the first-order condition must fail for
        # some trials, otherwise the check would be vacuous.
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        bogus = PolyParams(phi=np.full(5, 50.0), theta=np.full(6, -40.0))
        check = stationarity_check(bogus, meas, cfg, tables, n_trials=20)
        assert not (check.holds_mixed and check.holds_symmetric)


class TestIterationTrace:
    def test_rows_layout(self):
        trace = IterationTrace()
        trace.append(5.0, 1.0, 2.0)
        trace.append(3.0, 0.5, 1.0, 0.1, 0.1, 0.01, 0.01)
        rows = list(trace.rows())
        assert rows[0][0] == 0 and rows[1][0] == 1
        assert rows[1][1] == 3.0
        assert len(rows[0]) == len(IterationTrace.HEADER)
