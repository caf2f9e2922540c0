import math

import numpy as np
import pytest
from numpy.polynomial import Legendre
from numpy.polynomial import polynomial as npoly

from heatsource.errors import DegenerateDirectionError, DivergenceError
from heatsource.harness import (default_sweep_cells, generate_measurements,
                                get_case, rmse_report)
from heatsource.kernels import TruncationPolicy
from heatsource.model import (Geometry, MeasurementMesh, PolyParams,
                              sensitivity_tables)
from heatsource.objective import (Measurements, ObjectiveConfig, cost,
                                  residuals, ridge_solve, stacked_system)
from heatsource.solver import (IterationTrace, SolverConfig, legendre_map,
                               solve, stationarity_check)
from oracles import golden_minimize, legendre_gradient, svd_cost_floor

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


class TestLegendreMap:
    """``legendre_map`` and the conditioning it buys."""

    @pytest.mark.parametrize("top", [1.0, 2.0, 2.0 * math.pi])
    @pytest.mark.parametrize("n", [5, 9, 12, 16])
    def test_columns_are_shifted_legendre_polynomials(self, n, top):
        # Column k, evaluated as a power series at the mesh nodes, is
        # numpy's Legendre.basis(k) on [0, top] up to the rounding of
        # Horner's rule, 2n eps times the sum of the absolute terms
        # (measured: at most 12 eps times it, at n=16).
        basis = legendre_map(n, top)
        assert np.array_equal(basis, np.triu(basis))
        nodes = np.linspace(0.0, top, 101)
        for k in range(n):
            want = Legendre.basis(k, domain=[0.0, top])(nodes)
            got = npoly.polyval(nodes, basis[:, k])
            terms = npoly.polyval(nodes, np.abs(basis[:, k]))
            bound = 2 * n * np.finfo(float).eps * terms
            assert np.all(np.abs(got - want) <= bound), (k, top)

    def test_basis_is_kept_per_size_and_top_and_read_only(self):
        # One array serves every solve of a size; an integral top keeps
        # its own entry, as its exact powers divide to other bits from
        # n = 35 on (3^34 > 2^53).
        first = legendre_map(12, 2.0)
        assert legendre_map(12, 2.0) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 2.0
        exact, rounded = legendre_map(40, 3), legendre_map(40, 3.0)
        assert exact is not rounded and legendre_map(40, 3) is exact
        assert not np.array_equal(exact, rounded)

    def test_stacked_system_is_well_conditioned(self):
        # cond(M T) on the 100x100 mesh at alpha 1e-6: 3.6e3-1.2e4 on the
        # ten default cells and 1.6e3 / 3.6e3 on the polynomial case at
        # 6x5 / 12x9, against 4.2e5-6.9e13 for M in the monomial
        # coefficients.
        zero = Measurements(u_f=np.zeros(100), u_star=np.zeros(100))
        example1 = get_case("example1")
        cases = [(example1.with_sensor(c.x_star), c.n_x, c.n_t)
                 for c in default_sweep_cells()]
        cases += [(get_case("polynomial"), n_x, n_t)
                  for n_x, n_t in ((6, 5), (12, 9))]
        for case, n_x, n_t in cases:
            geom = case.geometry
            mesh = MeasurementMesh.regular(geom, 100, 100)
            tables = sensitivity_tables(geom, mesh, n_x, n_t, TR)
            stacked, _ = stacked_system(zero, ObjectiveConfig(1e-6), tables)
            basis = np.zeros((n_x + n_t, n_x + n_t))
            basis[:n_x, :n_x] = legendre_map(n_x, geom.length)
            basis[n_x:, n_x:] = legendre_map(n_t, geom.t_final)
            assert np.linalg.cond(stacked @ basis) < 1e5, (case.name, n_x)


class TestFrCoefficients:
    """The Fletcher-Reeves momentum that solve records in its trace."""

    def test_first_iteration_zero(self, example_problem):
        _, trace, _ = _short_solve(example_problem, max_iters=6)
        assert trace.gamma[1] == 0.0

    def test_norm_squared_ratio(self, example_problem):
        # row n holds the momentum of update n: the squared norm of the
        # Legendre-coordinate gradient before it over the one before the
        # previous update.  The trace's gradient norms are monomial, so
        # the gradients are rebuilt at the iterates shorter runs return.
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        _, trace, _ = _short_solve(example_problem, max_iters=6)
        assert len(trace) == 7
        sq = [legendre_gradient(params, meas, cfg, tables)[1]
              for params in (_short_solve(example_problem, max_iters=k)[0]
                             for k in range(6))]
        for n in range(2, len(trace)):
            assert trace.gamma[n] == pytest.approx(sq[n - 1] / sq[n - 2],
                                                   rel=1e-12)


def _exact_step(params, dirs, meas, cfg, tables):
    """Exact minimizing step of the objective along ``-dirs``, summed table
    by table as a reference independent of solve's stacked products."""
    d_phi, d_theta = dirs
    r_f, r_s = residuals(params, meas, tables)
    resp_f = tables.final_phi @ d_phi + tables.final_theta @ d_theta
    resp_s = tables.sensor_phi @ d_phi + tables.sensor_theta @ d_theta
    pen_t = tables.penalty_t @ d_phi
    pen_x = tables.penalty_x @ d_theta
    numer = (-(r_f @ resp_f) - (r_s @ resp_s)
             + cfg.alpha * ((tables.penalty_t @ params.phi) @ pen_t
                            + (tables.penalty_x @ params.theta) @ pen_x))
    denom = (resp_f @ resp_f + resp_s @ resp_s
             + cfg.alpha * (pen_t @ pen_t + pen_x @ pen_x))
    return float(numer / denom)


def _steepest_descent(problem, n_steps):
    """Exact steps along the Legendre-coordinate gradient ``T T^T g``."""
    _, _, tables, meas = problem
    cfg = ObjectiveConfig(alpha=1e-6)
    params = PolyParams.zeros(6, 5)
    for _ in range(n_steps):
        dirs, _ = legendre_gradient(params, meas, cfg, tables)
        params = _moved(params, dirs,
                        _exact_step(params, dirs, meas, cfg, tables))
    return params


class TestDescentDirections:
    """The search direction solve takes when the momentum is zero: the
    Legendre-coordinate gradient, ``T T^T g`` in monomial coefficients.

    solve sums its products in another order than the table-wise reference.
    Relative to the largest coefficient, the iterates were measured to
    differ by 4.1e-16 after one step and by 9.5e-16 after three (in the
    monomial basis, whose stacked system has a condition number of ~2.6e7
    here against ~5e3 in the Legendre one, three steps differed by
    5.5e-11); the tolerances below sit about 20x above the measurements."""

    @staticmethod
    def _assert_close(params, expected, rel):
        got = np.concatenate([params.theta, params.phi])
        want = np.concatenate([expected.theta, expected.phi])
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=rel * np.abs(want).max())

    def test_first_iteration_is_gradient(self, example_problem):
        params, trace, _ = _short_solve(example_problem, max_iters=1)
        assert trace.gamma == [0.0, 0.0]
        self._assert_close(params, _steepest_descent(example_problem, 1),
                           rel=1e-14)


def _recorded_steps(problem, n_states, seed):
    """The first two steps solve records from random initial guesses, each
    with the iterate it was taken from and its direction rebuilt from the
    objective's gradient: the gradient, then the Fletcher-Reeves direction."""
    geom, mesh, tables, meas = problem
    cfg = ObjectiveConfig(alpha=1e-6)
    rng = np.random.default_rng(seed)
    scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
    scale_phi = 1.0 / np.abs(tables.final_phi).max(axis=0)
    steps = []
    for _ in range(n_states):
        params = PolyParams(
            phi=rng.standard_normal(tables.n_t) * scale_phi,
            theta=rng.standard_normal(tables.n_x) * scale_theta,
        )
        _, trace, _ = solve(meas, geom, mesh, tables.n_x, tables.n_t, cfg,
                            SolverConfig(epsilon=1e-300, max_iters=2,
                                         init=params), tables=tables)
        dirs, sq = legendre_gradient(params, meas, cfg, tables)
        for n in (1, 2):
            if n == 2:
                sq_prev = sq
                grads, sq = legendre_gradient(params, meas, cfg, tables)
                gamma = sq / sq_prev
                dirs = (grads[0] + gamma * dirs[0], grads[1] + gamma * dirs[1])
            beta = trace.beta[n]
            steps.append((params, dirs, beta))
            params = _moved(params, dirs, beta)
    return steps


def _moved(params, dirs, s):
    return PolyParams(phi=params.phi - s * dirs[0],
                      theta=params.theta - s * dirs[1])


class TestStepSizes:
    """The exact line-search steps solve records in its trace."""

    def test_matches_golden_section(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        for params, dirs, beta in _recorded_steps(example_problem, 10,
                                                  seed=2024):
            def cost_along(s):
                return cost(_moved(params, dirs, s), meas, cfg, tables)

            lo, hi = sorted((0.0, 2.0 * beta))
            span = hi - lo if hi > lo else 1.0
            found = golden_minimize(cost_along, lo, hi, tol=1e-9 * span)
            assert abs(found - beta) < 1e-8

    def test_sampled_optimality(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        rng = np.random.default_rng(9)
        for params, dirs, beta in _recorded_steps(example_problem, 1, seed=7):
            best = cost(_moved(params, dirs, beta), meas, cfg, tables)
            for _ in range(100):
                s = rng.uniform(0.0, 2.0 * beta)
                trial = cost(_moved(params, dirs, s), meas, cfg, tables)
                assert best <= trial * (1.0 + 1e-12) + 1e-15

    def test_invisible_direction_raises(self, poly_problem, caplog):
        # In exact arithmetic a nonzero gradient always has a nonzero
        # response, so a direction invisible to the data and the penalty
        # needs underflow: faint tables (1e-160) and loud data (1e150)
        # give a gradient of ~1e-10 whose response squares below the
        # smallest double.
        import dataclasses

        geom, mesh, tables, _, meas = poly_problem
        faint = dataclasses.replace(tables, **{
            name: 1e-160 * getattr(tables, name)
            for name in ("final_theta", "final_phi", "sensor_theta",
                         "sensor_phi", "penalty_x", "penalty_t")})
        loud = Measurements(u_f=1e150 * meas.u_f, u_star=1e150 * meas.u_star)
        with pytest.raises(DegenerateDirectionError):
            solve(loud, geom, mesh, 3, 2, ObjectiveConfig(alpha=1e-6),
                  SolverConfig(), tables=faint)
        assert "restarting with the plain gradient" in caplog.text


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
        # epsilon=1e-12 lies below the attainable cost (~1.7e-4), so the
        # run stops at the floor (after 24 iterations; 60 in the monomial
        # coefficients), not at the cap
        geom, mesh, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        oracle = ridge_solve(meas, cfg, tables)
        params, _, report = solve(
            meas, geom, mesh, 6, 5, cfg,
            SolverConfig(epsilon=1e-12, max_iters=12_000), tables=tables)
        assert report.status == "floor" and not report.converged
        assert report.iterations <= 100
        assert report.final_cost <= report.cost_floor * (1.0 + 1e-10)
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

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_budget_run_returns_its_last_iterate(self, example_problem,
                                                 budget):
        # the report describes the iterate the loop ended on: its true
        # cost differs from the last recurrence cost by rounding only
        params, trace, report = _short_solve(example_problem,
                                             max_iters=budget)
        assert report.status == "not_converged"
        assert report.iterations == budget == len(trace) - 1
        assert report.final_cost == pytest.approx(trace.cost[-1], rel=1e-12)
        assert trace.cost[-1] < trace.cost[-2]

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

    @pytest.fixture(scope="class")
    def noisy_cell(self):
        """The 6x5 cell at x*=2.97 with 1% noise (seed 42), alpha 1e-6."""
        case = get_case("example1").with_sensor(2.97)
        geom = case.geometry
        mesh = MeasurementMesh.regular(geom, 100, 100)
        meas = generate_measurements(case, mesh, noise_level=0.01, seed=42)
        tables = sensitivity_tables(geom, mesh, 6, 5, TR)
        return geom, mesh, tables, meas

    def test_true_residual_checked_before_converging(self, noisy_cell):
        # With epsilon at the attainable minimum, a recurrence cost below it
        # is drift: only the true residual can tell the iterate has not
        # converged.  Whether the recurrence dips below the minimum, and
        # where, is itself a rounding effect, so the scenario runs starts
        # 1e3 to 1e6 away, every coefficient equal or alternating in sign,
        # and needs the safeguard on at least one: the recurrence cost dips
        # below the minimum and the run goes on after it.  It does on 4 of
        # the 8 (a single start 1e6 away dipped before the relative settled
        # test; now that test restarts it first).  Every run returns its
        # true cost, not below the minimum.
        geom, mesh, tables, meas = noisy_cell
        cfg = ObjectiveConfig(alpha=1e-6)
        floor = cost(ridge_solve(meas, cfg, tables), meas, cfg, tables)
        checked = []
        for size in (1e3, 1e4, 1e5, 1e6):
            for sign in (1.0, -1.0):
                far = PolyParams(phi=size * sign ** np.arange(5),
                                 theta=size * sign ** np.arange(6))
                params, trace, report = solve(
                    meas, geom, mesh, 6, 5, cfg,
                    SolverConfig(epsilon=floor, max_iters=3000, init=far),
                    tables=tables)
                first_below = int(np.argmax(np.array(trace.cost) < floor))
                if 0 < first_below < report.iterations:
                    checked.append((size, sign, first_below,
                                    report.iterations))
                assert report.final_cost == pytest.approx(
                    cost(params, meas, cfg, tables), rel=1e-12)
                assert report.final_cost >= floor * (1.0 - 1e-12)
        assert checked

    @pytest.mark.parametrize("start", [3e7, 1e8, 3e8])
    def test_tiny_recurrence_gradient_checked_before_stopping(self, noisy_cell,
                                                              start):
        # From these starts the drifted recurrence settles above the floor
        # with a tiny gradient of its own.  Stopping there as "stationary"
        # left the iterate 4e-7 to 1e-4 above the minimum; with an absolute
        # 1e-14 trigger the true residual restarted it and it ended at the
        # floor after 272, 87 and 744 iterations, until a table change left
        # 3e7 at 3000, 1.2e-7 above it.  The settled test, relative to the
        # start's Legendre gradient, restarts each once the recurrence has
        # come down from the start: 42, 43 and 42 iterations.
        geom, mesh, tables, meas = noisy_cell
        cfg = ObjectiveConfig(alpha=1e-6)
        far = PolyParams(phi=np.full(5, start), theta=np.full(6, start))
        _, _, report = solve(meas, geom, mesh, 6, 5, cfg,
                             SolverConfig(epsilon=1e-14, max_iters=3000,
                                          init=far), tables=tables)
        assert report.status == "floor", report.iterations
        assert report.final_cost == pytest.approx(report.cost_floor,
                                                  rel=1e-11)

    @pytest.mark.parametrize("start", [1e9, 1e11])
    def test_far_start_reaches_the_floor(self, noisy_cell, start):
        # With an absolute trigger the recurrence settled 5e-3 above the
        # floor with a gradient above 1e-14, and the run went to 3000
        # iterations 2.3e-4 (1e9) and 4.7 (1e11) times the floor above it.
        geom, mesh, tables, meas = noisy_cell
        cfg = ObjectiveConfig(alpha=1e-6)
        floor = cost(ridge_solve(meas, cfg, tables), meas, cfg, tables)
        far = PolyParams(phi=np.full(5, start), theta=np.full(6, start))
        _, _, report = solve(meas, geom, mesh, 6, 5, cfg,
                             SolverConfig(epsilon=floor, max_iters=3000,
                                          init=far), tables=tables)
        assert report.status in ("floor", "converged")
        assert report.iterations <= 100, report.iterations
        assert report.final_cost == pytest.approx(report.cost_floor,
                                                  rel=1e-11)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)


class TestRoundingStability:
    @pytest.fixture(scope="class")
    def default_cell(self):
        """The 12x9 default cell at x*=2.97: noiseless example1 data on the
        100x100 mesh, alpha 1e-6, epsilon 1e-3."""
        case = get_case("example1").with_sensor(2.97)
        geom = case.geometry
        mesh = MeasurementMesh.regular(geom, 100, 100)
        meas = generate_measurements(case, mesh)
        tables = sensitivity_tables(geom, mesh, 12, 9, TR)
        return geom, mesh, tables, meas

    def test_iterations_survive_one_ulp_in_the_data(self, default_cell):
        # Each u_f sample moves one ulp up or down.  Over seeds 0-49 the
        # count is 12, as unperturbed: in the Legendre coordinates the
        # stacked system's condition number is ~1.1e4.  CG in the monomial
        # coefficients (~6.9e13) took 74 unperturbed and 70-88 over the
        # same seeds; before the residual recurrence, seeds 1-5 took 3378,
        # 10000 (the cap), 7263, 3414 and 4743 against 4547.
        geom, mesh, tables, meas = default_cell
        cfg = ObjectiveConfig(alpha=1e-6)

        def iterations(data):
            _, _, report = solve(data, geom, mesh, 12, 9, cfg,
                                 SolverConfig(), tables=tables)
            assert report.converged
            return report.iterations

        base = iterations(meas)
        for seed in range(1, 6):
            up = np.random.default_rng(seed).random(meas.u_f.size) < 0.5
            u_f = np.nextafter(meas.u_f, np.where(up, np.inf, -np.inf))
            moved = iterations(Measurements(u_f=u_f, u_star=meas.u_star))
            assert abs(moved - base) <= 0.10 * base, (seed, moved, base)

    @pytest.mark.parametrize("alpha", np.geomspace(1e-8, 1e-2, 7),
                             ids=lambda a: f"{a:.0e}")
    def test_noisy_run_ends_at_the_direct_minimum(self, alpha):
        # epsilon lies below the attainable cost, so the run stops at the
        # floor, well before the cap (14-24 iterations; 36-74 in the
        # monomial coefficients, and all 1500 before the floor stop), at the
        # exact minimizer's cost and errors
        case = get_case("example1").with_sensor(2.97)
        geom = case.geometry
        mesh = MeasurementMesh.regular(geom, 100, 100)
        meas = generate_measurements(case, mesh, noise_level=0.01, seed=42)
        tables = sensitivity_tables(geom, mesh, 6, 5, TR)
        cfg = ObjectiveConfig(alpha=alpha)
        params, _, report = solve(meas, geom, mesh, 6, 5, cfg,
                                  SolverConfig(epsilon=1e-14, max_iters=1500),
                                  tables=tables)
        assert report.status == "floor"
        assert report.iterations <= 150
        stacked, rhs = stacked_system(meas, cfg, tables)
        floor = svd_cost_floor(stacked, rhs)
        assert report.final_cost == pytest.approx(floor, rel=1e-10)
        assert report.cost_floor == pytest.approx(floor, rel=1e-10)
        exact = np.linalg.lstsq(stacked, rhs, rcond=1e-18)[0]
        exact = PolyParams(phi=exact[6:], theta=exact[:6])
        got = rmse_report(case, params, mesh)
        want = rmse_report(case, exact, mesh)
        assert got.e_f == pytest.approx(want.e_f, rel=1e-5)
        assert got.e_u0 == pytest.approx(want.e_u0, rel=1e-5)


    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-4],
                             ids=lambda a: f"{a:.0e}")
    def test_noisy_12x9_run_ends_at_the_floor(self, alpha):
        # CG in the monomial coefficients (condition number ~7e13) stalled
        # here: after 3000 iterations it sat 1.0e-3, 1.9e-3 and 3.4e-3
        # relative above cost_floor.  In the Legendre coordinates the run
        # stops at the floor after 142, 99 and 50 iterations, at most
        # 1.1e-12 above it.  The returned monomial coefficients cost up to
        # 1.6e-9 more: x = T y is rounded to monomial coefficients, whose
        # system amplifies that rounding by its condition number.
        case = get_case("example1").with_sensor(2.97)
        geom = case.geometry
        mesh = MeasurementMesh.regular(geom, 100, 100)
        meas = generate_measurements(case, mesh, noise_level=0.01, seed=42)
        tables = sensitivity_tables(geom, mesh, 12, 9, TR)
        cfg = ObjectiveConfig(alpha=alpha)
        params, _, report = solve(meas, geom, mesh, 12, 9, cfg,
                                  SolverConfig(epsilon=1e-14, max_iters=3000),
                                  tables=tables)
        assert report.status == "floor"
        assert report.iterations <= 200
        assert report.final_cost == pytest.approx(report.cost_floor,
                                                  rel=1e-11)
        assert cost(params, meas, cfg, tables) == pytest.approx(
            report.cost_floor, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-4],
                             ids=lambda a: f"{a:.0e}")
    def test_noisy_12x9_far_start_ends_at_the_floor(self, alpha):
        # From every coefficient 1e5 the recurrence settled with a gradient
        # above an absolute 1e-14 trigger, and the run went to the cap
        # 1.1e-2 to 5.4e-2 above cost_floor; the relative settled test
        # restarts it and it stops at the floor after 273, 175 and 105
        # iterations.
        case = get_case("example1").with_sensor(2.97)
        geom = case.geometry
        mesh = MeasurementMesh.regular(geom, 100, 100)
        meas = generate_measurements(case, mesh, noise_level=0.01, seed=42)
        tables = sensitivity_tables(geom, mesh, 12, 9, TR)
        far = PolyParams(phi=np.full(9, 1e5), theta=np.full(12, 1e5))
        _, _, report = solve(meas, geom, mesh, 12, 9,
                             ObjectiveConfig(alpha=alpha),
                             SolverConfig(epsilon=1e-14, max_iters=3000,
                                          init=far), tables=tables)
        assert report.status == "floor", report.iterations
        assert report.iterations <= 400
        assert report.final_cost == pytest.approx(report.cost_floor,
                                                  rel=1e-11)


# Why the audit cannot reject far points at 12x9 (ROADMAP items 2 and 7).
_FAR_AUDIT_AT_12X9 = (
    "the trials are standard normal in monomial coefficients, and at 12x9 "
    "their penalty term outweighs the data term (median |lhs| 1.5e12 "
    "against |rhs| 1.2e9 at the zero start; 3.2e2 against 4.1e4 at 6x5): "
    "the zero start, the minimiser plus 1 on theta[0] and twice the "
    "minimiser (costs 35.7, 94.6, 35.7 against 1e-4) all read mixed "
    "margins of +0.99, 'holds'")


class TestStationarityCheck:
    def test_holds_at_direct_minimizer(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        minimizer = ridge_solve(meas, cfg, tables)
        check = stationarity_check(minimizer, meas, cfg, tables)
        assert check.holds_mixed
        assert check.holds_symmetric

    def test_holds_at_converged_solver_minimizer(self, example_problem):
        # The condition is a property of minimizers, so the iteration must
        # run to depth; an early epsilon stop is not a minimizer and its
        # report may legitimately record a violation.
        geom, mesh, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        params, _, _ = solve(
            meas, geom, mesh, 6, 5, cfg,
            SolverConfig(epsilon=1e-12, max_iters=12_000), tables=tables)
        check = stationarity_check(params, meas, cfg, tables)
        assert check.holds_mixed
        assert check.holds_symmetric

    def test_trials_are_drawn_once_per_size(self, example_problem):
        # Every audit of one size reads one read-only draw, the rows of the
        # per-trial order (phi before theta) in the [theta | phi] layout.
        from heatsource import solver

        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        first = solver._stationarity_trials(tables.n_x, tables.n_t)
        check = stationarity_check(PolyParams.zeros(6, 5), meas, cfg, tables)
        assert solver._stationarity_trials(tables.n_x, tables.n_t) is first
        assert check == stationarity_check(PolyParams.zeros(6, 5), meas, cfg,
                                           tables)
        rng = np.random.default_rng(solver.STATIONARITY_SEED)
        for row in first:
            assert np.array_equal(row[6:], rng.standard_normal(5))
            assert np.array_equal(row[:6], rng.standard_normal(6))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0

    @pytest.mark.parametrize("n_x, n_t", [
        pytest.param(6, 5, id="6x5"),
        pytest.param(12, 9, id="12x9", marks=pytest.mark.xfail(
            strict=True, reason=_FAR_AUDIT_AT_12X9)),
    ])
    def test_violated_far_from_minimizer(self, example_problem, n_x, n_t):
        # Far from the minimizer the first-order condition must fail for
        # some trials, otherwise the check would be vacuous.
        geom, mesh, _, meas = example_problem
        tables = sensitivity_tables(geom, mesh, n_x, n_t, TR)
        cfg = ObjectiveConfig(alpha=1e-6)
        best = ridge_solve(meas, cfg, tables)
        shifted = best.theta.copy()
        shifted[0] += 1.0
        for far in (PolyParams.zeros(n_x, n_t),
                    PolyParams(phi=best.phi, theta=shifted),
                    PolyParams(phi=2.0 * best.phi, theta=2.0 * best.theta),
                    PolyParams(phi=np.full(n_t, 50.0),
                               theta=np.full(n_x, -40.0))):
            check = stationarity_check(far, meas, cfg, tables)
            assert not (check.holds_mixed and check.holds_symmetric), far


def _per_trial_stationarity(params, meas, cfg, tables, n_trials=20,
                            seed=20_240_817):
    """Reference audit: one trial at a time, phi drawn before theta."""
    rng = np.random.default_rng(seed)
    r_f, r_s = residuals(params, meas, tables)
    worst = [math.inf, math.inf]
    for _ in range(n_trials):
        trial_phi = rng.standard_normal(tables.n_t)
        trial_theta = rng.standard_normal(tables.n_x)
        d_phi = trial_phi - params.phi
        d_theta = trial_theta - params.theta
        v_f = tables.final_theta @ d_theta + tables.final_phi @ d_phi
        v_s = tables.sensor_theta @ d_theta + tables.sensor_phi @ d_phi
        lhs = 2.0 * cfg.alpha * (
            (tables.penalty_x @ trial_theta) @ (tables.penalty_x @ d_theta)
            + (tables.penalty_t @ trial_phi) @ (tables.penalty_t @ d_phi))
        for k, weight_s in enumerate((1.0, 2.0)):
            rhs = 2.0 * (r_f @ v_f) + weight_s * (r_s @ v_s)
            worst[k] = min(worst[k],
                           (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


class TestStationarityBatch:
    """The audit evaluates its trials as matrix products; the sums run in
    another order than one trial at a time, so the margins (normalized to
    order one) may differ by rounding, far below the 1e-8 slack.  The audit
    also forms its residual as ``rhs - M x`` in one product, the reference
    table by table; at the 6x5 minimiser with alpha = 1e-8, where the
    residual is a cancellation, the margins were measured to differ by
    8.9e-13 (both lie within 1.4e-12 of an extended-precision margin)."""

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-2])
    def test_matches_per_trial_loop(self, example_problem, poly_problem,
                                    alpha):
        cfg = ObjectiveConfig(alpha=alpha)
        rng = np.random.default_rng(31)
        _, _, tables, meas = example_problem
        _, _, poly_tables, _, poly_meas = poly_problem
        for meas, tables in ((meas, tables), (poly_meas, poly_tables)):
            minimizer = ridge_solve(meas, cfg, tables)
            nearby = PolyParams(
                phi=minimizer.phi + 1e-3 * rng.standard_normal(tables.n_t),
                theta=minimizer.theta)
            for params in (minimizer, nearby, PolyParams.zeros(tables.n_x,
                                                               tables.n_t)):
                check = stationarity_check(params, meas, cfg, tables)
                ref = _per_trial_stationarity(params, meas, cfg, tables)
                got = [check.worst_margin_mixed, check.worst_margin_symmetric]
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


class TestIterationTrace:
    def test_rows_layout(self):
        trace = IterationTrace()
        trace.append(5.0, 1.0, 2.0)
        trace.append(3.0, 0.5, 1.0, 0.1, 0.01)
        rows = list(trace.rows())
        assert rows[0][0] == 0 and rows[1][0] == 1
        assert rows[1][1] == 3.0
        assert len(rows[0]) == len(IterationTrace.HEADER)
        # one shared momentum and step, written once per block column
        for row, gamma, beta in zip(rows, (0.0, 0.1), (0.0, 0.01)):
            named = dict(zip(IterationTrace.HEADER, row))
            assert named["gamma_phi"] == named["gamma_theta"] == gamma
            assert named["beta_phi"] == named["beta_theta"] == beta
