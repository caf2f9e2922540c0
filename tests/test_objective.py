import ast
import math
from pathlib import Path

import numpy as np
import pytest

import heatsource
from heatsource.errors import ShapeMismatchError, SingularSystemError
from heatsource.kernels import TruncationPolicy
from heatsource.model import (Geometry, MeasurementMesh, PolyParams,
                              eval_u_final, eval_u_interior,
                              sensitivity_tables)
from heatsource.objective import (Measurements, ObjectiveConfig, cost,
                                  cost_floor, gradient, ridge_solve,
                                  stacked_system)
from oracles import (blockwise_cost, blockwise_gradient,
                     stacked_system_reference, svd_cost_floor)

TR = TruncationPolicy()


@pytest.fixture(scope="module")
def poly_problem():
    """Small, well-scaled problem; data generated from known coefficients."""
    geom = Geometry(offset=0.0, length=2.0, t_final=1.0, sensor=1.25)
    mesh = MeasurementMesh.regular(geom, 40, 40)
    tables = sensitivity_tables(geom, mesh, 3, 2, TR)
    truth = PolyParams(phi=np.array([1.0, 1.0]), theta=np.array([0.0, 2.0, -1.0]))
    u_f, u_s = tables.predict(truth)
    meas = Measurements(u_f=u_f, u_star=u_s)
    return geom, mesh, tables, truth, meas


@pytest.fixture(scope="module")
def example_problem():
    geom = Geometry(offset=-math.pi / 2, length=2 * math.pi, t_final=2.0,
                    sensor=2.97)
    mesh = MeasurementMesh.regular(geom, 100, 100)
    tables = sensitivity_tables(geom, mesh, 12, 9, TR)
    x_phys = geom.to_physical(mesh.x_interior)
    meas = Measurements(
        u_f=(np.sin(x_phys) + 1.0) * np.exp(-geom.t_final),
        u_star=(np.sin(geom.sensor) + 1.0) * np.exp(-mesh.t_interior),
    )
    return geom, mesh, tables, meas


class TestCost:
    def test_exact_params_zero_residual(self, poly_problem):
        _, _, tables, truth, meas = poly_problem
        assert cost(truth, meas, ObjectiveConfig(alpha=0.0), tables) <= 1e-12

    def test_zero_params_pure_data_terms(self, poly_problem):
        _, _, tables, _, meas = poly_problem
        zero = PolyParams.zeros(3, 2)
        expected = float(meas.u_f @ meas.u_f + meas.u_star @ meas.u_star)
        got = cost(zero, meas, ObjectiveConfig(alpha=0.0), tables)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_alpha_scaling(self, poly_problem):
        _, mesh, tables, truth, meas = poly_problem
        alpha = 0.37
        base = cost(truth, meas, ObjectiveConfig(alpha=alpha), tables)
        doubled = cost(truth, meas, ObjectiveConfig(alpha=2 * alpha), tables)
        # independent recomputation of the penalty sums from raw samples
        pen_x = sum(truth.initial_values(x) ** 2 for x in mesh.x_interior)
        pen_t = sum(truth.source_values(t) ** 2 for t in mesh.t_interior)
        assert doubled - base == pytest.approx(alpha * (pen_x + pen_t),
                                               rel=1e-12)

    def test_shape_mismatch(self, poly_problem):
        _, _, tables, _, meas = poly_problem
        with pytest.raises(ShapeMismatchError):
            cost(PolyParams.zeros(4, 4), meas, ObjectiveConfig(), tables)
        bad = Measurements(u_f=meas.u_f[:-1], u_star=meas.u_star)
        with pytest.raises(ShapeMismatchError):
            cost(PolyParams.zeros(3, 2), bad, ObjectiveConfig(), tables)
        bad = Measurements(u_f=meas.u_f, u_star=meas.u_star[:-1])
        with pytest.raises(ShapeMismatchError, match="u_star has"):
            bad.check_against(tables)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6])
    def test_cost_of_a_12x9_minimiser_matches_exact_arithmetic(
            self, example_problem, alpha):
        # Noiseless example1 data leave a small residual, and the double
        # product M x (monomials of x up to 2 pi) rounds by eps |M| |x|
        # per row: the cost so formed read 3.6e-10 and 3.6e-11 off
        # (2.7e-9 and 7.5e-11 on earlier tables).  Formed in extended
        # precision it reads 1.9e-13 and 7e-15 off.  Reference: mpmath at
        # 40 digits on the same double inputs.
        import mpmath as mp

        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=alpha)
        params = ridge_solve(meas, cfg, tables)
        stacked, rhs = stacked_system(meas, cfg, tables)
        x = np.concatenate([params.theta, params.phi])
        with mp.workdps(40):
            want = mp.fsum(
                (mp.mpf(b) - mp.fsum(mp.mpf(m) * mp.mpf(c)
                                     for m, c in zip(row, x))) ** 2
                for row, b in zip(stacked, rhs))
        got = cost(params, meas, cfg, tables)
        assert abs(got - float(want)) <= 1e-12 * float(want), (
            got / float(want) - 1.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(alpha=-1e-9)
        assert ObjectiveConfig(alpha=0.0).alpha == 0.0

    def test_measurements_must_be_finite(self):
        with pytest.raises(ValueError):
            Measurements(u_f=np.array([1.0, np.nan]), u_star=np.ones(3))
        with pytest.raises(ValueError):
            Measurements(u_f=np.ones(2), u_star=np.array([np.inf, 0.0]))


class TestGradient:
    def test_zero_at_exact_params(self, poly_problem):
        _, _, tables, truth, meas = poly_problem
        g_phi, g_theta = gradient(truth, meas, ObjectiveConfig(alpha=0.0),
                                  tables)
        assert np.max(np.abs(g_phi)) <= 1e-8
        assert np.max(np.abs(g_theta)) <= 1e-8

    @pytest.mark.parametrize("problem", ["poly_problem", "example_problem"])
    def test_matches_central_differences(self, problem, request):
        fixture = request.getfixturevalue(problem)
        tables, meas = fixture[2], fixture[-1]
        cfg = ObjectiveConfig(alpha=1e-6)
        rng = np.random.default_rng(31)
        scale_theta = 1.0 / np.maximum(
            np.abs(tables.final_theta).max(axis=0), 1.0)
        scale_phi = 1.0 / np.maximum(np.abs(tables.final_phi).max(axis=0), 1.0)
        for _ in range(20):
            params = PolyParams(
                phi=rng.standard_normal(tables.n_t) * scale_phi,
                theta=rng.standard_normal(tables.n_x) * scale_theta,
            )
            g_phi, g_theta = gradient(params, meas, cfg, tables)
            c0 = cost(params, meas, cfg, tables)
            # Per-entry step sized against the local slope so the quadratic
            # difference quotient keeps its significant digits.
            for block, grads in (("phi", g_phi), ("theta", g_theta)):
                vec = getattr(params, block)
                for idx in range(vec.size):
                    slope = abs(grads[idx])
                    h = 1e-6 * (1.0 + c0) / (1.0 + slope)
                    plus = params.copy()
                    getattr(plus, block)[idx] += h
                    minus = params.copy()
                    getattr(minus, block)[idx] -= h
                    fd = (cost(plus, meas, cfg, tables)
                          - cost(minus, meas, cfg, tables)) / (2 * h)
                    assert fd == pytest.approx(
                        grads[idx], rel=1e-6,
                        abs=1e-6 * (1.0 + abs(grads).max())), \
                        f"{block}[{idx}]"

    def test_normal_equations_action_on_zero_data(self, poly_problem):
        # With zero measurements and alpha 0, the gradient is twice the
        # normal-equations action; the design matrix is assembled here
        # independently from pointwise forward evaluations.
        geom, mesh, tables, truth, _ = poly_problem
        zero_meas = Measurements(u_f=np.zeros(mesh.i_x),
                                 u_star=np.zeros(mesh.i_t))
        g_phi, g_theta = gradient(truth, zero_meas,
                                  ObjectiveConfig(alpha=0.0), tables)
        n_x, n_t = 3, 2
        cols = []
        for m in range(n_x):
            e = PolyParams.zeros(n_x, n_t)
            e.theta[m] = 1.0
            cols.append([eval_u_final(e, float(geom.to_physical(x)), geom, TR)
                         for x in mesh.x_interior]
                        + [eval_u_interior(e, float(t), geom, TR)
                           for t in mesh.t_interior])
        for k in range(n_t):
            e = PolyParams.zeros(n_x, n_t)
            e.phi[k] = 1.0
            cols.append([eval_u_final(e, float(geom.to_physical(x)), geom, TR)
                         for x in mesh.x_interior]
                        + [eval_u_interior(e, float(t), geom, TR)
                           for t in mesh.t_interior])
        design = np.array(cols).T
        z = np.concatenate([truth.theta, truth.phi])
        action = 2.0 * design.T @ (design @ z)
        np.testing.assert_allclose(
            np.concatenate([g_theta, g_phi]), action, rtol=1e-9, atol=1e-12)

    def test_convex_along_segments(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        rng = np.random.default_rng(41)
        scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
        scale_phi = 1.0 / np.abs(tables.final_phi).max(axis=0)
        for _ in range(10):
            base = PolyParams(phi=rng.standard_normal(9) * scale_phi,
                              theta=rng.standard_normal(12) * scale_theta)
            step = PolyParams(phi=rng.standard_normal(9) * scale_phi,
                              theta=rng.standard_normal(12) * scale_theta)
            values = []
            for s in np.linspace(-1.0, 1.0, 9):
                moved = PolyParams(phi=base.phi + s * step.phi,
                                   theta=base.theta + s * step.theta)
                values.append(cost(moved, meas, cfg, tables))
            second = np.diff(values, n=2)
            scale = 1.0 + max(abs(v) for v in values)
            assert np.all(second >= -1e-10 * scale)


class TestRidgeSolve:
    def test_recovers_generating_params(self, poly_problem):
        _, _, tables, truth, meas = poly_problem
        sol = ridge_solve(meas, ObjectiveConfig(alpha=0.0), tables)
        np.testing.assert_allclose(sol.phi, truth.phi, atol=1e-9)
        np.testing.assert_allclose(sol.theta, truth.theta, atol=1e-9)

    def test_stationarity_of_minimizer(self, example_problem):
        _, _, tables, meas = example_problem
        cfg = ObjectiveConfig(alpha=1e-6)
        sol = ridge_solve(meas, cfg, tables)
        g_phi, g_theta = gradient(sol, meas, cfg, tables)
        g0_phi, g0_theta = gradient(PolyParams.zeros(12, 9), meas, cfg, tables)
        scale = 1.0 + max(np.abs(g0_phi).max(), np.abs(g0_theta).max())
        assert max(np.abs(g_phi).max(), np.abs(g_theta).max()) <= 1e-8 * scale

    def test_large_alpha_kills_params(self, poly_problem):
        _, _, tables, _, meas = poly_problem
        sol = ridge_solve(meas, ObjectiveConfig(alpha=1e6), tables)
        assert np.max(np.abs(sol.phi)) < 1e-4
        assert np.max(np.abs(sol.theta)) < 1e-4
        c = cost(sol, meas, ObjectiveConfig(alpha=0.0), tables)
        data_terms = float(meas.u_f @ meas.u_f + meas.u_star @ meas.u_star)
        assert c == pytest.approx(data_terms, rel=1e-3)

    def test_singular_when_unregularized_and_rank_deficient(
            self, example_problem):
        # Twelve plus nine monomial columns on this geometry fall below
        # working-precision rank; the unregularized solve must refuse.
        _, _, tables, meas = example_problem
        with pytest.raises(SingularSystemError):
            ridge_solve(meas, ObjectiveConfig(alpha=0.0), tables)

    def test_reference_error_scales(self, example_problem):
        # Plausibility anchor: with nearly vanishing regularization the
        # direct solve must land at the milli-scale source error and
        # centi-scale initial-profile error of the reference table.
        geom, mesh, tables, meas = example_problem
        sol = ridge_solve(meas, ObjectiveConfig(alpha=1e-10), tables)
        f_err = -np.exp(-mesh.t_nodes) - sol.source_values(mesh.t_nodes)
        e_f = math.sqrt(float(f_err @ f_err) / mesh.i_t)
        u0_err = (np.sin(geom.to_physical(mesh.x_nodes)) + 1.0
                  - sol.initial_values(mesh.x_nodes))
        e_u0 = math.sqrt(float(u0_err @ u0_err) / mesh.i_x)
        assert 1e-4 < e_f < 2e-2
        assert 1e-3 < e_u0 < 9e-2


class TestCostFloor:
    SENSORS = (-1.34, -0.17, 0.99, 2.15, 2.97)

    @staticmethod
    def _systems(n_x, n_t, sensors):
        from heatsource.harness import generate_measurements, get_case
        from heatsource.model import rod_tables

        case = get_case("example1")
        mesh = MeasurementMesh.regular(case.geometry, 100, 100)
        layer = rod_tables(case.geometry, mesh, n_x, n_t, TR)
        for x_star, tables in zip(sensors, layer.at_sensors(sensors)):
            for noise in (0.0, 0.01):
                meas = generate_measurements(case.with_sensor(x_star), mesh,
                                             noise_level=noise, seed=42)
                for alpha in (1e-10, 1e-6, 1e-2):
                    cfg = ObjectiveConfig(alpha=alpha)
                    yield (x_star, noise, alpha), meas, cfg, tables

    def test_matches_full_rank_svd_floor_at_6x5(self):
        # Worst measured: 1.7e-11 (x*=2.97, noiseless, alpha=1e-10).
        for key, meas, cfg, tables in self._systems(6, 5, self.SENSORS):
            stacked, rhs = stacked_system(meas, cfg, tables)
            floor = cost_floor(stacked, rhs)
            assert floor == pytest.approx(svd_cost_floor(stacked, rhs),
                                          rel=1e-10), key

    def test_agrees_with_svd_floor_to_ppm_at_12x9(self):
        # The monomial 12x9 system has condition number ~7e13, so a
        # rounding-level change of M turns its column space enough to move
        # the floor: QR and SVD agree only to 7.5e-6 (x*=2.97, noiseless,
        # alpha=1e-10), not to the 1e-11 of 6x5.
        for key, meas, cfg, tables in self._systems(12, 9, (2.97,)):
            stacked, rhs = stacked_system(meas, cfg, tables)
            floor = cost_floor(stacked, rhs)
            assert floor == pytest.approx(svd_cost_floor(stacked, rhs),
                                          rel=1e-5), key

    def test_no_candidate_costs_less_at_6x5(self):
        # Up to the rounding of evaluating the cost near the floor: the
        # solver's floor_tol.  (At 12x9 the floor itself is uncertain to
        # ~1e-5 relative, see above.)
        rng = np.random.default_rng(5)
        n_x, n_t = 6, 5
        for key, meas, cfg, tables in self._systems(n_x, n_t, self.SENSORS):
            stacked, rhs = stacked_system(meas, cfg, tables)
            floor = cost_floor(stacked, rhs)
            nu = (np.finfo(float).eps * math.sqrt(rhs.size)
                  * np.linalg.norm(rhs))
            floor_tol = floor + 8.0 * math.sqrt(floor) * nu + nu * nu
            best = ridge_solve(meas, cfg, tables)
            candidates = [best] + [
                PolyParams(phi=best.phi + 1e-6 * rng.standard_normal(n_t),
                           theta=best.theta + 1e-6 * rng.standard_normal(n_x))
                for _ in range(5)]
            for params in candidates:
                assert cost(params, meas, cfg, tables) >= 2.0 * floor \
                    - floor_tol, key


def _system_grid():
    """216 systems: both cases at each of their default sensors, 20/100/1000
    nodes, 6x5, 12x9 and 16x16 coefficients, and four alphas."""
    from heatsource.harness import (default_sensors, generate_measurements,
                                    get_case)
    from heatsource.model import rod_tables

    for name in ("example1", "polynomial"):
        case = get_case(name)
        sensors = default_sensors(case)
        for nodes in (20, 100, 1000):
            mesh = MeasurementMesh.regular(case.geometry, nodes, nodes)
            for n_x, n_t in ((6, 5), (12, 9), (16, 16)):
                layer = rod_tables(case.geometry, mesh, n_x, n_t, TR)
                for x_star, tables in zip(sensors, layer.at_sensors(sensors)):
                    meas = generate_measurements(case.with_sensor(x_star),
                                                 mesh)
                    for alpha in (0.0, 1e-10, 1e-6, 1e-2):
                        key = (name, nodes, n_x, n_t, x_star, alpha)
                        yield key, meas, ObjectiveConfig(alpha=alpha), tables


class TestStackedSystem:
    def test_equals_the_block_construction(self):
        count = 0
        for key, meas, cfg, tables in _system_grid():
            stacked, rhs = stacked_system(meas, cfg, tables)
            ref_stacked, ref_rhs = stacked_system_reference(meas, cfg, tables)
            assert np.array_equal(stacked, ref_stacked), key
            assert np.array_equal(np.signbit(stacked),
                                  np.signbit(ref_stacked)), key
            assert np.array_equal(rhs, ref_rhs), key
            assert stacked.flags.c_contiguous and rhs.flags.c_contiguous, key
            count += 1
        assert count == 216


class TestBlockwiseReference:
    """``cost`` and ``gradient`` evaluate the stacked system; the blockwise
    formulas sum the same terms table by table, in another order.  Errors
    are in units of the rounding scale of ``r = rhs - M x``: ``S = ||rhs| +
    |M||x||`` for the cost and ``|M|^T (|rhs| + |M||x|)`` per gradient
    entry.  Measured worst over the grid, at zero, at a standard-normal
    point and at the ridge_solve minimiser: 3.4 eps S^2 for the cost and
    197 eps per gradient entry, both at the standard-normal point on the
    1000-node 6x5 example1 systems.  The bounds sit about 10x above."""

    def test_cost_and_gradient_match_blockwise_formulas(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(3)
        for key, meas, cfg, tables in _system_grid():
            n_x, n_t = tables.n_x, tables.n_t
            points = [PolyParams.zeros(n_x, n_t),
                      PolyParams(phi=rng.standard_normal(n_t),
                                 theta=rng.standard_normal(n_x))]
            try:
                points.append(ridge_solve(meas, cfg, tables))
            except SingularSystemError:  # alpha = 0 and rank deficient
                pass
            stacked, rhs = stacked_system(meas, cfg, tables)
            for params in points:
                x = np.concatenate([params.theta, params.phi])
                scale = np.abs(rhs) + np.abs(stacked) @ np.abs(x)
                bound = 35.0 * eps * float(scale @ scale)
                assert abs(cost(params, meas, cfg, tables)
                           - blockwise_cost(params, meas, cfg, tables)) \
                    <= bound, key
                got = np.concatenate(gradient(params, meas, cfg, tables))
                want = np.concatenate(
                    blockwise_gradient(params, meas, cfg, tables))
                entry_scale = np.abs(stacked).T @ scale
                entry_scale = np.concatenate([entry_scale[n_x:],
                                              entry_scale[:n_x]])
                assert np.all(np.abs(got - want)
                              <= 2000.0 * eps * entry_scale), key


class TestObjectiveStructure:
    def test_penalty_tables_read_only_by_model_and_stacked_system(self):
        # The objective's weighting lives in stacked_system alone; any other
        # reader of the penalty tables would be a second definition of it.
        names = {"penalty_x", "penalty_t"}
        readers = set()
        for path in sorted(Path(heatsource.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                for node in ast.walk(stmt):
                    if ((isinstance(node, ast.Attribute) and node.attr in names)
                            or (isinstance(node, ast.Constant)
                                and node.value in names)):
                        readers.add((path.name, getattr(stmt, "name", None)))
        outside = {r for r in readers if r[0] != "model.py"}
        assert outside == {("objective.py", "stacked_system")}
