import functools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from heatsource.errors import DomainError, ShapeMismatchError
from heatsource.kernels import TruncationPolicy
from heatsource.model import (Geometry, MeasurementMesh, PolyParams,
                              eval_u_final, eval_u_interior,
                              phi_response_history,
                              phi_response_profile, rod_tables,
                              sensitivity_tables, theta_response_history,
                              theta_response_profile)

TR = TruncationPolicy()
L = 2.0 * math.pi


@pytest.fixture(scope="module")
def geom():
    return Geometry(offset=-math.pi / 2, length=L, t_final=2.0, sensor=2.97)


@pytest.fixture(scope="module")
def mesh(geom):
    return MeasurementMesh.regular(geom, 100, 100)


@pytest.fixture(scope="module")
def fitted(geom, mesh):
    """Polynomial references for the closed-form case u = (sin x + 1) e^-t,
    plus their sampled sup residuals on dense grids."""
    phi = npoly.polyfit(mesh.t_nodes, -np.exp(-mesh.t_nodes), 8)
    theta = npoly.polyfit(mesh.x_nodes, 1.0 - np.cos(mesh.x_nodes), 11)
    params = PolyParams(phi=phi, theta=theta)
    ts = np.linspace(0.0, geom.t_final, 500)
    xs = np.linspace(0.0, L, 500)
    fit_f = np.max(np.abs(params.source_values(ts) + np.exp(-ts)))
    fit_u0 = np.max(np.abs(params.initial_values(xs) - (1.0 - np.cos(xs))))
    return params, fit_f, fit_u0


class TestGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            Geometry(offset=0.0, length=-1.0, t_final=1.0, sensor=0.5)
        with pytest.raises(DomainError):
            Geometry(offset=0.0, length=1.0, t_final=0.0, sensor=0.5)
        with pytest.raises(DomainError):
            Geometry(offset=0.0, length=1.0, t_final=1.0, sensor=1.5)

    def test_frames(self, geom):
        assert geom.sensor_shifted == pytest.approx(2.97 + math.pi / 2)
        assert geom.to_physical(geom.to_shifted(1.23)) == pytest.approx(1.23)


class TestMeasurementMesh:
    def test_regular(self, geom):
        m = MeasurementMesh.regular(geom, 10, 20)
        assert m.i_x == 10 and m.i_t == 20
        assert m.x_nodes[0] == 0.0 and m.x_nodes[-1] == geom.length
        assert m.t_nodes[0] == 0.0 and m.t_nodes[-1] == geom.t_final
        assert np.all(np.diff(m.x_nodes) > 0)
        assert m.x_interior.size == 10 and m.t_interior.size == 20

    def test_validation(self, geom):
        with pytest.raises(DomainError):
            MeasurementMesh.regular(geom, 0, 10)
        with pytest.raises(DomainError):
            MeasurementMesh(x_nodes=[0.0, 1.0, 0.5], t_nodes=[0.0, 1.0])
        with pytest.raises(DomainError):
            MeasurementMesh(x_nodes=[0.1, 1.0], t_nodes=[0.0, 1.0])
        with pytest.raises(ShapeMismatchError, match="at least two nodes"):
            MeasurementMesh(x_nodes=[0.0], t_nodes=[0.0, 1.0])


class TestForwardEvaluation:
    def test_zero_params_everywhere(self, geom):
        params = PolyParams.zeros(4, 3)
        for x in np.linspace(geom.offset, geom.offset + L, 7):
            assert eval_u_final(params, float(x), geom, TR) == 0.0
        for t in (0.1, 1.0, 2.0):
            assert eval_u_interior(params, t, geom, TR) == 0.0

    def test_linearity_in_coefficients(self, geom):
        rng = np.random.default_rng(5)
        params = PolyParams(phi=rng.standard_normal(4),
                            theta=rng.standard_normal(5))
        doubled = PolyParams(phi=2 * params.phi, theta=2 * params.theta)
        x = 1.1
        assert eval_u_final(doubled, x, geom, TR) == pytest.approx(
            2 * eval_u_final(params, x, geom, TR), rel=1e-13)
        assert eval_u_interior(doubled, 0.7, geom, TR) == pytest.approx(
            2 * eval_u_interior(params, 0.7, geom, TR), rel=1e-13)

    def test_superposition(self, geom):
        rng = np.random.default_rng(11)
        p = PolyParams(phi=rng.standard_normal(5), theta=rng.standard_normal(6))
        q = PolyParams(phi=rng.standard_normal(5), theta=rng.standard_normal(6))
        a, b = 0.37, -1.9
        combo = PolyParams(phi=a * p.phi + b * q.phi,
                           theta=a * p.theta + b * q.theta)
        for x in (-1.0, 0.4, 2.2):
            lhs = eval_u_final(combo, x, geom, TR)
            rhs = (a * eval_u_final(p, x, geom, TR)
                   + b * eval_u_final(q, x, geom, TR))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_final_profile_matches_analytic_solution(self, geom, fitted):
        params, fit_f, fit_u0 = fitted
        budget = fit_u0 + geom.t_final * fit_f + 1e-8
        for x in np.linspace(geom.offset, geom.offset + L, 15):
            got = eval_u_final(params, float(x), geom, TR)
            ref = (math.sin(x) + 1.0) * math.exp(-geom.t_final)
            assert abs(got - ref) < budget

    def test_interior_history_matches_analytic_solution(self, geom, fitted):
        params, fit_f, fit_u0 = fitted
        budget = fit_u0 + geom.t_final * fit_f + 1e-8
        probe = Geometry(offset=geom.offset, length=geom.length,
                         t_final=geom.t_final, sensor=math.pi)
        got = eval_u_interior(params, 1.0, probe, TR)
        assert abs(got - math.exp(-1.0)) < budget
        for t in np.linspace(0.05, 2.0, 9):
            got = eval_u_interior(params, float(t), probe, TR)
            ref = (math.sin(math.pi) + 1.0) * math.exp(-t)
            assert abs(got - ref) < budget

    def test_physical_boundaries_vanish(self, geom, fitted):
        params, _, _ = fitted
        assert eval_u_final(params, geom.offset, geom, TR) == 0.0
        right = geom.offset + geom.length
        assert abs(eval_u_final(params, right, geom, TR)) < 1e-12

    def test_domain_errors(self, geom):
        params = PolyParams.zeros(3, 2)
        with pytest.raises(DomainError):
            eval_u_final(params, geom.offset - 0.1, geom, TR)
        with pytest.raises(DomainError):
            eval_u_interior(params, 0.0, geom, TR)
        with pytest.raises(DomainError):
            eval_u_interior(params, geom.t_final + 0.1, geom, TR)
        for t in (0.0, -0.5):
            with pytest.raises(DomainError, match="positive"):
                theta_response_history(1.0, [0.5, t], L, 3, TR)
            with pytest.raises(DomainError, match="positive"):
                phi_response_profile([0.5, 1.0], t, L, 2, TR)


@pytest.mark.parametrize("build", [theta_response_profile,
                                   phi_response_profile])
@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_profile_time_must_be_positive(build, t):
    with pytest.raises(DomainError, match="t must be positive, got"):
        build([0.5, 1.0], t, L, 3, TR)


def test_source_response_respects_max_terms_cap():
    from heatsource.errors import TruncationWarning

    tight = TruncationPolicy(tol=1e-12, max_terms=50)
    with pytest.warns(TruncationWarning):
        phi_response_profile([1.0], 2.0, L, 12, tight)


def test_capped_table_layer_is_kept(cold_table_memo, monkeypatch):
    # A capped layer is kept like any other.  Its build warns once per
    # capped series: the final profiles and both histories hit the cap (the
    # theta profile needs 10 modes here).  A repeated call returns the kept
    # tables bit for bit, with no build and no warning; a fresh rod_tables
    # build warns four times again.
    import warnings

    from heatsource import model
    from heatsource.errors import TruncationWarning
    from heatsource.harness import get_case

    geom = get_case("example1").geometry
    mesh = MeasurementMesh.regular(geom, 100, 100)
    tight = TruncationPolicy(tol=1e-12, max_terms=8)
    with pytest.warns(TruncationWarning) as caught:
        first = sensitivity_tables(geom, mesh, 12, 9, tight)
    assert len(caught) == 4
    builds = []
    real_rod_tables = model.rod_tables

    def counting_rod_tables(*args, **kwargs):
        builds.append(args)
        return real_rod_tables(*args, **kwargs)

    monkeypatch.setattr(model, "rod_tables", counting_rod_tables)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = sensitivity_tables(geom, mesh, 12, 9, tight)
    assert caught == [] and builds == []
    for field in TestKeptLayers.FIELDS:
        a, b = getattr(again, field), getattr(first, field)
        assert np.array_equal(a, b), field
        assert np.array_equal(np.signbit(a), np.signbit(b)), field
    with pytest.warns(TruncationWarning) as caught:
        rod_tables(geom, mesh, 12, 9, tight)
    assert len(caught) == 4


@pytest.mark.parametrize("n_t", [48, 60])
def test_capped_source_series_stays_close(n_t):
    # With the default policy example1's phi series hits max_terms from
    # n_t = 48 on its 100x100 mesh.  The warning marks a conservative bound,
    # not a measured error: against a build with room for every mode, the
    # capped phi tables agree to 3.8e-15 (final) and 2.1e-15 (sensor) of
    # each column's largest magnitude at n_t = 48, and to 4.2e-14 and
    # 1.4e-14 at n_t = 60.
    from heatsource.errors import TruncationWarning
    from heatsource.harness import get_case

    geom = get_case("example1").geometry
    mesh = MeasurementMesh.regular(geom, 100, 100)
    with pytest.warns(TruncationWarning, match="cut at 10000 modes"):
        [capped] = rod_tables(geom, mesh, 3, n_t, TR).at_sensors(
            [geom.sensor])
    [full] = rod_tables(geom, mesh, 3, n_t,
                        TruncationPolicy(max_terms=40_000)).at_sensors(
        [geom.sensor])
    for field in ("final_phi", "sensor_phi"):
        a, b = getattr(capped, field), getattr(full, field)
        scale = np.abs(b).max(axis=0)
        assert np.all(np.abs(a - b).max(axis=0) <= 1e-12 * scale), field


class TestSourceResponseClosedForms:
    """Duhamel solutions for constant and linear sources, derived by hand
    from the steady state plus a decaying transient, pin the assembled
    source responses to machine precision."""

    @staticmethod
    def exact_constant_source(x, t, length):
        modes = np.arange(1, 4001, 2, dtype=float)
        lam = math.pi / length * modes
        return x * (length - x) / 2.0 - 4.0 / length * np.sum(
            np.sin(lam * x) * np.exp(-lam * lam * t) / lam**3)

    @staticmethod
    def exact_linear_source(x, t, length):
        modes = np.arange(1, 4001, 2, dtype=float)
        lam = math.pi / length * modes
        g1 = x * (length - x) / 2.0
        g2 = (x**4 - 2 * length * x**3 + length**3 * x) / 24.0
        return t * g1 - g2 + 4.0 / length * np.sum(
            np.sin(lam * x) * np.exp(-lam * lam * t) / lam**5)

    @pytest.mark.parametrize("length,t_values", [
        (L, (0.02, 0.5, 2.0)),
        (2.0, (0.01, 0.3, 1.0)),
    ])
    def test_constant_and_linear_sources(self, length, t_values):
        for t in t_values:
            for frac in (0.05, 0.5, 0.94):
                x = frac * length
                table = phi_response_profile([x], t, length, 2, TR)
                assert table[0, 0] == pytest.approx(
                    self.exact_constant_source(x, t, length), abs=1e-12)
                assert table[0, 1] == pytest.approx(
                    self.exact_linear_source(x, t, length), abs=1e-12)

    def test_profile_history_consistency(self):
        x = 0.77 * math.pi
        ts = np.array([0.02, 0.9, 2.0])
        hist = phi_response_history(x, ts, L, 9, TR)
        for j, t in enumerate(ts):
            prof = phi_response_profile([x], float(t), L, 9, TR)[0]
            np.testing.assert_allclose(hist[j], prof, rtol=1e-10, atol=1e-12)
        hist_theta = theta_response_history(x, ts, L, 12, TR)
        for j, t in enumerate(ts):
            prof = theta_response_profile([x], float(t), L, 12, TR)[0]
            np.testing.assert_allclose(hist_theta[j], prof, rtol=1e-10,
                                       atol=1e-12)


@pytest.fixture(scope="module")
def tables(geom, mesh):
    return sensitivity_tables(geom, mesh, 12, 9, TR)


class TestSensitivityTables:
    def test_shapes(self, tables, mesh):
        assert tables.final_theta.shape == (mesh.i_x, 12)
        assert tables.final_phi.shape == (mesh.i_x, 9)
        assert tables.sensor_theta.shape == (mesh.i_t, 12)
        assert tables.sensor_phi.shape == (mesh.i_t, 9)
        assert tables.penalty_x.shape == (mesh.i_x, 12)
        assert tables.penalty_t.shape == (mesh.i_t, 9)

    def test_boundary_rows_vanish(self, tables):
        # last spatial node is the right rod end
        assert np.all(tables.final_theta[-1] == 0.0)
        assert np.all(tables.final_phi[-1] == 0.0)

    def test_matches_pointwise_evaluation(self, geom, mesh, tables):
        idx = [0, 37, 99]
        for i in idx:
            x_phys = geom.to_physical(mesh.x_interior[i])
            for m in (0, 5, 11):
                basis = PolyParams.zeros(12, 9)
                basis.theta[m] = 1.0
                assert tables.final_theta[i, m] == pytest.approx(
                    eval_u_final(basis, float(x_phys), geom, TR),
                    rel=1e-12, abs=1e-13)
            for k in (0, 4, 8):
                basis = PolyParams.zeros(12, 9)
                basis.phi[k] = 1.0
                assert tables.final_phi[i, k] == pytest.approx(
                    eval_u_final(basis, float(x_phys), geom, TR),
                    rel=1e-12, abs=1e-13)

    def test_finite_difference_agreement(self, geom, mesh, tables):
        # Linear model: central differences are exact up to rounding.  The
        # base point is scaled per column so the model output stays O(1) and
        # the difference quotient keeps its digits.
        rng = np.random.default_rng(17)
        col_scale_theta = 1.0 / np.maximum(
            np.abs(tables.final_theta).max(axis=0), 1.0)
        col_scale_phi = 1.0 / np.maximum(
            np.abs(tables.final_phi).max(axis=0), 1.0)
        base = PolyParams(phi=rng.standard_normal(9) * col_scale_phi,
                          theta=rng.standard_normal(12) * col_scale_theta)
        h = 1e-6
        for i in (3, 50, 98):
            x_phys = float(geom.to_physical(mesh.x_interior[i]))
            t_j = float(mesh.t_interior[i])
            for m in (0, 6, 11):
                hp = base.copy()
                hp.theta[m] += h
                hm = base.copy()
                hm.theta[m] -= h
                fd = (eval_u_final(hp, x_phys, geom, TR)
                      - eval_u_final(hm, x_phys, geom, TR)) / (2 * h)
                ref = tables.final_theta[i, m]
                assert fd == pytest.approx(ref, rel=1e-6, abs=1e-9)
                fd = (eval_u_interior(hp, t_j, geom, TR)
                      - eval_u_interior(hm, t_j, geom, TR)) / (2 * h)
                assert fd == pytest.approx(tables.sensor_theta[i, m],
                                           rel=1e-6, abs=1e-9)
            for k in (0, 4, 8):
                hp = base.copy()
                hp.phi[k] += h
                hm = base.copy()
                hm.phi[k] -= h
                fd = (eval_u_final(hp, x_phys, geom, TR)
                      - eval_u_final(hm, x_phys, geom, TR)) / (2 * h)
                assert fd == pytest.approx(tables.final_phi[i, k],
                                           rel=1e-6, abs=1e-9)
                fd = (eval_u_interior(hp, t_j, geom, TR)
                      - eval_u_interior(hm, t_j, geom, TR)) / (2 * h)
                assert fd == pytest.approx(tables.sensor_phi[i, k],
                                           rel=1e-6, abs=1e-9)

    def test_demo_curve_shapes(self):
        # Midpoint-sensor demo geometry: curves finite and smooth, and the
        # accumulated response to a constant source nondecreasing in time.
        demo = Geometry(offset=0.0, length=L, t_final=2.0, sensor=math.pi)
        demo_mesh = MeasurementMesh.regular(demo, 100, 100)
        tabs = sensitivity_tables(demo, demo_mesh, 6, 5, TR)
        for table in (tabs.final_theta, tabs.final_phi,
                      tabs.sensor_theta, tabs.sensor_phi):
            assert np.all(np.isfinite(table))
            second = np.diff(table, n=2, axis=0)
            span = table.max(axis=0) - table.min(axis=0)
            assert np.all(np.abs(second).max(axis=0) <= 0.2 * (span + 1e-12))
        assert np.all(np.diff(tabs.sensor_phi[:, 0]) >= -1e-14)

    def test_params_shape_check(self, tables):
        with pytest.raises(ShapeMismatchError):
            tables.predict(PolyParams.zeros(3, 3))
        for bad in (np.zeros((2, 2)), []):  # not a nonempty 1-d vector
            with pytest.raises(ShapeMismatchError, match="phi must be"):
                PolyParams(phi=bad, theta=np.zeros(3))
            with pytest.raises(ShapeMismatchError, match="theta must be"):
                PolyParams(phi=np.zeros(2), theta=bad)


class TestRodTables:
    """The sensor-independent layer, contracted at a sensor, gives the same
    tables as a fresh build for that sensor."""

    SENSORS = (-1.34, -0.17, 0.99, 2.15, 2.97)
    FIELDS = ("final_theta", "final_phi", "sensor_theta", "sensor_phi",
              "penalty_x", "penalty_t")

    @pytest.mark.parametrize("n_x,n_t", [(6, 5), (12, 9)])
    def test_contraction_matches_a_fresh_build(self, geom, mesh, n_x, n_t):
        rod = rod_tables(geom.with_sensor(self.SENSORS[0]), mesh, n_x, n_t,
                         TR)
        for x_star, got in zip(self.SENSORS, rod.at_sensors(self.SENSORS)):
            fresh = sensitivity_tables(geom.with_sensor(x_star), mesh, n_x,
                                       n_t, TR)
            assert got.geom == fresh.geom
            for name in self.FIELDS:
                assert np.array_equal(getattr(got, name),
                                      getattr(fresh, name)), (x_star, name)

    def test_final_tables_include_the_left_end(self, geom, mesh):
        rod = rod_tables(geom, mesh, 6, 5, TR)
        [tables] = rod.at_sensors([geom.sensor])
        assert rod.final_theta.shape == (mesh.x_nodes.size, 6)
        assert rod.final_phi.shape == (mesh.x_nodes.size, 5)
        assert np.all(rod.final_theta[0] == 0.0)
        assert np.all(rod.final_phi[0] == 0.0)
        assert np.array_equal(rod.final_theta[1:], tables.final_theta)
        assert np.array_equal(rod.final_phi[1:], tables.final_phi)

    def test_empty_coefficient_count_rejected(self, geom, mesh):
        with pytest.raises(ShapeMismatchError, match="must be >= 1"):
            rod_tables(geom, mesh, 0, 2, TR)

    def test_sensor_outside_the_rod_rejected(self, geom, mesh):
        rod = rod_tables(geom, mesh, 3, 2, TR)
        with pytest.raises(DomainError):
            rod.at_sensors([geom.offset + geom.length + 0.1])
        with pytest.raises(DomainError):
            rod.at_sensors([geom.sensor, geom.offset - 0.1])

    @pytest.mark.filterwarnings("ignore::heatsource.errors.TruncationWarning")
    @pytest.mark.parametrize("length, last_finite", [(L, 157), (2.0, 196)])
    def test_final_tables_that_are_not_finite_raise(self, length,
                                                    last_finite):
        # The theta series overflow from n_x = 158 on example1's rod and
        # from 197 on the polynomial case's, below the moment-bound guard.
        rod_geom = Geometry(offset=0.0, length=length, t_final=2.0,
                            sensor=length / 3)
        small = MeasurementMesh.regular(rod_geom, 10, 10)
        [tables] = rod_tables(rod_geom, small, last_finite, 2,
                              TR).at_sensors([rod_geom.sensor])
        assert np.isfinite(tables.final_theta).all()
        assert np.isfinite(tables.sensor_theta).all()
        with pytest.raises(DomainError,
                           match=f"final-time response tables for "
                                 f"n_x={last_finite + 1}, n_t=2 are not "
                                 "finite"):
            rod_tables(rod_geom, small, last_finite + 1, 2, TR)

    @pytest.mark.filterwarnings("ignore::heatsource.errors.TruncationWarning")
    def test_history_tables_that_are_not_finite_raise(self, geom):
        # At n_t = 360 the final-time phi tables of example1 are finite but
        # its sensor histories are not.
        small = MeasurementMesh.regular(geom, 10, 10)
        rod = rod_tables(geom, small, 3, 360, TR)
        assert np.isfinite(rod.final_phi).all()
        with pytest.raises(DomainError,
                           match="sensor-history response tables for "
                                 "n_x=3, n_t=360 are not finite"):
            rod.at_sensors([geom.sensor])
        with pytest.raises(DomainError, match="sensor-history"):
            sensitivity_tables(geom, small, 3, 360, TR)


class TestKeptLayers:
    """sensitivity_tables keeps the layers of the last rod and mesh: the
    tables it returns equal fresh builds bit for bit, layout included, and
    share no writable memory with the caller or with each other."""

    FIELDS = ("final_theta", "final_phi", "sensor_theta", "sensor_phi",
              "penalty_x", "penalty_t")
    SHARED = ("final_theta", "final_phi", "penalty_x", "penalty_t")

    def test_scan_order_equals_fresh_builds(self, cold_table_memo,
                                            monkeypatch):
        # The call order of a sensor scan: per sensor, the 3x2 data tables
        # and two reconstruction sizes, on a new geometry and mesh object
        # each time; a second rod drops the first rod's layers, and the
        # first rod builds them again when it comes back.
        from heatsource import model
        from heatsource.harness import get_case

        stacks = []
        real_stack = model.exp_moment_stack

        def counting_stack(*args, **kwargs):
            stacks.append(args[0])
            return real_stack(*args, **kwargs)

        monkeypatch.setattr(model, "exp_moment_stack", counting_stack)
        sizes = ((3, 2), (6, 5), (12, 9))
        scan = [("example1", (-1.34, 0.99, 2.97)),
                ("polynomial", (0.3, 1.0, 1.7)),
                ("example1", (-0.17, 2.15, 2.97))]
        built = 0
        for name, sensors in scan:
            base = get_case(name).geometry
            used = set()
            for x_star in sensors:
                g = base.with_sensor(x_star)
                m = MeasurementMesh.regular(g, 50, 50)
                for n_x, n_t in sizes:
                    calls = len(stacks)
                    got = sensitivity_tables(g, m, n_x, n_t, TR)
                    built += len(stacks) - calls
                    used.add((n_x, n_t))
                    # The layers kept for this rod, read through the
                    # cache: the one just used is among them.
                    layers = model._rod_layers(
                        (g.offset, g.length, g.t_final,
                         m.x_nodes.tobytes(), m.t_nodes.tobytes()))
                    assert (n_x, n_t, TR) in layers
                    assert len(layers) <= len(used)
                    assert got.geom is g and got.mesh is m
                    assert (got.n_x, got.n_t, got.trunc) == (n_x, n_t, TR)
                    [want] = rod_tables(g, m, n_x, n_t, TR).at_sensors(
                        [x_star])
                    for field in self.FIELDS:
                        a, b = getattr(got, field), getattr(want, field)
                        key = (name, x_star, n_x, n_t, field)
                        assert np.array_equal(a, b), key
                        assert np.array_equal(np.signbit(a),
                                              np.signbit(b)), key
                        assert (a.flags.c_contiguous, a.flags.f_contiguous) \
                            == (b.flags.c_contiguous,
                                b.flags.f_contiguous), key
                    assert got.sensor_phi.flags.f_contiguous
        # One final-profile moment stack per rod visit and size.
        assert built == len(scan) * len(sizes)

    def test_shared_tables_are_read_only(self, geom, mesh):
        first = sensitivity_tables(geom, mesh, 6, 5, TR)
        second = sensitivity_tables(geom.with_sensor(0.99), mesh, 6, 5, TR)
        for tables in (first, second):
            for field in self.SHARED:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(tables, field)[0, 0] = 1.0
        # The histories are the caller's own.
        second.sensor_phi[0, 0] = 1.0
        assert first.sensor_phi[0, 0] != 1.0
        # Every layer, kept or not (sweep and sensitivity build their own),
        # has read-only tables on read-only copies of the nodes.
        rod = rod_tables(geom, mesh, 6, 5, TR)
        for array in [getattr(rod, field) for field in self.SHARED] + [
                rod.mesh.x_nodes, rod.mesh.t_nodes]:
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 1.0
        assert not np.shares_memory(rod.mesh.x_nodes, mesh.x_nodes)
        assert not np.shares_memory(rod.mesh.t_nodes, mesh.t_nodes)

    def test_writes_to_the_mesh_reach_no_kept_layer(self, cold_table_memo,
                                                    geom):
        # After the caller scales its mesh's times in place, the scaled
        # mesh and an unscaled twin each get the tables of a fresh build,
        # and the tables returned before keep their values.
        m = MeasurementMesh.regular(geom, 40, 40)
        before = sensitivity_tables(geom, m, 6, 5, TR)
        kept = {f: getattr(before, f).copy() for f in self.FIELDS}
        m.t_nodes[:] *= 0.5
        twin = MeasurementMesh.regular(geom, 40, 40)
        results = []
        for mesh_now in (twin, m, twin):
            got = sensitivity_tables(geom, mesh_now, 6, 5, TR)
            results.append(got)
            [fresh] = rod_tables(geom, mesh_now, 6, 5, TR).at_sensors(
                [geom.sensor])
            for field in self.FIELDS:
                assert np.array_equal(getattr(got, field),
                                      getattr(fresh, field)), field
        for field in self.FIELDS:
            assert np.array_equal(getattr(before, field), kept[field]), field
        assert not np.array_equal(results[0].sensor_phi,
                                  results[1].sensor_phi)

    def test_history_series_runs_once_per_size(self, cold_table_memo,
                                               monkeypatch):
        # Five one-sensor calls per size on one rod and mesh run the
        # small-argument series twice per size: once for the final-profile
        # moment stack and once for the kept phi history, whose series
        # every later sensor reuses.
        from heatsource import kernels
        from heatsource.harness import get_case

        runs = []
        real_series = kernels._exp_moment_series

        def counting_series(max_power, a, t):
            runs.append(max_power)
            return real_series(max_power, a, t)

        monkeypatch.setattr(kernels, "_exp_moment_series", counting_series)
        base = get_case("example1").geometry
        m = MeasurementMesh.regular(base, 200, 200)
        sizes = ((6, 5), (12, 9))
        sensors = (-1.34, -0.17, 0.99, 2.15, 2.97)
        got = {}
        for n_x, n_t in sizes:
            for x_star in sensors:
                got[n_x, n_t, x_star] = sensitivity_tables(
                    base.with_sensor(x_star), m, n_x, n_t, TR)
            assert runs.count(n_t - 1) == 2, runs
        assert len(runs) == 2 * len(sizes)
        monkeypatch.setattr(kernels, "_exp_moment_series", real_series)
        for (n_x, n_t, x_star), tables in got.items():
            g = base.with_sensor(x_star)
            [want] = rod_tables(g, m, n_x, n_t, TR).at_sensors([x_star])
            for field in self.FIELDS:
                a, b = getattr(tables, field), getattr(want, field)
                key = (n_x, n_t, x_star, field)
                assert np.array_equal(a, b), key
                assert np.array_equal(np.signbit(a), np.signbit(b)), key
                assert (a.flags.c_contiguous, a.flags.f_contiguous) \
                    == (b.flags.c_contiguous, b.flags.f_contiguous), key
            assert tables.sensor_phi.flags.f_contiguous

    def test_history_series_is_read_only_and_reused(self, geom, mesh,
                                                    monkeypatch):
        # The phi history passes one read-only memo (the series entries and
        # the J_0 entries off the row constants) to every call, and no J_p
        # buffer of the recurrence shares its memory, so two back-to-back
        # calls return the same bits.
        from heatsource import model

        seen = []
        real_rows = model.exp_moment_rows

        def recording_rows(max_power, lam_sq, t, small_series):
            seen.append(small_series)
            for p, moment in real_rows(max_power, lam_sq, t, small_series):
                for array in small_series:
                    assert not np.shares_memory(array, moment), p
                yield p, moment

        monkeypatch.setattr(model, "exp_moment_rows", recording_rows)
        rod = rod_tables(geom, mesh, 12, 9, TR)
        x = geom.sensor_shifted
        [first] = rod.phi_history([x])
        [second] = rod.phi_history([x])
        assert np.array_equal(first, second)
        assert np.array_equal(np.signbit(first), np.signbit(second))
        assert len(seen) == 2 and seen[0] is seen[1]
        small, series, starts, start_values = seen[0]
        assert small.size and series.shape == (9, small.size)
        assert starts.size and start_values.shape == starts.shape
        for array in seen[0]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_kept_history_runs_no_expm1(self, cold_table_memo, geom, mesh,
                                        monkeypatch):
        # The layer's build takes expm1 on its J_0 entries below 40 once;
        # a history call after it starts every row from the memo and
        # takes none, and its tables equal a fresh layer's bit for bit.
        calls = []
        real_expm1 = np.expm1

        def counting_expm1(*args, **kwargs):
            calls.append(np.size(args[0]))
            return real_expm1(*args, **kwargs)

        monkeypatch.setattr(np, "expm1", counting_expm1)
        rod = rod_tables(geom, mesh, 12, 9, TR)
        assert calls  # the final profile's stack and the history's memo
        calls.clear()
        x = geom.sensor_shifted
        [table] = rod.phi_history([x])
        [tables] = rod.at_sensors([geom.sensor])
        assert calls == []
        monkeypatch.undo()
        [fresh] = rod_tables(geom, mesh, 12, 9, TR).phi_history([x])
        assert table.tobytes() == fresh.tobytes()
        assert tables.sensor_phi.tobytes() == fresh.tobytes()


class TestPhiTruthOracle:
    """The source-response tables against ``oracles.phi_response_reference``
    (mpmath: the algebraic part of every mode summed in closed form, the
    damped part mode by mode), at four rows of the final profile and at
    three times of the history at the case's sensor.  Each column's error
    over those points is scaled by the larger of 1 and the column's
    largest magnitude: ``trunc.tol`` bounds the series' first neglected
    term absolutely, and a column's rounding grows with its size.

    Measured (worst over sizes, 100 and 1000 nodes): example1 4.6e-13 (the
    damped modes past the count, 6x5 history at the first of 1000 times;
    1.4e-14 elsewhere), polynomial 2.0e-13 (its columns stay below 1, so
    this is absolute: the 1/lam^9 tail the mode count leaves).  When the
    1/lam^7 tail was cut by the mode count instead of summed in closed
    form, example1 read 2.4e-13 at 12x9 and 2.6e-12 at 16x16, and
    polynomial 1.7e-13."""

    SIZES = ((6, 5), (12, 9), (16, 16))

    @pytest.mark.parametrize("nodes", [100, 1000])
    @pytest.mark.parametrize("name", ["example1", "polynomial"])
    def test_tables_within_the_truncation_tolerance(self, name, nodes):
        from heatsource.harness import get_case
        from oracles import phi_response_reference

        g = get_case(name).geometry
        mesh = MeasurementMesh.regular(g, nodes, nodes)
        xs, ts = mesh.x_interior, mesh.t_interior
        rows = (0, nodes // 3, 2 * nodes // 3, nodes - 2)
        times = (0, nodes // 2, nodes - 1)
        n_max = max(n_t for _, n_t in self.SIZES)
        final_ref = [phi_response_reference(xs[i], g.t_final, g.length, n_max)
                     for i in rows]
        history_ref = [phi_response_reference(g.sensor_shifted, ts[j],
                                              g.length, n_max)
                       for j in times]
        errors = {}
        for n_x, n_t in self.SIZES:
            [tables] = rod_tables(g, mesh, n_x, n_t, TR).at_sensors(
                [g.sensor])
            for kind, table, picked, refs in (
                    ("final", tables.final_phi, rows, final_ref),
                    ("history", tables.sensor_phi, times, history_ref)):
                scale = np.maximum(1.0, np.abs(table).max(axis=0))
                gap = np.abs(table[list(picked)]
                             - np.array(refs)[:, :n_t]).max(axis=0)
                errors[f"{kind} {n_x}x{n_t}"] = float((gap / scale).max())
        worst = max(errors.values())
        report = ", ".join(f"{key} {err:.1e}" for key, err in errors.items())
        assert worst <= TR.tol, f"{name}, {nodes} nodes: {report}"


@functools.cache
def _theta_references(name, nodes, n_max=16):
    """``oracles.theta_response_reference`` at TestPhiTruthOracle's points:
    the case's rod, the mesh, the final-profile rows with their references
    and the history times with theirs, for ``n_max`` columns."""
    from heatsource.harness import get_case
    from oracles import theta_response_reference

    g = get_case(name).geometry
    mesh = MeasurementMesh.regular(g, nodes, nodes)
    xs, ts = mesh.x_interior, mesh.t_interior
    rows = (0, nodes // 3, 2 * nodes // 3, nodes - 2)
    times = (0, nodes // 2, nodes - 1)
    final_ref = [theta_response_reference(xs[i], g.t_final, g.length, n_max)
                 for i in rows]
    history_ref = [theta_response_reference(g.sensor_shifted, ts[j],
                                            g.length, n_max)
                   for j in times]
    return g, mesh, (rows, np.array(final_ref)), (times, np.array(history_ref))


class TestThetaTruthOracle:
    """The initial-profile tables against
    ``oracles.theta_response_reference`` (mpmath: every mode's damped term
    with its sine moment integrated by parts) at TestPhiTruthOracle's
    points, with its column scaling and its bound, ``trunc.tol``.

    Measured (100 and 1000 nodes): 6x5 at most 1.6e-15; 12x9 1.2e-13
    (example1) and 2.8e-14 (polynomial); 16x16 6.8e-11 and 1.2e-11, above
    the bound.  The 16x16 error is the forward recurrence of
    ``kernels.sine_moment_stack`` at the first mode (lam_1 L = pi on both
    rods): on example1's rod its relative error is 1.7e-13 at p = 11,
    3.5e-12 at p = 13 and 9.5e-11 at p = 15, where modes 2 and up stay at
    most 2.3e-14.  Moments of Legendre polynomials through spherical
    Bessel functions would not run that recurrence."""

    @pytest.mark.parametrize("n_x, n_t", [
        (6, 5), (12, 9),
        pytest.param(16, 16, marks=pytest.mark.xfail(strict=True, reason=(
            "sine_moment_stack's forward recurrence at the first mode "
            "(relative error 1.7e-13 at p = 11, 3.5e-12 at p = 13, 9.5e-11 "
            "at p = 15 on example1's rod) puts the 16x16 tables 6.8e-11 "
            "(example1) and 1.2e-11 (polynomial) from the oracle")))])
    @pytest.mark.parametrize("nodes", [100, 1000])
    @pytest.mark.parametrize("name", ["example1", "polynomial"])
    def test_tables_within_the_truncation_tolerance(self, name, nodes, n_x,
                                                    n_t):
        g, mesh, final, history = _theta_references(name, nodes)
        [tables] = rod_tables(g, mesh, n_x, n_t, TR).at_sensors([g.sensor])
        errors = {}
        for kind, table, (picked, refs) in (
                ("final", tables.final_theta, final),
                ("history", tables.sensor_theta, history)):
            scale = np.maximum(1.0, np.abs(table).max(axis=0))
            gap = np.abs(table[list(picked)] - refs[:, :n_x]).max(axis=0)
            errors[kind] = float((gap / scale).max())
        report = ", ".join(f"{key} {err:.1e}" for key, err in errors.items())
        assert max(errors.values()) <= TR.tol, \
            f"{name}, {nodes} nodes, {n_x}x{n_t}: {report}"


class TestStreamedHistory:
    """The initial-profile history, built in reused storage, equals its
    out-of-place formula bit for bit; the memory a table build and a phi
    history hold stays bounded."""

    MESHES = (20, 25, 50, 100, 1000)
    SIZES = ((6, 5), (12, 9), (16, 16))

    def test_theta_history_equals_the_out_of_place_reference(self):
        # One sensor per call, then five in one call: the five share the
        # scratch of the decay-times-sine products, which must not leak
        # from one sensor's table into another's.
        from heatsource.harness import REFERENCE_SENSORS, get_case
        from heatsource.model import _theta_modes
        from oracles import theta_history_reference

        sensors = {"example1": REFERENCE_SENSORS,
                   "polynomial": (0.3, 0.7, 1.0, 1.25, 1.7)}
        checked = 0
        for name, positions in sensors.items():
            g = get_case(name).geometry
            xs = [x - g.offset for x in positions]
            for nodes in self.MESHES + (2000,):
                mesh = MeasurementMesh.regular(g, nodes, nodes)
                ts = mesh.t_interior
                for n_x, n_t in self.SIZES:
                    modes = _theta_modes(n_x, float(ts.min()), g.length, TR)
                    reference = theta_history_reference(ts, g.length, n_x,
                                                        modes)
                    rod = rod_tables(g, mesh, n_x, n_t, TR)
                    for batch in ([xs[-1]], xs):
                        for x, got in zip(batch, rod.theta_history(batch)):
                            want = reference(x)
                            key = (name, nodes, n_x, len(batch), x)
                            assert np.array_equal(got, want), key
                            assert got.flags.c_contiguous \
                                == want.flags.c_contiguous, key
                            checked += 1
        assert checked == 2 * 6 * 3 * (1 + 5)

    @pytest.mark.parametrize("n_theta", [1, 5, 12])
    def test_theta_history_around_the_exp_underflow(self, n_theta):
        # With L = pi, lam = n exactly: t lam^2 lands on 745.9, 746 and
        # 746.1 at modes 1, 2 and 4, beside early times that keep many
        # modes.  Times unsorted and repeated; exp is skipped from 746 on.
        # At t = 744 only mode 1 is left, with exp(-744) a subnormal.
        from heatsource.model import _theta_modes
        from oracles import theta_history_reference

        length = math.pi
        edges = np.array([745.9, 746.0, 746.1])
        ts = np.concatenate([edges / 16.0, [0.05], edges, [2.0, 0.05],
                             edges / 4.0, [746.0 / 16.0, 1e-3, 746.0, 744.0]])
        modes = _theta_modes(n_theta, float(ts.min()), length, TR)
        lam_sq = ((math.pi / length) * modes) ** 2
        products = set(np.multiply.outer(ts, lam_sq).ravel().tolist())
        assert set(edges.tolist()) <= products
        reference = theta_history_reference(ts, length, n_theta, modes)
        for x in (0.0, 0.4, 1.0, length / 2.0, length):
            got = theta_response_history(x, ts, length, n_theta, TR)
            want = reference(x)
            assert np.array_equal(got, want), (n_theta, x)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            if 0.0 < x < length:
                assert np.any(got[-1] != 0.0)
        # A time at which every mode has underflowed gives exact zeros.
        assert np.all(theta_response_history(0.4, [746.0, 1e6], length,
                                             n_theta, TR) == 0.0)

    @staticmethod
    def _traced_peak(name, nodes, n_x, n_t):
        import tracemalloc

        from heatsource.harness import get_case

        g = get_case(name).geometry
        mesh = MeasurementMesh.regular(g, nodes, nodes)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sensitivity_tables(g, mesh, n_x, n_t, TR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_traced_peak_of_a_table_build(self, cold_table_memo):
        # example1, 12x9, 2000 nodes: the stacked build peaked at 63.8 MB,
        # the streamed one with whole-mesh temporaries at 22.7 MB.
        peak = self._traced_peak("example1", 2000, 12, 9)
        assert peak <= 12e6, peak / 1e6

    def test_traced_peak_of_a_forward_build(self, cold_table_memo):
        # The tables of `heatsource forward` (polynomial, 2x3, 4000 nodes)
        # peaked at 14.2 MB with whole-mesh theta-history temporaries.
        peak = self._traced_peak("polynomial", 4000, 2, 3)
        assert peak <= 9e6, peak / 1e6

    def test_phi_history_holds_no_times_by_modes_array(self):
        # The phi history of an example1 12x9 layer at 1000 nodes keeps its
        # small-argument series (7521 entries, 0.60 MB); its moment stack
        # would take 9 x 88 modes x 1000 times, about 6.3 MB.
        import tracemalloc

        from heatsource.harness import get_case
        from heatsource.model import _phi_history

        g = get_case("example1").geometry
        ts = MeasurementMesh.regular(g, 1000, 1000).t_interior
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            history = _phi_history(ts, g.length, 9, TR)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert callable(history)
        assert held < 1e6, held / 1e6


class TestDirectionResponse:
    """The linear model evaluated on a coefficient direction gives the
    homogeneous perturbation response."""

    def test_zero_direction(self, geom):
        d = PolyParams.zeros(5, 4)
        assert eval_u_final(d, 1.0, geom, TR) == 0.0
        assert eval_u_interior(d, 0.5, geom, TR) == 0.0

    def test_unit_vector_equals_sensitivity(self, geom, mesh):
        tables = sensitivity_tables(geom, mesh, 6, 5, TR)
        d = PolyParams.zeros(6, 5)
        d.phi[2] = 1.0
        i = 44
        x_phys = float(geom.to_physical(mesh.x_interior[i]))
        got = eval_u_final(d, x_phys, geom, TR)
        assert got == pytest.approx(tables.final_phi[i, 2], rel=1e-12)

    def test_line_update_identity(self, geom):
        rng = np.random.default_rng(23)
        params = PolyParams(phi=rng.standard_normal(5) * 1e-2,
                            theta=rng.standard_normal(6) * 1e-4)
        d = PolyParams(phi=rng.standard_normal(5) * 1e-2,
                       theta=np.zeros(6))
        beta = 0.731
        moved = PolyParams(phi=params.phi - beta * d.phi, theta=params.theta)
        x = 1.9
        lhs = eval_u_final(moved, x, geom, TR)
        rhs = (eval_u_final(params, x, geom, TR)
               - beta * eval_u_final(d, x, geom, TR))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_perturbation_solution_structure(self, geom, mesh):
        # The difference of two model states is the homogeneous response to
        # the parameter difference, sampled at every mesh node.
        tables = sensitivity_tables(geom, mesh, 6, 5, TR)
        rng = np.random.default_rng(29)
        scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
        p = PolyParams(phi=rng.standard_normal(5),
                       theta=rng.standard_normal(6) * scale_theta)
        p_star = PolyParams(phi=rng.standard_normal(5),
                            theta=rng.standard_normal(6) * scale_theta)
        diff = PolyParams(phi=p.phi - p_star.phi, theta=p.theta - p_star.theta)
        u_f_p, u_s_p = tables.predict(p)
        u_f_q, u_s_q = tables.predict(p_star)
        v_f = tables.final_theta @ diff.theta + tables.final_phi @ diff.phi
        v_s = tables.sensor_theta @ diff.theta + tables.sensor_phi @ diff.phi
        np.testing.assert_allclose(u_f_p - u_f_q, v_f, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(u_s_p - u_s_q, v_s, rtol=1e-9, atol=1e-10)
