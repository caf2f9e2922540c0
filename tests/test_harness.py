import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from heatsource.harness import (CASES, SweepCell, default_sweep_cells,
                                emit_sensitivity_data, generate_measurements,
                                get_case, invert_case, rmse_report,
                                sensitivity_demo_geometry, sweep)
from heatsource.kernels import TruncationPolicy
from heatsource.model import MeasurementMesh, PolyParams, sensitivity_tables
from heatsource.objective import ObjectiveConfig
from heatsource.solver import SolverConfig
from oracles import rmse_reference

TR = TruncationPolicy()
mp.mp.dps = 30


@pytest.fixture(scope="module")
def example1():
    return get_case("example1")


@pytest.fixture(scope="module")
def mesh(example1):
    return MeasurementMesh.regular(example1.geometry, 100, 100)


class TestCases:
    def test_registry(self):
        assert set(CASES) == {"example1", "polynomial"}
        with pytest.raises(KeyError):
            get_case("missing")

    def test_initial_profile_vanishes_at_both_ends(self):
        for name in CASES:
            case = get_case(name)
            geom = case.geometry
            left = case.exact_u0(geom.offset)
            right = case.exact_u0(geom.offset + geom.length)
            assert abs(float(left)) < 1e-12
            assert abs(float(right)) < 1e-12

    def test_example1_field_solves_the_heat_equation(self, example1):
        # Residual of u_t - u_xx - F at random interior points, with the
        # field differentiated in high precision (spacing 1e-5).
        geom = example1.geometry

        def u(x, t):
            return (mp.sin(x) + 1) * mp.e ** (-t)

        rng = np.random.default_rng(55)
        h = mp.mpf("1e-5")
        worst = 0.0
        for _ in range(100):
            x = mp.mpf(rng.uniform(geom.offset + 0.1,
                                   geom.offset + geom.length - 0.1))
            t = mp.mpf(rng.uniform(0.1, geom.t_final))
            u_t = (u(x, t + h) - u(x, t - h)) / (2 * h)
            u_xx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / (h * h)
            res = u_t - u_xx - mp.mpf(float(example1.exact_F(float(t))))
            worst = max(worst, abs(float(res)))
            # tie the test field to the shipped callable
            assert float(u(x, t)) == pytest.approx(
                float(example1.exact_u(float(x), float(t))), rel=1e-12)
        assert worst < 1e-8

    def test_fit_params_reference(self, example1, mesh):
        params, fit_f, fit_u0 = example1.fit_params(mesh, 12, 9)
        assert params.n_x == 12 and params.n_t == 9
        assert 0.0 < fit_f < 1e-6
        assert 0.0 < fit_u0 < 1e-4


class TestGenerateMeasurements:
    def test_example1_samples_exact_field(self, example1, mesh):
        meas = generate_measurements(example1, mesh, noise_level=0.0)
        geom = example1.geometry
        x_phys = geom.to_physical(mesh.x_interior)
        np.testing.assert_allclose(
            meas.u_f, (np.sin(x_phys) + 1.0) * np.exp(-2.0), rtol=1e-14)
        np.testing.assert_allclose(
            meas.u_star,
            (np.sin(geom.sensor) + 1.0) * np.exp(-mesh.t_interior),
            rtol=1e-14)

    def test_deterministic_under_seed(self, example1, mesh):
        a = generate_measurements(example1, mesh, noise_level=0.01, seed=7)
        b = generate_measurements(example1, mesh, noise_level=0.01, seed=7)
        np.testing.assert_array_equal(a.u_f, b.u_f)
        np.testing.assert_array_equal(a.u_star, b.u_star)
        c = generate_measurements(example1, mesh, noise_level=0.01, seed=8)
        assert not np.array_equal(a.u_f, c.u_f)

    def test_noise_statistics(self, example1, mesh):
        clean = generate_measurements(example1, mesh, noise_level=0.0)
        noisy = generate_measurements(example1, mesh, noise_level=0.01,
                                      seed=11)
        for clean_vec, noisy_vec in ((clean.u_f, noisy.u_f),
                                     (clean.u_star, noisy.u_star)):
            target = 0.01 * np.max(np.abs(clean_vec))
            sample_std = np.std(noisy_vec - clean_vec)
            assert abs(sample_std - target) < 0.2 * target

    def test_polynomial_case_goes_through_the_series_model(self):
        # No closed-form field: the data are the model's prediction at the
        # exact coefficients on a 3x2 table set, on coarse meshes too, where
        # a high-degree fit of F and u0 would be underdetermined.
        from heatsource.model import sensitivity_tables

        case = get_case("polynomial")
        geom = case.geometry
        truth = PolyParams(phi=np.array([1.0, 1.0]),
                           theta=np.array([0.0, 2.0, -1.0]))
        assert np.array_equal(case.exact_params.phi, truth.phi)
        assert np.array_equal(case.exact_params.theta, truth.theta)
        for nodes in (5, 10, 30, 1000):
            small = MeasurementMesh.regular(geom, nodes, nodes)
            t, x = small.t_nodes, geom.to_physical(small.x_nodes)
            assert np.array_equal(case.exact_F(t), 1.0 + t), nodes
            assert np.array_equal(case.exact_u0(x), x * (2.0 - x)), nodes
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                meas = generate_measurements(case, small, noise_level=0.0)
            tables = sensitivity_tables(geom, small, 3, 2, TR)
            u_f, u_s = tables.predict(truth)
            assert np.array_equal(meas.u_f, u_f), nodes
            assert np.array_equal(meas.u_star, u_s), nodes

    def test_case_without_a_truth_is_rejected(self):
        case = get_case("polynomial")
        hash(case)  # the coefficients stay out of eq and hash
        bare = replace(case, exact_params=None)
        small = MeasurementMesh.regular(case.geometry, 5, 5)
        with pytest.raises(ValueError, match="neither exact_u nor"):
            generate_measurements(bare, small)

    def test_negative_noise_rejected(self, example1, mesh):
        with pytest.raises(ValueError):
            generate_measurements(example1, mesh, noise_level=-0.1)


class TestRmse:
    def test_zero_for_exact_samples(self, mesh):
        case = get_case("polynomial")
        pmesh = MeasurementMesh.regular(case.geometry, 50, 50)
        truth = PolyParams(phi=np.array([1.0, 1.0]),
                           theta=np.array([0.0, 2.0, -1.0]))
        report = rmse_report(case, truth, pmesh)
        assert report.e_f == pytest.approx(0.0, abs=1e-13)
        assert report.e_u0 == pytest.approx(0.0, abs=1e-13)

    def test_constant_offset_closed_form(self, example1, mesh):
        params, _, _ = example1.fit_params(mesh, 12, 9)
        offset = 0.0317
        shifted = PolyParams(phi=params.phi.copy(), theta=params.theta)
        shifted.phi[0] += offset
        base = rmse_report(example1, params, mesh)
        moved = rmse_report(example1, shifted, mesh)
        expected = math.sqrt(
            base.e_f**2 + offset**2 * (mesh.i_t + 1) / mesh.i_t
            + 2 * offset * _mean_residual(example1, params, mesh))
        assert moved.e_f == pytest.approx(expected, rel=1e-10)

    def test_pure_constant_offset(self, example1, mesh):
        # reconstruction identical to the exact samples except a constant
        zero = PolyParams(phi=np.zeros(1), theta=np.zeros(1))
        case = get_case("polynomial")
        pmesh = MeasurementMesh.regular(case.geometry, 25, 25)
        truth = PolyParams(phi=np.array([1.0, 1.0]),
                           theta=np.array([0.0, 2.0, -1.0]))
        c = 0.25
        off = PolyParams(phi=truth.phi.copy(), theta=truth.theta)
        off.phi[0] += c
        report = rmse_report(case, off, pmesh)
        assert report.e_f == pytest.approx(
            c * math.sqrt((pmesh.i_t + 1) / pmesh.i_t), rel=1e-12)

    def test_matches_independent_reimplementation(self, example1, mesh):
        rng = np.random.default_rng(70)
        params = PolyParams(phi=rng.standard_normal(5) * 0.1,
                            theta=rng.standard_normal(6) * 0.1)
        report = rmse_report(example1, params, mesh)
        geom = example1.geometry
        ref_f = rmse_reference(example1.exact_F(mesh.t_nodes),
                               params.source_values(mesh.t_nodes), mesh.i_t)
        ref_u0 = rmse_reference(
            example1.exact_u0(geom.to_physical(mesh.x_nodes)),
            params.initial_values(mesh.x_nodes), mesh.i_x)
        assert report.e_f == pytest.approx(ref_f, rel=1e-12)
        assert report.e_u0 == pytest.approx(ref_u0, rel=1e-12)


def _mean_residual(case, params, mesh):
    res = case.exact_F(mesh.t_nodes) - params.source_values(mesh.t_nodes)
    return float(np.sum(res) / mesh.i_t)


class TestInvertCase:
    def test_report_fields(self, example1):
        result = invert_case(example1, 6, 5, ObjectiveConfig(alpha=1e-6),
                             SolverConfig(), i_x=60, i_t=60)
        rep = result.errors
        assert rep.status == result.report.status
        assert rep.iterations == result.report.iterations
        assert rep.alpha == 1e-6
        assert rep.e_f > 0 and rep.e_u0 > 0
        assert rep.fit_residual_f > 0 and rep.fit_residual_u0 > 0
        assert len(result.trace) == result.report.iterations + 1

    def test_scores_on_the_mesh_of_given_tables(self, example1):
        # given tables, the run is scored on their mesh: a sweep builds
        # no second regular mesh per cell
        geom = example1.geometry
        tables = sensitivity_tables(
            geom, MeasurementMesh.regular(geom, 30, 30), 4, 3)
        result = invert_case(example1, 4, 3, ObjectiveConfig(alpha=1e-6),
                             SolverConfig(max_iters=20), i_x=30, i_t=30,
                             tables=tables)
        assert result.tables is tables


class TestSweep:
    def test_single_cell(self, example1):
        cells = [SweepCell(n_x=6, n_t=5, x_star=2.97, alpha=1e-6)]
        reports = sweep(example1, cells, SolverConfig(), i_x=50, i_t=50)
        assert len(reports) == 1
        assert reports[0].n_x == 6 and reports[0].x_star == 2.97

    def test_default_grid(self):
        cells = default_sweep_cells()
        assert len(cells) == 10
        assert {(c.n_x, c.n_t) for c in cells} == {(6, 5), (12, 9)}

    def test_cells_differing_in_alpha_share_tables(self, example1,
                                                    monkeypatch):
        from heatsource import harness, model, solver

        built, contracted, rebuilt = [], [], []
        real_build = harness.rod_tables
        real_contract = model.RodTables.at_sensors

        def counting_build(geom, mesh, n_x, n_t, *args, **kwargs):
            built.append((n_x, n_t))
            return real_build(geom, mesh, n_x, n_t, *args, **kwargs)

        def counting_contract(rod, x_stars):
            contracted.append((tuple(x_stars), rod.n_x, rod.n_t))
            return real_contract(rod, x_stars)

        monkeypatch.setattr(harness, "rod_tables", counting_build)
        monkeypatch.setattr(model.RodTables, "at_sensors", counting_contract)
        for module in (harness, solver):
            monkeypatch.setattr(
                module, "sensitivity_tables",
                lambda geom, *args: rebuilt.append(geom.sensor))
        cells = [SweepCell(n_x=4, n_t=3, x_star=x, alpha=a)
                 for x in (-0.17, 2.97) for a in (1e-6, 1e-4, 1e-2)]
        cfg = SolverConfig(max_iters=50)
        reports = sweep(example1, cells, cfg, i_x=25, i_t=25)
        assert built == [(4, 3)]
        assert contracted == [((-0.17, 2.97), 4, 3)]
        assert rebuilt == []
        monkeypatch.undo()
        alone = invert_case(example1.with_sensor(2.97), 4, 3,
                            ObjectiveConfig(alpha=1e-4), cfg,
                            i_x=25, i_t=25).errors
        assert reports[4].csv_row() == alone.csv_row()

    def test_cells_at_one_sensor_share_measurements(self, monkeypatch):
        # The polynomial case predicts its data from its exact coefficients
        # on a 3x2 table set: one per sensor, not one per cell; the rows
        # equal lone inversions.
        from heatsource import harness

        case = get_case("polynomial")
        generated, data_tables = [], []
        real_generate = harness.generate_measurements
        real_tables = harness.sensitivity_tables

        def counting_generate(cell_case, *args, **kwargs):
            generated.append(cell_case.geometry.sensor)
            return real_generate(cell_case, *args, **kwargs)

        def counting_tables(geom, mesh, n_x, n_t, *args, **kwargs):
            data_tables.append((geom.sensor, n_x, n_t))
            return real_tables(geom, mesh, n_x, n_t, *args, **kwargs)

        monkeypatch.setattr(harness, "generate_measurements",
                            counting_generate)
        monkeypatch.setattr(harness, "sensitivity_tables", counting_tables)
        cells = [SweepCell(n_x=n_x, n_t=n_t, x_star=x, alpha=a)
                 for n_x, n_t in ((4, 3), (6, 5)) for x in (0.3, 1.7)
                 for a in (1e-6, 1e-3)]
        cfg = SolverConfig(max_iters=50)
        reports = sweep(case, cells, cfg, i_x=25, i_t=25, noise_level=0.01,
                        seed=7)
        monkeypatch.undo()
        assert generated == [0.3, 1.7]
        assert data_tables == [(0.3, 3, 2), (1.7, 3, 2)]
        for cell, report in zip(cells, reports):
            alone = invert_case(case.with_sensor(cell.x_star), cell.n_x,
                                cell.n_t, ObjectiveConfig(alpha=cell.alpha),
                                cfg, i_x=25, i_t=25, noise_level=0.01,
                                seed=7).errors
            assert report.csv_row() == alone.csv_row(), cell

    def test_cells_of_one_size_share_one_fit(self, example1, monkeypatch):
        # The fit references depend on the size alone: a 2-size x 3-sensor
        # sweep fits twice, not six times, and every row's fit residuals
        # equal a fresh fit's.
        from heatsource import harness

        fitted = []
        real_fit = harness.ManufacturedCase.fit_params

        def counting_fit(case, mesh, n_x, n_t):
            fitted.append((case.geometry.sensor, n_x, n_t))
            return real_fit(case, mesh, n_x, n_t)

        monkeypatch.setattr(harness.ManufacturedCase, "fit_params",
                            counting_fit)
        cells = [SweepCell(n_x=n_x, n_t=n_t, x_star=x, alpha=1e-6)
                 for n_x, n_t in ((4, 3), (6, 5))
                 for x in (-1.34, 0.99, 2.97)]
        reports = sweep(example1, cells, SolverConfig(max_iters=30),
                        i_x=25, i_t=25)
        assert fitted == [(-1.34, 4, 3), (-1.34, 6, 5)]
        monkeypatch.undo()
        for cell, report in zip(cells, reports):
            case = example1.with_sensor(cell.x_star)
            mesh = MeasurementMesh.regular(case.geometry, 25, 25)
            _, fit_f, fit_u0 = case.fit_params(mesh, cell.n_x, cell.n_t)
            assert report.fit_residual_f == fit_f, cell
            assert report.fit_residual_u0 == fit_u0, cell

    def test_sensors_of_one_size_share_one_layer(self, example1,
                                                 monkeypatch):
        # Per size, the layer computes the moment stack of the final profile
        # and streams one recurrence for the histories of all five sensors.
        from heatsource import model

        stacks, streams = [], []
        real_stack, real_rows = model.exp_moment_stack, model.exp_moment_rows

        def counting_stack(*args, **kwargs):
            stacks.append(args[0])
            return real_stack(*args, **kwargs)

        def counting_rows(*args, **kwargs):
            streams.append(args[0])
            return real_rows(*args, **kwargs)

        monkeypatch.setattr(model, "exp_moment_stack", counting_stack)
        monkeypatch.setattr(model, "exp_moment_rows", counting_rows)
        reports = sweep(example1, default_sweep_cells(),
                        SolverConfig(max_iters=20), i_x=20, i_t=20)
        assert len(reports) == 10
        assert not any(r.status.startswith("error") for r in reports)
        assert stacks == [4, 8]
        assert streams == [4, 8]

    def test_sensor_outside_the_rod_fails_alone(self, example1, monkeypatch):
        # The out-of-rod cell fails with the geometry's message; the others
        # of its size share one history build and run as they would alone.
        from heatsource import model
        from heatsource.errors import DomainError

        contracted = []
        real_contract = model.RodTables.at_sensors

        def counting_contract(rod, x_stars):
            contracted.append(tuple(x_stars))
            return real_contract(rod, x_stars)

        monkeypatch.setattr(model.RodTables, "at_sensors", counting_contract)
        outside = 9.5
        cells = [SweepCell(n_x=4, n_t=3, x_star=x, alpha=1e-6)
                 for x in (-0.17, outside, 2.97)]
        cfg = SolverConfig(max_iters=50)
        reports = sweep(example1, cells, cfg, i_x=25, i_t=25)
        monkeypatch.undo()
        assert contracted == [(-0.17, 2.97)]
        with pytest.raises(DomainError) as raised:
            example1.with_sensor(outside)
        assert reports[1].status == f"error: {raised.value}"
        assert math.isnan(reports[1].e_f) and math.isnan(reports[1].e_u0)
        for cell, report in zip(cells[::2], reports[::2]):
            alone = invert_case(example1.with_sensor(cell.x_star), 4, 3,
                                ObjectiveConfig(alpha=1e-6), cfg,
                                i_x=25, i_t=25).errors
            assert report.csv_row() == alone.csv_row()

    def test_default_cells_iteration_counts(self, example1):
        # Their epsilon (1e-3) is reachable: the floor stop never fires and
        # the counts are those of the plain epsilon rule.  CG in the
        # monomial coordinates took 11, 10, 8, 8, 13, 39, 39, 37, 50, 74.
        reports = sweep(example1, default_sweep_cells(), SolverConfig(),
                        i_x=100, i_t=100)
        assert [r.iterations for r in reports] == [10, 9, 6, 6, 9,
                                                   9, 12, 6, 6, 12]
        assert all(r.status == "converged" for r in reports)

    def test_cell_failure_is_recorded_not_raised(self, example1):
        cells = [SweepCell(n_x=6, n_t=5, x_star=2.97, alpha=-1.0),
                 SweepCell(n_x=3, n_t=2, x_star=2.97, alpha=1e-6)]
        reports = sweep(example1, cells, SolverConfig(max_iters=50),
                        i_x=30, i_t=30)
        assert reports[0].status.startswith("error:")
        assert math.isnan(reports[0].e_f)
        assert not reports[1].status.startswith("error:")

    def test_sensor_trend_is_logged_not_failed(self, example1, caplog):
        import logging

        cells = [SweepCell(n_x=4, n_t=3, x_star=x, alpha=1e-6)
                 for x in (-0.17, 2.97)]
        with caplog.at_level(logging.INFO, logger="heatsource.harness"):
            sweep(example1, cells, SolverConfig(max_iters=100), i_x=25, i_t=25)
        assert any("initial-profile error" in r.message for r in caplog.records)

    def test_one_sensor_alpha_scan_logs_no_sensor_trend(self, example1,
                                                         caplog):
        import logging

        cells = [SweepCell(n_x=4, n_t=3, x_star=2.97, alpha=a)
                 for a in (1e-6, 1e-4, 1e-2)]
        with caplog.at_level(logging.INFO, logger="heatsource.harness"):
            sweep(example1, cells, SolverConfig(max_iters=100), i_x=25, i_t=25)
        assert not [r.message for r in caplog.records
                    if "sensor positions" in r.message]

    def test_sensor_trend_is_checked_per_alpha(self, example1, caplog):
        import logging

        cells = [SweepCell(n_x=4, n_t=3, x_star=x, alpha=a)
                 for x in (-0.17, 2.97) for a in (1e-6, 1e-2)]
        with caplog.at_level(logging.INFO, logger="heatsource.harness"):
            sweep(example1, cells, SolverConfig(max_iters=100), i_x=25, i_t=25)
        trends = [r.message for r in caplog.records
                  if "sensor positions" in r.message]
        assert len(trends) == 2
        assert "alpha=1e-06" in trends[0] and "alpha=0.01" in trends[1]

    def test_alpha_scan_on_noisy_data_is_u_shaped(self, example1):
        alphas = np.geomspace(1e-8, 1e-2, 7)
        cells = [SweepCell(n_x=6, n_t=5, x_star=2.97, alpha=float(a))
                 for a in alphas]
        reports = sweep(example1, cells,
                        SolverConfig(epsilon=1e-14, max_iters=6000),
                        i_x=100, i_t=100, noise_level=0.01, seed=123)
        e_f = [r.e_f for r in reports]
        k = int(np.argmin(e_f))
        assert 0 < k < len(e_f) - 1, f"no interior minimum: {e_f}"


class TestEmitSensitivityData:
    def test_default_curve_tables(self, tmp_path):
        geom = sensitivity_demo_geometry()
        mesh = MeasurementMesh.regular(geom, 40, 40)
        paths = emit_sensitivity_data(geom, 6, 5, mesh, tmp_path,
                                      run_id="demo")
        assert len(paths) == 4
        widths = {}
        for p in paths:
            lines = Path(p).read_text().strip().splitlines()
            header = lines[0].split(",")
            widths[Path(p).name] = len(header)
            for line in lines[1:]:
                assert len(line.split(",")) == len(header)
        assert widths["demo_final_by_initial.csv"] == 1 + 6
        assert widths["demo_sensor_by_initial.csv"] == 1 + 6
        assert widths["demo_final_by_source.csv"] == 1 + 5
        assert widths["demo_sensor_by_source.csv"] == 1 + 5

    def test_final_tables_vanish_at_boundaries(self, tmp_path):
        geom = sensitivity_demo_geometry()
        mesh = MeasurementMesh.regular(geom, 30, 30)
        paths = emit_sensitivity_data(geom, 6, 5, mesh, tmp_path,
                                      run_id="edge")
        for name in ("edge_final_by_initial.csv", "edge_final_by_source.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            first = [float(v) for v in lines[1].split(",")[1:]]
            last = [float(v) for v in lines[-1].split(",")[1:]]
            assert all(abs(v) <= 1e-12 for v in first)
            assert all(abs(v) <= 1e-12 for v in last)

    def test_deterministic_bytes(self, tmp_path):
        geom = sensitivity_demo_geometry()
        mesh = MeasurementMesh.regular(geom, 25, 25)
        first = {}
        for p in emit_sensitivity_data(geom, 6, 5, mesh, tmp_path, "one"):
            first[Path(p).name.removeprefix("one")] = Path(p).read_bytes()
        for p in emit_sensitivity_data(geom, 6, 5, mesh, tmp_path, "two"):
            assert Path(p).read_bytes() == first[Path(p).name.removeprefix("two")]

    def test_degenerate_mesh_rejected(self, tmp_path):
        geom = sensitivity_demo_geometry()
        from heatsource.errors import DomainError

        with pytest.raises(DomainError):
            MeasurementMesh.regular(geom, 0, 5)
