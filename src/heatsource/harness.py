"""Verification harness: manufactured cases with known exact solutions,
synthetic measurement generation with optional noise, root-mean-square error
metrics, parameter sweeps, and sensitivity-curve CSV emission."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import (Geometry, MeasurementMesh, PolyParams,
                    SensitivityTables, rod_tables, sensitivity_tables)
from .objective import Measurements, ObjectiveConfig
from .output import write_tables
from .solver import ConvergenceReport, IterationTrace, SolverConfig, solve

__all__ = [
    "ManufacturedCase",
    "ErrorReport",
    "SweepCell",
    "InversionResult",
    "CASES",
    "get_case",
    "generate_measurements",
    "rmse_report",
    "invert_case",
    "sweep",
    "default_sweep_cells",
    "default_sensors",
    "emit_sensitivity_data",
    "sensitivity_demo_geometry",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ManufacturedCase:
    """A test problem with known source and initial temperature.

    ``exact_F`` maps time to the source value and ``exact_u0`` maps
    physical x to the initial temperature (it must vanish at both rod ends).
    The data come from ``exact_u``, which maps (physical x, t) to the
    temperature field, when the case has one; otherwise ``exact_params``
    holds the exact coefficients, and the data are their prediction on a
    table set of exactly that size.
    """

    name: str
    geometry: Geometry
    exact_F: callable
    exact_u0: callable
    exact_u: callable | None = None
    # PolyParams holds arrays; left out of eq so the case stays hashable.
    exact_params: PolyParams | None = field(default=None, compare=False)

    def with_sensor(self, sensor: float) -> "ManufacturedCase":
        return replace(self, geometry=self.geometry.with_sensor(sensor))

    def fit_params(self, mesh: MeasurementMesh, n_x: int, n_t: int):
        """Least-squares polynomial references for the exact functions on
        the full mesh, plus their max sampled residuals.

        The reconstruction error of an inversion is reported next to these
        fit residuals so representation error is never mistaken for solver
        error.
        """
        ts, xs = mesh.t_nodes, mesh.x_nodes
        phi = npoly.polyfit(ts, self.exact_F(ts), n_t - 1)
        theta = npoly.polyfit(
            xs, self.exact_u0(self.geometry.to_physical(xs)), n_x - 1)
        params = PolyParams(phi=phi, theta=theta)
        source, initial = self.curves(params, mesh)
        fit_f = float(np.max(np.abs(source[:, 1] - source[:, 2])))
        fit_u0 = float(np.max(np.abs(initial[:, 1] - initial[:, 2])))
        return params, fit_f, fit_u0

    def curves(self, params: PolyParams, mesh: MeasurementMesh):
        """The exact and reconstructed source over every time node, as rows
        ``[t, exact, reconstructed]``, and the initial profile over every
        spatial node, as rows ``[x, exact, reconstructed]`` with physical x.
        """
        ts, xs = mesh.t_nodes, mesh.x_nodes
        x_phys = self.geometry.to_physical(xs)
        return (np.column_stack([ts, self.exact_F(ts),
                                 params.source_values(ts)]),
                np.column_stack([x_phys, self.exact_u0(x_phys),
                                 params.initial_values(xs)]))


def _example1() -> ManufacturedCase:
    geom = Geometry(offset=-math.pi / 2, length=2 * math.pi, t_final=2.0,
                    sensor=2.97)
    return ManufacturedCase(
        name="example1",
        geometry=geom,
        exact_F=lambda t: -np.exp(-np.asarray(t, dtype=float)),
        exact_u0=lambda x: np.sin(np.asarray(x, dtype=float)) + 1.0,
        exact_u=lambda x, t: (np.sin(np.asarray(x, dtype=float)) + 1.0)
        * np.exp(-np.asarray(t, dtype=float)),
    )


def _polynomial() -> ManufacturedCase:
    # F = 1 + t and u0 = x(2 - x), exactly representable with n_t >= 2 and
    # n_x >= 3; no closed-form field, so the data are the series model's
    # prediction from these coefficients on a 3x2 table set.
    geom = Geometry(offset=0.0, length=2.0, t_final=1.0, sensor=1.25)
    truth = PolyParams(phi=[1.0, 1.0], theta=[0.0, 2.0, -1.0])
    return ManufacturedCase(
        name="polynomial",
        geometry=geom,
        exact_F=truth.source_values,
        exact_u0=lambda x: truth.initial_values(geom.to_shifted(x)),
        exact_params=truth,
    )


CASES = {
    "example1": _example1,
    "polynomial": _polynomial,
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]()
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; available: {sorted(CASES)}"
        ) from None


@dataclass
class ErrorReport:
    """Reconstruction quality and the run configuration that produced it."""

    e_f: float
    e_u0: float
    iterations: int = 0
    final_cost: float = math.nan
    status: str = ""
    n_x: int = 0
    n_t: int = 0
    x_star: float = math.nan
    alpha: float = math.nan
    fit_residual_f: float = math.nan
    fit_residual_u0: float = math.nan

    CSV_HEADER = ("n_x", "n_t", "x_star", "alpha", "e_f", "e_u0",
                  "iterations", "final_cost", "status",
                  "fit_residual_f", "fit_residual_u0")

    def csv_row(self):
        return tuple(getattr(self, key) for key in self.CSV_HEADER)


def generate_measurements(case: ManufacturedCase, mesh: MeasurementMesh,
                          noise_level: float = 0.0, seed: int = 42
                          ) -> Measurements:
    """Sample the observables on the mesh, optionally perturbed by seeded
    Gaussian noise with standard deviation noise_level * max|u| per channel.

    Uses the closed-form field when the case has one (keeping the data
    independent of series truncation); otherwise predicts the data from the
    case's exact coefficients on a table set of exactly their size.
    """
    if noise_level < 0.0:
        raise ValueError(f"noise_level must be >= 0, got {noise_level}")
    geom = case.geometry
    if case.exact_u is not None:
        x_phys = geom.to_physical(mesh.x_interior)
        u_f = np.asarray(case.exact_u(x_phys, geom.t_final), dtype=float)
        u_star = np.asarray(case.exact_u(geom.sensor, mesh.t_interior),
                            dtype=float)
    elif case.exact_params is not None:
        truth = case.exact_params
        u_f, u_star = sensitivity_tables(geom, mesh, truth.n_x,
                                         truth.n_t).predict(truth)
    else:
        raise ValueError(f"case {case.name!r} has neither exact_u nor "
                         "exact_params")
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        u_f = u_f + rng.normal(0.0, noise_level * np.max(np.abs(u_f)),
                               u_f.shape)
        u_star = u_star + rng.normal(0.0, noise_level * np.max(np.abs(u_star)),
                                     u_star.shape)
    return Measurements(u_f=u_f, u_star=u_star)


def rmse_report(case: ManufacturedCase, params: PolyParams,
                mesh: MeasurementMesh) -> ErrorReport:
    """Root-mean-square errors of the reconstructed source and initial
    profile against the exact ones, over the full meshes (node 0 included,
    normalized by the interval count)."""
    source, initial = case.curves(params, mesh)
    f_err = source[:, 1] - source[:, 2]
    u0_err = initial[:, 1] - initial[:, 2]
    return ErrorReport(
        e_f=float(np.sqrt(np.sum(f_err * f_err) / mesh.i_t)),
        e_u0=float(np.sqrt(np.sum(u0_err * u0_err) / mesh.i_x)),
        n_x=params.n_x,
        n_t=params.n_t,
        x_star=case.geometry.sensor,
    )


@dataclass
class InversionResult:
    """Everything a single inversion produced."""

    params: PolyParams
    trace: IterationTrace
    report: ConvergenceReport
    errors: ErrorReport
    mesh: MeasurementMesh


def invert_case(case: ManufacturedCase, n_x: int, n_t: int,
                obj_cfg: ObjectiveConfig, solver_cfg: SolverConfig,
                i_x: int = 100, i_t: int = 100, noise_level: float = 0.0,
                seed: int = 42,
                tables: SensitivityTables | None = None,
                meas: Measurements | None = None,
                fit: tuple | None = None
                ) -> InversionResult:
    """Generate data for the case, run the inversion, and score it.

    ``tables``, when given, must have been built for this case's geometry
    on the regular ``i_x`` x ``i_t`` mesh with ``n_x`` and ``n_t`` under
    the default truncation policy, and the run is scored on their mesh;
    otherwise the solve builds them.
    ``meas``, when given, must be what :func:`generate_measurements` returns
    for this case on that mesh with ``noise_level`` and ``seed``; otherwise
    it is generated here.  ``fit``, when given, must be what
    ``case.fit_params`` returns on that mesh with ``n_x`` and ``n_t``;
    otherwise it is computed here.
    """
    geom = case.geometry
    mesh = (tables.mesh if tables is not None
            else MeasurementMesh.regular(geom, i_x, i_t))
    if meas is None:
        meas = generate_measurements(case, mesh, noise_level, seed)
    params, trace, report = solve(meas, geom, mesh, n_x, n_t, obj_cfg,
                                  solver_cfg, tables=tables)
    errors = rmse_report(case, params, mesh)
    if fit is None:
        fit = case.fit_params(mesh, n_x, n_t)
    _, fit_f, fit_u0 = fit
    errors.iterations = report.iterations
    errors.final_cost = report.final_cost
    errors.status = report.status
    errors.alpha = obj_cfg.alpha
    errors.fit_residual_f = fit_f
    errors.fit_residual_u0 = fit_u0
    return InversionResult(params=params, trace=trace, report=report,
                           errors=errors, mesh=mesh)


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep."""

    n_x: int
    n_t: int
    x_star: float
    alpha: float


# Sensor positions of the reference table, on example1's rod, and the
# coefficient counts (n_x, n_t) of the default sweep.
REFERENCE_SENSORS = (-1.34, -0.17, 0.99, 2.15, 2.97)
DEFAULT_SIZES = ((6, 5), (12, 9))


def default_sensors(case: ManufacturedCase) -> tuple:
    """Sensor positions of a case's default sweep: the reference positions
    when they all lie inside the case's rod, else the case's own sensor."""
    geom = case.geometry
    if all(map(geom.contains, REFERENCE_SENSORS)):
        return REFERENCE_SENSORS
    return (geom.sensor,)


def default_sweep_cells(alpha: float = ObjectiveConfig.alpha):
    """The ten default cells: the default sizes crossed with the five
    reference sensor positions."""
    return [SweepCell(n_x=n_x, n_t=n_t, x_star=x_star, alpha=alpha)
            for n_x, n_t in DEFAULT_SIZES for x_star in REFERENCE_SENSORS]


def sweep(case: ManufacturedCase, cells, solver_cfg: SolverConfig,
          i_x: int = 100, i_t: int = 100, noise_level: float = 0.0,
          seed: int = 42):
    """Run one inversion per cell and return the reports in cell order.

    Cells of one size share one sensor-independent table layer, one
    history build for all their sensors and one polynomial fit of the
    exact functions, cells that differ only in alpha share one set of
    response tables, and cells at one sensor share its measurements.
    Per-cell failures are recorded in the report's status and do not stop
    the sweep.
    After the run, the sensor-position trend of the initial-profile error
    is checked per size and alpha over two or more sensors and logged (soft
    observation, never a failure).
    """
    cells = list(cells)
    reports = []
    tables = {}  # (n_x, n_t) -> {x_star: SensitivityTables}
    fits = {}  # (n_x, n_t) -> fit_params
    measurements = {}  # x_star -> Measurements
    for cell in cells:
        try:
            cell_case = case.with_sensor(cell.x_star)
            geom = cell_case.geometry
            mesh = MeasurementMesh.regular(geom, i_x, i_t)
            if cell.x_star not in measurements:
                measurements[cell.x_star] = generate_measurements(
                    cell_case, mesh, noise_level, seed)
            size = (cell.n_x, cell.n_t)
            if size not in tables:
                # One layer and one history build per size, for all its
                # sensors that lie in the rod; the others fail above.
                sensors = list(dict.fromkeys(
                    c.x_star for c in cells
                    if (c.n_x, c.n_t) == size and geom.contains(c.x_star)))
                tables[size] = dict(zip(sensors, rod_tables(
                    geom, mesh, *size).at_sensors(sensors)))
            if size not in fits:
                fits[size] = cell_case.fit_params(mesh, *size)
            result = invert_case(
                cell_case, cell.n_x, cell.n_t,
                ObjectiveConfig(alpha=cell.alpha), solver_cfg,
                i_x=i_x, i_t=i_t, noise_level=noise_level, seed=seed,
                tables=tables[size][cell.x_star],
                meas=measurements[cell.x_star], fit=fits[size])
            reports.append(result.errors)
        except Exception as exc:  # per-cell isolation
            logger.warning("sweep cell %s failed: %s", cell, exc)
            reports.append(ErrorReport(
                e_f=math.nan, e_u0=math.nan, status=f"error: {exc}",
                n_x=cell.n_x, n_t=cell.n_t, x_star=cell.x_star,
                alpha=cell.alpha))

    for n_x, n_t, alpha in sorted({(c.n_x, c.n_t, c.alpha) for c in cells}):
        group = sorted((r for r in reports
                        if (r.n_x, r.n_t, r.alpha) == (n_x, n_t, alpha)
                        and math.isfinite(r.e_u0)), key=lambda r: r.x_star)
        if len({r.x_star for r in group}) < 2:
            continue
        values = [r.e_u0 for r in group]
        trend = ("decreases toward the right sensor positions"
                 if all(b < a for a, b in zip(values, values[1:]))
                 else "is not monotone across sensor positions")
        logger.info("initial-profile error %s for %dx%d at alpha=%g: %s",
                    trend, n_x, n_t, alpha, ["%.3e" % v for v in values])
    return reports


def sensitivity_demo_geometry() -> Geometry:
    """Default geometry for sensitivity-curve emission: unshifted rod of
    length 2*pi, final time 2, sensor at the midpoint."""
    return Geometry(offset=0.0, length=2 * math.pi, t_final=2.0,
                    sensor=math.pi)


def emit_sensitivity_data(geom: Geometry, n_x: int, n_t: int,
                          mesh: MeasurementMesh, outdir,
                          run_id: str = "sensitivity"):
    """Write the four sensitivity-curve tables as CSV files.

    Two tables sample the final-time profile responses over all spatial
    nodes (physical abscissa, boundary rows included and exactly zero);
    two sample the sensor-history responses over the time nodes from
    index 1 on.  Returns the four paths.
    """
    rod = rod_tables(geom, mesh, n_x, n_t)
    [tables] = rod.at_sensors([geom.sensor])
    ts = mesh.t_interior
    x_phys = geom.to_physical(mesh.x_nodes)
    # A generator: each table is built just before it is written, so one
    # is held at a time.
    layout = (("final_by_initial", "x", x_phys, "m", rod.final_theta),
              ("sensor_by_initial", "t", ts, "m", tables.sensor_theta),
              ("final_by_source", "x", x_phys, "k", rod.final_phi),
              ("sensor_by_source", "t", ts, "k", tables.sensor_phi))
    return write_tables(outdir, run_id, (
        (name, [axis] + [f"{key}{i}" for i in range(1, table.shape[1] + 1)],
         np.column_stack([abscissa, table]))
        for name, axis, abscissa, key, table in layout))
