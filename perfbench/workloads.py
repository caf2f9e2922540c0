"""The benchmark's four workloads: inputs built from a seed, one pass each,
and the output check that decides whether each operation succeeded.

Every call into the program goes through a module attribute
(``hs.cli.main``, ``hs.harness.sweep`` ...) so that the tracer in
``layers.py`` sees it after it rebinds those attributes.

An operation is a sweep cell, a direct-scan cell or a CLI command.  A pass
returns one :class:`Op` per operation; output checks run inside
``clock.untimed()`` so they count in neither ``pass_s`` nor the traced spans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import heatsource as hs
import heatsource.cli  # noqa: F401  (bind hs.cli)

# Reconstruction weight of every workload: the program's default alpha.
ALPHA = 1e-6

# Fixed noise realisation of the noisy workloads.  Over eight noise seeds
# the alpha scan's error means spread by 50-78% (IQR over median), more than
# any bound the benchmark may set, so the workload seed does not choose it.
NOISE_SEED = 42

# Direct scan: ||grad(p*)|| / ||grad(0)|| at the ridge_solve solution p*.
# It stayed below 3e-7 on every seed tried on 1000x1000 meshes; the
# tolerance leaves a 30x margin for rounding differences.
GRAD_RATIO_TOL = 1e-5

# Share of a sensor stratum that the seed may move a sensor within: a
# stratified draw keeps the scan's error mean steady across seeds.
SENSOR_JITTER = 0.1


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (e_f, e_u0) per reconstruction


def run_cli(argv):
    """Run the console entry point in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hs.cli.main(list(argv))
    return code, buf.getvalue()


def read_csv(path):
    """(header, rows) of a CSV artifact; rows are lists of strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_summary(path):
    pairs = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def finite(values):
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# sweeps through the CLI
# ---------------------------------------------------------------------------


class SweepWorkload:
    """``heatsource sweep`` once per pass; one operation per sweep cell."""

    expected_codes = (0,)

    def __init__(self, name, outdir, extra_args, n_cells):
        self.name = name
        self.outdir = Path(outdir)
        self.n_cells = n_cells
        self.argv = ["sweep", "--outdir", str(self.outdir), "--run_id", name,
                     *extra_args]

    def run_pass(self, clock) -> PassResult:
        result = PassResult()
        try:
            code, _ = run_cli(self.argv)
            raised = ""
        except Exception as exc:  # an operation that raises is a failed one
            code, raised = None, f"raised {exc!r}"
        with clock.untimed():
            problem = raised or self._check_command(code)
            if problem:
                result.ops = [Op(f"cell{i}", False, problem)
                              for i in range(self.n_cells)]
                return result
            _, rows = read_csv(self.outdir / f"{self.name}_sweep.csv")
            col = hs.harness.ErrorReport.CSV_HEADER.index
            for row in rows:
                label = f"{row[col('n_x')]}x{row[col('n_t')]}@{row[col('x_star')]}" \
                        f"/a={row[col('alpha')]}"
                status = row[col("status")]
                errs = (float(row[col("e_f")]), float(row[col("e_u0")]))
                if status.startswith("error"):
                    result.ops.append(Op(label, False, status))
                elif not finite(errs):
                    result.ops.append(Op(label, False, f"non-finite {errs}"))
                else:
                    result.ops.append(Op(label, True))
                    result.errors.append(errs)
        return result

    def _check_command(self, code) -> str:
        """Empty when the sweep CSV and summary agree with the exit code."""
        if code not in self.expected_codes:
            return f"exit code {code} not in {self.expected_codes}"
        header, rows = read_csv(self.outdir / f"{self.name}_sweep.csv")
        if header != list(hs.harness.ErrorReport.CSV_HEADER):
            return f"sweep CSV header {header}"
        if len(rows) != self.n_cells:
            return f"sweep CSV has {len(rows)} rows, expected {self.n_cells}"
        summary = read_summary(self.outdir / f"{self.name}_summary.txt")
        status = hs.harness.ErrorReport.CSV_HEADER.index("status")
        converged = sum(1 for row in rows if row[status] == "converged")
        if summary.get("cells") != str(len(rows)) \
                or summary.get("converged_cells") != str(converged):
            return (f"summary cells={summary.get('cells')} converged_cells="
                    f"{summary.get('converged_cells')} disagree with the CSV")
        if code == 0 and converged != len(rows):
            return "exit code 0 with unconverged cells"
        return ""


def reference_sweep(seed, outdir, smoke):
    """The paper's ten-cell table with every CLI default; the seed does not
    apply."""
    extra = ["--sweep_n", "6x5", "--sweep_xstar", "2.97",
             "--i_x", "20", "--i_t", "20"] if smoke else []
    return SweepWorkload("reference_sweep", outdir, extra, 1 if smoke else 10)


def noisy_alpha_scan(seed, outdir, smoke):
    """Seven alphas for 6x5 at x*=2.97 on 1%-noise data; epsilon lies below
    the attainable cost, so every cell runs to the iteration cap."""
    alphas = np.geomspace(1e-8, 1e-2, 2 if smoke else 7)
    extra = ["--sweep_n", "6x5", "--sweep_xstar", "2.97",
             "--sweep_alpha", ",".join(repr(float(a)) for a in alphas),
             "--noise_level", "0.01", "--seed", str(NOISE_SEED),
             "--epsilon", "1e-14", "--max_iters", "50" if smoke else "1500"]
    if smoke:
        extra += ["--i_x", "20", "--i_t", "20"]
    workload = SweepWorkload("noisy_alpha_scan", outdir, extra, alphas.size)
    workload.expected_codes = (0, 5)
    return workload


# ---------------------------------------------------------------------------
# direct solves through the library
# ---------------------------------------------------------------------------


def stratified_sensors(rng, geom, count):
    """One sensor per equal stratum of the rod, jittered around its centre."""
    width = geom.length / count
    centres = geom.offset + width * (np.arange(count) + 0.5)
    return centres + width * SENSOR_JITTER * (rng.random(count) - 0.5)


class DirectSensorScan:
    """Both built-in cases, seeded sensors, 1%-noise data; per sensor one
    ``generate_measurements`` and, per size, ``sensitivity_tables``,
    ``ridge_solve`` and ``rmse_report``.  No CG."""

    name = "direct_sensor_scan"
    sizes = ((6, 5), (12, 9))

    def __init__(self, seed, outdir, smoke):
        rng = np.random.default_rng(seed)
        nodes = 50 if smoke else 1000
        self.inputs = []  # (case with its sensor, mesh)
        for case_name in ("example1", "polynomial"):
            base = hs.harness.get_case(case_name)
            for sensor in stratified_sensors(rng, base.geometry,
                                             1 if smoke else 6):
                case = base.with_sensor(float(sensor))
                mesh = hs.model.MeasurementMesh.regular(case.geometry, nodes,
                                                        nodes)
                self.inputs.append((case, mesh))
        self.obj_cfg = hs.objective.ObjectiveConfig(alpha=ALPHA)

    def run_pass(self, clock) -> PassResult:
        result = PassResult()
        for case, mesh in self.inputs:
            label = f"{case.name}@{case.geometry.sensor:.4f}"
            try:
                meas = hs.harness.generate_measurements(case, mesh, 0.01,
                                                        NOISE_SEED)
            except Exception as exc:
                result.ops += [Op(f"{label}/{n_x}x{n_t}", False, repr(exc))
                               for n_x, n_t in self.sizes]
                continue
            for n_x, n_t in self.sizes:
                op = Op(f"{label}/{n_x}x{n_t}", True)
                try:
                    tables = hs.model.sensitivity_tables(case.geometry, mesh,
                                                         n_x, n_t)
                    params = hs.objective.ridge_solve(meas, self.obj_cfg,
                                                      tables)
                    report = hs.harness.rmse_report(case, params, mesh)
                except Exception as exc:
                    op.ok, op.detail = False, repr(exc)
                    result.ops.append(op)
                    continue
                with clock.untimed():
                    errs = (report.e_f, report.e_u0)
                    ratio = gradient_ratio(params, meas, self.obj_cfg, tables)
                    if not finite(errs):
                        op.ok, op.detail = False, f"non-finite {errs}"
                    elif not ratio <= GRAD_RATIO_TOL:
                        op.ok, op.detail = False, f"gradient ratio {ratio:.3g}"
                    else:
                        result.errors.append(errs)
                    result.ops.append(op)
        return result


def gradient_ratio(params, meas, obj_cfg, tables):
    """||grad(params)|| / ||grad(0)|| of the objective."""
    zero = hs.model.PolyParams.zeros(tables.n_x, tables.n_t)
    g_at = np.concatenate(hs.objective.gradient(params, meas, obj_cfg, tables))
    g_zero = np.concatenate(hs.objective.gradient(zero, meas, obj_cfg, tables))
    return float(np.linalg.norm(g_at) / np.linalg.norm(g_zero))


# ---------------------------------------------------------------------------
# curve export through the CLI
# ---------------------------------------------------------------------------


class CurveExport:
    """``heatsource sensitivity`` (12x9, seeded x*) and ``heatsource forward``
    (polynomial case, its exact coefficients) once each per pass."""

    name = "curve_export"
    phi = (1.0, 1.0)  # F(t) = 1 + t, the polynomial case's exact source
    theta = (0.0, 2.0, -1.0)  # u0(x) = x(2 - x), its exact initial profile

    def __init__(self, seed, outdir, smoke):
        rng = np.random.default_rng(seed)
        geom = hs.harness.get_case("example1").geometry
        self.x_star = round(float(geom.offset + geom.length
                                  * rng.uniform(0.1, 0.9)), 4)
        self.outdir = Path(outdir)
        self.sens_nodes = 50 if smoke else 2000
        self.fwd_nodes = 50 if smoke else 4000
        common = ["--outdir", str(self.outdir)]
        self.sens_argv = [
            "sensitivity", "--n_x", "12", "--n_t", "9",
            "--x_star", repr(self.x_star), "--i_x", str(self.sens_nodes),
            "--i_t", str(self.sens_nodes), "--run_id", "sens", *common]
        self.fwd_argv = [
            "forward", "--case", "polynomial",
            "--phi", ",".join(map(repr, self.phi)),
            "--theta", ",".join(map(repr, self.theta)),
            "--i_x", str(self.fwd_nodes), "--i_t", str(self.fwd_nodes),
            "--run_id", "fwd", *common]
        self.round_trip = None

    def run_pass(self, clock) -> PassResult:
        result = PassResult()
        for label, argv, check in (("sensitivity", self.sens_argv,
                                    self._check_sensitivity),
                                   ("forward", self.fwd_argv,
                                    self._check_forward)):
            try:
                code, _ = run_cli(argv)
            except Exception as exc:
                result.ops.append(Op(label, False, f"raised {exc!r}"))
                continue
            with clock.untimed():
                problem = (f"exit code {code}" if code != 0 else "") \
                    or check(result)
                result.ops.append(Op(label, not problem, problem))
        return result

    def _table(self, name, rows, width):
        """Parsed float table, or an error string."""
        path = self.outdir / name
        header, body = read_csv(path)
        if len(header) != width or len(body) != rows:
            return f"{name}: {len(body)}x{len(header)}, expected {rows}x{width}"
        table = np.array(body, dtype=float)
        if not np.all(np.isfinite(table)):
            return f"{name}: non-finite values"
        return table

    def _check_sensitivity(self, result) -> str:
        n = self.sens_nodes
        for name, rows, width, boundary in (
                ("sens_final_by_initial.csv", n + 1, 13, True),
                ("sens_final_by_source.csv", n + 1, 10, True),
                ("sens_sensor_by_initial.csv", n, 13, False),
                ("sens_sensor_by_source.csv", n, 10, False)):
            table = self._table(name, rows, width)
            if isinstance(table, str):
                return table
            if boundary and (np.any(table[0, 1:] != 0.0)
                             or np.any(table[-1, 1:] != 0.0)):
                return f"{name}: boundary rows are not exactly zero"
        return self._check_summary("sens")

    def _check_forward(self, result) -> str:
        n = self.fwd_nodes
        final = self._table("fwd_final_profile.csv", n, 2)
        if isinstance(final, str):
            return final
        history = self._table("fwd_sensor_history.csv", n, 2)
        if isinstance(history, str):
            return history
        if final[-1, 1] != 0.0:
            return "fwd_final_profile.csv: boundary row is not exactly zero"
        if self.round_trip is None:
            self.round_trip = self._reconstruct(final[:, 1], history[:, 1])
        result.errors.append(self.round_trip)
        return self._check_summary("fwd")

    def _reconstruct(self, u_final, u_sensor):
        """RMSE of F and u0 recovered by ridge_solve from the exported
        curves.  The curves are exact model data for the polynomial case,
        so this checks the export end to end; the inputs do not change
        between passes, so it runs once per run."""
        case = hs.harness.get_case("polynomial")
        mesh = hs.model.MeasurementMesh.regular(case.geometry, self.fwd_nodes,
                                                self.fwd_nodes)
        tables = hs.model.sensitivity_tables(case.geometry, mesh,
                                             len(self.theta), len(self.phi))
        meas = hs.objective.Measurements(u_f=u_final, u_star=u_sensor)
        params = hs.objective.ridge_solve(
            meas, hs.objective.ObjectiveConfig(alpha=ALPHA), tables)
        report = hs.harness.rmse_report(case, params, mesh)
        return report.e_f, report.e_u0

    def _check_summary(self, run_id) -> str:
        summary = read_summary(self.outdir / f"{run_id}_summary.txt")
        if summary.get("status") != "ok":
            return f"{run_id}_summary.txt: status={summary.get('status')}"
        return ""


WORKLOADS = {
    "reference_sweep": reference_sweep,
    "noisy_alpha_scan": noisy_alpha_scan,
    "direct_sensor_scan": DirectSensorScan,
    "curve_export": CurveExport,
}


def build(name, seed, outdir, smoke=False):
    """The workload's inputs, generated from ``seed`` alone."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, outdir, smoke)
