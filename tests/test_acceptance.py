"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  The reference values for the ten-cell reconstruction benchmark
live in REFERENCE_TABLE; every other tolerance is pinned inline.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from heatsource.cli import dispatch, parse_config_text
from heatsource.harness import default_sweep_cells, get_case, invert_case
from heatsource.kernels import (TruncationPolicy, exp_moment, greens_function,
                                sine_moment, source_kernel)
from heatsource.model import (MeasurementMesh, PolyParams,
                              sensitivity_tables)
from heatsource.objective import (Measurements, ObjectiveConfig, cost,
                                  gradient, ridge_solve)
from heatsource.solver import SolverConfig, solve, stationarity_check
from oracles import (golden_minimize, legendre_gradient, quad_exp_moment,
                     quad_sine_moment)

TR = TruncationPolicy()
L = 2.0 * math.pi

# (n_x, n_t, sensor) -> reference (E_F, E_u0) for the noiseless ten-cell run
REFERENCE_TABLE = {
    (6, 5, -1.34): (8.09e-3, 7.14e-2),
    (6, 5, -0.17): (7.62e-3, 7.12e-2),
    (6, 5, 0.99): (7.64e-3, 6.69e-2),
    (6, 5, 2.15): (7.59e-3, 5.82e-2),
    (6, 5, 2.97): (7.37e-3, 4.93e-2),
    (12, 9, -1.34): (7.44e-3, 5.23e-2),
    (12, 9, -0.17): (6.53e-3, 4.82e-2),
    (12, 9, 0.99): (6.54e-3, 4.55e-2),
    (12, 9, 2.15): (5.25e-3, 3.78e-2),
    (12, 9, 2.97): (5.03e-3, 2.98e-2),
}
SENSORS = (-1.34, -0.17, 0.99, 2.15, 2.97)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[criterion {num}] {tag}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def table_runs():
    """The ten noiseless default inversions (alpha 1e-6, epsilon 1e-3,
    zero init, 100x100 mesh), shared by criteria 1 and 6."""
    case = get_case("example1")
    runs = {}
    start = time.perf_counter()
    for cell in default_sweep_cells(alpha=1e-6):
        result = invert_case(case.with_sensor(cell.x_star), cell.n_x,
                             cell.n_t, ObjectiveConfig(alpha=cell.alpha),
                             SolverConfig())
        runs[(cell.n_x, cell.n_t, cell.x_star)] = result
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def small_problem():
    geom = get_case("example1").with_sensor(2.97).geometry
    mesh = MeasurementMesh.regular(geom, 100, 100)
    tables = sensitivity_tables(geom, mesh, 6, 5, TR)
    x_phys = geom.to_physical(mesh.x_interior)
    meas = Measurements(
        u_f=(np.sin(x_phys) + 1.0) * np.exp(-geom.t_final),
        u_star=(np.sin(geom.sensor) + 1.0) * np.exp(-mesh.t_interior),
    )
    return geom, mesh, tables, meas


def test_criterion_1_reference_table_reproduction(table_runs):
    runs, elapsed = table_runs
    failures = []
    for key, (ref_f, ref_u0) in REFERENCE_TABLE.items():
        errs = runs[key].errors
        print(f"  cell {key}: E_F={errs.e_f:.3e} ({errs.e_f / ref_f:5.1f}x) "
              f"E_u0={errs.e_u0:.3e} ({errs.e_u0 / ref_u0:5.1f}x) "
              f"{errs.status} n={errs.iterations}")
        for label, got, ref in (("E_F", errs.e_f, ref_f),
                                ("E_u0", errs.e_u0, ref_u0)):
            ratio = got / ref
            if not (1.0 / 3.0 <= ratio <= 3.0):
                failures.append(f"{key} {label}={got:.3e} is {ratio:.1f}x "
                                f"the reference {ref:.2e}")
    for n_pair in ((6, 5), (12, 9)):
        for x_star in SENSORS:
            small = runs[(12, 9, x_star)].errors
            large = runs[(6, 5, x_star)].errors
            if small.e_f > large.e_f or small.e_u0 > large.e_u0:
                failures.append(f"12x9 not <= 6x5 cell-wise at x*={x_star}")
                break
        values = [runs[(n_pair[0], n_pair[1], x)].errors.e_u0
                  for x in SENSORS]
        if not all(b < a for a, b in zip(values, values[1:])):
            failures.append(
                f"E_u0 not decreasing toward x*=2.97 for {n_pair}: "
                + " ".join(f"{v:.3e}" for v in values))
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    # example1 (rod [-pi/2, 3pi/2], u0 = sin x + 1, F independent of x) is
    # mirror-symmetric about x = pi/2, and x* = 0.99 and 2.15 are mirror
    # images up to 0.0016.
    gaps = []
    for n_x, n_t in ((6, 5), (12, 9)):
        ref = (REFERENCE_TABLE[(n_x, n_t, 0.99)][1]
               / REFERENCE_TABLE[(n_x, n_t, 2.15)][1])
        ours = (runs[(n_x, n_t, 0.99)].errors.e_u0
                / runs[(n_x, n_t, 2.15)].errors.e_u0)
        gaps.append(f"{ref - 1:+.1%} at {n_x}x{n_t} "
                    f"(this run {ours - 1:+.2%})")
    gaps = " and ".join(gaps)
    cause = ("measured cause: the reference's E_u0 at x*=0.99 against 2.15 "
             f"is {gaps}; example1 is mirror-symmetric about x = pi/2, so a "
             "mirror-equivariant solve cannot reproduce that gap")
    detail = "; ".join(failures[:4] + [cause]) if failures else ""
    report(1, "ten-cell reconstruction table within 3x plus orderings",
           not failures, detail)


def test_criterion_2_solver_agrees_with_direct_solve(small_problem):
    geom, mesh, tables, meas = small_problem
    cfg = ObjectiveConfig(alpha=1e-6)
    start = time.perf_counter()
    oracle = ridge_solve(meas, cfg, tables)
    params, _, _ = solve(meas, geom, mesh, 6, 5, cfg,
                         SolverConfig(epsilon=1e-12, max_iters=12_000),
                         tables=tables)
    elapsed = time.perf_counter() - start
    gap = max(np.max(np.abs(params.phi - oracle.phi)),
              np.max(np.abs(params.theta - oracle.theta)))
    report(2, "iterative and direct minimizers agree to 1e-4",
           gap <= 1e-4 and elapsed < 5.0,
           f"max coefficient gap {gap:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_matches_finite_differences():
    geom = get_case("example1").with_sensor(2.97).geometry
    mesh = MeasurementMesh.regular(geom, 100, 100)
    tables = sensitivity_tables(geom, mesh, 12, 9, TR)
    x_phys = geom.to_physical(mesh.x_interior)
    meas = Measurements(
        u_f=(np.sin(x_phys) + 1.0) * np.exp(-geom.t_final),
        u_star=(np.sin(geom.sensor) + 1.0) * np.exp(-mesh.t_interior),
    )
    cfg = ObjectiveConfig(alpha=1e-6)
    rng = np.random.default_rng(2024)
    scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
    scale_phi = 1.0 / np.abs(tables.final_phi).max(axis=0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = PolyParams(phi=rng.standard_normal(9) * scale_phi,
                            theta=rng.standard_normal(12) * scale_theta)
        g_phi, g_theta = gradient(params, meas, cfg, tables)
        c0 = cost(params, meas, cfg, tables)
        scale = 1.0 + max(np.abs(g_phi).max(), np.abs(g_theta).max())
        for block, grads in (("phi", g_phi), ("theta", g_theta)):
            for idx in range(grads.size):
                h = 1e-6 * (1.0 + c0) / (1.0 + abs(grads[idx]))
                plus = params.copy()
                getattr(plus, block)[idx] += h
                minus = params.copy()
                getattr(minus, block)[idx] -= h
                fd = (cost(plus, meas, cfg, tables)
                      - cost(minus, meas, cfg, tables)) / (2 * h)
                worst = max(worst,
                            abs(fd - grads[idx]) / (abs(grads[idx]) + 1e-6 * scale))
    elapsed = time.perf_counter() - start
    report(3, "analytic gradient matches central differences to 1e-6",
           worst < 1e-6 and elapsed < 5.0,
           f"worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_step_sizes_match_golden_section(small_problem):
    geom, mesh, tables, meas = small_problem
    cfg = ObjectiveConfig(alpha=1e-6)
    rng = np.random.default_rng(404)
    scale_theta = 1.0 / np.abs(tables.final_theta).max(axis=0)
    scale_phi = 1.0 / np.abs(tables.final_phi).max(axis=0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = PolyParams(phi=rng.standard_normal(5) * scale_phi,
                            theta=rng.standard_normal(6) * scale_theta)
        # the steps solve records for its first two updates, checked along
        # its first two directions rebuilt from the objective: the
        # gradient, then the Fletcher-Reeves conjugate direction
        _, trace, _ = solve(meas, geom, mesh, 6, 5, cfg,
                            SolverConfig(epsilon=1e-300, max_iters=2,
                                         init=params), tables=tables)
        dirs, sq = legendre_gradient(params, meas, cfg, tables)
        for n in range(2):
            if n:
                sq_prev = sq
                grads, sq = legendre_gradient(params, meas, cfg, tables)
                gamma = sq / sq_prev
                dirs = (grads[0] + gamma * dirs[0], grads[1] + gamma * dirs[1])
            beta = trace.beta[n + 1]

            def along(s):
                return cost(PolyParams(phi=params.phi - s * dirs[0],
                                       theta=params.theta - s * dirs[1]),
                            meas, cfg, tables)

            lo, hi = sorted((0.0, 2.0 * beta))
            span = hi - lo if hi > lo else 1.0
            found = golden_minimize(along, lo, hi, tol=1e-9 * span)
            worst = max(worst, abs(found - beta))
            params = PolyParams(phi=params.phi - beta * dirs[0],
                                theta=params.theta - beta * dirs[1])
    elapsed = time.perf_counter() - start
    report(4, "line-search steps match the golden-section oracle to 1e-8",
           worst < 1e-8 and elapsed < 5.0,
           f"worst |delta beta| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_kernel_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, xi = rng.uniform(0.0, L, size=2)
        t = rng.uniform(0.05, 2.0)
        if not math.isclose(greens_function(x, xi, t, L, TR),
                            greens_function(xi, x, t, L, TR),
                            rel_tol=1e-13, abs_tol=1e-15):
            failures.append("symmetry")
            break
    for t in (0.02, 0.5, 2.0):
        if greens_function(0.0, 1.0, t, L, TR) != 0.0 \
                or greens_function(L, 1.0, t, L, TR) != 0.0 \
                or source_kernel(0.0, t, L, TR) != 0.0 \
                or source_kernel(L, t, L, TR) != 0.0:
            failures.append("boundary")
            break
    for x in np.linspace(0.4, L - 0.4, 5):
        for t in np.geomspace(0.02, 2.0, 4):
            ref, _ = integrate.quad(
                lambda xi: greens_function(float(x), xi, float(t), L, TR),
                0.0, L, epsabs=1e-11, epsrel=1e-11, limit=200)
            if abs(source_kernel(float(x), float(t), L, TR) - ref) >= 1e-8:
                failures.append(f"kernel consistency at x={x:.2f} t={t:.2f}")
    for m in range(1, 13):
        for n in range(1, 51):
            got = sine_moment(m, n, L)
            ref = quad_sine_moment(m, n, L)
            if abs(got - ref) > 1e-10 * max(1.0, abs(ref)):
                failures.append(f"sine moment m={m} n={n}")
    for k in range(1, 13):
        for n in range(1, 51):
            lam_sq = (n * math.pi / L) ** 2
            for t in (0.02, 2.0):
                got = exp_moment(k, lam_sq, t)
                ref = quad_exp_moment(k, lam_sq, t)
                if abs(got - ref) > 1e-10 * max(abs(ref), 1e-300):
                    failures.append(f"exp moment k={k} n={n} t={t}")
    elapsed = time.perf_counter() - start
    report(5, "kernel symmetry, boundaries, and moment oracles",
           not failures and elapsed < 10.0,
           "; ".join(failures[:3]) or f"{elapsed:.1f}s")


def test_criterion_6_descent_and_default_convergence(table_runs):
    runs, _ = table_runs
    failures = []
    for key, result in runs.items():
        costs = np.array(result.trace.cost)
        rises = np.diff(costs)
        # 1e-12 slack at the problem's cost scale: recorded values carry the
        # rounding of the response matrix-vector products, which is set by
        # the data scale rather than by the current cost
        allowed = 1e-12 * max(1.0, costs[0])
        if np.any(rises > allowed):
            failures.append(f"{key} trace not monotone "
                            f"(worst rise {rises.max():.2e})")
        if not result.report.converged or result.report.final_cost >= 1e-3:
            failures.append(f"{key} did not reach the 1e-3 stopping level")
    report(6, "monotone traces and default runs reach the stopping level",
           not failures, "; ".join(failures[:4]))


def test_criterion_7_stationarity_inequality(small_problem):
    geom, mesh, tables, meas = small_problem
    cfg = ObjectiveConfig(alpha=1e-6)
    failures = []
    minimizers = {
        "direct": ridge_solve(meas, cfg, tables),
        "iterative": solve(meas, geom, mesh, 6, 5, cfg,
                           SolverConfig(epsilon=1e-12, max_iters=12_000),
                           tables=tables)[0],
    }
    for label, params in minimizers.items():
        check = stationarity_check(params, meas, cfg, tables)
        if not (check.holds_mixed and check.holds_symmetric):
            failures.append(
                f"{label}: margins {check.worst_margin_mixed:.2e} / "
                f"{check.worst_margin_symmetric:.2e}")
    report(7, "necessary condition holds at minimizers (both weightings)",
           not failures, "; ".join(failures))


def test_criterion_8_sensitivity_tables_on_disk(tmp_path):
    cfg = parse_config_text(
        f"command=sensitivity\ni_x=100\ni_t=100\noutdir={tmp_path}\n"
        "run_id=fig\n")
    code = dispatch(cfg)
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    expected = {
        "fig_final_by_initial.csv": 7,
        "fig_sensor_by_initial.csv": 7,
        "fig_final_by_source.csv": 6,
        "fig_sensor_by_source.csv": 6,
    }
    for name, width in expected.items():
        path = tmp_path / name
        if not path.exists():
            failures.append(f"{name} missing")
            continue
        lines = path.read_text().strip().splitlines()
        if len(lines[0].split(",")) != width:
            failures.append(f"{name} has {len(lines[0].split(','))} columns")
        if name.startswith("fig_final"):
            for row in (lines[1], lines[-1]):
                if any(abs(float(v)) > 1e-12 for v in row.split(",")[1:]):
                    failures.append(f"{name} boundary row not zero")
    report(8, "sensitivity tables: four files, column counts, boundary zeros",
           not failures, "; ".join(failures[:3]))
