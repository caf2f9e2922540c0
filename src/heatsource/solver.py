"""Conjugate-gradient minimizer for the regularized inversion.

The iteration is Fletcher-Reeves CG on the stacked coefficient vector in
CGLS form (Hestenes & Stiefel 1952; Paige & Saunders, LSQR, 1982): the
objective is the least-squares misfit of one stacked system, both blocks
share one momentum coefficient (ratio of stacked squared gradient norms)
and one step size, the exact minimizer of the quadratic objective along the
combined direction.  Exact steps make every iteration nonincreasing in
cost.  Per-block momenta and steps would lose conjugacy through the
cross-coupling of the two response families and crawl.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirectionError, DivergenceError
from .kernels import DEFAULT_TRUNCATION, TruncationPolicy
from .model import (Geometry, MeasurementMesh, PolyParams, SensitivityTables,
                    sensitivity_tables)
from .objective import (Measurements, ObjectiveConfig, _stacked_residual,
                        cost_floor, stacked_system)

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "StationarityCheck",
    "ConvergenceReport",
    "solve",
    "stationarity_check",
]

logger = logging.getLogger(__name__)

# Stop when every entry of the recurrence gradient is below this absolute
# level.  It fires only when the gradient is exactly tiny, as at an exact
# start; a run whose epsilon lies below the attainable cost (noisy data)
# keeps a gradient far above it and stops at the cost floor instead.
STAGNATION_GRAD_NORM = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and iteration policy.

    The iteration stops once the objective value drops below ``epsilon``
    (checked after each update), or at the objective's minimum when
    ``epsilon`` lies below it, or at ``max_iters``, or when the gradient is
    exactly tiny.  ``restart_period`` optionally zeroes the momentum every
    so many iterations; ``init`` overrides the all-zero initial guess.
    """

    epsilon: float = 1e-3
    max_iters: int = 10_000
    restart_period: int | None = None
    init: PolyParams | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.restart_period is not None and self.restart_period < 1:
            raise ValueError(
                f"restart_period must be >= 1 or None, got {self.restart_period}"
            )


@dataclass
class IterationTrace:
    """Per-iteration diagnostics.  Row 0 is the initial state; row n holds
    the cost and gradient norms after update n together with the momentum
    and step coefficients that produced it."""

    cost: list = field(default_factory=list)
    grad_phi_norm: list = field(default_factory=list)
    grad_theta_norm: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    beta: list = field(default_factory=list)

    # Both blocks share one momentum and one step; each is written twice,
    # once per block column.
    HEADER = ("iteration", "cost", "grad_phi_norm", "grad_theta_norm",
              "gamma_phi", "gamma_theta", "beta_phi", "beta_theta")

    def append(self, cost_value, g_phi_norm, g_theta_norm, gamma=0.0,
               beta=0.0):
        self.cost.append(float(cost_value))
        self.grad_phi_norm.append(float(g_phi_norm))
        self.grad_theta_norm.append(float(g_theta_norm))
        self.gamma.append(float(gamma))
        self.beta.append(float(beta))

    def __len__(self):
        return len(self.cost)

    def rows(self):
        for n in range(len(self.cost)):
            yield (n, self.cost[n], self.grad_phi_norm[n],
                   self.grad_theta_norm[n], self.gamma[n], self.gamma[n],
                   self.beta[n], self.beta[n])


@dataclass
class StationarityCheck:
    """Necessary-condition audit at a candidate minimizer.

    For random trial coefficients, the regularization cross terms must
    dominate the weighted residual inner products with the trial-minus-
    minimizer perturbation response.  Both weightings of the history sum
    (the asymmetric mixed form and the symmetric factor-2 form) are
    evaluated; margins are normalized by the magnitude of the two sides.
    """

    n_trials: int
    worst_margin_mixed: float
    worst_margin_symmetric: float
    slack: float = 1e-8

    @property
    def holds_mixed(self) -> bool:
        return self.worst_margin_mixed >= -self.slack

    @property
    def holds_symmetric(self) -> bool:
        return self.worst_margin_symmetric >= -self.slack


@dataclass
class ConvergenceReport:
    """Outcome of a solve: status, final cost, and the stationarity audit."""

    status: str  # "converged" | "floor" | "not_converged" | "stationary"
    iterations: int
    final_cost: float
    grad_phi_norm: float
    grad_theta_norm: float
    stationarity: StationarityCheck | None = None
    cost_floor: float = math.nan  # minimum of the objective

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def stationarity_check(params: PolyParams, meas: Measurements,
                       cfg: ObjectiveConfig, tables: SensitivityTables,
                       n_trials: int = 20, seed: int = 20_240_817,
                       slack: float = 1e-8) -> StationarityCheck:
    """Audit the first-order necessary condition at ``params``.

    For each standard-normal trial coefficient vector, build the model
    response to (trial - params) and compare twice-alpha times the penalty
    cross terms against the residual inner products, under both history-sum
    weightings.  Every term comes from a row block of ``stacked_system``.
    Margins are normalized by (1 + |lhs| + |rhs|).
    """
    stacked, r = _stacked_residual(params, meas, cfg, tables)
    # One row per trial, drawn as [phi | theta] in the per-trial order and
    # reordered to the [theta | phi] layout of x.
    trials = np.roll(np.random.default_rng(seed).standard_normal(
        (n_trials, tables.n_t + tables.n_x)), tables.n_x, axis=1)
    deltas = trials - np.concatenate([params.theta, params.phi])
    response = deltas @ stacked.T
    # Row blocks of M: final-time profile, sensor history, penalty.
    end_f = meas.u_f.size
    end_s = end_f + meas.u_star.size
    data_f = response[:, :end_f] @ r[:end_f]
    data_s = response[:, end_f:end_s] @ r[end_f:end_s]
    lhs = 2.0 * np.einsum("ij,ij->i", trials @ stacked[end_s:].T,
                          response[:, end_s:])
    worst = []
    for weight_s in (1.0, 2.0):  # the mixed and the symmetric weighting
        rhs = 2.0 * data_f + weight_s * data_s
        margin = (lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
        worst.append(float(margin.min(initial=math.inf)))
    return StationarityCheck(n_trials, *worst, slack=slack)


def solve(meas: Measurements, geom: Geometry, mesh: MeasurementMesh,
          n_x: int, n_t: int, obj_cfg: ObjectiveConfig,
          solver_cfg: SolverConfig,
          trunc: TruncationPolicy = DEFAULT_TRUNCATION,
          tables: SensitivityTables | None = None):
    """Run the conjugate-gradient inversion.

    Returns (params, trace, report).  The response tables are built once
    (or reused if passed in).  The objective is ``|rhs - M x|^2`` on the
    stacked system of ``stacked_system`` with ``x = [theta; phi]``, and each
    iteration costs one product ``M d``, one product ``r M`` and vector
    updates: the residual ``r`` follows the recurrence ``r += beta M d``.
    The trace records that recurrence cost.

    When the recurrence cost drops below ``epsilon``, or to ``floor_tol``
    (the ``cost_floor`` minimum plus ``8 sqrt(floor) nu + nu^2``, the
    rounding of the cost near it, with ``nu = eps sqrt(m) |rhs|`` for
    ``m`` rows), the solver recomputes the true residual ``rhs - M x``.  A
    true cost below ``epsilon`` stops as "converged", else one at most
    ``floor_tol`` stops as "floor" (``epsilon`` is unreachable), else the
    iteration restarts along the true gradient.  A reachable ``epsilon``
    lies above ``floor_tol``, so the floor never changes such runs.

    Non-finite cost or gradients raise DivergenceError with the trace
    attached; hitting max_iters returns the best iterate seen with status
    "not_converged".  The report's cost and gradient norms come from the
    true residual of the returned iterate.
    """
    if tables is None:
        tables = sensitivity_tables(geom, mesh, n_x, n_t, trunc)
    if solver_cfg.init is not None:
        tables.check_params(solver_cfg.init)
        x = np.concatenate([solver_cfg.init.theta, solver_cfg.init.phi])
    else:
        x = np.zeros(n_x + n_t)
    stacked, rhs = stacked_system(meas, obj_cfg, tables)
    floor = cost_floor(stacked, rhs)
    nu = np.finfo(float).eps * math.sqrt(rhs.size) * np.linalg.norm(rhs)
    floor_tol = floor + 8.0 * math.sqrt(floor) * nu + nu * nu

    trace = IterationTrace()
    r = rhs - stacked @ x
    g = -2.0 * (r @ stacked)
    current_cost = _record(trace, r @ r, g, n_x)

    status = "not_converged"
    best_x, best_cost = x, current_cost
    period = solver_cfg.restart_period
    d = None  # no direction to continue: the next step is a restart
    gg_prev = 0.0
    iterations = 0

    for n in range(solver_cfg.max_iters):
        if np.abs(g).max() < STAGNATION_GRAD_NORM:
            status = "stationary"
            break
        gg = g @ g
        if d is None or (period is not None and n % period == 0):
            gamma, d = 0.0, g
        else:
            gamma = gg / gg_prev
            d = g + gamma * d
        q = stacked @ d
        qq = q @ q
        if qq == 0.0:
            logger.warning("degenerate direction at iteration %d; "
                           "restarting with the plain gradient", n)
            gamma, d = 0.0, g
            q = stacked @ d
            qq = q @ q
            if qq == 0.0:
                raise DegenerateDirectionError(
                    "direction is invisible to both the data and the penalty")
        beta = float(-(r @ q) / qq)
        x = x - beta * d
        r = r + beta * q
        gg_prev = gg
        g = -2.0 * (r @ stacked)
        current_cost = _record(trace, r @ r, g, n_x, gamma, beta)
        iterations = n + 1
        if current_cost < best_cost:
            best_x, best_cost = x, current_cost
        if current_cost < solver_cfg.epsilon or current_cost <= floor_tol:
            r = rhs - stacked @ x
            g = -2.0 * (r @ stacked)
            best_cost = float(r @ r)
            if best_cost < solver_cfg.epsilon:
                status = "converged"
                break
            if best_cost <= floor_tol:
                status = "floor"
                break
            d = None

    if status not in ("converged", "floor"):
        x = best_x
        r = rhs - stacked @ x
        g = -2.0 * (r @ stacked)
    params = PolyParams(phi=x[n_x:], theta=x[:n_x])
    report = ConvergenceReport(
        status=status,
        iterations=iterations,
        final_cost=float(r @ r),
        grad_phi_norm=float(np.linalg.norm(g[n_x:])),
        grad_theta_norm=float(np.linalg.norm(g[:n_x])),
        stationarity=stationarity_check(params, meas, obj_cfg, tables),
        cost_floor=floor,
    )
    return params, trace, report


def _record(trace, cost_value, g, n_x, gamma=0.0, beta=0.0):
    """Append a trace row; raise DivergenceError (with the finite trace so
    far) instead when the cost or a gradient norm is not finite."""
    cost_value = float(cost_value)
    g_theta, g_phi = g[:n_x], g[n_x:]
    gn_phi = math.sqrt(g_phi @ g_phi)
    gn_theta = math.sqrt(g_theta @ g_theta)
    if not math.isfinite(cost_value):
        raise DivergenceError(f"non-finite cost {cost_value}", trace=trace)
    if not math.isfinite(gn_phi + gn_theta):
        raise DivergenceError("non-finite gradient", trace=trace)
    trace.append(cost_value, gn_phi, gn_theta, gamma, beta)
    return cost_value
