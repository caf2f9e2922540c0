"""Conjugate-gradient minimizer for the regularized inversion.

The iteration is Fletcher-Reeves CG on the stacked coefficient vector: both
blocks share one momentum coefficient (ratio of stacked squared gradient
norms) and one step size, the exact minimizer of the quadratic objective
along the combined direction.  Exact steps make every iteration nonincreasing
in cost.  Per-block momenta and steps would lose conjugacy through the
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
from .objective import Measurements, ObjectiveConfig, cost, gradient, residuals

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "StationarityCheck",
    "ConvergenceReport",
    "step_size",
    "solve",
    "stationarity_check",
]

logger = logging.getLogger(__name__)

# Below this gradient sup-norm the iteration cannot make progress in double
# precision; used to stop runs whose cost target is unreachable (noisy data).
STAGNATION_GRAD_NORM = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and iteration policy.

    The iteration stops once the objective value drops below ``epsilon``
    (checked after each update), or at ``max_iters``, or when the gradient
    stagnates at rounding level.  ``restart_period`` optionally zeroes the
    momentum every so many iterations; ``init`` overrides the all-zero
    initial guess.
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
    gamma_phi: list = field(default_factory=list)
    gamma_theta: list = field(default_factory=list)
    beta_phi: list = field(default_factory=list)
    beta_theta: list = field(default_factory=list)

    HEADER = ("iteration", "cost", "grad_phi_norm", "grad_theta_norm",
              "gamma_phi", "gamma_theta", "beta_phi", "beta_theta")

    def append(self, cost_value, g_phi_norm, g_theta_norm,
               gamma_phi=0.0, gamma_theta=0.0, beta_phi=0.0, beta_theta=0.0):
        self.cost.append(float(cost_value))
        self.grad_phi_norm.append(float(g_phi_norm))
        self.grad_theta_norm.append(float(g_theta_norm))
        self.gamma_phi.append(float(gamma_phi))
        self.gamma_theta.append(float(gamma_theta))
        self.beta_phi.append(float(beta_phi))
        self.beta_theta.append(float(beta_theta))

    def __len__(self):
        return len(self.cost)

    def rows(self):
        for n in range(len(self.cost)):
            yield (n, self.cost[n], self.grad_phi_norm[n],
                   self.grad_theta_norm[n], self.gamma_phi[n],
                   self.gamma_theta[n], self.beta_phi[n], self.beta_theta[n])


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

    status: str  # "converged" | "not_converged" | "stationary"
    iterations: int
    final_cost: float
    grad_phi_norm: float
    grad_theta_norm: float
    stationarity: StationarityCheck | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _block_norms(grad_pair):
    g_phi, g_theta = grad_pair
    return float(np.linalg.norm(g_phi)), float(np.linalg.norm(g_theta))


def _sup_norm(grad_pair):
    return max(float(np.max(np.abs(g), initial=0.0)) for g in grad_pair)


def stationarity_check(params: PolyParams, meas: Measurements,
                       cfg: ObjectiveConfig, tables: SensitivityTables,
                       n_trials: int = 20, seed: int = 20_240_817,
                       slack: float = 1e-8) -> StationarityCheck:
    """Audit the first-order necessary condition at ``params``.

    For each standard-normal trial coefficient vector, build the model
    response to (trial - params) and compare twice-alpha times the penalty
    cross terms against the residual inner products, under both history-sum
    weightings.  Margins are normalized by (1 + |lhs| + |rhs|).
    """
    rng = np.random.default_rng(seed)
    r_f, r_s = residuals(params, meas, tables)
    worst_mixed = math.inf
    worst_sym = math.inf
    for _ in range(n_trials):
        trial_phi = rng.standard_normal(tables.n_t)
        trial_theta = rng.standard_normal(tables.n_x)
        d_phi = trial_phi - params.phi
        d_theta = trial_theta - params.theta
        v_f = tables.final_theta @ d_theta + tables.final_phi @ d_phi
        v_s = tables.sensor_theta @ d_theta + tables.sensor_phi @ d_phi
        pen_x_trial = tables.penalty_x @ trial_theta
        pen_x_delta = tables.penalty_x @ d_theta
        pen_t_trial = tables.penalty_t @ trial_phi
        pen_t_delta = tables.penalty_t @ d_phi
        lhs = float(2.0 * cfg.alpha * (
            pen_x_trial @ pen_x_delta + pen_t_trial @ pen_t_delta
        ))
        data_f = float(r_f @ v_f)
        data_s = float(r_s @ v_s)
        for weight_s, bucket in ((1.0, "mixed"), (2.0, "symmetric")):
            rhs = 2.0 * data_f + weight_s * data_s
            margin = (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
            if bucket == "mixed":
                worst_mixed = min(worst_mixed, margin)
            else:
                worst_sym = min(worst_sym, margin)
    return StationarityCheck(
        n_trials=n_trials,
        worst_margin_mixed=worst_mixed,
        worst_margin_symmetric=worst_sym,
        slack=slack,
    )


def step_size(params: PolyParams, dirs, meas: Measurements,
              cfg: ObjectiveConfig, tables: SensitivityTables) -> float:
    """Exact minimizing step of the objective along the combined direction
    (both blocks moving together); the update is ``params - step * dirs``.

    A zero direction gives step 0; a nonzero direction with zero
    denominator (invisible to both the data and the penalty) raises
    DegenerateDirectionError.
    """
    d_phi, d_theta = dirs
    r_f, r_s = residuals(params, meas, tables)
    resp_f = tables.final_phi @ d_phi + tables.final_theta @ d_theta
    resp_s = tables.sensor_phi @ d_phi + tables.sensor_theta @ d_theta
    pen_resp_t = tables.penalty_t @ d_phi
    pen_resp_x = tables.penalty_x @ d_theta
    denom = (resp_f @ resp_f + resp_s @ resp_s
             + cfg.alpha * (pen_resp_t @ pen_resp_t + pen_resp_x @ pen_resp_x))
    if denom == 0.0:
        if not (np.any(d_phi != 0.0) or np.any(d_theta != 0.0)):
            return 0.0
        raise DegenerateDirectionError(
            "direction is invisible to both the data and the penalty")
    numer = (-(r_f @ resp_f) - (r_s @ resp_s)
             + cfg.alpha * ((tables.penalty_t @ params.phi) @ pen_resp_t
                            + (tables.penalty_x @ params.theta) @ pen_resp_x))
    return float(numer / denom)


def solve(meas: Measurements, geom: Geometry, mesh: MeasurementMesh,
          n_x: int, n_t: int, obj_cfg: ObjectiveConfig,
          solver_cfg: SolverConfig,
          trunc: TruncationPolicy = DEFAULT_TRUNCATION,
          tables: SensitivityTables | None = None):
    """Run the conjugate-gradient inversion.

    Returns (params, trace, report).  The response tables are built once
    (or reused if passed in); each iteration then costs a handful of small
    matrix-vector products.  Non-finite cost or gradients raise
    DivergenceError with the trace attached; hitting max_iters returns the
    best iterate seen with status "not_converged".
    """
    if tables is None:
        tables = sensitivity_tables(geom, mesh, n_x, n_t, trunc)
    if solver_cfg.init is not None:
        params = solver_cfg.init.copy()
        tables.check_params(params)
    else:
        params = PolyParams.zeros(n_x, n_t)
    meas.check_against(tables)

    trace = IterationTrace()
    current_cost = cost(params, meas, obj_cfg, tables)
    grads = gradient(params, meas, obj_cfg, tables)
    gn_phi, gn_theta = _block_norms(grads)
    _require_finite(current_cost, grads, trace)  # trace keeps finite rows only
    trace.append(current_cost, gn_phi, gn_theta)

    status = "not_converged"
    best_params = params.copy()
    best_cost = current_cost
    grad_prev = None
    dir_prev = None
    iterations = 0

    for n in range(solver_cfg.max_iters):
        if _sup_norm(grads) < STAGNATION_GRAD_NORM:
            status = "stationary"
            break
        restart = (
            solver_cfg.restart_period is not None
            and n > 0
            and n % solver_cfg.restart_period == 0
        )
        if n == 0 or restart:
            gamma = 0.0
        else:
            prev_sq = sum(float(g @ g) for g in grad_prev)
            now_sq = sum(float(g @ g) for g in grads)
            gamma = now_sq / prev_sq if prev_sq > 0.0 else 0.0
        if gamma == 0.0:
            dirs = grads
        else:
            dirs = (grads[0] + gamma * dir_prev[0],
                    grads[1] + gamma * dir_prev[1])
        try:
            beta = step_size(params, dirs, meas, obj_cfg, tables)
        except DegenerateDirectionError:
            logger.warning("degenerate direction at iteration %d; "
                           "restarting with the plain gradient", n)
            gamma = 0.0
            dirs = grads
            beta = step_size(params, dirs, meas, obj_cfg, tables)
        params = PolyParams(
            phi=params.phi - beta * dirs[0],
            theta=params.theta - beta * dirs[1],
        )
        current_cost = cost(params, meas, obj_cfg, tables)
        grad_prev, dir_prev = grads, dirs
        grads = gradient(params, meas, obj_cfg, tables)
        gn_phi, gn_theta = _block_norms(grads)
        _require_finite(current_cost, grads, trace)
        trace.append(current_cost, gn_phi, gn_theta, gamma, gamma, beta, beta)
        iterations = n + 1
        if current_cost < best_cost:
            best_cost = current_cost
            best_params = params.copy()
        if current_cost < solver_cfg.epsilon:
            status = "converged"
            break

    if status != "converged":
        params = best_params
        current_cost = best_cost
        gn_phi, gn_theta = _block_norms(gradient(params, meas, obj_cfg, tables))

    report = ConvergenceReport(
        status=status,
        iterations=iterations,
        final_cost=current_cost,
        grad_phi_norm=gn_phi,
        grad_theta_norm=gn_theta,
        stationarity=stationarity_check(params, meas, obj_cfg, tables),
    )
    return params, trace, report


def _require_finite(cost_value, grads, trace):
    """Raise DivergenceError (with the finite trace so far) on bad values."""
    if not math.isfinite(cost_value):
        raise DivergenceError(f"non-finite cost {cost_value}", trace=trace)
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise DivergenceError("non-finite gradient", trace=trace)
