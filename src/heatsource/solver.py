"""Conjugate-gradient minimizer for the regularized inversion.

The iteration is Fletcher-Reeves CG on the stacked coefficient vector in
CGLS form (Hestenes & Stiefel 1952; Paige & Saunders, LSQR, 1982): the
objective is the least-squares misfit of one stacked system, both blocks
share one momentum coefficient (ratio of stacked squared gradient norms)
and one step size, the exact minimizer of the quadratic objective along the
combined direction.  Exact steps make every iteration nonincreasing in
cost.  Per-block momenta and steps would lose conjugacy through the
cross-coupling of the two response families and crawl.

CG runs in shifted-Legendre coordinates (``legendre_map``), where the
stacked system's condition number is 1.6e3-1.2e4 instead of the monomial
coefficients' 4e5-7e13, and its iteration count follows that.
"""

from __future__ import annotations

import functools
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
    "legendre_map",
    "solve",
    "stationarity_check",
]

logger = logging.getLogger(__name__)

# Stop when every entry of the true gradient is below this absolute level,
# as at an exact start; noisy runs stop at the cost floor instead.
STAGNATION_GRAD_NORM = 1e-14

# The recurrence counts as settled once its Legendre gradient norm is at
# most this fraction of the true one it started from (at the start or the
# last restart), and the true residual is checked: from a far start the
# recurrence drifts from the true residual by the rounding of the start's
# magnitude and can settle above the floor with a tiny gradient of its own.
# About eps times cond(A) (1e4): below it a gradient is rounding.  Runs
# from zero stop before their gradient falls below 1e-11 of its start.
SETTLED_GRAD_RATIO = 1e-12

# The stationarity audit draws STATIONARITY_TRIALS trials from this seed; a
# margin at or above -STATIONARITY_SLACK counts as holding.
STATIONARITY_TRIALS = 20
STATIONARITY_SEED = 20_240_817
STATIONARITY_SLACK = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and iteration policy.

    The iteration stops once the objective value drops below ``epsilon``
    (checked after each update), or at the objective's minimum when
    ``epsilon`` lies below it, or at ``max_iters``, or when the gradient is
    exactly tiny.  ``init`` overrides the all-zero initial guess.
    """

    epsilon: float = 1e-3
    max_iters: int = 10_000
    init: PolyParams | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.max_iters >= 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


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

    worst_margin_mixed: float
    worst_margin_symmetric: float

    @property
    def holds_mixed(self) -> bool:
        return self.worst_margin_mixed >= -STATIONARITY_SLACK

    @property
    def holds_symmetric(self) -> bool:
        return self.worst_margin_symmetric >= -STATIONARITY_SLACK


@dataclass
class ConvergenceReport:
    """Outcome of a solve: what the iteration decided.  The stationarity
    audit and the objective at the returned monomial coefficients are
    computed by their readers (``stationarity_check`` and
    ``objective.cost``)."""

    status: str  # "converged" | "floor" | "not_converged" | "stationary"
    iterations: int
    final_cost: float
    grad_phi_norm: float
    grad_theta_norm: float
    cost_floor: float = math.nan  # minimum of the objective

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def stationarity_check(params: PolyParams, meas: Measurements,
                       cfg: ObjectiveConfig, tables: SensitivityTables
                       ) -> StationarityCheck:
    """Audit the first-order necessary condition at ``params``.

    For each standard-normal trial coefficient vector, build the model
    response to (trial - params) and compare twice-alpha times the penalty
    cross terms against the residual inner products, under both history-sum
    weightings.  Every term comes from a row block of ``stacked_system``.
    Margins are normalized by (1 + |lhs| + |rhs|).
    """
    stacked, r = _stacked_residual(params, meas, cfg, tables)
    # Each trial draws phi before theta; the roll puts the rows in the
    # [theta | phi] layout of x.
    trials = np.roll(np.random.default_rng(STATIONARITY_SEED).standard_normal(
        (STATIONARITY_TRIALS, tables.n_t + tables.n_x)), tables.n_x, axis=1)
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
        worst.append(float(margin.min()))
    return StationarityCheck(*worst)


# Typed: top = 3 and 3.0 give other bits from n = 35 on, as the integer
# powers of 3 are exact and the float ones rounded.
@functools.lru_cache(maxsize=16, typed=True)
def legendre_map(n: int, top: float) -> np.ndarray:
    """Shifted-Legendre to monomial coefficients on ``[0, top]``.

    Column ``k`` holds the power-series coefficients of the degree-``k``
    Legendre polynomial mapped onto ``[0, top]``, so ``x = T y`` turns
    Legendre coefficients ``y`` into monomial ones:
    ``T[j, k] = (-1)^(k+j) C(k, j) C(k+j, j) / top^j`` for ``j <= k``.
    Kept per ``(n, top)``; the array is read-only.
    """
    basis = np.array([[(-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j)
                       / top ** j for k in range(n)] for j in range(n)])
    basis.flags.writeable = False
    return basis


def solve(meas: Measurements, geom: Geometry, mesh: MeasurementMesh,
          n_x: int, n_t: int, obj_cfg: ObjectiveConfig,
          solver_cfg: SolverConfig,
          trunc: TruncationPolicy = DEFAULT_TRUNCATION,
          tables: SensitivityTables | None = None):
    """Run the conjugate-gradient inversion.

    Returns (params, trace, report).  The response tables are built once
    (or reused if passed in).  The objective is ``|rhs - M x|^2`` on the
    stacked system of ``stacked_system`` with ``x = [theta; phi]``.  CG
    iterates on Legendre coefficients ``y``, ``x = T y``, where ``T`` is
    block diagonal: ``legendre_map`` on ``[0, L]`` for theta and on
    ``[0, t_f]`` for phi.  It forms ``A = M T`` once; each iteration costs
    one product ``A d``, the products ``r M`` and ``r A``, and vector
    updates: the residual ``r`` follows the recurrence ``r += beta A d``,
    the monomial gradient is ``g = -2 r M`` and the Legendre one
    ``g_y = -2 r A = T^T g``.  ``g_y`` is taken from ``A``: ``T^T`` applied
    to the rounded ``g`` loses digits to cancellation (91 instead of 85
    iterations on the ten default sweep cells).  The trace records the
    recurrence cost and the monomial gradient norms; its momentum
    ``gamma`` and step ``beta`` act on ``y``.  An ``init`` is mapped in by
    solving the triangular system ``T y = x``, and ``x = T y`` out.

    When the recurrence cost drops below ``epsilon``, or to ``floor_tol``
    (the ``cost_floor`` minimum of ``A`` plus ``8 sqrt(floor) nu + nu^2``,
    the rounding of the cost near it, with ``nu = eps sqrt(m) |rhs|`` for
    ``m`` rows), or when the recurrence's ``|g_y|`` has fallen to
    ``SETTLED_GRAD_RATIO`` times the true ``|g_y|`` it started from, the
    solver recomputes the true residual ``rhs - A y``.  A true cost below
    ``epsilon`` stops as "converged", else one at most ``floor_tol`` stops
    as "floor" (``epsilon`` is unreachable), else the iteration restarts
    along the true gradient, which the next settled test is relative to.
    A true gradient with every entry below ``STAGNATION_GRAD_NORM``, as at
    an exact start, stops as "stationary".  A reachable ``epsilon`` lies
    above ``floor_tol``, so the floor never changes such runs.

    Non-finite cost or gradients raise DivergenceError with the trace
    attached; hitting max_iters returns the last iterate with status
    "not_converged".  Every status returns the iterate the iteration ended
    on: exact steps never raise the cost, so no earlier iterate is better
    beyond rounding.  The report's cost and gradient norms come from the
    true residual ``rhs - A y`` of the returned iterate; ``objective.cost``
    of the returned monomial image ``x = T y`` differs from that cost by
    the rounding of ``T``.
    """
    if tables is None:
        tables = sensitivity_tables(geom, mesh, n_x, n_t, trunc)
    basis = np.zeros((n_x + n_t, n_x + n_t))
    basis[:n_x, :n_x] = legendre_map(n_x, geom.length)
    basis[n_x:, n_x:] = legendre_map(n_t, geom.t_final)
    if solver_cfg.init is not None:
        tables.check_params(solver_cfg.init)
        y = np.linalg.solve(basis, np.concatenate([solver_cfg.init.theta,
                                                   solver_cfg.init.phi]))
    else:
        y = np.zeros(n_x + n_t)
    stacked, rhs = stacked_system(meas, obj_cfg, tables)
    stacked_legendre = stacked @ basis
    floor = cost_floor(stacked_legendre, rhs)
    nu = np.finfo(float).eps * math.sqrt(rhs.size) * np.linalg.norm(rhs)
    floor_tol = floor + 8.0 * math.sqrt(floor) * nu + nu * nu

    trace = IterationTrace()
    r = rhs - stacked_legendre @ y
    g = -2.0 * (r @ stacked)
    g_y = -2.0 * (r @ stacked_legendre)
    stalled = np.abs(g).max() < STAGNATION_GRAD_NORM
    settled = SETTLED_GRAD_RATIO ** 2 * (g_y @ g_y)
    _record(trace, r @ r, g, n_x)

    status = "not_converged"
    d = None  # no direction to continue: the next step is a restart
    gg_prev = 0.0

    for n in range(solver_cfg.max_iters):
        if stalled:
            status = "stationary"
            break
        gg = g_y @ g_y
        if d is None:
            gamma, d = 0.0, g_y
        else:
            gamma = gg / gg_prev
            d = g_y + gamma * d
        q = stacked_legendre @ d
        qq = q @ q
        if qq == 0.0:
            logger.warning("degenerate direction at iteration %d; "
                           "restarting with the plain gradient", n)
            gamma, d = 0.0, g_y
            q = stacked_legendre @ d
            qq = q @ q
            if qq == 0.0:
                raise DegenerateDirectionError(
                    "direction is invisible to both the data and the penalty")
        beta = float(-(r @ q) / qq)
        y = y - beta * d
        r = r + beta * q
        gg_prev = gg
        g = -2.0 * (r @ stacked)
        g_y = -2.0 * (r @ stacked_legendre)
        current_cost = _record(trace, r @ r, g, n_x, gamma, beta)
        if (current_cost < solver_cfg.epsilon or current_cost <= floor_tol
                or g_y @ g_y <= settled):
            r = rhs - stacked_legendre @ y
            g = -2.0 * (r @ stacked)
            g_y = -2.0 * (r @ stacked_legendre)
            stalled = np.abs(g).max() < STAGNATION_GRAD_NORM
            settled = SETTLED_GRAD_RATIO ** 2 * (g_y @ g_y)
            true_cost = float(r @ r)
            if true_cost < solver_cfg.epsilon:
                status = "converged"
                break
            if true_cost <= floor_tol:
                status = "floor"
                break
            d = None

    if status == "not_converged":  # r may be the recurrence's
        r = rhs - stacked_legendre @ y
        g = -2.0 * (r @ stacked)
    x = basis @ y
    params = PolyParams(phi=x[n_x:], theta=x[:n_x])
    report = ConvergenceReport(
        status=status,
        iterations=len(trace) - 1,
        final_cost=float(r @ r),
        grad_phi_norm=float(np.linalg.norm(g[n_x:])),
        grad_theta_norm=float(np.linalg.norm(g[:n_x])),
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
