"""Regularized data-misfit objective over the polynomial coefficients, its
analytic gradient, and a direct dense least-squares reference solver.

The objective is the sum of squared misfits at the final-time profile nodes
and at the sensor-history nodes, plus alpha times the squared sampled values
of the two reconstructed polynomials at the same nodes.  Because the forward
model is linear in the coefficients, the objective is a convex quadratic and
its exact minimizer is available by a direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError, SingularSystemError
from .model import PolyParams, SensitivityTables

__all__ = [
    "Measurements",
    "ObjectiveConfig",
    "cost",
    "cost_floor",
    "exact_residual",
    "gradient",
    "ridge_solve",
    "stacked_system",
]


@dataclass
class Measurements:
    """Sampled data: final-time profile u_f at x_1..x_I and interior history
    u_star at t_1..t_I (node 0 excluded on both meshes)."""

    u_f: np.ndarray
    u_star: np.ndarray

    def __post_init__(self):
        self.u_f = np.atleast_1d(np.asarray(self.u_f, dtype=float))
        self.u_star = np.atleast_1d(np.asarray(self.u_star, dtype=float))
        if not (np.all(np.isfinite(self.u_f)) and np.all(np.isfinite(self.u_star))):
            raise DomainError("measurements must be finite")

    def check_against(self, tables: SensitivityTables) -> None:
        if self.u_f.size != tables.final_theta.shape[0]:
            raise ShapeMismatchError(
                f"u_f has {self.u_f.size} samples, mesh provides "
                f"{tables.final_theta.shape[0]} final-time nodes"
            )
        if self.u_star.size != tables.sensor_theta.shape[0]:
            raise ShapeMismatchError(
                f"u_star has {self.u_star.size} samples, mesh provides "
                f"{tables.sensor_theta.shape[0]} history nodes"
            )


@dataclass(frozen=True)
class ObjectiveConfig:
    """Regularization weight.  alpha = 0 is allowed (unregularized mode,
    used by the exactness-oriented tests)."""

    alpha: float = 1e-6

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def residuals(params: PolyParams, meas: Measurements,
              tables: SensitivityTables):
    """Data-minus-model residuals (final profile, sensor history)."""
    meas.check_against(tables)
    u_final, u_sensor = tables.predict(params)
    return meas.u_f - u_final, meas.u_star - u_sensor


def cost(params: PolyParams, meas: Measurements, cfg: ObjectiveConfig,
         tables: SensitivityTables) -> float:
    """Value of the regularized objective at the given coefficients, from
    ``exact_residual``."""
    stacked, rhs = stacked_system(meas, cfg, tables)
    tables.check_params(params)
    r = exact_residual(stacked, rhs, np.concatenate([params.theta,
                                                     params.phi]))
    return float(r @ r)


def exact_residual(stacked: np.ndarray, rhs: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """``rhs - M x`` formed in extended precision (``np.longdouble``) and
    rounded once to double.  In double the product rounds by about
    ``eps |M| |x|`` per row, which for the monomial coefficients of a
    12x9 minimiser moves the cost by up to 1e-8 of itself, either way;
    rounded once, the residual is good to ``eps |r|`` where
    ``np.longdouble`` carries 64 bits (on x86-64; where it is double, the
    rounding is as before)."""
    wide = np.longdouble
    return (rhs.astype(wide) - stacked.astype(wide) @ x.astype(wide)
            ).astype(float)


def gradient(params: PolyParams, meas: Measurements, cfg: ObjectiveConfig,
             tables: SensitivityTables):
    """Analytic gradient blocks (d/d phi, d/d theta)."""
    stacked, r = _stacked_residual(params, meas, cfg, tables)
    g = -2.0 * (r @ stacked)
    return g[tables.n_x:], g[:tables.n_x]


def _stacked_residual(params, meas, cfg, tables):
    """``(M, rhs - M x)`` on ``stacked_system`` at ``x = [theta; phi]``."""
    stacked, rhs = stacked_system(meas, cfg, tables)
    tables.check_params(params)
    return stacked, rhs - stacked @ np.concatenate([params.theta, params.phi])


def stacked_system(meas: Measurements, cfg: ObjectiveConfig,
                   tables: SensitivityTables):
    """The objective as one least-squares system ``|rhs - M x|^2``.

    ``M`` stacks the design ``[final_theta, final_phi; sensor_theta,
    sensor_phi]`` over ``sqrt(alpha)`` times the block-diagonal penalty, and
    ``x = [theta; phi]``.  Returns ``(M, rhs)``.  This is the one place that
    weights the misfit and penalty terms: ``cost``, ``gradient``, both
    solvers and the stationarity audit all evaluate this system.
    """
    meas.check_against(tables)
    n_x = tables.n_x
    end_f = meas.u_f.size
    end_s = end_f + meas.u_star.size
    end_x = end_s + tables.penalty_x.shape[0]
    stacked = np.zeros((end_x + tables.penalty_t.shape[0], n_x + tables.n_t))
    stacked[:end_f, :n_x] = tables.final_theta
    stacked[:end_f, n_x:] = tables.final_phi
    stacked[end_f:end_s, :n_x] = tables.sensor_theta
    stacked[end_f:end_s, n_x:] = tables.sensor_phi
    root_alpha = np.sqrt(cfg.alpha)
    np.multiply(root_alpha, tables.penalty_x, out=stacked[end_s:end_x, :n_x])
    np.multiply(root_alpha, tables.penalty_t, out=stacked[end_x:, n_x:])
    rhs = np.zeros(stacked.shape[0])
    rhs[:end_f] = meas.u_f
    rhs[end_f:end_s] = meas.u_star
    return stacked, rhs


def cost_floor(stacked: np.ndarray, rhs: np.ndarray) -> float:
    """Minimum of ``|rhs - M x|^2`` over ``x``, from one thin QR of ``M``.

    The floor is the squared norm of the part of ``rhs`` outside the column
    space: ``r = rhs - Q (Q^T rhs)``.  Unlike ``ridge_solve``, whose
    ``lstsq`` drops singular values below ``max(M.shape) * eps`` relative
    and so can land above the minimum, the projection keeps every
    direction.  Its rounding grows with the condition number of ``M``: it
    matches a full-rank SVD solve to 1e-10 relative at 6x5 (cond ~1e7) but
    only to ~1e-5 at 12x9 (cond ~7e13).
    """
    q, _ = np.linalg.qr(stacked)
    r = rhs - q @ (q.T @ rhs)
    return float(r @ r)


def ridge_solve(meas: Measurements, cfg: ObjectiveConfig,
                tables: SensitivityTables) -> PolyParams:
    """Exact global minimizer of the objective by a dense least-squares
    solve of the stacked system [design; sqrt(alpha) * penalty].

    Stacking instead of forming the normal matrix keeps the conditioning of
    the design rather than its square.  Raises SingularSystemError when
    alpha = 0 and the design is rank deficient.
    """
    n_x, n_t = tables.n_x, tables.n_t
    stacked, rhs = stacked_system(meas, cfg, tables)
    solution, _, rank, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
    if cfg.alpha == 0.0 and rank < n_x + n_t:
        raise SingularSystemError(
            f"unregularized design is rank deficient (rank {rank} of "
            f"{n_x + n_t}); use alpha > 0"
        )
    return PolyParams(phi=solution[n_x:], theta=solution[:n_x])
