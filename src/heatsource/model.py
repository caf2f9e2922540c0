"""Parametrized temperature responses, their sensitivity tables on a
measurement mesh, and pointwise evaluation of the model.

The model is linear in the polynomial coefficients: the temperature at any
point is a fixed linear functional of (phi, theta), assembled per harmonic
from the closed-form kernel moments.  All spatial math runs in the shifted
frame x' = x - offset in [0, L]; only user-facing values carry the offset.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import kernels
from .errors import DomainError, ShapeMismatchError
from .kernels import (
    DEFAULT_TRUNCATION,
    TruncationPolicy,
    _exp_negated,
    _warn_truncated,
    exp_moment_rows,
    exp_moment_small,
    exp_moment_stack,
    mode_count,
    sin_modes,
    sine_moment_stack,
)

__all__ = [
    "Geometry",
    "PolyParams",
    "MeasurementMesh",
    "SensitivityTables",
    "RodTables",
    "rod_tables",
    "sensitivity_tables",
    "eval_u_final",
    "eval_u_interior",
]


@dataclass(frozen=True)
class Geometry:
    """Rod geometry and measurement setup.

    ``offset`` is the physical coordinate of the left end; ``sensor`` is the
    interior measurement point in the physical frame.
    """

    offset: float
    length: float
    t_final: float
    sensor: float

    def __post_init__(self):
        if not self.length > 0.0:
            raise DomainError(f"length must be positive, got {self.length}")
        if not self.t_final > 0.0:
            raise DomainError(f"t_final must be positive, got {self.t_final}")
        if not self.contains(self.sensor):
            raise DomainError(
                f"sensor={self.sensor} must lie strictly inside "
                f"({self.offset}, {self.offset + self.length})"
            )

    def contains(self, x: float) -> bool:
        """Whether physical ``x`` lies strictly inside the rod, as a sensor
        must."""
        return self.offset < x < self.offset + self.length

    @property
    def sensor_shifted(self) -> float:
        return self.sensor - self.offset

    def to_shifted(self, x):
        return np.asarray(x, dtype=float) - self.offset

    def to_physical(self, x_shifted):
        return np.asarray(x_shifted, dtype=float) + self.offset

    def with_sensor(self, sensor: float) -> "Geometry":
        return replace(self, sensor=sensor)


@dataclass
class PolyParams:
    """Coefficients of the source polynomial (phi, powers of t) and of the
    initial-temperature polynomial (theta, powers of the shifted x)."""

    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float)).copy()
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        if self.phi.ndim != 1 or self.phi.size < 1:
            raise ShapeMismatchError("phi must be a nonempty 1-d vector")
        if self.theta.ndim != 1 or self.theta.size < 1:
            raise ShapeMismatchError("theta must be a nonempty 1-d vector")

    @classmethod
    def zeros(cls, n_x: int, n_t: int) -> "PolyParams":
        return cls(phi=np.zeros(n_t), theta=np.zeros(n_x))

    @property
    def n_t(self) -> int:
        return self.phi.size

    @property
    def n_x(self) -> int:
        return self.theta.size

    def source_values(self, t):
        """F(t) = sum_k phi_k t^(k-1)."""
        return npoly.polyval(np.asarray(t, dtype=float), self.phi)

    def initial_values(self, x_shifted):
        """u0(x') = sum_m theta_m x'^(m-1) in the shifted frame."""
        return npoly.polyval(np.asarray(x_shifted, dtype=float), self.theta)

    def copy(self) -> "PolyParams":
        return PolyParams(phi=self.phi, theta=self.theta)


@dataclass(frozen=True, eq=False)
class MeasurementMesh:
    """Equispaced sample nodes: x_nodes on [0, L] (shifted frame) and t_nodes
    on [0, t_f], endpoints included.  Data sums and sensitivity tables use
    the nodes from index 1 on; error metrics use all of them."""

    x_nodes: np.ndarray
    t_nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_nodes", np.asarray(self.x_nodes, dtype=float))
        object.__setattr__(self, "t_nodes", np.asarray(self.t_nodes, dtype=float))
        for name, nodes in (("x_nodes", self.x_nodes), ("t_nodes", self.t_nodes)):
            if nodes.ndim != 1 or nodes.size < 2:
                raise ShapeMismatchError(f"{name} needs at least two nodes")
            if nodes[0] != 0.0:
                raise DomainError(f"{name} must start at 0, got {nodes[0]}")
            if not np.all(np.diff(nodes) > 0.0):
                raise DomainError(f"{name} must be strictly increasing")

    @classmethod
    def regular(cls, geom: Geometry, i_x: int, i_t: int) -> "MeasurementMesh":
        if i_x < 1 or i_t < 1:
            raise DomainError(f"mesh sizes must be >= 1, got i_x={i_x}, i_t={i_t}")
        return cls(
            x_nodes=np.linspace(0.0, geom.length, i_x + 1),
            t_nodes=np.linspace(0.0, geom.t_final, i_t + 1),
        )

    @property
    def i_x(self) -> int:
        return self.x_nodes.size - 1

    @property
    def i_t(self) -> int:
        return self.t_nodes.size - 1

    @property
    def x_interior(self) -> np.ndarray:
        return self.x_nodes[1:]

    @property
    def t_interior(self) -> np.ndarray:
        return self.t_nodes[1:]


# ---------------------------------------------------------------------------
# response-matrix builders
# ---------------------------------------------------------------------------


def _theta_modes(n_theta: int, t_min: float, length: float,
                 trunc: TruncationPolicy) -> np.ndarray:
    # Term bound: (2/L) * max_p |S_p| * exp(-lam^2 t), |S_p| <= L^(p+1)/(p+1).
    try:
        amp = 2.0 / length * max(
            length ** (p + 1) / (p + 1) for p in range(n_theta)
        )
    except OverflowError:
        raise DomainError(f"{n_theta} initial-profile coefficients on a rod "
                          f"of length {length:g}: the moment bound "
                          "overflows") from None
    n = mode_count(amp, t_min, length, trunc)
    return np.arange(1, n + 1, dtype=float)


def theta_response_profile(xs, t: float, length: float, n_theta: int,
                           trunc: TruncationPolicy) -> np.ndarray:
    """Responses of u(x, t) to each initial-profile coefficient, for many x
    at one time.  Shape (len(xs), n_theta)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    modes = _theta_modes(n_theta, t, length, trunc)
    lam = (math.pi / length) * modes
    weights = sine_moment_stack(n_theta - 1, modes, length) * np.exp(-lam * lam * t)
    sx = sin_modes(xs, length, modes)
    np.multiply(2.0 / length, sx, out=sx)
    return sx @ weights.T


def theta_response_history(x: float, ts, length: float, n_theta: int,
                           trunc: TruncationPolicy) -> np.ndarray:
    """Responses of u(x, t) to each initial-profile coefficient, at one x for
    many times.  Shape (len(ts), n_theta)."""
    return _theta_history(ts, length, n_theta, trunc)([x])[0]


def _history_times(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(ts > 0.0):
        raise DomainError("history times must be positive")
    return ts


def _theta_history(ts, length: float, n_theta: int, trunc: TruncationPolicy):
    """The theta history as a function mapping a list of points x to their
    tables.  Its modes and moment weights do not depend on x; each call
    builds the exp(-lam^2 t) decay matrix once for all its points."""
    ts = _history_times(ts)
    modes = _theta_modes(n_theta, float(ts.min()), length, trunc)
    lam = (math.pi / length) * modes
    weights = sine_moment_stack(n_theta - 1, modes, length)

    def at(xs):
        # exp runs only where t lam^2 < 746, a leading run of each row as
        # the modes ascend, whatever the order of the times; beyond, it
        # underflows to exactly +0.0.
        decay = np.multiply.outer(ts, lam * lam)
        _exp_negated(decay)
        # (2/L) * decay * sin per point, in one scratch shared by all points
        # but the last, which scales decay itself; each product is a fresh
        # table.
        scratch = np.empty_like(decay) if len(xs) > 1 else None
        tables = []
        for k, x in enumerate(xs):
            scaled = decay if k == len(xs) - 1 else scratch
            np.multiply(decay, sin_modes(x, length, modes), out=scaled)
            np.multiply(2.0 / length, scaled, out=scaled)
            tables.append(scaled @ weights.T)
        return tables
    return at


def _bump(x, length):
    # Closed form of (4/L) sum_odd sin(lam x)/lam^3; vanishes exactly at the ends.
    return x * (length - x) / 2.0


def _bump2(x, length):
    # Closed form of (4/L) sum_odd sin(lam x)/lam^5.
    return x * (length - x) * (length * length + length * x - x * x) / 24.0


def _bump3(x, length):
    # Closed form of (4/L) sum_odd sin(lam x)/lam^7 (-w3'' = _bump2, zero ends).
    l2 = length * length
    return x * (length - x) * (
        3.0 * l2 * l2 + 3.0 * l2 * length * x - 2.0 * l2 * x * x
        - 2.0 * length * x ** 3 + x ** 4) / 720.0


def _phi_modes(n_phi: int, t_min: float, t_max: float, length: float,
               trunc: TruncationPolicy) -> np.ndarray:
    """Odd modes for the source-response series.

    The moment factors split per mode into an algebraic part, a series in
    powers of 1/lam^2, and an exponentially damped part.  The three
    slowest algebraic tails (1/lam^3, 1/lam^5, 1/lam^7) are summed over
    all modes in closed form (``_phi_tails``), so the mode count is set by
    the first neglected mode's damped term at the earliest time, or by the
    first *neglected* algebraic tail (1/lam^9 and beyond) at the latest
    time where that needs more modes; each stays below trunc.tol.
    """
    lam1 = math.pi / length
    log_tol = math.log(trunc.tol)

    def damped_above_tol(m):
        # Damped part of mode m: |term| <= (4/L) (k-1)! exp(-lam^2 t) /
        # lam^(2k+1), which falls as m grows.
        lam = lam1 * m
        return max(math.lgamma(k) - (2 * k + 1) * math.log(lam)
                   for k in range(1, n_phi + 1)) \
            + math.log(4.0 / length) - lam * lam * t_min > log_tol

    # The last mode whose damped term exceeds tol (0: none), by doubling
    # and bisection: mode lo is above tol, mode hi is not.
    lo, hi = 0, 1
    while damped_above_tol(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if damped_above_tol(mid):
            lo = mid
        else:
            hi = mid
    n = max(lo, 31)
    try:
        c3 = max(
            ((k - 1) * (k - 2) * (k - 3) * t_max ** (k - 4)
             for k in range(4, n_phi + 1)),
            default=0.0,
        )
        if c3 > 0.0:
            bound = trunc.tol / (4.0 * c3)
            tail_coef = (4.0 / length) * (length / math.pi) ** 9 / 16.0
            n = max(n, math.ceil((tail_coef / bound) ** (1.0 / 8.0)))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{n_phi} source coefficients at t={t_max:g}: the "
                          "moment tail bound overflows") from None
    if n > trunc.max_terms:
        _warn_truncated(
            f"source-response series cut at {trunc.max_terms} modes before "
            f"the tail bound reached tol={trunc.tol:g}",
            stacklevel=3,
        )
        n = trunc.max_terms
    return np.arange(1, n + 1, 2, dtype=float)


def _phi_tails(xs, sx, lam, length: float) -> np.ndarray:
    """The tails d_j = w_j(x) - sum_n sx_n / lam_n^(2j+1), j = 1, 2, 3, of
    the algebraic series past the kept modes, shape (3, len(xs)): rows of
    ``sx`` hold (4/L) sin(lam x) at ``xs`` for the odd modes from 1 on,
    and w_j are ``_bump``, ``_bump2`` and ``_bump3``.

    ``_phi_assemble`` multiplies d2's rounding by (k-1)(k-2) t^(k-3),
    3.6e3 at 12x9 on example1, where w_3 and its first mode (lam_1 = 0.5)
    are both about 49: in double, their few ulps moved the tables by 5e-12
    of their column.  So the closed forms minus the first mode are taken
    in ``np.longdouble`` (where that is double, these digits are lost),
    the sine folded onto [0, L/2] to keep exact zeros at the rod ends.
    The other modes, weighing 1/3^7 and less, are summed in double per
    point without BLAS, so a point gets the same bits alone as in any
    batch."""
    rest = np.einsum("sn,jn->js", sx[:, 1:],
                     lam[1:] ** -np.array([[3.0], [5.0], [7.0]]))
    x = np.asarray(xs, dtype=np.longdouble)
    rod = np.longdouble(length)
    lam1 = np.longdouble("3.14159265358979323846264338327950288") / rod
    u = x / rod
    first = 4.0 / rod / lam1 * np.sin(lam1 * rod * np.minimum(u, 1.0 - u))
    for j, closed in enumerate((_bump, _bump2, _bump3)):
        rest[j] = closed(x, rod) - first / lam1 ** (2 * j + 2) - rest[j]
    return rest


def _phi_assemble(head: np.ndarray, ts, tails, n_phi: int) -> np.ndarray:
    """head[:, k-1] + t^(k-1) d0 - (k-1) t^(k-2) d1 + (k-1)(k-2) t^(k-3) d2
    column by column, added to ``head`` in place: the closed-form tails
    ``(d0, d1, d2)`` of ``_phi_tails`` times the algebraic coefficients of
    the moment t^(k-1)."""
    d0, d1, d2 = tails
    head[:, 0] += d0
    # t^(k-3) and t^(k-2) for the current k; the d2 term vanishes at k = 2
    t_low, t_pow = np.zeros_like(ts), np.ones_like(ts)
    for k in range(2, n_phi + 1):
        head[:, k - 1] += (t_pow * (ts * d0 - (k - 1) * d1)
                           + (k - 1) * (k - 2) * t_low * d2)
        t_low, t_pow = t_pow, t_pow * ts
    return head


def phi_response_profile(xs, t: float, length: float, n_phi: int,
                         trunc: TruncationPolicy) -> np.ndarray:
    """Responses of u(x, t) to each source coefficient, for many x at one
    time.  Shape (len(xs), n_phi)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    modes = _phi_modes(n_phi, t, t, length, trunc)
    lam = (math.pi / length) * modes
    stack = exp_moment_stack(n_phi - 1, lam * lam, np.array([t]))[:, :, 0]
    sx = sin_modes(xs, length, modes)
    np.multiply(4.0 / length, sx, out=sx)
    head = sx @ (stack / lam).T
    return _phi_assemble(head, np.full(xs.shape, t),
                         _phi_tails(xs, sx, lam, length), n_phi)


def phi_response_history(x: float, ts, length: float, n_phi: int,
                         trunc: TruncationPolicy) -> np.ndarray:
    """Responses of u(x, t) to each source coefficient, at one x for many
    times.  Shape (len(ts), n_phi)."""
    return _phi_history(ts, length, n_phi, trunc)([x])[0]


def _phi_history(ts, length: float, n_phi: int, trunc: TruncationPolicy):
    """The phi history as a function mapping a list of points x to their
    tables.  The exp moments' small-argument series and the start entries
    of their recurrence (``exp_moment_small``) depend on no point, so they
    are computed here once and serve every call.  Each call runs the
    exp-moment recurrence of the odd modes once and contracts every J_p
    with all its points as it is produced, so the (n_phi, modes, times)
    stack never exists."""
    ts = _history_times(ts)
    modes = _phi_modes(n_phi, float(ts.min()), float(ts.max()), length, trunc)
    lam = (math.pi / length) * modes
    lam_sq = lam * lam
    small_series = exp_moment_small(n_phi - 1, lam_sq, ts)

    def at(xs):
        sx = sin_modes(xs, length, modes)
        weights = sx / lam
        # Heads in the Fortran layout of einsum("n,pnj->jp"): predict's
        # matrix products sum in an order that depends on it.
        heads = [np.empty((n_phi, ts.size)).T for _ in xs]
        for p, moment in exp_moment_rows(n_phi - 1, lam_sq, ts,
                                         small_series):
            rows = np.einsum("sn,nj->sj", weights, moment)
            for head, row in zip(heads, rows):
                head[:, p] = 4.0 / length * row
        tails = _phi_tails(xs, 4.0 / length * sx, lam, length)
        return [_phi_assemble(head, ts, point_tails, n_phi)
                for head, point_tails in zip(heads, tails.T)]
    return at


# ---------------------------------------------------------------------------
# sensitivity tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SensitivityTables:
    """Parameter-independent response tables on the measurement mesh.

    Rows correspond to the mesh nodes from index 1 on.  ``final_*`` tables
    give the final-time profile response at x_i, ``sensor_*`` the interior
    history response at t_j; ``penalty_*`` are the plain monomial values
    entering the regularization sums.  ``sensitivity_tables`` reuses the
    sensor-independent layer of the last rod and mesh only, never one whose
    build issued a TruncationWarning; the ``final_*`` and ``penalty_*``
    arrays it returns are read-only and shared with later calls on that rod
    and mesh.

    The memory layout of each table is part of the result: ``predict`` and
    the solvers multiply by these arrays through BLAS, whose summation
    order depends on it, so the same values in another layout can move
    downstream bits.  ``sensor_phi`` is Fortran-ordered.
    """

    geom: Geometry
    mesh: MeasurementMesh
    n_x: int
    n_t: int
    trunc: TruncationPolicy
    final_theta: np.ndarray
    final_phi: np.ndarray
    sensor_theta: np.ndarray
    sensor_phi: np.ndarray
    penalty_x: np.ndarray
    penalty_t: np.ndarray

    def check_params(self, params: PolyParams) -> None:
        if params.n_x != self.n_x or params.n_t != self.n_t:
            raise ShapeMismatchError(
                f"params sized ({params.n_x}, {params.n_t}) do not match "
                f"tables sized ({self.n_x}, {self.n_t})"
            )

    def predict(self, params: PolyParams):
        """Model outputs (final profile at x_i, sensor history at t_j)."""
        self.check_params(params)
        u_final = self.final_theta @ params.theta + self.final_phi @ params.phi
        u_sensor = self.sensor_theta @ params.theta + self.sensor_phi @ params.phi
        return u_final, u_sensor


# The series of a table build may overflow on the way; rod_tables and
# RodTables.at_sensors judge what they build with _check_finite instead of
# letting numpy warn.  (The histories' einsum overflows without a warning
# today, but matmul and the kernels' ufuncs warn.)
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True, eq=False)
class RodTables:
    """The sensor-independent layer of the response tables of one rod, mesh,
    coefficient counts and truncation policy (``geom.sensor`` plays no
    part).  ``final_*`` cover every spatial node, boundary rows included.
    ``theta_history`` and ``phi_history`` hold the modes and moment weights
    and map a list of shifted sensor positions to their history tables.
    ``phi_history`` also holds the sorted flat indices and series values
    of the exp moments' small-argument entries (lam^2 t below the series
    switch) and the J_0 entries that are not their row's 1/lam^2 (lam^2 t
    from the switch to 40), computed once with the layer.  Each call
    streams the rest of the time-by-mode work once for all its sensors, so
    the layer itself holds no times-by-modes array.  ``at_sensors``
    assembles the tables of a list of sensors."""

    geom: Geometry
    mesh: MeasurementMesh
    n_x: int
    n_t: int
    trunc: TruncationPolicy
    final_theta: np.ndarray
    final_phi: np.ndarray
    penalty_x: np.ndarray
    penalty_t: np.ndarray
    theta_history: callable
    phi_history: callable

    @_quiet_overflow
    def at_sensors(self, x_stars) -> list:
        """The response tables with the sensor at each physical position in
        ``x_stars``, in order.  Raises DomainError if any lies outside the
        rod or if a history table is not finite."""
        geoms = [self.geom.with_sensor(x) for x in x_stars]
        xs = [geom.sensor_shifted for geom in geoms]
        histories = list(zip(self.theta_history(xs), self.phi_history(xs)))
        _check_finite("sensor-history", self.n_x, self.n_t,
                      *[table for pair in histories for table in pair])
        return [SensitivityTables(
                    geom, self.mesh, self.n_x, self.n_t, self.trunc,
                    self.final_theta[1:], self.final_phi[1:], theta, phi,
                    self.penalty_x, self.penalty_t)
                for geom, (theta, phi) in zip(geoms, histories)]


@_quiet_overflow
def rod_tables(geom: Geometry, mesh: MeasurementMesh, n_x: int, n_t: int,
               trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> RodTables:
    """Build the sensor-independent layer of the response tables, on
    read-only copies of the mesh nodes, with read-only final and penalty
    tables: it shares no writable array with anyone.  Raises DomainError
    if a final-time table is not finite."""
    if n_x < 1 or n_t < 1:
        raise ShapeMismatchError(f"n_x and n_t must be >= 1, got {n_x}, {n_t}")
    mesh = MeasurementMesh(_read_only(mesh.x_nodes.copy()),
                           _read_only(mesh.t_nodes.copy()))
    xs, ts, length = mesh.x_interior, mesh.t_interior, geom.length
    final_theta = theta_response_profile(xs, geom.t_final, length, n_x, trunc)
    final_phi = phi_response_profile(xs, geom.t_final, length, n_t, trunc)
    _check_finite("final-time", n_x, n_t, final_theta, final_phi)
    # Row 0 (the left rod end) is exactly zero; the data rows are built
    # without it, as BLAS may sum a row in an order that depends on the row
    # count.
    return RodTables(geom, mesh, n_x, n_t, trunc,
                     _read_only(np.vstack([np.zeros(n_x), final_theta])),
                     _read_only(np.vstack([np.zeros(n_t), final_phi])),
                     _read_only(npoly.polyvander(xs, n_x - 1)),
                     _read_only(npoly.polyvander(ts, n_t - 1)),
                     _theta_history(ts, length, n_x, trunc),
                     _phi_history(ts, length, n_t, trunc))


def _check_finite(kind: str, n_x: int, n_t: int, *tables) -> None:
    # Below the sizes whose moment bounds overflow, the series themselves
    # can: theta from n_x = 158 on example1, phi from about n_t = 360.
    if not all(np.isfinite(table).all() for table in tables):
        raise DomainError(f"the {kind} response tables for n_x={n_x}, "
                          f"n_t={n_t} are not finite: the series overflow "
                          "a float")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The layers sensitivity_tables built on the last rod and mesh it was called
# on: (key of that rod and mesh, {(n_x, n_t, trunc): RodTables}).  A dict
# only ever receives layers of its own key, so calls racing on two rods can
# lose a layer but never return one of the other rod.
_kept = (None, {})


def sensitivity_tables(geom: Geometry, mesh: MeasurementMesh, n_x: int,
                       n_t: int,
                       trunc: TruncationPolicy = DEFAULT_TRUNCATION
                       ) -> SensitivityTables:
    """Build the four response tables and the penalty monomial tables.

    The sensor-independent layer (``rod_tables``) is kept for the last rod
    and mesh only, one per ``(n_x, n_t, trunc)``: a later call on the same
    offset, length, t_final and node values, at any sensor, builds just the
    sensor histories, and a call on another rod or mesh drops every kept
    layer.  A build that issued a TruncationWarning is not kept, so each
    such call warns again.  The final and penalty tables are read-only and
    are computed from copies of the nodes, so writing to the mesh later
    reaches no kept layer.  The tables carry the caller's ``geom`` and
    ``mesh`` and equal a fresh build bit for bit, layout included.
    """
    global _kept
    # n_x=6.0 must fail as a build does, not find the layer kept for 6.
    size = (operator.index(n_x), operator.index(n_t), trunc)
    rod = (geom.offset, geom.length, geom.t_final, mesh.x_nodes.tobytes(),
           mesh.t_nodes.tobytes())
    kept_rod, layers = _kept
    if kept_rod != rod:
        layers = {}
        _kept = (rod, layers)
    layer = layers.get(size)
    if layer is None:
        issued = kernels._truncations_issued
        layer = rod_tables(geom, mesh, n_x, n_t, trunc)
        if kernels._truncations_issued == issued:
            layers[size] = layer
    [tables] = layer.at_sensors([geom.sensor])
    return replace(tables, geom=geom, mesh=mesh, n_x=n_x, n_t=n_t,
                   trunc=trunc)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def eval_u_final(params: PolyParams, x: float, geom: Geometry,
                 trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> float:
    """Temperature at the final time at physical coordinate x."""
    if not geom.offset <= x <= geom.offset + geom.length:
        raise DomainError(
            f"x={x} outside [{geom.offset}, {geom.offset + geom.length}]"
        )
    x_shifted = x - geom.offset
    row_theta = theta_response_profile(
        [x_shifted], geom.t_final, geom.length, params.n_x, trunc)[0]
    row_phi = phi_response_profile(
        [x_shifted], geom.t_final, geom.length, params.n_t, trunc)[0]
    return float(row_theta @ params.theta + row_phi @ params.phi)


def eval_u_interior(params: PolyParams, t: float, geom: Geometry,
                    trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> float:
    """Temperature at the interior sensor at time t in (0, t_f]."""
    if not 0.0 < t <= geom.t_final:
        raise DomainError(f"t={t} outside (0, {geom.t_final}]")
    x_star = geom.sensor_shifted
    row_theta = theta_response_history(
        x_star, [t], geom.length, params.n_x, trunc)[0]
    row_phi = phi_response_history(
        x_star, [t], geom.length, params.n_t, trunc)[0]
    return float(row_theta @ params.theta + row_phi @ params.phi)

