"""Eigenfunction-series kernels for 1-D heat conduction on (0, L) with zero
Dirichlet ends, plus closed-form polynomial moments against those kernels.

Every series here decays like exp(-(n*pi/L)^2 * t), so partial sums are cut
at an a-priori bound on the first neglected term.  Moments of monomials
reduce to stable recurrences; adaptive quadrature appears only in the test
oracles, never in the library.

Work whose result is known exactly is skipped, never approximated, so the
values are those of the plain formulas bit for bit:

- the exp-moment series drops an entry once its next terms are below half
  an ulp of its sums and shrinking, since adding them rounds back to the
  same sums (see ``_exp_moment_series``);
- the exp-moment recurrence starts each row from J_0 = fl(1/lam^2), as
  -expm1(-a)/lam^2 rounds to that where a >= 40 (expm1 rounds to exactly
  -1); the entries between the series switch and 40 are computed once per
  grid, with its small-argument series (``exp_moment_small``), and put in
  place, so a history layer runs expm1 once and its sensors never;
- the decay exp(-t*lam^2) of the initial-profile history is +0.0 without
  calling exp where t*lam^2 >= 746, where exp underflows to exactly that
  (``_exp_negated``);
- ``sin_modes`` takes the parity of the rounded argument r as
  r - 2*floor(r/2), exact for integral floats, instead of through int64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationWarning

__all__ = [
    "TruncationPolicy",
    "DEFAULT_TRUNCATION",
    "greens_function",
    "source_kernel",
    "sine_moment",
    "exp_moment",
    "sine_moment_stack",
    "exp_moment_small",
    "exp_moment_rows",
    "exp_moment_stack",
    "mode_count",
    "sin_modes",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TruncationPolicy:
    """Cut-off rule for the eigenfunction series.

    ``tol`` bounds the magnitude of the first neglected term; ``max_terms``
    caps the number of modes regardless.  Hitting the cap before the bound
    emits a :class:`TruncationWarning`, not an error: it marks a
    conservative a-priori bound, not a measured error (README, "Capped
    source series").
    """

    tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.max_terms >= 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_TRUNCATION = TruncationPolicy()


def mode_count(amplitude: float, t: float, length: float,
               trunc: TruncationPolicy) -> int:
    """Smallest mode count n with amplitude*exp(-(n*pi/L)^2 t) < trunc.tol.

    Capped at trunc.max_terms, with a TruncationWarning attributed to the
    caller; the warning filters alone decide whether it shows.
    """
    ratio = amplitude / trunc.tol
    if ratio <= 1.0:
        return 1
    # Compared unrounded, so an infinite bound is capped too.
    bound = length / math.pi * math.sqrt(math.log(ratio) / t)
    if bound > trunc.max_terms:
        warnings.warn(
            f"series cut at {trunc.max_terms} modes before the tail bound "
            f"reached tol={trunc.tol:g}",
            TruncationWarning, stacklevel=2,
        )
        return trunc.max_terms
    return max(math.ceil(bound), 1)


# Elements per sin_modes block: its scratch is three (points, modes) arrays
# of about this size however many points there are.  A block holds whole
# rows, so few modes give tall blocks and little per-block overhead.
# _exp_negated and exp_moment_small size their blocks the same way.
_SIN_BLOCK = 1 << 15


def sin_modes(x, length: float, modes: np.ndarray) -> np.ndarray:
    """sin(n*pi*x/L) for every mode n, with exact zeros where n*x/L is
    integral (so kernel values vanish identically at the rod ends).

    ``x`` may be a scalar or 1-d array; the mode axis comes last.  The work
    is elementwise and runs over blocks of points, so its scratch does not
    grow with the number of points.
    """
    x = np.asarray(x, dtype=float)
    modes = np.asarray(modes)
    u = x.reshape(-1) / length
    out = np.empty((u.size, modes.size))
    step = max(1, _SIN_BLOCK // (modes.size or 1))
    rows = min(u.size, step)
    y = np.empty((rows, modes.size))
    frac = np.empty_like(y)
    odd = np.empty_like(y)
    for start in range(0, u.size, step):
        n = min(rows, u.size - start)
        _sin_block(u[start:start + n], modes, out[start:start + n],
                   y[:n], frac[:n], odd[:n])
    return out.reshape(x.shape + (modes.size,))


def _sin_block(u, modes, r, y, frac, odd):
    """One block of :func:`sin_modes` for u = x/L, computed in its output
    block ``r``.  Each step reuses a buffer: y becomes the tolerance, r
    holds the rounded argument, |frac|, the sign and then the result."""
    np.multiply.outer(u, modes, out=y)
    np.round(y, out=r)
    np.subtract(y, r, out=frac)
    # Parity of the integral r as r - 2*floor(r/2), exact in floats.
    np.multiply(r, 0.5, out=odd)
    np.floor(odd, out=odd)
    np.multiply(odd, 2.0, out=odd)
    np.subtract(r, odd, out=odd)
    # Snap fractional parts indistinguishable from argument rounding to 0.
    np.abs(y, out=y)
    np.maximum(y, 1.0, out=y)
    np.multiply(y, 8.0 * _EPS, out=y)
    np.abs(frac, out=r)
    np.copyto(frac, 0.0, where=r <= y)
    np.multiply(odd, -2.0, out=r)
    np.add(r, 1.0, out=r)
    np.multiply(frac, np.pi, out=frac)
    np.sin(frac, out=frac)
    np.multiply(r, frac, out=r)


def _check_coordinate(value, length, name):
    if not 0.0 <= value <= length:
        raise DomainError(f"{name}={value} outside [0, {length}]")


def greens_function(x: float, xi: float, t: float, length: float,
                    trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> float:
    """Dirichlet heat propagator on (0, L): the sine-series kernel relating
    the temperature at (x, t) to the initial value at xi.

    Requires t > 0; the series is not uniformly convergent at t = 0.
    """
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    _check_coordinate(x, length, "x")
    _check_coordinate(xi, length, "xi")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    n = mode_count(2.0 / length, t, length, trunc)
    modes = np.arange(1, n + 1, dtype=float)
    lam = (math.pi / length) * modes
    terms = sin_modes(x, length, modes) * sin_modes(xi, length, modes)
    return float(2.0 / length * np.dot(terms, np.exp(-lam * lam * t)))


def source_kernel(x: float, t: float, length: float,
                  trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> float:
    """Response kernel for a spatially uniform source: the propagator
    integrated over the source coordinate.  Odd modes only.
    """
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    _check_coordinate(x, length, "x")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    lam1 = math.pi / length
    n = mode_count(4.0 / (length * lam1), t, length, trunc)
    modes = np.arange(1, n + 1, 2, dtype=float)
    lam = (math.pi / length) * modes
    terms = sin_modes(x, length, modes) / lam
    return float(4.0 / length * np.dot(terms, np.exp(-lam * lam * t)))


def sine_moment_stack(max_power: int, modes, length: float) -> np.ndarray:
    """S_p = integral of xi^p * sin(n*pi*xi/L) over [0, L] for p = 0..max_power.

    Paired recurrence with the cosine moments C_p; sin(n*pi) = 0 and
    cos(n*pi) = (-1)^n are applied exactly, so the boundary terms carry no
    rounding from evaluating trigonometric functions at n*pi.

    Returns an array of shape (max_power + 1, len(modes)).
    """
    modes = np.asarray(modes, dtype=float)
    lam = (math.pi / length) * modes
    parity = 1.0 - 2.0 * (modes.astype(np.int64) & 1)  # cos(n*pi)
    out = np.empty((max_power + 1, modes.size))
    out[0] = (1.0 - parity) / lam
    c_prev = np.zeros_like(lam)  # C_0 = sin(n*pi)/lam = 0
    length_p = 1.0
    for p in range(1, max_power + 1):
        length_p *= length
        out[p] = (-length_p * parity + p * c_prev) / lam
        c_prev = -p * out[p - 1] / lam  # C_p; the L^p sin(n*pi) term is 0
    return out


def sine_moment(m: int, n: int, length: float) -> float:
    """Closed-form integral of xi^(m-1) * sin(n*pi*xi/L) over [0, L]."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    return float(sine_moment_stack(m - 1, np.array([n]), length)[m - 1, 0])


_SERIES_SWITCH_BASE = 30.0

# Arguments from which expm1(-x) and exp(-x) are known exactly: expm1(-x)
# rounds to -1 once exp(-x) is below half an ulp of 1 (x > 37.43), and
# exp(-x) to +0.0 below half the smallest subnormal (x > 745.14).
_EXPM1_SATURATION = 40.0
_EXP_UNDERFLOW = 746.0


def _exp_negated(x: np.ndarray):
    """Overwrite the 2-d array x with exp(-x), calling exp only where
    x < _EXP_UNDERFLOW (or x is NaN) and writing +0.0 elsewhere, what
    exp(-x) underflows to there.  Works over blocks of rows, so its scratch
    mask does not grow with x."""
    step = max(1, _SIN_BLOCK // (x.shape[1] or 1))
    beyond = np.empty((min(step, x.shape[0]), x.shape[1]), dtype=bool)
    for start in range(0, x.shape[0], step):
        block = x[start:start + step]
        mask = beyond[:len(block)]
        np.greater_equal(block, _EXP_UNDERFLOW, out=mask)
        np.negative(block, out=block)
        np.copyto(block, 0.0, where=mask)
        np.logical_not(mask, out=mask)
        np.exp(block, out=block, where=mask)


def exp_moment_small(max_power: int, lam_sq, t):
    """What :func:`exp_moment_rows` needs of the outer (lam_sq, t) grid
    beyond its rows' constants, as four read-only arrays:

    - the flat indices of the small-argument entries, ordered by
      a = lam_sq*t as the series wants them, and their series values,
      shape (max_power + 1, len(indices));
    - the flat indices, in row-major order, of the other entries with a
      below 40 or NaN, where J_0 = -expm1(-a)/lam_sq need not be
      fl(1/lam_sq), and their J_0 values.

    The grid is scanned in blocks of mode rows, so its scratch does not
    grow with the grid.  The small indices come out in the row-major order
    of ``np.flatnonzero`` over the whole grid, so the sort permutes them as
    it would there.
    """
    lam_sq = np.asarray(lam_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    switch = max(_SERIES_SWITCH_BASE, 2.0 * max_power)
    # From max(switch, 40) on J_0 is fl(1/lam_sq): expm1(-a) is exactly -1.
    last = max(switch, _EXPM1_SATURATION)
    step = max(1, _SIN_BLOCK // (t.size or 1))
    found, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for start in range(0, lam_sq.size, step):
        a = np.multiply.outer(lam_sq[start:start + step], t).ravel()
        mask = a >= last
        idx = np.flatnonzero(np.logical_not(mask, out=mask))
        values.append(a.take(idx))
        found.append(idx + start * t.size)
    a, found = np.concatenate(values), np.concatenate(found)
    below = a < switch
    small_a = a[below]
    order = small_a.argsort()
    small = found[below].take(order)
    # Their times are t[small % len(t)], so the (modes, times) grid of t is
    # never materialised.
    series = _exp_moment_series(max_power, small_a.take(order),
                                t.take(small % t.size))
    np.logical_not(below, out=below)
    starts = found[below]
    j0 = np.negative(a[below])
    np.expm1(j0, out=j0)
    np.negative(j0, out=j0)
    np.divide(j0, lam_sq.take(starts // t.size), out=j0)
    memo = (small, series, starts, j0)
    for array in memo:
        array.flags.writeable = False
    return memo


def exp_moment_rows(max_power: int, lam_sq, t, small_series):
    """Yield (p, J_p) for p = 0..max_power, where J_p = integral of
    tau^p * exp(-lam_sq*(t - tau)) over [0, t] on the outer (lam_sq, t)
    grid, shape (len(lam_sq), len(t)).

    The forward recurrence J_p = (t^p - p*J_{p-1})/lam_sq is stable once
    a = lam_sq*t is well above p, but cancels catastrophically below that;
    small arguments switch to the positive-term series
    J_p = t^(p+1) * exp(-a) * sum_j a^j / (j! * (p+1+j)).
    ``small_series`` is :func:`exp_moment_small` of the same arguments,
    which a caller may compute once for many calls.

    The recurrence starts from J_0 = -expm1(-a)/lam_sq, which is
    fl(1/lam_sq) wherever a >= 40: there expm1(-a) is exactly -1 (exp(-a)
    < 4.3e-18 is below half an ulp of 1).  So each row starts from that
    constant, and ``small_series`` supplies the other entries, with the
    bits the formula gives.

    Every J_p is the same reused buffer: consume it before the next step.
    """
    lam_sq = np.asarray(lam_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    small, series, starts, start_values = small_series
    ls = lam_sq[:, None]
    # The recurrence runs in place on one grid.  The small entries carry
    # series values into the next step, which overwrites them again.
    j = np.empty((lam_sq.size, t.size))
    np.copyto(j, 1.0 / ls)
    np.put(j, starts, start_values)
    t_pow = np.ones_like(t)
    for p in range(max_power + 1):
        if p:
            t_pow = t_pow * t
            if p > 1:  # times 1 is exact
                np.multiply(j, p, out=j)
            np.subtract(t_pow, j, out=j)
            np.divide(j, ls, out=j)
        np.put(j, small, series[p])
        yield p, j


def exp_moment_stack(max_power: int, lam_sq, t) -> np.ndarray:
    """All of :func:`exp_moment_rows` at once: an array of shape
    (max_power + 1, len(lam_sq), len(t))."""
    lam_sq = np.asarray(lam_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.empty((max_power + 1, lam_sq.size, t.size))
    small_series = exp_moment_small(max_power, lam_sq, t)
    for p, j in exp_moment_rows(max_power, lam_sq, t, small_series):
        out[p] = j
    return out


def _series_steps(a_max: float) -> int:
    """Terms the series adds for a largest argument a_max: up to the first
    j with a_max^j/j! < 1e-20, at most int(a_max) + 80.

    The term recurrence fl(fl(term*a)/(j+1)) is monotone in a, so its
    largest value at every j is the one at a_max; this scalar run of it
    stops exactly where the array's largest term would stop the loop.
    """
    limit = int(a_max) + 80
    term = 1.0
    for j in range(limit):
        if term < 1e-20:
            return j + 1
        term = term * a_max / (j + 1.0)
    return limit


def _exp_moment_series(max_power: int, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Positive-term series for J_p on flat arrays a = lam_sq*t, sorted
    ascending, and t.

    An entry leaves the loop once its sums cannot move again.  From a step
    j > a + 1 on, its terms a^j/j! do not grow (their exact ratio a/(j+1)
    is below (j-1)/(j+1), and rounding is monotone), so neither do its
    quotients term/(p+1+j).  Once the quotient just added, times 2^54, is
    below the sum for every power, every later quotient is below half an
    ulp of that sum (which exceeds sum/2^54) and adding it rounds back to
    the same sum.  Small a converges first, so the loop runs on the suffix
    of entries still moving; its length is the full loop's
    (``_series_steps``), and every value is the full loop's bit for bit.
    """
    first_denom = np.arange(1.0, max_power + 2.0)[:, None]  # p + 1
    acc = np.zeros((max_power + 1, a.size))
    quot = np.empty_like(acc)
    term = np.ones_like(a)  # a^j / j!
    steps = _series_steps(float(a[-1])) if a.size else 0
    # ready[j]: the count of entries with a < j - 1.
    ready = np.searchsorted(a, np.arange(steps) - 1.0).tolist()
    lo = 0  # entries before lo have converged
    q, s, tm, am = quot, acc, term, a  # views of the entries from lo on
    for j in range(steps):
        np.divide(tm, first_denom + j, out=q)
        s += q
        if ready[j] > lo:
            # quot[p] <= quot[0] and acc[p] >= acc[max_power] (rounding is
            # monotone), so one pair of rows decides for every power.
            head = q[0, :ready[j] - lo]
            np.multiply(head, 2.0 ** 54, out=head)
            moving = np.greater_equal(head, s[-1, :head.size])
            first = int(moving.argmax())
            done = first if moving[first] else head.size
            if done:
                lo += done
                if lo == a.size:
                    break
                q, s, tm, am = quot[:, lo:], acc[:, lo:], term[lo:], a[lo:]
        np.multiply(tm, am, out=tm)
        np.divide(tm, j + 1.0, out=tm)
    # acc[p] becomes t^(p+1) * exp(-a) * acc[p], in place; the spent term
    # and quotient buffers hold exp(-a) and the factor.
    damp = np.negative(a, out=term)
    np.exp(damp, out=damp)
    factor = quot[0]
    t_pow = t.copy()  # t^(p+1)
    for p in range(max_power + 1):
        np.multiply(t_pow, damp, out=factor)
        np.multiply(factor, acc[p], out=acc[p])
        np.multiply(t_pow, t, out=t_pow)
    return acc


def exp_moment(k: int, lam_sq: float, t: float) -> float:
    """Closed-form integral of tau^(k-1) * exp(-lam_sq*(t - tau)) over [0, t]."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not lam_sq > 0.0:
        raise ValueError(f"lam_sq must be positive, got {lam_sq}")
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    stack = exp_moment_stack(k - 1, np.array([lam_sq]), np.array([t]))
    return float(stack[k - 1, 0, 0])
