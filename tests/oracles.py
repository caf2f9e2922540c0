"""Independent reference computations used across the test suite.

Everything here stays deliberately naive or external (mpmath / scipy
quadrature, brute-force partial sums, golden-section search) so the library
code is never checked against itself.
"""

import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate

mp.mp.dps = 30


def mp_sine_moment(m, n, length):
    """High-precision quadrature of xi^(m-1) sin(n pi xi / L) over [0, L]."""
    lam = n * mp.pi / length
    points = [mp.mpf(length) * i / (n + 1) for i in range(n + 2)]
    return float(mp.quad(lambda s: s ** (m - 1) * mp.sin(lam * s), points))


def mp_exp_moment(k, lam_sq, t):
    """High-precision quadrature of tau^(k-1) exp(-lam_sq (t - tau))."""
    if t == 0.0:
        return 0.0
    c = mp.mpf(lam_sq)
    if c * t > 20:
        points = [0, max(0.0, t - float(40.0 / c)), t]
    else:
        points = [0, t]
    return float(mp.quad(lambda tau: tau ** (k - 1) * mp.e ** (-c * (t - tau)),
                         points))


def quad_sine_moment(m, n, length):
    """scipy quadrature of the same integrand (fast sweep oracle)."""
    lam = n * math.pi / length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda s: s ** (m - 1) * math.sin(lam * s),
                                0.0, length, epsabs=1e-14, epsrel=1e-13,
                                limit=60 + 10 * n)
    return val


def quad_exp_moment(k, lam_sq, t):
    """scipy quadrature of the exponential moment integrand."""
    if t == 0.0:
        return 0.0
    pts = None
    if lam_sq * t > 30:
        pts = [max(0.0, t - 40.0 / lam_sq)]
    val, _ = integrate.quad(
        lambda tau: tau ** (k - 1) * math.exp(-lam_sq * (t - tau)),
        0.0, t, epsabs=1e-15, epsrel=1e-13, limit=200, points=pts)
    return val


def reference_green(x, xi, t, length, terms):
    """Plain partial sum of the propagator series with a fixed term count."""
    total = 0.0
    for n in range(1, terms + 1):
        lam = n * math.pi / length
        total += math.sin(lam * x) * math.sin(lam * xi) * math.exp(-lam * lam * t)
    return 2.0 / length * total


def golden_minimize(f, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section minimizer of a unimodal f on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def rmse_reference(exact_samples, recon_samples, intervals):
    """Second, independent implementation of the error metric."""
    exact_samples = np.asarray(exact_samples, dtype=float)
    recon_samples = np.asarray(recon_samples, dtype=float)
    acc = 0.0
    for e, r in zip(exact_samples, recon_samples):
        acc += (e - r) ** 2
    return math.sqrt(acc / intervals)


def exp_moment_stack_reference(max_power, lam_sq, t):
    """The exp-moment stack as first written: forward recurrence with fresh
    arrays per power, positive-term series below a = max(30, 2 * max_power).

    The library evaluates the same arithmetic in place; the two must agree
    bit for bit.
    """
    lam_sq = np.asarray(lam_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    a = np.multiply.outer(lam_sq, t)
    out = np.empty((max_power + 1,) + a.shape)
    ls = lam_sq[:, None]
    j = -np.expm1(-a) / ls
    out[0] = j
    t_pow = np.ones_like(t)
    for p in range(1, max_power + 1):
        t_pow = t_pow * t
        j = (t_pow[None, :] - p * j) / ls
        out[p] = j
    small = a < max(30.0, 2.0 * max_power)
    if np.any(small):
        t_grid = np.broadcast_to(t, a.shape)
        out[:, small] = _exp_moment_series_reference(max_power, a[small],
                                                     t_grid[small])
    return out


def _exp_moment_series_reference(max_power, a, t):
    powers = np.arange(max_power + 1, dtype=float)
    acc = np.zeros((max_power + 1, a.size))
    term = np.ones_like(a)  # a^j / j!
    limit = int(a.max(initial=0.0)) + 80
    for j in range(limit):
        acc += term[None, :] / (powers[:, None] + 1.0 + j)
        if term.max(initial=0.0) < 1e-20:
            break
        term = term * a / (j + 1.0)
    damp = np.exp(-a)
    out = np.empty_like(acc)
    t_pow = t.copy()  # t^(p+1)
    for p in range(max_power + 1):
        out[p] = t_pow * damp * acc[p]
        t_pow = t_pow * t
    return out


def sin_modes_reference(x, length, modes):
    """sin(n pi x / L) per mode as first written, with fresh arrays per
    step.  The library evaluates the same arithmetic in reused buffers; the
    two must agree bit for bit, signed zeros included."""
    y = np.multiply.outer(np.asarray(x, dtype=float) / length, modes)
    r = np.round(y)
    frac = y - r
    eps = float(np.finfo(float).eps)
    dust = np.abs(frac) <= 8.0 * eps * np.maximum(1.0, np.abs(y))
    frac = np.where(dust, 0.0, frac)
    sign = 1.0 - 2.0 * (r.astype(np.int64) & 1)
    return sign * np.sin(np.pi * frac)


def theta_history_reference(ts, length, n_theta, modes):
    """The initial-profile history as first written, as a function of the
    shifted point x: a fresh exp(-lam^2 t) decay matrix and a fresh
    (2/L) * decay * sin product per point.  The moment weights are the
    library's ``sine_moment_stack`` (checked against quadrature on its own).

    The library builds the decay matrix in place and forms every product in
    reused storage; its tables must equal these bit for bit.
    """
    from heatsource.kernels import sine_moment_stack

    lam = (math.pi / length) * modes
    weights = sine_moment_stack(n_theta - 1, modes, length)

    def at(x):
        decay = np.exp(-np.multiply.outer(ts, lam * lam))
        return (2.0 / length * (decay * sin_modes_reference(x, length, modes))
                @ weights.T)
    return at


def _odd_sine_sums(length, count):
    """Coefficient lists (ascending powers of x) of the closed forms
    w_j(x) = (4/L) sum over odd n of sin(lam x) / lam^(2j+1), lam = n pi / L,
    for j = 0 .. count - 1: w_0 = 1 on (0, L), and each later one solves
    -w_j'' = w_(j-1) with zero ends (Carslaw & Jaeger, Conduction of Heat
    in Solids, 1959).  Exact rational arithmetic in mpmath."""
    length = mp.mpf(length)
    sums = [[mp.mpf(1)]]
    for _ in range(1, count):
        # minus the double integral from 0, plus the line that zeroes x = L
        coef = [mp.mpf(0), mp.mpf(0)] + [-c / ((i + 1) * (i + 2))
                                         for i, c in enumerate(sums[-1])]
        coef[1] = -mp.polyval(coef[::-1], length) / length
        sums.append(coef)
    return sums


def phi_response_reference(x, t, length, n_phi, dps=50):
    """The source responses u_k(x, t), k = 1 .. n_phi, of the rod
    [0, length] with zero ends, in mpmath at ``dps`` digits, returned as
    floats.

    Per odd mode the moment int_0^t s^p exp(-lam^2 (t - s)) ds (p = k - 1)
    is an algebraic part sum_j (-1)^j p!/(p-j)! t^(p-j) / lam^(2j+2) and a
    damped part (-1)^(p+1) p! exp(-lam^2 t) / lam^(2p+2).  Summed over all
    modes, the algebraic part is a polynomial in x (``_odd_sine_sums``);
    the damped part is summed mode by mode until exp(-lam^2 t) is below
    1e-60.  No library recurrence, series or tail bound is used.  The
    digits cover the cancellation between the two parts at the first
    modes, about 1e22 against the result at k = 16 and small t."""
    with mp.workdps(dps):
        x, t, length = mp.mpf(x), mp.mpf(t), mp.mpf(length)
        sums = _odd_sine_sums(length, n_phi + 1)
        w = [mp.polyval(coef[::-1], x) for coef in sums]
        damped = [mp.mpf(0)] * n_phi  # sum_odd (4/L) sin e^(-lam^2 t) / lam^(2p+3)
        n = 1
        while True:
            lam = n * mp.pi / length
            if lam * lam * t > 140:
                break
            term = 4 / length * mp.sin(lam * x) * mp.exp(-lam * lam * t) / lam**3
            for p in range(n_phi):
                damped[p] += term
                term /= lam * lam
            n += 2
        out = []
        for p in range(n_phi):
            fact = mp.factorial(p)
            algebraic = mp.fsum((-1) ** j * fact / mp.factorial(p - j)
                                * t ** (p - j) * w[j + 1]
                                for j in range(p + 1))
            out.append(float(algebraic + (-1) ** (p + 1) * fact * damped[p]))
        return out


def theta_response_reference(x, t, length, n_theta, dps=50):
    """The initial-profile responses u_k(x, t), k = 0 .. n_theta - 1 (the
    rod [0, length] with zero ends and u(xi, 0) = xi^k), in mpmath at
    ``dps`` digits, returned as floats.

    Over every mode, (2/L) sin(lam x) exp(-lam^2 t) S_(k,n) with
    lam = n pi / L and S_(k,n) = int_0^L xi^k sin(lam xi) dxi, summed until
    lam^2 t > 160 (exp(-lam^2 t) < 3e-70 from there on).  S_(k,n) is
    integrated by parts with its cosine partner C_(k,n):
    S_k = (-L^k cos(n pi) + k C_(k-1)) / lam and C_k = -k S_(k-1) / lam,
    with cos(n pi) = (-1)^n and sin(n pi) = 0 exact.  Run forward in
    double (``kernels.sine_moment_stack``) that recurrence leaves S_15 of
    the first mode 9.5e-11 off on a rod of length 2 pi; at ``dps`` digits
    the loss is harmless."""
    with mp.workdps(dps):
        x, t, length = mp.mpf(x), mp.mpf(t), mp.mpf(length)
        out = [mp.mpf(0)] * n_theta
        n = 1
        while True:
            lam = n * mp.pi / length
            if lam * lam * t > 160:
                break
            weight = 2 / length * mp.sin(lam * x) * mp.exp(-lam * lam * t)
            parity = (-1) ** n
            s_k, c_k = (1 - parity) / lam, mp.mpf(0)
            out[0] += weight * s_k
            for k in range(1, n_theta):
                s_k, c_k = ((-length**k * parity + k * c_k) / lam,
                            -k * s_k / lam)
                out[k] += weight * s_k
            n += 1
        return [float(value) for value in out]


def svd_cost_floor(stacked, rhs):
    """Minimum of |rhs - M x|^2 from a full-rank SVD solve: lstsq with
    rcond=1e-18 keeps every singular value of the stacked systems here."""
    solution = np.linalg.lstsq(stacked, rhs, rcond=1e-18)[0]
    residual = rhs - stacked @ solution
    return float(residual @ residual)


def stacked_system_reference(meas, cfg, tables):
    """The stacked system as first written, from ``np.block``, ``vstack``
    and ``concatenate`` temporaries.  The library fills one preallocated
    array; the two must agree bit for bit and in layout."""
    meas.check_against(tables)
    n_x = tables.n_x
    design = np.block([
        [tables.final_theta, tables.final_phi],
        [tables.sensor_theta, tables.sensor_phi],
    ])
    root_alpha = np.sqrt(cfg.alpha)
    pen = np.zeros((tables.penalty_x.shape[0] + tables.penalty_t.shape[0],
                    n_x + tables.n_t))
    pen[: tables.penalty_x.shape[0], :n_x] = root_alpha * tables.penalty_x
    pen[tables.penalty_x.shape[0]:, n_x:] = root_alpha * tables.penalty_t
    stacked = np.vstack([design, pen])
    rhs = np.concatenate([meas.u_f, meas.u_star, np.zeros(pen.shape[0])])
    return stacked, rhs


def blockwise_cost(params, meas, cfg, tables):
    """The objective as first written, summed block by block from the
    response and penalty tables instead of the stacked system."""
    from heatsource.objective import residuals

    r_f, r_s = residuals(params, meas, tables)
    pen_x = tables.penalty_x @ params.theta
    pen_t = tables.penalty_t @ params.phi
    return float(
        r_f @ r_f + r_s @ r_s + cfg.alpha * (pen_x @ pen_x + pen_t @ pen_t)
    )


def blockwise_gradient(params, meas, cfg, tables):
    """The gradient blocks (d/d phi, d/d theta) as first written, from the
    transposed response and penalty tables."""
    from heatsource.objective import residuals

    r_f, r_s = residuals(params, meas, tables)
    pen_x = tables.penalty_x @ params.theta
    pen_t = tables.penalty_t @ params.phi
    g_phi = -2.0 * (tables.final_phi.T @ r_f + tables.sensor_phi.T @ r_s) \
        + 2.0 * cfg.alpha * (tables.penalty_t.T @ pen_t)
    g_theta = -2.0 * (tables.final_theta.T @ r_f + tables.sensor_theta.T @ r_s) \
        + 2.0 * cfg.alpha * (tables.penalty_x.T @ pen_x)
    return g_phi, g_theta


def legendre_gradient(params, meas, cfg, tables):
    """The objective's gradient in the Legendre coordinates ``y`` of
    ``x = T y`` (T block diagonal, on [0, t_f] for phi and [0, L] for
    theta), summed block by block from the response and penalty tables
    with their columns mapped by T.  Returns the monomial image ``T g_y``
    per block ``(phi, theta)``, the direction ``solve`` steps along after
    a restart, and the squared norm ``|g_y|^2``.

    T is the library's ``legendre_map``, itself checked against
    ``numpy.polynomial`` in ``test_solver``.  numpy's conversion differs
    from it by up to an ulp per entry, and the terms of ``g_y`` exceed
    their sum by about 1e3, so with numpy's T the directions here move by
    3e-13 relative, against 4e-16 with the library's."""
    from heatsource.objective import residuals
    from heatsource.solver import legendre_map

    r_f, r_s = residuals(params, meas, tables)
    blocks = (
        (tables.geom.t_final, params.phi, tables.final_phi,
         tables.sensor_phi, tables.penalty_t),
        (tables.geom.length, params.theta, tables.final_theta,
         tables.sensor_theta, tables.penalty_x),
    )
    dirs, sq = [], 0.0
    for top, coef, final, sensor, penalty in blocks:
        basis = legendre_map(coef.size, top)
        g_y = (-2.0 * ((final @ basis).T @ r_f + (sensor @ basis).T @ r_s)
               + 2.0 * cfg.alpha * ((penalty @ basis).T @ (penalty @ coef)))
        dirs.append(basis @ g_y)
        sq += float(g_y @ g_y)
    return tuple(dirs), sq
