import math
import warnings

import numpy as np
import pytest

from heatsource.errors import DomainError, TruncationWarning
from heatsource.kernels import (DEFAULT_TRUNCATION, TruncationPolicy,
                                exp_moment, exp_moment_rows, exp_moment_small,
                                exp_moment_stack, greens_function, sin_modes,
                                sine_moment, sine_moment_stack, source_kernel)
from oracles import (exp_moment_stack_reference, mp_exp_moment,
                     mp_sine_moment, quad_exp_moment, quad_sine_moment,
                     reference_green, sin_modes_reference)
from scipy import integrate

L = 2.0 * math.pi
TR = TruncationPolicy()


class TestTruncationPolicy:
    def test_defaults(self):
        assert DEFAULT_TRUNCATION.tol == 1e-12
        assert DEFAULT_TRUNCATION.max_terms == 10_000

    def test_invalid(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=0)

    def test_max_terms_warning(self):
        tight = TruncationPolicy(tol=1e-12, max_terms=3)
        with pytest.warns(TruncationWarning):
            greens_function(1.0, 2.0, 0.01, L, tight)

    def test_mode_count_is_first_below_tol(self):
        from heatsource.kernels import mode_count

        rng = np.random.default_rng(8)
        for _ in range(50):
            amp = 10.0 ** rng.uniform(-6, 9)
            t = rng.uniform(0.01, 3.0)
            tol = 10.0 ** rng.uniform(-14, -6)
            n = mode_count(amp, t, L, TruncationPolicy(tol=tol))
            bound = lambda k: amp * math.exp(-((k * math.pi / L) ** 2) * t)
            assert bound(n) <= tol * (1.0 + 1e-9)
            if n > 1:
                assert bound(n - 1) > tol * (1.0 - 1e-9)


class TestGreensFunction:
    def test_symmetry_random_triples(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            x, xi = rng.uniform(0.0, L, size=2)
            t = rng.uniform(0.05, 2.0)
            a = greens_function(x, xi, t, L, TR)
            b = greens_function(xi, x, t, L, TR)
            assert a == pytest.approx(b, abs=1e-15)

    def test_boundary_annihilation(self):
        for t in (0.02, 0.5, 2.0):
            for xi in (0.7, math.pi, 5.1):
                assert greens_function(0.0, xi, t, L, TR) == 0.0
                assert greens_function(L, xi, t, L, TR) == 0.0
                assert source_kernel(0.0, t, L, TR) == 0.0
                assert source_kernel(L, t, L, TR) == 0.0

    def test_against_reference_partial_sum(self):
        got = greens_function(math.pi, math.pi / 2, 0.5, L,
                              TruncationPolicy(tol=1e-12))
        ref = reference_green(math.pi, math.pi / 2, 0.5, L, terms=10_000)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            greens_function(-0.1, 1.0, 0.5, L, TR)
        with pytest.raises(DomainError):
            greens_function(1.0, L + 0.1, 0.5, L, TR)
        with pytest.raises(DomainError):
            greens_function(1.0, 1.0, 0.0, L, TR)
        with pytest.raises(DomainError):
            source_kernel(1.0, -0.5, L, TR)
        for length in (0.0, -1.0):
            with pytest.raises(DomainError, match="length must be positive"):
                greens_function(0.0, 0.0, 0.5, length, TR)
            with pytest.raises(DomainError, match="length must be positive"):
                source_kernel(0.0, 0.5, length, TR)


class TestSourceKernel:
    def test_mirror_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.uniform(0.0, L)
            t = rng.uniform(0.02, 2.0)
            a = source_kernel(x, t, L, TR)
            b = source_kernel(L - x, t, L, TR)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)

    def test_matches_quadrature_of_green(self):
        # Kernel consistency on a 10x10 grid against an adaptive-quadrature
        # oracle integrating the propagator over the source coordinate.
        xs = np.linspace(0.3, L - 0.3, 10)
        ts = np.geomspace(0.02, 2.0, 10)
        for x in xs:
            for t in ts:
                ref, _ = integrate.quad(
                    lambda xi: greens_function(x, xi, t, L, TR), 0.0, L,
                    epsabs=1e-11, epsrel=1e-11, limit=200)
                got = source_kernel(x, t, L, TR)
                assert got == pytest.approx(ref, abs=1e-8)

    def test_positive_at_moderate_times(self):
        for x in np.linspace(0.05, L - 0.05, 40):
            for t in np.geomspace(0.01, 2.0, 12):
                assert source_kernel(x, t, L, TR) > 0.0


class TestSinModes:
    def test_bitwise_equals_reference(self):
        # Scalars and arrays, rod ends, multiples of L and points outside
        # [0, L]: same values and the same signed zeros.
        rng = np.random.default_rng(17)
        cases = 0
        for length in (L, 2.0, 1.0, 3.7):
            for n in (1, 7, 340):
                modes = np.arange(1, n + 1, dtype=float)
                for x in (0.0, -0.0, length, length / 3, -length,
                          1.5 * length, np.linspace(0.0, length, 101),
                          np.array([0.0, -0.0, length, 2.0 * length]),
                          rng.uniform(-length, 2.0 * length, 50)):
                    got = sin_modes(x, length, modes)
                    want = sin_modes_reference(x, length, modes)
                    assert np.array_equal(got, want), (length, n, x)
                    assert np.array_equal(np.signbit(got),
                                          np.signbit(want)), (length, n, x)
                    cases += 1
        assert cases == 4 * 3 * 9

    def test_bitwise_equals_reference_across_row_blocks(self):
        # Point counts around the block height, with the rod ends and points
        # outside [0, L] placed in the first, a middle and the last block.
        from heatsource.kernels import _SIN_BLOCK

        rng = np.random.default_rng(23)
        modes = np.arange(1, 341, dtype=float)
        block = _SIN_BLOCK // modes.size
        for rows in (block - 1, block, block + 1, 2 * block + 1, 2000):
            x = rng.uniform(-L, 2.0 * L, rows)
            edges = (0.0, -0.0, L, -L, 2.0 * L, L / 3)
            for start in (0, rows // 2, rows - len(edges)):
                x[start:start + len(edges)] = edges
            got = sin_modes(x, L, modes)
            want = sin_modes_reference(x, L, modes)
            assert got.shape == (rows, modes.size)
            assert np.array_equal(got, want), rows
            assert np.array_equal(np.signbit(got), np.signbit(want)), rows

    def test_exact_zeros_at_the_ends(self):
        modes = np.arange(1, 50, dtype=float)
        assert np.all(sin_modes(0.0, L, modes) == 0.0)
        assert np.all(sin_modes(L, L, modes) == 0.0)


class TestSineMoment:
    def test_lowest_moment_closed_form(self):
        for n in range(1, 13):
            expected = L * (1.0 - (-1.0) ** n) / (n * math.pi)
            assert sine_moment(1, n, L) == pytest.approx(expected, abs=1e-15)

    def test_hand_value(self):
        # integral of xi*sin(xi) over [0, pi] equals pi
        assert sine_moment(2, 1, math.pi) == pytest.approx(math.pi, rel=1e-14)

    def test_against_quadrature_sweep(self):
        for m in range(1, 13):
            for n in range(1, 51):
                got = sine_moment(m, n, L)
                ref = quad_sine_moment(m, n, L)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-10), \
                    f"m={m} n={n}"

    def test_against_mpmath_spots(self):
        for m, n in ((12, 1), (12, 50), (7, 13)):
            got = sine_moment(m, n, L)
            ref = mp_sine_moment(m, n, L)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_stack_matches_scalar(self):
        modes = np.arange(1, 21)
        stack = sine_moment_stack(11, modes, L)
        for m in (1, 5, 12):
            for j, n in enumerate(modes):
                assert stack[m - 1, j] == sine_moment(int(m), int(n), L)

    def test_validation(self):
        with pytest.raises(ValueError):
            sine_moment(0, 1, L)
        with pytest.raises(ValueError):
            sine_moment(1, 0, L)
        with pytest.raises(DomainError):
            sine_moment(1, 1, 0.0)


class TestExpMoment:
    def test_first_moment_closed_form(self):
        for c in (0.25, 2.0, 40.0):
            for t in (0.02, 1.0, 2.0):
                expected = -math.expm1(-c * t) / c
                assert exp_moment(1, c, t) == pytest.approx(expected, rel=1e-14)

    def test_zero_interval(self):
        for k in (1, 3, 9):
            assert exp_moment(k, 4.0, 0.0) == 0.0

    def test_spot_against_mpmath(self):
        got = exp_moment(3, 4.0, 2.0)
        ref = mp_exp_moment(3, 4.0, 2.0)
        assert got == pytest.approx(ref, abs=1e-10, rel=1e-12)

    def test_against_quadrature_sweep(self):
        # All k <= 12 against the spatial rates of the first 50 modes at
        # several times, including the small-argument regime where the bare
        # forward recurrence would lose every digit.
        for k in range(1, 13):
            for n in range(1, 51):
                lam_sq = (n * math.pi / L) ** 2
                for t in (0.02, 0.5, 2.0):
                    got = exp_moment(k, lam_sq, t)
                    ref = quad_exp_moment(k, lam_sq, t)
                    assert got == pytest.approx(ref, rel=1e-10, abs=1e-300), \
                        f"k={k} n={n} t={t}"

    def test_hybrid_switch_continuity(self):
        # Values just below and above the series/recurrence switch must both
        # match the high-precision oracle.
        for k in (6, 12, 16):
            switch = max(30.0, 2.0 * (k - 1))
            for a in (switch * 0.98, switch * 1.02):
                t = 2.0
                c = a / t
                got = exp_moment(k, c, t)
                ref = mp_exp_moment(k, c, t)
                assert got == pytest.approx(ref, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 13))
            c = float(rng.uniform(0.05, 100.0))
            t = float(rng.uniform(0.0, 3.0))
            val = exp_moment(k, c, t)
            assert 0.0 <= val <= t ** (k - 1) * t + 1e-300

    def test_stack_matches_scalar(self):
        lam_sq = np.array([0.25, 2.25, 42.0])
        ts = np.array([0.02, 1.3])
        stack = exp_moment_stack(8, lam_sq, ts)
        for p in (0, 3, 8):
            for i, c in enumerate(lam_sq):
                for j, t in enumerate(ts):
                    assert stack[p, i, j] == exp_moment(p + 1, float(c), float(t))

    def test_stack_bitwise_equals_reference_on_model_inputs(
            self, monkeypatch, cold_table_memo):
        # Every moment the table builders ask for, on the rods, meshes and
        # sizes the commands use, equals the out-of-place formula bit for
        # bit (so tables, CSVs and solver paths do not move): the stack of
        # the final profile and each streamed power of the sensor history.
        from heatsource import model
        from heatsource.harness import get_case, sensitivity_demo_geometry

        calls = []

        def recording(max_power, lam_sq, t):
            got = exp_moment_stack(max_power, lam_sq, t)
            calls.append((max_power, lam_sq.size, t.size))
            ref = exp_moment_stack_reference(max_power, lam_sq, t)
            assert np.array_equal(got, ref), (max_power, lam_sq.size, t.size)
            return got

        def recording_rows(max_power, lam_sq, t, small_series):
            calls.append((max_power, lam_sq.size, t.size))
            ref = exp_moment_stack_reference(max_power, lam_sq, t)
            powers = []
            for p, moment in exp_moment_rows(max_power, lam_sq, t,
                                             small_series):
                assert np.array_equal(moment, ref[p]), (p, lam_sq.size, t.size)
                powers.append(p)
                yield p, moment
            assert powers == list(range(max_power + 1))

        monkeypatch.setattr(model, "exp_moment_stack", recording)
        monkeypatch.setattr(model, "exp_moment_rows", recording_rows)
        rods = [(get_case("example1").geometry, (20, 25, 100, 1000),
                 ((6, 5), (12, 9))),
                (get_case("polynomial").geometry, (20, 50, 100),
                 ((3, 2), (12, 9), (16, 16))),
                (sensitivity_demo_geometry(), (30, 2000), ((6, 5), (12, 9)))]
        for geom, meshes, sizes in rods:
            for nodes in meshes:
                mesh = model.MeasurementMesh.regular(geom, nodes, nodes)
                for n_x, n_t in sizes:
                    model.sensitivity_tables(geom, mesh, n_x, n_t, TR)
        assert len(calls) == 2 * sum(len(m) * len(s) for _, m, s in rods)

    def test_rows_reuse_one_buffer_and_match_the_stack(self):
        lam_sq = np.array([0.25, 2.25, 42.0, 900.0])
        ts = np.array([0.02, 0.5, 1.3])
        stack = exp_moment_stack(6, lam_sq, ts)
        buffers = set()
        for p, moment in exp_moment_rows(6, lam_sq, ts,
                                         exp_moment_small(6, lam_sq, ts)):
            assert moment.shape == (4, 3)
            assert np.array_equal(moment, stack[p])
            buffers.add(id(moment))
        assert len(buffers) == 1

    def test_rows_bitwise_equal_reference_for_any_series_set(self):
        # No entry below the series switch, exactly one, and every one.
        ts = np.array([0.5, 1.0, 2.0])
        for lam_sq, small in ((np.array([70.0, 90.0]), 0),
                              (np.array([50.0, 90.0]), 1),
                              (np.array([0.25, 2.25, 14.0]), 9)):
            assert np.count_nonzero(np.multiply.outer(lam_sq, ts) < 30.0) \
                == small
            ref = exp_moment_stack_reference(8, lam_sq, ts)
            for p, moment in exp_moment_rows(
                    8, lam_sq, ts, exp_moment_small(8, lam_sq, ts)):
                assert np.array_equal(moment, ref[p]), (small, p)

    def test_stack_bitwise_equals_reference_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            max_power = int(rng.integers(0, 20))
            lam_sq = np.exp(rng.uniform(-3.0, 9.0, int(rng.integers(1, 40))))
            ts = rng.uniform(0.0, 3.0, int(rng.integers(1, 40)))
            assert np.array_equal(exp_moment_stack(max_power, lam_sq, ts),
                                  exp_moment_stack_reference(max_power,
                                                             lam_sq, ts))

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_moment(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            exp_moment(1, 0.0, 1.0)
        with pytest.raises(DomainError):
            exp_moment(1, 1.0, -0.1)


class TestSkippedWork:
    """Boundary cases of the work the kernels skip because its result is
    known exactly: converged series entries, expm1(-a) = -1 for a > 40 and
    the int64 parity.  Each is compared bit for bit with the out-of-place
    formulas, which do all of that work."""

    @staticmethod
    def _assert_rows_equal_reference(max_power, lam_sq, ts):
        ref = exp_moment_stack_reference(max_power, lam_sq, ts)
        small_series = exp_moment_small(max_power, lam_sq, ts)
        for p, moment in exp_moment_rows(max_power, lam_sq, ts,
                                         small_series):
            assert np.array_equal(moment, ref[p]), (max_power, p)
        assert np.array_equal(exp_moment_stack(max_power, lam_sq, ts), ref)

    def test_premises_of_the_skips(self):
        # The libm results the skips stand in for.
        a = np.concatenate([np.nextafter(40.0, np.inf, dtype=float)[None],
                            np.linspace(40.0, 60.0, 10_001)[1:],
                            np.geomspace(60.0, 1e300, 1_001)])
        assert np.all(np.expm1(-a) == -1.0)
        x = np.concatenate([[746.0], np.linspace(746.0, 800.0, 10_001),
                            np.geomspace(800.0, 1e300, 1_001)])
        v = np.exp(-x)
        assert np.all(v == 0.0) and not np.any(np.signbit(v))

    @pytest.mark.parametrize("max_power", [0, 1, 8, 20])
    def test_zero_and_integer_arguments(self, max_power):
        # a = lam_sq * t = 0 (t = 0) and every integer up to the switch,
        # unsorted and repeated.
        ts = np.array([3.0, 0.0, 17.0, 1.0, 0.0, 29.0, 2.0, 39.0, 17.0])
        self._assert_rows_equal_reference(max_power, np.array([1.0]), ts)
        self._assert_rows_equal_reference(max_power, np.array([1.0, 0.5]),
                                          np.arange(0.0, 80.0))

    @pytest.mark.parametrize("max_power", [0, 20])
    @pytest.mark.parametrize("a", [0.0, 1e-300, 0.5, 1.0, 7.0, 29.999, 30.0,
                                   39.999, 40.0, 40.001, 1e3])
    def test_one_entry(self, max_power, a):
        self._assert_rows_equal_reference(max_power, np.array([1.0]),
                                          np.array([a]))

    @pytest.mark.parametrize("max_power", [0, 8, 19, 20])
    def test_arguments_around_the_expm1_saturation(self, max_power):
        # With max_power 20 the series switch is 40 itself: 39.999 takes the
        # series, 40 the recurrence from expm1 and 40.001 the recurrence
        # from -1 without expm1.
        for lam_sq, ts in ((np.array([1.0]), np.array([39.999, 40.0, 40.001])),
                           (np.array([4.0, 1.0, 0.25]),
                            np.array([10.00025, 9.99975, 10.0, 160.0,
                                      159.996, 160.004]))):
            assert {39.999, 40.0, 40.001} <= set(
                np.multiply.outer(lam_sq, ts).ravel().tolist())
            self._assert_rows_equal_reference(max_power, lam_sq, ts)

    @pytest.mark.parametrize("max_power", [0, 8, 19, 20, 25])
    def test_row_start_around_the_switch_and_40(self, max_power):
        # J_0 is fl(1/lam_sq) but at the listed entries (switch <= a < 40,
        # or NaN).  Arguments at both bounds and one ulp either side, on
        # rows scaled by powers of two (so each a is exact), with unsorted
        # and repeated times: every J_p equals the reference bit for bit,
        # signs, NaNs and layout included.  From max_power 21 on the
        # switch is past 40 and only the NaN is listed.
        switch = max(30.0, 2.0 * max_power)
        a = [np.nextafter(v, d) if d else v for v in (switch, 40.0)
             for d in (-np.inf, 0, np.inf)]
        a = np.array(a + a[::-1] + [a[1], 100.0, a[4], 0.0, np.nan])
        lam_sq = np.array([1.0, 4.0, 0.25])
        ts = np.concatenate([a, a / 4.0, a * 4.0])
        ref = exp_moment_stack_reference(max_power, lam_sq, ts)
        memo = exp_moment_small(max_power, lam_sq, ts)
        for p, moment in exp_moment_rows(max_power, lam_sq, ts, memo):
            assert moment.flags.c_contiguous
            assert moment.tobytes() == ref[p].tobytes(), (max_power, p)
        stack = exp_moment_stack(max_power, lam_sq, ts)
        assert stack.flags.c_contiguous and stack.tobytes() == ref.tobytes()
        listed = np.multiply.outer(lam_sq, ts).ravel().take(memo[2])
        assert np.isnan(listed).sum() == lam_sq.size * np.isnan(ts).sum()
        assert (np.count_nonzero(~np.isnan(listed)) > 0) == (max_power < 20)

    @pytest.mark.parametrize("max_power", [0, 20])
    def test_random_arguments_with_extreme_powers(self, max_power):
        rng = np.random.default_rng(29)
        for _ in range(40):
            lam_sq = np.exp(rng.uniform(-3.0, 5.0, int(rng.integers(1, 30))))
            ts = rng.uniform(0.0, 8.0, int(rng.integers(1, 30)))
            self._assert_rows_equal_reference(max_power, lam_sq, ts)

    def test_loop_length_is_the_largest_entry_s(self):
        # _series_steps(a) is where a full-array loop over terms that
        # include a would stop on term.max() < 1e-20 or at its limit.
        from heatsource.kernels import _series_steps

        for a_max in (0.0, 1e-300, 0.3, 1.0, 2.5, 10.0, 29.9975, 30.0, 39.99,
                      40.0, 77.7):
            a = np.array([0.0, a_max / 3.0, a_max])
            term = np.ones_like(a)
            limit = int(a.max()) + 80
            for j in range(limit):
                if term.max() < 1e-20:
                    break
                term = term * a / (j + 1.0)
            assert _series_steps(a_max) == min(j + 1, limit), a_max

    def test_signed_zeros_at_integral_arguments(self):
        # n x / L integral: +0.0 where it is even, -0.0 where it is odd,
        # for points inside, at the ends of and outside the rod.
        modes = np.arange(1, 10, dtype=float)
        for length in (L, 1.0, 3.0):
            x = length * np.array([-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5,
                                   1.0, 2.0, 3.0])
            got = sin_modes(x, length, modes)
            want = sin_modes_reference(x, length, modes)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            r = np.multiply.outer(x / length, modes)
            whole = r == np.round(r)
            assert np.all(got[whole] == 0.0)
            assert np.array_equal(np.signbit(got[whole]),
                                  np.abs(r[whole]) % 2.0 == 1.0)


class TestSmallEntries:
    """exp_moment_small scans the (lam_sq, t) grid in blocks of mode rows
    and returns what one scan of the whole grid gives: the same flat
    indices in the same sorted order and the same series values, and the
    same J_0 entries off the row constants with the same values, bit for
    bit."""

    # The inputs of TestSkippedWork.test_zero_and_integer_arguments and of
    # test_model's theta-history underflow test: unsorted, repeated, zero.
    UNSORTED = np.array([3.0, 0.0, 17.0, 1.0, 0.0, 29.0, 2.0, 39.0, 17.0])
    EDGES = np.array([745.9, 746.0, 746.1])
    UNDERFLOW = np.concatenate([EDGES / 16.0, [0.05], EDGES, [2.0, 0.05],
                                EDGES / 4.0, [746.0 / 16.0, 1e-3, 746.0,
                                              744.0]])

    @staticmethod
    def _whole_grid(max_power, lam_sq, t):
        from heatsource.kernels import _exp_moment_series

        a = np.multiply.outer(lam_sq, t)
        below = a < max(30.0, 2.0 * max_power)
        small = np.flatnonzero(below)
        small = small.take(a.take(small).argsort())
        starts = np.flatnonzero(~(below | (a >= 40.0)))
        j0 = (-np.expm1(-a) / lam_sq[:, None]).take(starts)
        if not small.size:
            return small, np.empty((max_power + 1, 0)), starts, j0
        return (small, _exp_moment_series(max_power, a.take(small),
                                          t.take(small % t.size)),
                starts, j0)

    def _assert_equals_whole_grid(self, max_power, lam_sq, t):
        got = exp_moment_small(max_power, lam_sq, t)
        want = self._whole_grid(max_power, lam_sq, t)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, max_power
            assert g.tobytes() == w.tobytes(), (max_power, t.size)
        return got[0]

    @pytest.mark.parametrize("block", [1, 19, None])
    @pytest.mark.parametrize("max_power", [0, 8, 20])
    def test_sorted_unsorted_and_repeated_times(self, max_power, block,
                                                monkeypatch):
        # Blocks of one row, of two rows with an odd row count, and the
        # default height.
        from heatsource import kernels

        if block is not None:
            monkeypatch.setattr(kernels, "_SIN_BLOCK", block)
        for lam_sq, ts in ((np.array([1.0]), self.UNSORTED),
                           (np.array([1.0, 0.5, 0.25]), self.UNSORTED),
                           (np.array([1.0, 0.5]), np.arange(0.0, 80.0)),
                           (np.arange(1.0, 14.0) ** 2, self.UNDERFLOW),
                           (np.array([0.25, 2.25, 42.0]),
                            np.linspace(0.02, 2.0, 100))):
            small = self._assert_equals_whole_grid(max_power, lam_sq, ts)
            assert small.size

    @pytest.mark.parametrize("max_power", [0, 8])
    def test_no_small_entry(self, max_power):
        lam_sq, ts = np.array([70.0, 90.0]), np.array([0.5, 1.0, 2.0])
        small = self._assert_equals_whole_grid(max_power, lam_sq, ts)
        assert small.size == 0

    @pytest.mark.parametrize("max_power", [0, 8, 19, 20, 25])
    def test_start_entries_lie_between_the_switch_and_40(self, max_power):
        # Below the switch the series takes over; from 40 on J_0 is the
        # row constant.  A NaN argument is listed, as expm1 ran on it.
        lam_sq = np.array([1.0, 0.25])
        ts = np.array([29.0, 30.0, 38.0, 39.5, 40.0, 160.0, np.nan])
        starts = exp_moment_small(max_power, lam_sq, ts)[2]
        self._assert_equals_whole_grid(max_power, lam_sq, ts)
        a = np.multiply.outer(lam_sq, ts).ravel().take(starts)
        want = {0: [30.0, 38.0, 39.5], 8: [30.0, 38.0, 39.5],
                19: [38.0, 39.5]}.get(max_power, [])
        assert a[:-2].tolist() == want and np.isnan(a[-2:]).all()

    def test_small_entries_across_many_blocks(self):
        # example1's odd modes at 12x9 on 1000 time nodes: 340 modes in
        # blocks of 32 rows, with small entries in the first four.
        from heatsource.kernels import _SIN_BLOCK

        lam = np.arange(1.0, 681.0, 2.0) / 2.0
        ts = np.linspace(0.0, 2.0, 1001)[1:]
        small = self._assert_equals_whole_grid(8, lam * lam, ts)
        step = _SIN_BLOCK // ts.size
        assert lam.size > 10 * step
        assert np.unique(small // ts.size // step).size == 4

    def test_returned_arrays_are_read_only(self):
        for lam_sq in (np.array([0.25, 2.25]), np.array([70.0, 36.0])):
            memo = exp_moment_small(4, lam_sq, np.array([0.5, 1.0]))
            assert len(memo) == 4
            for array in memo:
                assert not array.flags.writeable


def test_no_warning_under_default_policy():
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        greens_function(1.0, 2.0, 0.02, L, TR)
        source_kernel(1.0, 0.02, L, TR)
