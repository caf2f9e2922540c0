import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatsource import harness, output
from heatsource.model import MeasurementMesh
from heatsource.output import OutputError, write_csv, write_key_values

# An overflow or cast warning of the one-pass formatter fails the test.
pytestmark = pytest.mark.filterwarnings("error")


def per_value(path, header, table):
    # The value-by-value path, reached through rows that are not an array.
    return write_csv(path, header, [list(row) for row in table]).read_bytes()


def _bits(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


def _tie(digits, places, sign):
    # An odd multiple of 5^places with 11 digits, over 10^places: a dyadic
    # value whose 11 significant digits end in 5, an exact tie of "%.9e".
    return sign * digits * 5 ** places / 10 ** places


# Exact ties below 1e11, and from 1e10 to 1e18 (an 11-digit number ending
# in 5 times 10^j), where 10^(9-e) is inexact and the product may round
# either way.
_ties = st.one_of(
    st.integers(1, 15).flatmap(lambda places: st.builds(
        _tie,
        st.integers(-(-10**10 // 5**places) // 2,
                    (10**11 - 1) // 5**places // 2 - 1).map(
                        lambda k: 2 * k + 1),
        st.just(places), st.sampled_from([1.0, -1.0]))),
    st.builds(lambda k, j, sign: sign * float((10 * k + 5) * 10 ** j),
              st.integers(10**9, 10**10 - 1), st.integers(0, 7),
              st.sampled_from([1.0, -1.0])))
_powers_of_ten = st.builds(
    lambda k, step, sign: sign * float(np.nextafter(
        float(f"1e{k}"), math.copysign(math.inf, step)) if step else
        float(f"1e{k}")),
    st.integers(-300, 300), st.sampled_from([-1, 0, 1]),
    st.sampled_from([1.0, -1.0]))
_specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                             5e-324, -5e-324, 2.2250738585072009e-308,
                             -1e-300, 1.7976931348623157e308])
_values = st.one_of(st.integers(0, 2**64 - 1).map(_bits), _ties,
                    _ties.map(lambda v: float(np.nextafter(v, math.inf))),
                    _powers_of_ten, _specials,
                    st.floats(allow_nan=False, allow_infinity=False,
                              allow_subnormal=True))
_LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
            "reversed": lambda table: table[:, ::-1]}


class TestWriteCsv:
    def test_float_table_matches_the_per_value_path(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        table = np.array([[math.inf, -math.inf, math.nan, -0.0],
                          [0.0, tiny, -tiny, 2.2250738585072014e-308],
                          [1.0, -1.23456789012345e-300, 6.02e23, -2.5]])
        header = ["a", "b", "c", "d"]
        for layout in (table, np.asfortranarray(table), table[:, ::-1]):
            fast = write_csv(tmp_path / "fast.csv", header, layout)
            assert fast.read_bytes() == per_value(tmp_path / "slow.csv",
                                                  header, layout)
        assert fast.read_text().splitlines()[1:3] == [
            "-0.000000000e+00,nan,-inf,inf",
            "2.225073859e-308,-4.940656458e-324,4.940656458e-324,"
            "0.000000000e+00"]

    def test_random_tables_match_the_per_value_path(self, tmp_path):
        rng = np.random.default_rng(2)
        for width in (1, 2, 13):
            table = rng.standard_normal((50, width)) \
                * 10.0 ** rng.integers(-300, 300, (50, width))
            header = [f"c{i}" for i in range(width)]
            fast = write_csv(tmp_path / "fast.csv", header, table)
            assert fast.read_bytes() == per_value(tmp_path / "slow.csv",
                                                  header, table)

    @settings(database=None, deadline=None, derandomize=True,
              max_examples=100)
    @given(st.sampled_from([1, 2, 13]), st.sampled_from(sorted(_LAYOUTS)),
           st.lists(_values, min_size=1, max_size=40))
    def test_one_pass_text_equals_the_per_value_path(self, tmp_path_factory,
                                                     width, layout, values):
        # Bit patterns, exact ties and their neighbours, powers of ten and
        # their neighbours, subnormals, zeros, infinities and nan.
        tmp = tmp_path_factory.mktemp("fuzz")
        values = values * width
        table = _LAYOUTS[layout](np.array(values).reshape(-1, width))
        header = [f"c{i}" for i in range(width)]
        fast = write_csv(tmp / "fast.csv", header, table).read_bytes()
        assert fast == per_value(tmp / "slow.csv", header, table)

    @pytest.mark.parametrize("width", [1, 2, 13])
    def test_blocks_split_at_whole_rows(self, tmp_path, monkeypatch, width):
        # Blocks of one to a few rows give the text of one block.
        rng = np.random.default_rng(4)
        table = rng.standard_normal((23, width)) \
            * 10.0 ** rng.integers(-120, 120, (23, width))
        table[::5, 0] = [0.0, math.nan, -math.inf, 5e-324, 1e-300]
        header = [f"c{i}" for i in range(width)]
        whole = write_csv(tmp_path / "whole.csv", header, table).read_bytes()
        for block in (1, 7, 30):
            monkeypatch.setattr(output, "_CSV_BLOCK", block)
            assert write_csv(tmp_path / "blocks.csv", header,
                             table).read_bytes() == whole
        assert whole == per_value(tmp_path / "slow.csv", header, table)

    def test_misjudged_decades_take_the_per_value_path(self, tmp_path,
                                                       monkeypatch):
        # A log10 one decade off either way on two values in three: their
        # products lie outside [1e9, 1e10) and "%.9e" formats them.
        rng = np.random.default_rng(5)
        table = rng.standard_normal((40, 3)) \
            * 10.0 ** rng.integers(-20, 20, (40, 3))
        slow = per_value(tmp_path / "slow.csv", ["a", "b", "c"], table)
        log10 = np.log10

        def misjudged(values):
            exp = log10(values)
            exp[::3] += 1.0
            exp[1::3] -= 1.0
            return exp

        monkeypatch.setattr(np, "log10", misjudged)
        fast = write_csv(tmp_path / "fast.csv", ["a", "b", "c"], table)
        assert fast.read_bytes() == slow

    def test_sensitivity_tables_equal_the_per_value_path(self, tmp_path,
                                                         monkeypatch):
        # example1, 12x9, 200 nodes: the four CSVs of `heatsource
        # sensitivity`, byte for byte.
        geom = harness.get_case("example1").geometry
        mesh = MeasurementMesh.regular(geom, 200, 200)
        fast = harness.emit_sensitivity_data(geom, 12, 9, mesh, tmp_path,
                                             "fast")
        monkeypatch.setattr(output, "write_csv", lambda path, header, rows:
                            write_csv(path, header, [list(r) for r in rows]))
        slow = harness.emit_sensitivity_data(geom, 12, 9, mesh, tmp_path,
                                             "slow")
        for a, b in zip(fast, slow):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_scratch_does_not_grow_with_the_table(self, tmp_path):
        # A 2001x13 table: the whole-table %-join peaked at 1.46 MB of
        # traced memory; blocks of 8192 values peak at 1.15 MB, the whole
        # table as one block at 2.20 MB.
        import tracemalloc

        rng = np.random.default_rng(3)
        table = rng.standard_normal((2001, 13)) \
            * 10.0 ** rng.integers(-20, 20, (2001, 13))
        header = [f"c{i}" for i in range(13)]
        write_csv(tmp_path / "warm.csv", header, table)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_csv(tmp_path / "table.csv", header, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, peak / 1e6

    def test_wrong_width_table_raises(self, tmp_path):
        for rows in (np.zeros((4, 3)), [[0.0, 0.0], [1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError,
                               match="row width 3 != header width 2"):
                write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
            assert not (tmp_path / "bad.csv").exists()

    def test_parent_that_is_a_file_raises_output_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(OutputError, match="cannot write"):
            write_csv(blocker / "out.csv", ["a"], np.zeros((1, 1)))

    @pytest.mark.parametrize("write", [
        lambda path: write_key_values(path, [("status", "ok")]),
        lambda path: write_csv(path, ["a"], np.ones((3, 1))),
        lambda path: write_csv(path, ["a"], [["x"]]),
    ])
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, write):
        # The target is a directory: the temp file is written, the rename
        # fails, and the temp file goes.
        (tmp_path / "x_summary.txt").mkdir()
        with pytest.raises(OutputError, match="cannot write"):
            write(tmp_path / "x_summary.txt")
        assert not list(tmp_path.glob("*.tmp"))

    def test_zero_row_table_writes_the_header(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", ["a", "b"],
                         np.zeros((0, 2)))
        assert path.read_text() == "a,b\n"
        assert per_value(tmp_path / "slow.csv", ["a", "b"],
                         np.zeros((0, 2))) == b"a,b\n"

    def test_mixed_rows_keep_their_formats(self, tmp_path):
        path = write_csv(tmp_path / "mixed.csv", ["n", "x", "status", "ok"],
                         [(3, 0.5, "converged", True)])
        assert path.read_text().splitlines()[1] == \
            "3,5.000000000e-01,converged,true"

    def test_write_tables_names_each_file_after_the_run(self, tmp_path):
        # <outdir>/<run_id>_<name>.csv in order; each table is read only
        # when its turn comes, so the caller can build it just before.
        written = []

        def tables():
            for name in ("b", "a"):
                written.append(sorted(p.name for p in tmp_path.iterdir()))
                yield name, ["v"], np.ones((2, 1))

        paths = output.write_tables(tmp_path, "run", tables())
        assert paths == [tmp_path / "run_b.csv", tmp_path / "run_a.csv"]
        assert written == [[], ["run_b.csv"]]
        assert paths[1].read_text() == "v\n1.000000000e+00\n1.000000000e+00\n"
