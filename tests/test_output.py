import math

import numpy as np
import pytest

from heatsource.output import OutputError, write_csv


def per_value(path, header, table):
    # The value-by-value path, reached through rows that are not an array.
    return write_csv(path, header, [list(row) for row in table]).read_bytes()


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
