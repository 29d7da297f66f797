import csv
import math
import tracemalloc

import numpy as np
import pytest

from shewpt import reporting


def _row_loop(path, header, *columns):
    # a csv.writer row loop with repr applied to each Python value
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(np.asarray(col).tolist() for col in columns)):
            writer.writerow([repr(x) for x in row])


class TestWriteCsv:
    def test_zero_rows_write_the_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        reporting._write_csv(path, ["a", "b"], np.zeros(0), np.zeros(0, dtype=int))
        assert path.read_bytes() == b"a,b\r\n"

    def test_special_floats_and_an_int_column_equal_the_row_loop(self, tmp_path):
        floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
        n = np.arange(len(floats))
        path, reference = tmp_path / "out.csv", tmp_path / "reference.csv"
        reporting._write_csv(path, ["n", "x"], n, np.array(floats))
        _row_loop(reference, ["n", "x"], n, np.array(floats))
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_text().splitlines()[1:] == [
            "0,-0.0", "1,nan", "2,inf", "3,-inf", "4,5e-324", "5,1e+16", "6,1e-05"
        ]

    @pytest.mark.parametrize("rows, ncols", [(65536, 2), (4097, 6)])
    def test_a_file_is_never_held_whole(self, tmp_path, rows, ncols):
        # 64-row chunks trace 30-43 KiB on these columns; the whole 65,536 x
        # 2 file as one string would be over 2 MiB
        columns = np.random.default_rng(rows).standard_normal((ncols, rows))
        header = [f"c{i}" for i in range(ncols)]
        path = tmp_path / "out.csv"
        reporting._write_csv(path, header, *columns)
        tracemalloc.start()
        try:
            reporting._write_csv(path, header, *columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10
        reference = tmp_path / "reference.csv"
        _row_loop(reference, header, *columns)
        assert path.read_bytes() == reference.read_bytes()
