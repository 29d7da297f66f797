import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import read_report

from shewpt import AngleSet, reporting, synth


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


class TestWaveformSvg:
    def test_the_polyline_spans_the_same_height_at_any_step_voltage(self, tmp_path):
        # a floor of 1e-12 V on the scale drew the 1e-15 V staircase under
        # one pixel tall, against 320 px at 500 V
        angles = AngleSet.from_degrees([11.99, 41.93, 85.67])
        points = {}
        for step in (1e-15, 500.0):
            w = synth(angles, step, 85e3)
            t = np.arange(8192) * (w.period / 8192)
            path = tmp_path / f"{step}.svg"
            reporting.waveform_svg(t, w.sample_at(t), path)
            points[step] = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)
        assert points[1e-15] == points[500.0]
        heights = [float(point.split(",")[1]) for point in points[500.0].split(" ")]
        assert (min(heights), max(heights)) == (40.0, 360.0)


class TestWriteJson:
    @pytest.mark.parametrize(
        "obj, error",
        [({"x": math.nan}, ValueError), ({"x": [1.0, -math.inf]}, ValueError),
         ({"x": object()}, TypeError)],
        ids=["nan", "inf", "object"],
    )
    def test_refuses_what_strict_json_cannot_hold_and_writes_nothing(
        self, tmp_path, obj, error
    ):
        # nan and inf were written as the bare tokens NaN and -Infinity; an
        # object raised after the file was opened, leaving a partial file
        path = tmp_path / "report.json"
        with pytest.raises(error):
            reporting.write_json(obj, path)
        assert not path.exists()

    def test_writes_sorted_indented_json_and_a_newline(self, tmp_path):
        path = tmp_path / "report.json"
        reporting.write_json({"b": [1, 2.5], "a": {"c": None}}, path)
        assert path.read_text() == (
            '{\n  "a": {\n    "c": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_the_suite_reads_reports_strictly(self, tmp_path, token):
        # Python's json parses these bare tokens; strict JSON has none
        path = tmp_path / "report.json"
        path.write_text(f'{{"x": [1.0, {token}]}}')
        with pytest.raises(ValueError, match=f"^{token} is not a strict JSON number$"):
            read_report(path)
