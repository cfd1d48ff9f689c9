"""Trace ingestion: CSV parsing, window extraction, profile files."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from platoonrl.data import (
    LeaderProfile,
    extract_window,
    parse_trace_csv,
    save_profile,
)
from platoonrl.errors import DataError

from conftest import synth_velocity


def write_csv(path, text):
    path.write_text(text)
    return path


class TestParseTraceCsv:
    def test_three_row_fixture(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.1,10\n0.2,10\n")
        table = parse_trace_csv(p)
        assert len(table.times) == 3
        assert table.columns == ("v1",)
        assert np.array_equal(table.column("v1"), [10.0, 10.0, 10.0])

    def test_synthetic_fixture(self, trace_20s):
        table = parse_trace_csv(trace_20s)
        assert table.columns == ("v1", "v2")
        assert table.times[0] == 0.0
        assert table.column("v1")[0] == pytest.approx(synth_velocity(0.0), abs=1e-3)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheet exports often begin with a UTF-8 byte-order mark.
        p = tmp_path / "t.csv"
        p.write_bytes(b"\xef\xbb\xbftime,v1\n0.0,10\n0.1,11\n")
        table = parse_trace_csv(p)
        assert table.columns == ("v1",)
        assert np.array_equal(table.times, [0.0, 0.1])

    def test_text_that_is_not_utf8_is_a_data_error(self, tmp_path):
        # A UTF-16 export, as some spreadsheets write "Unicode text".
        p = tmp_path / "t.csv"
        p.write_bytes("time,v1\n0.0,10\n0.1,11\n".encode("utf-16"))
        with pytest.raises(DataError, match="cannot read trace file"):
            parse_trace_csv(p)

    def test_missing_time_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "stamp,v1\n0.0,10\n0.1,10\n")
        with pytest.raises(DataError, match="time"):
            parse_trace_csv(p)

    def test_no_velocity_columns(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,speed\n0.0,10\n0.1,10\n")
        with pytest.raises(DataError, match="velocity"):
            parse_trace_csv(p)

    def test_duplicate_time_reports_row_two(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.0,10\n0.1,10\n")
        with pytest.raises(DataError, match="row 2"):
            parse_trace_csv(p)

    def test_later_duplicate_reports_its_row(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n1.0,10\n1.0,10\n")
        with pytest.raises(DataError, match="row 3"):
            parse_trace_csv(p)

    @pytest.mark.parametrize("header", ["time,v1,v1", "time,v1,time"])
    def test_repeated_column_is_rejected(self, header, tmp_path):
        # The second column used to be dropped: its values for v1, its
        # decreasing timestamps for time.
        p = write_csv(tmp_path / "t.csv", header + "\n0.0,10,12\n0.1,11,-5\n")
        repeated = "v1" if header.endswith("v1") else "time"
        with pytest.raises(DataError, match=f"repeated column '{repeated}'"):
            parse_trace_csv(p)

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.1\n")
        with pytest.raises(DataError, match="fields"):
            parse_trace_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.1,fast\n")
        with pytest.raises(DataError):
            parse_trace_csv(p)

    def test_velocity_sanity_band(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.1,61\n")
        with pytest.raises(DataError, match="sanity"):
            parse_trace_csv(p)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DataError):
            parse_trace_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_trace_csv(tmp_path / "absent.csv")

    def test_unknown_column_lookup(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "time,v1\n0.0,10\n0.1,10\n")
        with pytest.raises(DataError, match="v9"):
            parse_trace_csv(p).column("v9")


class TestExtractWindow:
    def test_sixty_second_window_has_600_samples(self, trace_600s):
        table = parse_trace_csv(trace_600s)
        profile = extract_window(table, "v1", 316.0, 376.0, dt=0.1)
        assert len(profile) == 600
        assert profile.t0 == 316.0 and profile.t1 == 376.0
        assert profile.label == "v1:316-376"

    def test_window_values_match_source_signal(self, trace_600s):
        table = parse_trace_csv(trace_600s)
        profile = extract_window(table, "v1", 316.0, 376.0, dt=0.1)
        for k in (0, 1, 299, 599):
            t = 316.0 + 0.1 * k
            assert profile.velocities[k] == pytest.approx(
                synth_velocity(t), abs=1e-3
            ), f"sample {k}"

    def test_half_open_window(self, trace_20s):
        table = parse_trace_csv(trace_20s)
        profile = extract_window(table, "v1", 0.0, 1.0, dt=0.1)
        assert len(profile) == 10
        assert profile.velocities[-1] == pytest.approx(synth_velocity(0.9), abs=1e-3)

    def test_empty_window_rejected(self, trace_20s):
        table = parse_trace_csv(trace_20s)
        with pytest.raises(DataError, match="empty"):
            extract_window(table, "v1", 5.0, 5.0)

    def test_window_beyond_span_rejected(self, trace_20s):
        table = parse_trace_csv(trace_20s)
        with pytest.raises(DataError, match="outside"):
            extract_window(table, "v1", 10.0, 40.0)

    def test_window_before_span_rejected(self, trace_20s):
        table = parse_trace_csv(trace_20s)
        with pytest.raises(DataError, match="outside"):
            extract_window(table, "v1", -5.0, 5.0)

    @given(
        start=st.floats(min_value=0.0, max_value=10.0),
        width=st.floats(min_value=0.25, max_value=9.0),
    )
    def test_length_contract(self, trace_20s, start, width):
        table = parse_trace_csv(trace_20s)
        profile = extract_window(table, "v2", start, start + width, dt=0.1)
        assert len(profile) == int(round(width / 0.1))
        # half-open: the last grid point stays left of t1
        assert profile.t0 + (len(profile) - 1) * 0.1 < profile.t1


class TestProfileIo:
    def test_exact_text(self, tmp_path):
        profile = LeaderProfile(
            np.array([15.0, 15.25, 14.9999996]), 2.0, 2.3, 0.1, "v1:2-2.3"
        )
        path = tmp_path / "leader.csv"
        save_profile(profile, path)
        assert path.read_bytes() == (
            b"# source=v1:2-2.3 t0=2 t1=2.3 dt=0.1\n"
            b"velocity_mps\n15.000000\n15.250000\n15.000000\n"
        )

    def test_header_line(self, trace_20s, tmp_path):
        table = parse_trace_csv(trace_20s)
        profile = extract_window(table, "v1", 2.0, 8.0, dt=0.1)
        path = tmp_path / "leader.csv"
        save_profile(profile, path)
        first, second = path.read_text().splitlines()[:2]
        assert first == "# source=v1:2-8 t0=2 t1=8 dt=0.1"
        assert second == "velocity_mps"
