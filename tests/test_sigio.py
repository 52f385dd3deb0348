import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxkit.errors import DataError
from hxkit.sigio import infer_format, read_signal, write_values

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestInferFormat:
    def test_extension_rules(self):
        assert infer_format("a.csv") == "csv"
        assert infer_format("a.txt") == "csv"
        assert infer_format("a.f64le") == "f64le"

    def test_override_wins(self):
        assert infer_format("a.f64le", "csv") == "csv"
        assert infer_format("a.csv", "f64le") == "f64le"

    def test_unknown_rejected(self):
        with pytest.raises(DataError):
            infer_format("a.csv", "wav")


class TestCsvRead:
    def test_single_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.5\n-3.0\n")
        s = read_signal(p, "csv")
        assert np.array_equal(s.samples, [1.0, 2.5, -3.0])
        assert s.x0 == 0.0 and s.dx == 1.0

    def test_pairs_infer_grid(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0.5,10.0\n0.75,11.0\n1.0,12.0\n")
        s = read_signal(p, "csv")
        assert s.x0 == 0.5 and s.dx == 0.25
        assert np.array_equal(s.samples, [10.0, 11.0, 12.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n\n2.0\n\n")
        assert len(read_signal(p, "csv")) == 2

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_decreasing_grid_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2.0,1.0\n1.0,2.0\n0.0,3.0\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_three_columns_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_header_row_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,value\n0,1\n1,2\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0,3.0\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(DataError):
            read_signal(p, "csv")

    def test_byte_order_mark_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf1.0\n2.0\n")
        with pytest.raises(DataError, match="0xef at offset 0"):
            read_signal(p, "csv")


class TestF64le:
    def test_bit_exact_round_trip(self, tmp_path):
        p = tmp_path / "s.f64le"
        x = np.array([0.1, -1.0 / 3.0, 1e-300, 2.0**53 + 1])
        write_values(p, "f64le", x)
        back = read_signal(p, "f64le").samples
        assert back.tobytes() == x.tobytes()

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "s.f64le"
        p.write_bytes(b"")
        with pytest.raises(DataError):
            read_signal(p, "f64le")

    def test_partial_double_rejected(self, tmp_path):
        p = tmp_path / "s.f64le"
        p.write_bytes(b"\x00" * 20)
        with pytest.raises(DataError):
            read_signal(p, "f64le")

    def test_complex_interleaves_re_im(self, tmp_path):
        p = tmp_path / "z.f64le"
        z = np.array([1.0 + 2.0j, -3.0 + 0.5j])
        write_values(p, "f64le", z)
        raw = np.frombuffer(p.read_bytes(), dtype="<f8")
        assert np.array_equal(raw, [1.0, 2.0, -3.0, 0.5])


class TestWrite:
    def test_real_csv_single_column(self, tmp_path):
        p = tmp_path / "o.csv"
        write_values(p, "csv", np.array([1.5, -2.0]))
        assert p.read_text() == "1.5\n-2.0\n"

    def test_complex_csv_two_columns(self, tmp_path):
        p = tmp_path / "o.csv"
        write_values(p, "csv", np.array([1.0 + 2.0j, 0.5 - 0.25j]))
        assert p.read_text() == "1.0,2.0\n0.5,-0.25\n"

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_values(tmp_path / "o.csv", "csv", np.array([1.0, np.inf]))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_values(tmp_path / "o.csv", "csv", np.array([]))


class TestRoundTrip:
    def test_csv_write_read_write_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        x = np.array([0.1, 1.0 / 3.0, -2.5e-17, 6.02214076e23, 42.0])
        write_values(a, "csv", x)
        write_values(b, "csv", read_signal(a, "csv").samples)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite_doubles, min_size=2, max_size=20))
    def test_csv_values_survive_exactly(self, values, tmp_path_factory):
        p = tmp_path_factory.mktemp("rt") / "s.csv"
        x = np.asarray(values, dtype=np.float64)
        write_values(p, "csv", x)
        assert np.array_equal(read_signal(p, "csv").samples, x)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite_doubles, min_size=2, max_size=20))
    def test_f64le_bits_survive(self, values, tmp_path_factory):
        p = tmp_path_factory.mktemp("rt") / "s.f64le"
        x = np.asarray(values, dtype=np.float64)
        write_values(p, "f64le", x)
        assert read_signal(p, "f64le").samples.tobytes() == x.tobytes()
