import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from hxkit import sigio
from hxkit.errors import DataError
from hxkit.sigio import infer_format, read_signal, write_values

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)

# fields both parsers take, fields the C reader rejects but ``float`` takes,
# and fields neither takes
_GOOD_FIELDS = st.one_of(
    finite_doubles.map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "-0.0", "0", "+1", ".5", "5.", "1E+05", "1e300", "-1e-300", "1e-320",
        "5e-324", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
        "1e999", "nan", "-nan", "inf", "-Infinity",
    ]),
)
_ODD_FIELDS = st.sampled_from([
    "1_000", "-1_0.5e1_0", "", "#", "1 # x", "# 1", "0x1p3", "1e", "e1", "--1",
    "1.0.0", "1 2", "1\x002", "1_", "_1", "1__0", "x", '"1"',
])
_PADS = st.sampled_from(["", " ", "  ", "\t", "\v", "\f", "\x1c", "\x1f"])
_LINE_BREAKS = st.sampled_from(["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\n\n"])


@st.composite
def csv_texts(draw):
    """Rows of one width, then up to three odd pieces spliced in: an odd
    field, padding, a line break inside a row or between rows, a blank line,
    an extra field or a trailing comma."""
    width = draw(st.integers(1, 3))
    lines = draw(st.lists(st.lists(_GOOD_FIELDS, min_size=width, max_size=width), max_size=6))
    eols = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["field", "pad", "break", "eol", "blank", "extra", "comma"]))
        if kind == "blank" or i == len(lines):
            lines.insert(i, [draw(st.sampled_from(["", " ", "\t \t", ","]))])
            eols.insert(i, "\n")
        elif kind == "eol":
            eols[i] = draw(_LINE_BREAKS)
        elif kind == "comma":
            lines[i].append("")
        else:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "field":
                lines[i][j] = draw(_ODD_FIELDS)
            elif kind == "pad":
                lines[i][j] = draw(_PADS) + lines[i][j] + draw(_PADS)
            elif kind == "break":
                lines[i][j] += draw(_LINE_BREAKS)
            else:
                lines[i].insert(j, draw(_GOOD_FIELDS))
    if lines and draw(st.booleans()):
        eols[-1] = ""
    return "".join(",".join(f) + e for f, e in zip(lines, eols))


def _repr_rows(values) -> str:
    """The csv writer's output as its per-row loop wrote it."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        return "".join(f"{repr(float(z.real))},{repr(float(z.imag))}\n" for z in v)
    return "".join(f"{repr(float(x))}\n" for x in v)


_EDGE_DOUBLES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7976931348623157e308,
    1e-5, 9.999999999999999e-05, 1e-4, 1e15, 1e16, 9999999999999998.0, 0.1, 1.0 / 3.0,
    2.0**53 + 2, 123456789.0, -2.5e-17,
]


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
        with pytest.raises(DataError, match=":1: field does not parse"):
            read_signal(p, "csv")

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0,3.0\n")
        with pytest.raises(DataError, match=":2: expected 1 columns, got 2"):
            read_signal(p, "csv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no data rows"):
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

    def test_loop_only_syntax_accepted(self, tmp_path):
        # digit underscores and whitespace-only lines are rejected by numpy's
        # reader and read by the line loop
        p = tmp_path / "s.csv"
        p.write_text("1_000\n  \n\t\n2.5e-1_0\n")
        assert np.array_equal(read_signal(p, "csv").samples, [1000.0, 2.5e-10])

    def test_hash_is_not_a_comment(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0 # x\n")
        with pytest.raises(DataError, match=":2: field does not parse"):
            read_signal(p, "csv")


class TestCsvGrammar:
    """numpy's C reader is a fast path for the per-line loop: wherever it
    returns rows they must be the loop's rows, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    @example(text="")
    @example(text="\n \n\t\n")
    @example(text="1_000\n2\n")
    @example(text="1 # x\n2\n")
    @example(text="1.0,\n2.0,\n")
    @example(text="0x1p3\n1\n")
    @example(text="nan\n1\n")
    @example(text="1e-320\r\n-0.0\r\n1e300\r\n")
    @example(text="1\r2\r")
    @example(text="1\x1c,2\n3,4\n")
    @example(text="1\f,2\n3,4\n")
    def test_loadtxt_path_matches_line_loop(self, text, tmp_path_factory):
        p = tmp_path_factory.mktemp("grammar") / "s.csv"
        p.write_bytes(text.encode("ascii"))
        try:
            loop = sigio._parse_csv_lines(p, text)
        except DataError as exc:
            loop = str(exc)
        fast = sigio._loadtxt_rows(text)
        if fast is not None:
            assert not isinstance(loop, str), f"C reader took text the loop rejects: {loop}"
            assert fast.shape == loop.shape
            assert fast.tobytes() == loop.tobytes()
        if not isinstance(loop, str) and not np.all(np.isfinite(loop)):
            loop = f"{p}: non-finite value"
        try:
            rows = sigio._parse_csv_rows(p)
        except DataError as exc:
            assert str(exc) == loop
        else:
            assert not isinstance(loop, str), loop
            assert rows.tobytes() == loop.tobytes()


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

    def test_real_csv_matches_per_row_repr(self, tmp_path):
        p = tmp_path / "o.csv"
        x = np.array(_EDGE_DOUBLES)
        write_values(p, "csv", x)
        assert p.read_text() == _repr_rows(x)

    def test_complex_csv_matches_per_row_repr(self, tmp_path):
        # 2 x 10^4 doubles over 600 decades, with the edge values on both parts
        p = tmp_path / "o.csv"
        rng = np.random.default_rng(7)
        re, im = (rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
                  for _ in range(2))
        z = re + 1j * im
        z[: len(_EDGE_DOUBLES)] = np.array(_EDGE_DOUBLES) + 1j * np.array(_EDGE_DOUBLES[::-1])
        write_values(p, "csv", z)
        assert p.read_text() == _repr_rows(z)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite_doubles, min_size=2, max_size=20))
    def test_csv_matches_per_row_repr(self, values, tmp_path_factory):
        d = tmp_path_factory.mktemp("w")
        x = np.asarray(values, dtype=np.float64)
        z = x[0::2][: x.size // 2] + 1j * x[1::2][: x.size // 2]
        write_values(d / "r.csv", "csv", x)
        write_values(d / "z.csv", "csv", z)
        assert (d / "r.csv").read_text() == _repr_rows(x)
        assert (d / "z.csv").read_text() == _repr_rows(z)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_values(tmp_path / "o.csv", "csv", np.array([]))

    @pytest.mark.slow
    def test_csv_is_repr_on_a_million_bit_patterns(self, tmp_path, monkeypatch):
        # 10^6 random finite bit patterns of both signs, every power of two
        # and every power of ten in range, and the edges of repr's layout,
        # at the default chunk and at one that splits rows and exponent runs
        from hxkit import _csvrepr

        rng = np.random.default_rng(2020)
        bits = rng.integers(0, 1 << 64, 1_000_000, dtype=np.uint64, endpoint=False)
        bits = bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) != 0x7FF]
        edges = [5e-324, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 9999999999999998.0,
                 2.0**53 - 1, 2.0**53 + 1, 2.0**53 + 2, -0.0, 0.0, 1.7976931348623157e308]
        x = np.concatenate([bits.view(np.float64), np.ldexp(1.0, np.arange(-1074, 1024)),
                            [float(f"1e{e}") for e in range(-323, 309)], edges, _EDGE_DOUBLES])
        assert x.size >= 10**6 and np.all(np.isfinite(x))
        words = list(map(repr, x.tolist()))
        rows = {1: "\n".join(words) + "\n",
                2: "".join(f"{a},{b}\n" for a, b in zip(words[0::2], words[1::2]))}
        z = x[: x.size // 2 * 2].view(np.complex128)
        for chunk in (_csvrepr.CHUNK, 999):
            monkeypatch.setattr(_csvrepr, "CHUNK", chunk)
            write_values(tmp_path / "r.csv", "csv", x)
            write_values(tmp_path / "z.csv", "csv", z)
            assert (tmp_path / "r.csv").read_bytes() == rows[1].encode()
            assert (tmp_path / "z.csv").read_bytes() == rows[2].encode()

    def test_csv_write_peak_memory(self, tmp_path):
        # chunks of the text go to the file as they are made; one str per
        # value, their join and its encoding peaked at 5.9x the file
        v = np.random.default_rng(3).standard_normal(1 << 16)
        p = tmp_path / "o.csv"
        _, peak = traced_peak(lambda: write_values(p, "csv", v))
        assert peak <= 1.5 * p.stat().st_size
        assert p.read_text() == _repr_rows(v)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_f64le_write_peak_memory(self, dtype, tmp_path):
        # contiguous float64 and complex128 values are written from their own
        # memory: the byte string is the one copy.  Through a row array of
        # re,im pairs and a second cast copy the peak was 3.00x the values
        rng = np.random.default_rng(3)
        v = rng.standard_normal(1 << 16)
        if dtype is np.complex128:
            v = v + 1j * rng.standard_normal(1 << 16)
        p = tmp_path / "o.f64le"
        _, peak = traced_peak(lambda: write_values(p, "f64le", v))
        assert peak <= 1.5 * v.nbytes
        assert p.read_bytes() == v.view(np.float64).astype("<f8").tobytes()


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
