"""Bulk CSV formatting and parsing against per-cell oracles."""

import os

import numpy as np
import pytest

from tangentgp.errors import ConfigError
from tangentgp.serialize import (
    atomic_write_bytes,
    float_lines,
    fmt_float,
    read_classification_csv,
    read_dataset_csv,
    read_inputs_csv,
    render_csv,
)

SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e16, 1e17, -1e16, 9007199254740993.0, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    0.1, 1.0 / 3.0, 123456789.0, 1e-5, 1e22, 1e23,
]


def per_cell_lines(table):
    return [",".join(fmt_float(v) for v in row) for row in table]


class TestFloatFormatting:
    def test_special_values_match_fmt_float(self):
        table = np.array(SPECIAL).reshape(-1, 2)
        assert float_lines(table) == per_cell_lines(table)

    def test_random_bit_patterns_match_fmt_float(self):
        # Uniform 64-bit patterns cover every exponent, subnormals and NaN payloads.
        bits = np.random.default_rng(0).integers(0, 2**64, size=10**5, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 8)
        assert float_lines(table) == per_cell_lines(table)

    def test_render_csv_array_equals_string_rows(self):
        table = np.random.default_rng(1).normal(size=(7, 3)) * 10.0 ** np.arange(-3, 4)[:, None]
        header = ["a", "b", "c"]
        string_rows = [[fmt_float(v) for v in row] for row in table]
        assert render_csv(header, table) == render_csv(header, string_rows)
        assert render_csv(header, np.zeros((0, 3))) == "a,b,c\n"


def reference_rows(path, width, labeled=False):
    """A reader that parses one line at a time: the oracle for the bulk tokenizer.

    Errors name the file's own line number, blank lines included.
    """
    with open(path, newline="") as fh:
        lines = [(i, line.rstrip("\r\n")) for i, line in enumerate(fh, start=1) if line.strip()]
    xs, labels = [], []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
        try:
            xs.append([float(c) for c in cells[: width - labeled]])
            if labeled:
                labels.append(int(cells[-1]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    x = np.array(xs, dtype=np.float64).reshape(len(xs), width - labeled)
    return (x, np.array(labels, dtype=np.int64)) if labeled else x


def random_cell(rng):
    v = float(rng.normal() * 10.0 ** rng.integers(-30, 30))
    return str(rng.choice([fmt_float(v), repr(v), f" {v:.3e} ", "inf", "-nan", "1_000", "0"]))


def random_file(path, rng, header, width, rows, *, label=False, bad=0.0):
    endings = ["\n", "\r\n", "\r"]
    out = [header + "\n"]
    for _ in range(rows):
        cells = [random_cell(rng) for _ in range(width - label)]
        if label:
            cells.append(str(rng.integers(0, 5)))
        if rng.random() < bad:
            kind = rng.integers(3)
            if kind == 0:
                cells[rng.integers(len(cells))] = "x1"
            elif kind == 1:
                cells.pop()
            else:
                cells.append("0")
        out.append(",".join(cells) + str(rng.choice(endings)))
        if rng.random() < 0.2:
            out.append(str(rng.choice(["\n", "\r\n", "  \n", "\t\r\n"])))
    path.write_bytes("".join(out).encode())


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif isinstance(want, tuple):
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype and g.shape == w.shape
    else:
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == want.shape


class TestBulkReaders:
    @pytest.mark.parametrize("bad", [0.0, 0.05])
    def test_readers_match_per_cell_float(self, tmp_path, bad):
        rng = np.random.default_rng(int(bad * 100) + 3)
        for trial in range(40):
            d = int(rng.integers(1, 5))
            rows = int(rng.choice([0, 1, 3, 40]))
            path = tmp_path / f"t{trial}.csv"
            xs = ",".join(f"x_{j}" for j in range(d))

            random_file(path, rng, xs, d, rows, bad=bad)
            assert_same(outcome(read_inputs_csv, path), outcome(reference_rows, path, d))

            if rows:
                random_file(path, rng, xs + ",y_0", d + 1, rows, bad=bad)
                want = outcome(reference_rows, path, d + 1)
                if not isinstance(want, str):
                    want = (want[:, :d], want[:, d:])
                assert_same(outcome(read_dataset_csv, path), want)

                random_file(path, rng, xs + ",label", d + 1, rows, label=True, bad=bad)
                assert_same(
                    outcome(read_classification_csv, path),
                    outcome(reference_rows, path, d + 1, True),
                )

    def test_crlf_data_lines_parse(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x_0,x_1\n1.5,-2\r\n\r\n3e-310, inf\r\n")
        got = read_inputs_csv(path)
        np.testing.assert_array_equal(got, [[1.5, -2.0], [3e-310, np.inf]])

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_headers(self, tmp_path, ending):
        path = tmp_path / "ends.csv"
        path.write_bytes(ending.join(["x_0,x_1", "1,2", "3,4", ""]).encode())
        np.testing.assert_array_equal(read_inputs_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_bytes(ending.join(["x_0,y_0", "1,2", "3,4", ""]).encode())
        x, y = read_dataset_csv(path)
        np.testing.assert_array_equal(x, [[1.0], [3.0]])
        np.testing.assert_array_equal(y, [[2.0], [4.0]])
        path.write_bytes(ending.join(["x_0,label", "1,0", "3,1", ""]).encode())
        x, labels = read_classification_csv(path)
        np.testing.assert_array_equal(x, [[1.0], [3.0]])
        np.testing.assert_array_equal(labels, [0, 1])

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x_0,x_1,x_2\n\n")
        got = read_inputs_csv(path)
        assert got.shape == (0, 3) and got.dtype == np.float64
        path.write_text("x_0,y_0\n")
        with pytest.raises(ConfigError, match="header but no rows"):
            read_dataset_csv(path)
        path.write_text("x_0,label\n")
        with pytest.raises(ConfigError, match="header but no rows"):
            read_classification_csv(path)
        path.write_text("\n \n")
        with pytest.raises(ConfigError, match="empty inputs file"):
            read_inputs_csv(path)

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_0,x_1\n1,2\n3,abc\n4,5\n6\n")
        with pytest.raises(ConfigError) as err:
            read_inputs_csv(path)
        assert str(err.value) == f"{path}:3: could not convert string to float: 'abc'"
        path.write_text("x_0,x_1\n1,2\n3\n4,5\n6,abc\n")
        with pytest.raises(ConfigError) as err:
            read_inputs_csv(path)
        assert str(err.value) == f"{path}:3: expected 2 columns, got 1"
        # Blank lines count: the number is the file's own line.
        path.write_text("x_0\n1\n\n\nabc\n")
        with pytest.raises(ConfigError) as err:
            read_inputs_csv(path)
        assert str(err.value) == f"{path}:5: could not convert string to float: 'abc'"
        path.write_bytes(b"\r\nx_0,label\r\n \r\n1,0,2\r\n")
        with pytest.raises(ConfigError) as err:
            read_classification_csv(path)
        assert str(err.value) == f"{path}:4: expected 2 columns, got 3"

    def test_bad_label_after_bad_float_on_one_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_0,label\n1,0\n2,1.5\nabc,zz\n")
        with pytest.raises(ConfigError) as err:
            read_classification_csv(path)
        assert str(err.value) == f"{path}:3: invalid literal for int() with base 10: '1.5'"
        path.write_text("x_0,label\nabc,zz\n")
        with pytest.raises(ConfigError) as err:
            read_classification_csv(path)
        assert str(err.value) == f"{path}:2: could not convert string to float: 'abc'"


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.json"
        for blob in (b"first", b"second"):  # created, then replaced
            previous = os.umask(umask)
            try:
                atomic_write_bytes(path, blob)
            finally:
                os.umask(previous)
            assert path.read_bytes() == blob
            assert path.stat().st_mode & 0o777 == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
