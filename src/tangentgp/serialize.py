"""Byte-stable file output, dataset CSV handling and the JSON file reader.

All writers here produce identical bytes for identical inputs: floats are
printed with 17 significant digits (enough to round-trip any f64), JSON
keys are sorted, newlines are always "\\n", and files land via a
temp-file rename so a crash never leaves a half-written output.

An all-float table is formatted with one ``"%.17g"`` template per row
(:func:`float_lines`), not one :func:`fmt_float` call per cell. On
CPython both go through ``PyOS_double_to_string(x, 'g', 17, 0)``, so the
bytes are the same. The CSV readers share one tokenizer: it checks every
line's column count, then converts all cells with one ``map(float, ...)``.

``file_field`` checks one field of a file against a type name of
``_CHECKS``; the readers of configs, checkpoints, GLM fits and posterior
caches take their keys through it. Every number it accepts is finite.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolationError


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _num(v):
    """A finite JSON number; ``json`` reads Infinity, NaN and 1e400 as non-finite floats."""
    return (_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _num_list(v):
    """Finite JSON numbers; an all-float list takes one ``math.isfinite`` pass, 4x faster than ``_num``."""
    return isinstance(v, list) and all(map(math.isfinite if set(map(type, v)) <= {float} else _num, v))


_CHECKS = {
    "int": _int,
    "number": _num,
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "int list": lambda v: isinstance(v, list) and set(map(type, v)) <= {int},
    "number list": _num_list,
    "number table": lambda v: isinstance(v, list) and all(map(_num_list, v)),
    "number array": lambda v: isinstance(v, np.ndarray) and v.dtype.kind in "fiu" and np.isfinite(v).all(),
    "int or null": lambda v: v is None or _int(v),
    "number or null": lambda v: v is None or _num(v),
    "string or null": lambda v: v is None or isinstance(v, str),
}


def file_field(path, label: str, doc: dict, key: str, kind: str | None = None, convert=None):
    """``doc[key]`` of the file ``path``, of type ``kind`` (a ``_CHECKS`` name), passed through ``convert``.

    ``doc`` is the file's JSON object or its ``.npz`` archive. A missing
    key, a value of another type, or one that ``convert`` rejects raises
    ``ConfigError`` naming the file, ``label`` and the key.
    """
    if key not in doc:
        raise ConfigError(f"{path}: {label} has no {key!r}")
    value = doc[key]
    if kind is not None and not _CHECKS[kind](value):
        raise ConfigError(f"{path}: {label} key {key!r} must be {kind}, got {reprlib.repr(value)}")
    if convert is None:
        return value
    try:
        return convert(value)
    except (ConfigError, ContractViolationError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {label} key {key!r} is malformed: {exc}") from exc


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def float_lines(table) -> list[str]:
    """Each row of a 2-D float table as comma-joined ``fmt_float`` cells."""
    table = np.asarray(table, dtype=np.float64)
    template = ",".join(["%.17g"] * table.shape[1])
    return [template % tuple(row) for row in table.tolist()]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``atomic_write_bytes``, whatever the locale."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, blob: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    """(value, bytes) of a JSON file from one read; an unreadable file or bad JSON raises ConfigError naming it."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(blob.decode("utf-8")), blob
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at byte {exc.pos}: {exc.msg}") from exc


def render_csv(header: list[str], rows) -> str:
    """CSV text of a header and rows: lists of cell strings, or a 2-D float array."""
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        lines.extend(float_lines(rows))
    else:
        lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _read_lines(path, empty: str) -> tuple[list[str], list[tuple[int, str]]]:
    """Header cells and (line number, text) data lines of a CSV.

    The file is UTF-8, as every writer here encodes it. Lines end in
    "\n", "\r\n" or "\r"; blank lines are skipped but still counted, so a
    line number is the file's own.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(i, line.rstrip("\r\n")) for i, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}:{_first_non_utf8_line(path)}: not valid UTF-8") from exc
    if not rows:
        raise ConfigError(f"{path}: {empty}")
    return rows[0][1].split(","), rows[1:]


def _first_non_utf8_line(path) -> int | None:
    """The number of the first line of ``path`` that is not valid UTF-8.

    ``bytes.splitlines`` ends lines where ``_read_lines`` does, and no
    line-end byte occurs inside a UTF-8 sequence.
    """
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


def _parse_rows(path, rows: list[tuple[int, str]], width: int, labeled: bool = False):
    """Convert numbered data lines of ``width`` cells with ``float()``, as an (n, width) array.

    With ``labeled`` the last cell goes through ``int()`` instead, and the
    result is (n, width - 1) floats and n labels. Any bad cell makes the
    lines be parsed again one at a time, so the error names the first bad
    line by its number in the file.
    """
    lines = [line for _, line in rows]
    try:
        if any(line.count(",") != width - 1 for line in lines):
            raise ValueError
        cells = ",".join(lines).split(",") if lines else []
        if labeled:
            labels = np.array(list(map(int, cells[width - 1 :: width])), dtype=np.int64)
            del cells[width - 1 :: width]
        values = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        for lineno, line in rows:
            cells = line.split(",")
            if len(cells) != width:
                raise ConfigError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
            try:
                list(map(float, cells[: width - labeled]))
                if labeled:
                    int(cells[-1])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        raise
    values = values.reshape(len(lines), width - labeled)
    return (values, labels) if labeled else values


def write_dataset_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write inputs and targets as x_0..x_{d-1},y_0..y_{o-1} columns."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    header = [f"x_{j}" for j in range(x.shape[1])] + [f"y_{j}" for j in range(y.shape[1])]
    atomic_write_text(path, render_csv(header, np.hstack([x, y])))


def read_inputs_csv(path) -> np.ndarray:
    """Read an inputs-only CSV (header x_0..x_{d-1}); zero data rows is legal."""
    header, rows = _read_lines(path, "empty inputs file, expected at least a header")
    if header != [f"x_{j}" for j in range(len(header))]:
        raise ConfigError(
            f"{path}: inputs header must be x_0..x_{{d-1}}, got {','.join(header)}"
        )
    return _parse_rows(path, rows, len(header))


def write_classification_csv(path, x: np.ndarray, labels: np.ndarray) -> None:
    """Write inputs with integer labels as x_0..x_{d-1},label columns."""
    x = np.asarray(x, dtype=np.float64)
    header = [f"x_{j}" for j in range(x.shape[1])] + ["label"]
    rows = [
        [fmt_float(v) for v in x[i]] + [str(int(labels[i]))] for i in range(x.shape[0])
    ]
    atomic_write_text(path, render_csv(header, rows))


def read_classification_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a classification CSV back into (inputs, integer labels)."""
    header, rows = _read_lines(path, "empty classification file")
    d = len(header) - 1
    if d < 1 or header != [f"x_{j}" for j in range(d)] + ["label"]:
        raise ConfigError(
            f"{path}: classification header must be x_0..x_{{d-1}},label, got {','.join(header)}"
        )
    if not rows:
        raise ConfigError(f"{path}: classification file has a header but no rows")
    return _parse_rows(path, rows, d + 1, labeled=True)


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset CSV back into (inputs, targets) arrays."""
    header, rows = _read_lines(path, "empty dataset file")
    d = sum(1 for name in header if name.startswith("x_"))
    o = sum(1 for name in header if name.startswith("y_"))
    expected = [f"x_{j}" for j in range(d)] + [f"y_{j}" for j in range(o)]
    if d == 0 or o == 0 or header != expected:
        raise ConfigError(
            f"{path}: dataset header must be x_0..x_{{d-1}},y_0..y_{{o-1}}, got {','.join(header)}"
        )
    if not rows:
        raise ConfigError(f"{path}: dataset has a header but no rows")
    data = _parse_rows(path, rows, d + o)
    return data[:, :d], data[:, d:]
