"""CSV ingestion and emission.

All floats are written with 17 significant digits so that
parse(write(x)) == x exactly and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .dirichlet import CountMatrix

_FLOAT_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed or out-of-contract input data."""


def parse_counts_csv(path, id_cols=1):
    """Read a counts CSV into a CountMatrix.

    Header row required; the first `id_cols` columns are label columns
    (joined with '|' into the unit label) and the rest must be nonnegative
    integers. Rows whose counts are all zero are rejected by name.
    """
    if id_cols < 0:
        raise ParseError("id_cols must be >= 0")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header required") from None
        if len(header) <= id_cols:
            raise ParseError(f"{path}: header has {len(header)} columns, "
                             f"needs more than id_cols={id_cols}")
        categories = [h.strip() for h in header[id_cols:]]
        units, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{line_no}: expected {len(header)} "
                                 f"columns, found {len(row)}")
            unit = "|".join(cell.strip() for cell in row[:id_cols]) or f"row{line_no}"
            vals = []
            for j, cell in enumerate(row[id_cols:], start=id_cols + 1):
                text = cell.strip()
                try:
                    value = int(text)
                except ValueError:
                    raise ParseError(
                        f"{path}:{line_no}: column {j} ({header[j-1]!r}): "
                        f"{text!r} is not a nonnegative integer") from None
                if value < 0:
                    raise ParseError(
                        f"{path}:{line_no}: column {j} ({header[j-1]!r}): "
                        f"negative count {value}")
                vals.append(value)
            if sum(vals) == 0:
                raise ParseError(f"{path}:{line_no}: unit {unit!r} has an "
                                 "all-zero count row")
            units.append(unit)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return CountMatrix.from_array(np.array(rows, dtype=np.int64), units, categories)


def parse_reals_csv(path):
    """Read a single column of positive reals (optional header)."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            text = row[0].strip()
            try:
                value = float(text)
            except ValueError:
                if line_no == 1:
                    continue  # header
                raise ParseError(f"{path}:{line_no}: {text!r} is not a "
                                 "number") from None
            if not np.isfinite(value) or value <= 0:
                raise ParseError(f"{path}:{line_no}: observations must be "
                                 f"positive, got {text}")
            values.append(value)
    if not values:
        raise ParseError(f"{path}: no observations")
    return np.asarray(values, dtype=float)


def format_rows(matrix):
    """Each row of the 2-D `matrix` as one line of its values in
    `_FLOAT_FMT`, comma-separated: every value formatted once."""
    matrix = np.asarray(matrix, dtype=float)
    row = ",".join([_FLOAT_FMT] * matrix.shape[1])
    return [row % tuple(values) for values in matrix.tolist()]


def write_samples_csv(path, samples, rows):
    """Samples CSV: header `iter,<name>,...`, one row per retained draw,
    `rows` being `format_rows(samples.draws)`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iter," + ",".join(samples.names) + "\n")
        fh.writelines(f"{int(it)},{row}\n"
                      for it, row in zip(samples.iters.tolist(), rows))


def read_samples_csv(path):
    """Inverse of `write_samples_csv`: (iters, draws, names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty samples file") from None
        if len(header) < 2 or header[0] != "iter":
            raise ParseError(f"{path}: samples header must start with 'iter'")
        names = header[1:]
        iters, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{line_no}: ragged row")
            try:
                iters.append(int(row[0]))
                rows.append([float(c) for c in row[1:]])
            except ValueError:
                raise ParseError(f"{path}:{line_no}: malformed numeric "
                                 "cell") from None
    if not rows:
        raise ParseError(f"{path}: no sample rows")
    return np.asarray(iters, dtype=np.int64), np.asarray(rows, dtype=float), names


def write_long_csv(path, columns, names, rows):
    """Two-column long-format CSV (e.g. parameter,value or category,value)
    of a matrix with one column per name, `rows` being its `format_rows`:
    one line per value, labelled with its column's name."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(f"{name},{cell}\n"
                      for row in rows for name, cell in zip(names, row.split(",")))


def write_summary_json(path, parameter_rows, meta):
    """Summary JSON: per-parameter stats plus a meta echo of config and seed."""
    payload = {"parameters": parameter_rows, "meta": meta}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
