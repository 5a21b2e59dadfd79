"""Small shared helpers for deterministic file output: JSON and CSV records."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def round_floats(obj):
    """Recursively round floats to 12 significant digits for stable output.

    Numpy scalars degrade to their python equivalents. Non-finite values
    become None: the JSON files are meant for strict parsers. Containers
    are rebuilt; other types pass through.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [round_floats(v) for v in obj]
    return obj


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) of round_floats output with str
    keys, without the reference cycle json's indenting closures leave per call."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        return "{\n" + ",\n".join(f"{inner}{json.dumps(k)}: {_json_text(v, inner)}"
                                   for k, v in sorted(obj.items())) + f"\n{indent}}}"
    if isinstance(obj, list) and obj:
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in obj) + f"\n{indent}]"
    return json.dumps(obj)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(_json_text(round_floats(payload)) + "\n")
    return path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))   # the shortest string that reads back to value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and rows as CSV with LF line ends: floats in the
    shortest digits that read back to the same float, bools as true or false,
    None as an empty cell, any other cell as str prints it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _parse_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")
    return cell == "true"


def read_csv(path, columns: dict, required: int | None = None) -> list[list]:
    """The columns of a CSV file whose header starts with the names of columns,
    or with the first required of them at least.

    columns maps each name to its cells' type: float, int, str, or bool,
    which reads write_csv's true/false. The result holds one list per name,
    in order, of that column's cells; a cell past the first required columns
    reads None where it is empty or the header stops short of its name.
    Blank lines and further columns are skipped; any line end reads. A
    missing or wrong header, a short row, a cell that does not parse or
    malformed CSV raise ValueError naming the file and the line. The file is
    read once, row by row.
    """
    names = list(columns)
    required = len(names) if required is None else required
    parsers = [_parse_bool if kind is bool else kind for kind in columns.values()]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is not None:
                header = [cell.strip() for cell in header[:len(names)]]
                if header != names[:max(len(header), required)]:
                    raise ValueError(f"expected header {','.join(names)}, got {header!r}")
            cols = [[] for _ in names]
            for row in filter(None, reader):   # blank lines read as []
                if len(row) < len(header):
                    raise ValueError(f"expected {','.join(header)}, got {row!r}")
                for k, (col, parse, cell) in enumerate(zip(cols, parsers, row[:len(header)])):
                    col.append(parse(cell) if cell or k < required else None)
        except (csv.Error, ValueError) as exc:   # UnicodeDecodeError too
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    if header is None:
        raise ValueError(f"{path} is empty")
    return [col or [None] * len(cols[0]) for col in cols]
