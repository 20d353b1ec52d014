"""File formats: array documents and flat key-value reports.

Everything is plain text.  Dictionaries, vectors and measurements share one
JSON layout ({rows, cols, block_sizes, real, imag}, row-major); analysis
results are flat key-value JSON; experiment tables are CSV (``csv_cell``).
Floats are written with 17 significant digits so parsing reproduces the
double exactly and identical runs produce byte-identical files; numeric
fields read back go through ``exact_number``, the one rule for them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blocks import BlockDictionary, BlockStructure, BlockVector


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal that round-trips the double."""
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text   # JSON reads -0 as the integer 0


def _json_value(value, indent: int) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        return _json_object(value, indent)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_json_value(v, indent) for v in value]
        return "[" + ", ".join(items) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_object(mapping: dict, indent: int) -> str:
    pad = " " * indent
    lines = [f'{pad}  {json.dumps(str(k))}: {_json_value(v, indent + 2)}'
             for k, v in mapping.items()]
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def dumps_document(mapping: dict) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    return _json_object(mapping, 0) + "\n"


def write_document(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(mapping))


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def exact_number(name: str, value, kind: type):
    """value as kind (int or float); it must be a finite number kind keeps exactly.

    The one rule for numeric fields read from documents and configs: 3.0
    reads as 3, while 4.7, true, NaN or a string for an integer field fail.
    """
    try:
        if not isinstance(value, bool) and -math.inf < value < math.inf and kind(value) == value:
            return kind(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")


def _float_array(name: str, values) -> np.ndarray:
    """A JSON list of numbers as float64.  One C-level pass over the entry types
    rejects strings, booleans and nested lists, which np.asarray would accept."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{name} must be a list of numbers")
    return np.asarray(values, dtype=np.float64)


def _array_document(mat: np.ndarray, sizes) -> dict:
    rows, cols = mat.shape
    flat = mat.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "block_sizes": list(sizes),
        "real": flat.real.tolist(),
        "imag": flat.imag.tolist(),
    }


def save_block_dictionary(path, D: BlockDictionary) -> None:
    write_document(path, _array_document(D.matrix, D.structure.sizes))


def save_block_vector(path, v: BlockVector) -> None:
    write_document(path, _array_document(v.entries.reshape(-1, 1), v.structure.sizes))


def save_measurement(path, y) -> None:
    """Plain vector with the trivial single-block partition."""
    arr = np.asarray(y, dtype=np.complex128).reshape(-1, 1)
    write_document(path, _array_document(arr, [arr.shape[0]]))


def _parse_array(doc: dict) -> tuple[np.ndarray, BlockStructure]:
    try:
        rows, cols = exact_number("rows", doc["rows"], int), exact_number("cols", doc["cols"], int)
        sizes = tuple(exact_number("block_sizes", d, int) for d in doc["block_sizes"])
        real, imag = _float_array("real", doc["real"]), _float_array("imag", doc["imag"])
    except (KeyError, TypeError, OverflowError) as err:
        raise ValueError(f"malformed array document: {err}") from err
    if real.size != rows * cols or imag.size != rows * cols:
        raise ValueError("array document length disagrees with rows*cols")
    mat = np.empty(rows * cols, dtype=np.complex128)
    mat.real, mat.imag = real, imag   # real + 1j * imag would turn -0.0 into 0.0
    return mat.reshape(rows, cols), BlockStructure(sizes)


def load_block_dictionary(path) -> BlockDictionary:
    mat, structure = _parse_array(load_document(path))
    return BlockDictionary(mat, structure)


def load_block_vector(path) -> BlockVector:
    mat, structure = _parse_array(load_document(path))
    if mat.shape[1] != 1:
        raise ValueError("expected a single-column vector document")
    return BlockVector(mat.reshape(-1), structure)


def load_measurement(path) -> np.ndarray:
    mat, _ = _parse_array(load_document(path))
    if mat.shape[1] != 1:
        raise ValueError("expected a single-column vector document")
    return mat.reshape(-1)


def csv_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)
