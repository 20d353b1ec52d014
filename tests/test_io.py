import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsparse import BlockDictionary, BlockStructure, BlockVector, identity_dft_pair
from hsparse import io as hio
from hsparse.io import (dumps_document, format_float, load_block_dictionary,
                        load_block_vector, load_measurement, save_block_dictionary,
                        save_block_vector, save_measurement)


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, math.pi, 1e-300, -7.25, 0.1 + 0.2):
            assert float(format_float(x)) == x

    def test_infinities_become_strings(self):
        assert format_float(math.inf) == '"inf"'
        assert format_float(-math.inf) == '"-inf"'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.nan)


class TestDocuments:
    def test_deterministic_and_parseable(self):
        doc = {"a": 0.5, "b": [1, 2.25, "x"], "c": {"nested": True}, "d": None}
        text = dumps_document(doc)
        assert text == dumps_document(doc)
        assert json.loads(text) == {"a": 0.5, "b": [1, 2.25, "x"],
                                    "c": {"nested": True}, "d": None}

    def test_infinity_serialized_as_flag(self):
        text = dumps_document({"threshold": math.inf})
        assert json.loads(text)["threshold"] == "inf"


class TestArrayDocuments:
    def test_dictionary_round_trip(self, tmp_path):
        D = identity_dft_pair(4)
        path = tmp_path / "dict.json"
        save_block_dictionary(path, D)
        loaded = load_block_dictionary(path)
        assert np.array_equal(loaded.matrix, D.matrix)
        assert loaded.structure == D.structure

    def test_vector_round_trip(self, tmp_path):
        v = BlockVector(np.array([1 + 2j, -0.5, 1 / 3, 0]), BlockStructure((2, 2)))
        path = tmp_path / "vec.json"
        save_block_vector(path, v)
        loaded = load_block_vector(path)
        assert np.array_equal(loaded.entries, v.entries)
        assert loaded.structure == v.structure

    def test_measurement_round_trip(self, tmp_path):
        y = np.array([0.25, -1j, math.pi])
        path = tmp_path / "y.json"
        save_measurement(path, y)
        assert np.array_equal(load_measurement(path), y)

    def test_document_fields(self, tmp_path):
        path = tmp_path / "dict.json"
        save_block_dictionary(path, identity_dft_pair(2))
        doc = json.loads(path.read_text())
        assert doc["rows"] == 2 and doc["cols"] == 4
        assert doc["block_sizes"] == [1, 1, 1, 1]
        assert len(doc["real"]) == 8 and len(doc["imag"]) == 8

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "block_sizes": [1, 1],'
                        ' "real": [1, 0, 0], "imag": [0, 0, 0]}')
        with pytest.raises(ValueError, match="rows\\*cols"):
            load_block_dictionary(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2}')
        with pytest.raises(ValueError, match="malformed"):
            load_block_dictionary(path)

    def test_matrix_not_accepted_as_vector(self, tmp_path):
        path = tmp_path / "dict.json"
        save_block_dictionary(path, identity_dft_pair(2))
        with pytest.raises(ValueError, match="single-column"):
            load_block_vector(path)

    @pytest.mark.parametrize("real", [["1", 0, 0, 1], [1.0, 0.0, 0.0, True], [1, 0, 0, None],
                                      [[1, 0], [0, 1]], "1001", 1.0, [1, 0, 0, 10**400]],
                             ids=["string", "bool", "null", "nested", "text", "scalar",
                                  "huge-int"])
    def test_non_number_entries_rejected(self, tmp_path, real):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "block_sizes": [1, 1],
                                    "real": real, "imag": [0, 0, 0, 0]}))
        with pytest.raises(ValueError):
            load_block_dictionary(path)


def exact_floats(limit: float):
    """Finite doubles up to limit in magnitude, with the edge cases the format
    must keep drawn often: signed zeros, subnormals and extreme exponents."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, limit, -limit]
    return st.one_of(st.sampled_from(edges), st.floats(-limit, limit))


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4), data=st.data())
def test_array_documents_round_trip_bit_exact(tmp_path_factory, sizes, data):
    """Vectors and dictionaries come back bit for bit, sign of zero included."""
    structure = BlockStructure(tuple(sizes))
    dim = structure.dim
    path = tmp_path_factory.mktemp("io") / "doc.json"

    def draw_entries(limit):
        parts = data.draw(st.lists(exact_floats(limit), min_size=2 * dim, max_size=2 * dim))
        entries = np.empty(dim, dtype=np.complex128)
        entries.real, entries.imag = parts[:dim], parts[dim:]
        return entries

    vector = BlockVector(draw_entries(1.7976931348623157e308), structure)
    save_block_vector(path, vector)
    assert np.array_equal(bits(load_block_vector(path).entries), bits(vector.entries))

    # Drawn values on the first row over a scaled identity per block, so each
    # block stays injective; 1e300 keeps its singular values finite.
    matrix = np.zeros((1 + max(sizes), dim), dtype=np.complex128)
    matrix[0] = draw_entries(1e300)
    for i, d in enumerate(sizes):
        cols = structure.block_slice(i)
        matrix[1:1 + d, cols] = max(1.0, np.abs(matrix[0, cols]).max()) * np.eye(d)
    D = BlockDictionary(matrix, structure)
    save_block_dictionary(path, D)
    loaded = load_block_dictionary(path)
    assert np.array_equal(bits(loaded.matrix), bits(D.matrix))
    assert loaded.structure == D.structure


class TestCsvCells:
    def test_cell_types(self):
        assert hio.csv_cell(True) == "true"
        assert hio.csv_cell(False) == "false"
        assert hio.csv_cell(3) == "3"
        assert float(hio.csv_cell(1 / 3)) == 1 / 3
