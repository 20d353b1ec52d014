import json
import math

import numpy as np
import pytest

from hsparse import BlockStructure, BlockVector, identity_dft_pair
from hsparse import io as hio
from hsparse.io import (dumps_document, format_float, load_block_dictionary,
                        load_block_vector, load_correlation_table,
                        load_measurement, save_block_dictionary,
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


class TestCorrelationTable:
    def test_load(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "grid_size": 16,
            "entries": [
                {"left": 0, "right": 1, "lag_offset": -2,
                 "real": [0.5, 0.5], "imag": [0.0, 0.0]},
            ],
        }))
        table = load_correlation_table(path)
        assert table.grid_size == 16
        assert table.entries[0].values == (0.5, 0.5)
        assert table.entries[0].lag_offset == -2

    def test_ragged_entry_rejected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "grid_size": 8,
            "entries": [{"left": 0, "right": 0, "real": [1.0], "imag": []}],
        }))
        with pytest.raises(ValueError, match="lengths differ"):
            load_correlation_table(path)

    @pytest.mark.parametrize("entries", [
        [5],
        [None],
        [{"left": 0, "right": 1, "real": [1.0]}],
        [{"right": 1, "real": [1.0], "imag": [0.0]}],
        [{"left": [0], "right": 1, "real": [1.0], "imag": [0.0]}],
        5,
    ])
    def test_malformed_entry_rejected(self, tmp_path, entries):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"grid_size": 4, "entries": entries}))
        with pytest.raises(ValueError, match="malformed correlation table"):
            load_correlation_table(path)

    @pytest.mark.parametrize("field, value", [
        ("grid_size", 16.5), ("grid_size", True), ("left", 0.5),
        ("right", True), ("lag_offset", -1.5), ("lag_offset", "2"),
    ])
    def test_non_integral_field_rejected(self, tmp_path, field, value):
        entry = {"left": 0, "right": 1, "lag_offset": -2, "real": [0.5], "imag": [0.0]}
        doc = {"grid_size": 16, "entries": [entry]}
        (doc if field == "grid_size" else entry)[field] = value
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            load_correlation_table(path)

    def test_integral_floats_read_as_integers(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"grid_size": 16.0, "entries": [
            {"left": 0.0, "right": 1.0, "lag_offset": -2.0, "real": [0.5], "imag": [0.0]}]}))
        table = load_correlation_table(path)
        assert (table.grid_size, table.entries[0].left, table.entries[0].lag_offset) == (16, 0, -2)
        assert isinstance(table.grid_size, int)


class TestCsvCells:
    def test_cell_types(self):
        assert hio.csv_cell(True) == "true"
        assert hio.csv_cell(False) == "false"
        assert hio.csv_cell(3) == "3"
        assert float(hio.csv_cell(1 / 3)) == 1 / 3
