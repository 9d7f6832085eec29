"""Unit tests for the MiniDB value model (types, coercion, comparison, rendering)."""

import pytest

from repro.engine.values import (
    SQLType,
    cast_value,
    coerce_to_declared,
    compare_values,
    declared_runtime_type,
    is_known_type,
    render_value,
    sql_type_of,
    to_boolean,
    to_number,
)
from repro.errors import ConversionError, UnsupportedTypeError


class TestTypeOf:
    def test_runtime_types(self):
        assert sql_type_of(None) is SQLType.NULL
        assert sql_type_of(True) is SQLType.BOOLEAN
        assert sql_type_of(5) is SQLType.INTEGER
        assert sql_type_of(5.5) is SQLType.FLOAT
        assert sql_type_of("x") is SQLType.TEXT
        assert sql_type_of([1]) is SQLType.LIST
        assert sql_type_of({"k": 1}) is SQLType.STRUCT

    def test_declared_type_mapping(self):
        assert declared_runtime_type("VARCHAR(20)") is SQLType.TEXT
        assert declared_runtime_type("bigint") is SQLType.INTEGER
        assert declared_runtime_type("DOUBLE") is SQLType.FLOAT

    def test_unknown_type_raises(self):
        with pytest.raises(UnsupportedTypeError):
            declared_runtime_type("GEOMETRY")
        assert not is_known_type("GEOMETRY")


class TestConversions:
    def test_to_number_strict(self):
        assert to_number("42") == 42
        assert to_number("4.5") == 4.5
        with pytest.raises(ConversionError):
            to_number("abc", strict=True)

    def test_to_number_weak_typing_prefix_parse(self):
        assert to_number("abc", strict=False) == 0
        assert to_number("12abc", strict=False) == 12

    def test_to_boolean(self):
        assert to_boolean("true") is True
        assert to_boolean("f") is False
        assert to_boolean(1) is True
        with pytest.raises(ConversionError):
            to_boolean(1, accepts_integers=False)
        with pytest.raises(ConversionError):
            to_boolean("maybe")

    def test_cast_value(self):
        assert cast_value("12", "INTEGER") == 12
        assert cast_value(3.9, "INTEGER") == 3
        assert cast_value(1, "VARCHAR") == "1"
        assert cast_value(None, "INTEGER") is None

    def test_coerce_strict_vs_dynamic(self):
        assert coerce_to_declared("7", "INTEGER", strict=True) == 7
        # dynamic typing applies affinity but never fails
        assert coerce_to_declared("abc", "INTEGER", strict=False) == "abc"
        assert coerce_to_declared("7", "INTEGER", strict=False) == 7


class TestComparison:
    def test_null_propagation(self):
        assert compare_values(None, 1) is None
        assert compare_values(None, None) is None

    def test_numeric_comparison_across_int_and_float(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(2, 1.5) == 1

    def test_numbers_sort_before_text(self):
        assert compare_values(5, "abc") == -1
        assert compare_values("abc", 5) == 1

    def test_text_comparison(self):
        assert compare_values("abc", "abd") == -1

    def test_list_comparison(self):
        assert compare_values([1, 2], [1, 3]) == -1
        assert compare_values([1, 2], [1, 2]) == 0


class TestRendering:
    def test_null_and_booleans(self):
        assert render_value(None) == "NULL"
        assert render_value(True) == "True"
        assert render_value(False, style="psql") == "f"

    def test_floats_keep_decimal_point(self):
        assert render_value(4999.5) == "4999.5"
        assert render_value(31.0) == "31.0"

    def test_list_styles(self):
        assert render_value([1, 2, 3]) == "[1, 2, 3]"
        assert render_value([1, 2, 3], style="psql") == "{1,2,3}"

    def test_struct_rendering(self):
        assert render_value({"k": "key1", "v": 1}) == "{'k': key1, 'v': 1}"
