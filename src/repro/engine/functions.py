"""Built-in SQL functions (scalar, aggregate, table-valued) for MiniDB.

Function availability is governed by the dialect profile's ``functions`` set
(checked in the evaluator); the *implementations* here are shared, with
dialect-sensitive behaviour (e.g. ``has_column_privilege`` returning TRUE on
DuckDB even for invalid arguments — Listing 18) parameterised by the profile.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Callable

from repro.dialects.base import DialectProfile
from repro.errors import EngineHang, UnsupportedFunctionError
from repro.engine.values import SQLType, compare_values, render_value, sql_type_of, to_number, to_text


class FunctionRegistry:
    """Resolves scalar and aggregate function implementations for a dialect."""

    def __init__(self, dialect: DialectProfile, seed: int = 0):
        self.dialect = dialect
        self._random = random.Random(seed)
        self._scalar: dict[str, Callable[..., Any]] = self._build_scalar_table()

    # -- scalar ----------------------------------------------------------------

    def call_scalar(self, name: str, args: list[Any]) -> Any:
        """Invoke scalar function ``name`` with already-evaluated ``args``."""
        if not self.dialect.supports_function(name):
            raise UnsupportedFunctionError(f"no such function: {name}")
        implementation = self._scalar.get(name)
        if implementation is None:
            raise UnsupportedFunctionError(f"function {name} is recognised but not implemented by MiniDB")
        return implementation(*args)

    def reseed(self, seed: int) -> None:
        self._random.seed(seed)

    # -- implementations -------------------------------------------------------

    def _build_scalar_table(self) -> dict[str, Callable[..., Any]]:
        strict = self.dialect.strict_types

        def _num(value: Any) -> int | float | None:
            return to_number(value, strict=strict)

        def fn_abs(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else abs(number)

        def fn_length(value: Any = None) -> Any:
            if value is None:
                return None
            return len(str(value))

        def fn_upper(value: Any = None) -> Any:
            return None if value is None else str(value).upper()

        def fn_lower(value: Any = None) -> Any:
            return None if value is None else str(value).lower()

        def fn_coalesce(*args: Any) -> Any:
            first_nonnull = next((arg for arg in args if arg is not None), None)
            if first_nonnull is None:
                return None
            if self.dialect.coalesce_promotes and any(isinstance(arg, float) for arg in args if arg is not None):
                # PostgreSQL/MySQL/DuckDB promote to the common numeric super-type.
                if isinstance(first_nonnull, (int, float)) and not isinstance(first_nonnull, bool):
                    return float(first_nonnull)
            return first_nonnull

        def fn_nullif(first: Any = None, second: Any = None) -> Any:
            return None if compare_values(first, second) == 0 else first

        def fn_ifnull(first: Any = None, second: Any = None) -> Any:
            return second if first is None else first

        def fn_iif(condition: Any = None, then: Any = None, otherwise: Any = None) -> Any:
            return then if condition not in (None, False, 0) else otherwise

        def fn_round(value: Any = None, digits: Any = 0) -> Any:
            number = _num(value)
            if number is None:
                return None
            places = int(_num(digits) or 0)
            result = round(float(number), places)
            return result if places > 0 else float(result)

        def fn_floor(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else math.floor(number)

        def fn_ceil(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else math.ceil(number)

        def fn_sqrt(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else math.sqrt(number)

        def fn_power(base: Any = None, exponent: Any = None) -> Any:
            left, right = _num(base), _num(exponent)
            if left is None or right is None:
                return None
            return float(left) ** float(right)

        def fn_exp(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else math.exp(number)

        def fn_ln(value: Any = None) -> Any:
            number = _num(value)
            return None if number is None else math.log(number)

        def fn_log(value: Any = None, base: Any = None) -> Any:
            number = _num(value)
            if number is None:
                return None
            if base is None:
                return math.log10(number)
            return math.log(_num(base)) / math.log(number) if number else None

        def fn_mod(left: Any = None, right: Any = None) -> Any:
            a, b = _num(left), _num(right)
            if a is None or b is None:
                return None
            if b == 0:
                return None
            return a % b

        def fn_sign(value: Any = None) -> Any:
            number = _num(value)
            if number is None:
                return None
            return 0 if number == 0 else (1 if number > 0 else -1)

        def fn_trunc(value: Any = None, digits: Any = 0) -> Any:
            number = _num(value)
            if number is None:
                return None
            places = int(_num(digits) or 0)
            factor = 10 ** places
            return math.trunc(float(number) * factor) / factor if places else float(math.trunc(number))

        def fn_substr(value: Any = None, start: Any = 1, length: Any = None) -> Any:
            if value is None:
                return None
            text = str(value)
            begin = int(_num(start) or 1)
            index = begin - 1 if begin > 0 else max(len(text) + begin, 0)
            if length is None:
                return text[index:]
            return text[index : index + int(_num(length) or 0)]

        def fn_instr(haystack: Any = None, needle: Any = None) -> Any:
            if haystack is None or needle is None:
                return None
            return str(haystack).find(str(needle)) + 1

        def fn_replace(value: Any = None, old: Any = None, new: Any = None) -> Any:
            if value is None or old is None or new is None:
                return None
            return str(value).replace(str(old), str(new))

        def fn_trim(value: Any = None, chars: Any = None) -> Any:
            if value is None:
                return None
            return str(value).strip(str(chars)) if chars is not None else str(value).strip()

        def fn_ltrim(value: Any = None, chars: Any = None) -> Any:
            if value is None:
                return None
            return str(value).lstrip(str(chars)) if chars is not None else str(value).lstrip()

        def fn_rtrim(value: Any = None, chars: Any = None) -> Any:
            if value is None:
                return None
            return str(value).rstrip(str(chars)) if chars is not None else str(value).rstrip()

        def fn_concat(*args: Any) -> Any:
            return "".join("" if arg is None else str(to_text(arg)) for arg in args)

        def fn_concat_ws(separator: Any = "", *args: Any) -> Any:
            if separator is None:
                return None
            return str(separator).join(str(to_text(arg)) for arg in args if arg is not None)

        def fn_left(value: Any = None, count: Any = 0) -> Any:
            if value is None:
                return None
            return str(value)[: int(_num(count) or 0)]

        def fn_right(value: Any = None, count: Any = 0) -> Any:
            if value is None:
                return None
            amount = int(_num(count) or 0)
            return str(value)[-amount:] if amount else ""

        def fn_lpad(value: Any = None, width: Any = 0, fill: Any = " ") -> Any:
            if value is None:
                return None
            return str(value).rjust(int(_num(width) or 0), str(fill)[:1] or " ")

        def fn_rpad(value: Any = None, width: Any = 0, fill: Any = " ") -> Any:
            if value is None:
                return None
            return str(value).ljust(int(_num(width) or 0), str(fill)[:1] or " ")

        def fn_split_part(value: Any = None, separator: Any = None, index: Any = 1) -> Any:
            if value is None or separator is None:
                return None
            parts = str(value).split(str(separator))
            position = int(_num(index) or 1)
            return parts[position - 1] if 0 < position <= len(parts) else ""

        def fn_hex(value: Any = None) -> Any:
            if value is None:
                return None
            return str(value).encode().hex().upper()

        def fn_md5(value: Any = None) -> Any:
            if value is None:
                return None
            return hashlib.md5(str(value).encode()).hexdigest()

        def fn_typeof(value: Any = None) -> str:
            mapping = {
                SQLType.NULL: "null",
                SQLType.INTEGER: "integer",
                SQLType.FLOAT: "real",
                SQLType.TEXT: "text",
                SQLType.BOOLEAN: "integer",
                SQLType.LIST: "list",
                SQLType.STRUCT: "struct",
            }
            return mapping[sql_type_of(value)]

        def fn_pg_typeof(value: Any = None) -> str:
            mapping = {
                SQLType.NULL: "unknown",
                SQLType.INTEGER: "integer",
                SQLType.FLOAT: "numeric",
                SQLType.TEXT: "text",
                SQLType.BOOLEAN: "boolean",
                SQLType.LIST: "anyarray",
                SQLType.STRUCT: "record",
            }
            return mapping[sql_type_of(value)]

        def fn_greatest(*args: Any) -> Any:
            present = [arg for arg in args if arg is not None]
            if not present:
                return None
            best = present[0]
            for candidate in present[1:]:
                if compare_values(candidate, best) == 1:
                    best = candidate
            return best

        def fn_least(*args: Any) -> Any:
            present = [arg for arg in args if arg is not None]
            if not present:
                return None
            best = present[0]
            for candidate in present[1:]:
                if compare_values(candidate, best) == -1:
                    best = candidate
            return best

        def fn_random() -> float:
            if self.dialect.name == "sqlite":
                return self._random.randint(-(2 ** 63), 2 ** 63 - 1)
            return self._random.random()

        def fn_rand() -> float:
            return self._random.random()

        def fn_setseed(seed: Any = 0) -> None:
            self._random.seed(_num(seed))
            return None

        def fn_range(*args: Any) -> list:
            return _series(args, start_default=0, inclusive=False)

        def fn_generate_series(*args: Any) -> list:
            return _series(args, start_default=1, inclusive=True)

        def _series(args: tuple, start_default: int, inclusive: bool) -> list:
            numbers = [int(_num(arg) or 0) for arg in args]
            if len(numbers) == 1:
                start, stop, step = start_default, numbers[0], 1
                if inclusive:
                    stop += 1
            elif len(numbers) >= 2:
                start, stop = numbers[0], numbers[1]
                step = numbers[2] if len(numbers) > 2 else 1
                if inclusive:
                    stop = stop + (1 if step > 0 else -1)
            else:
                return []
            if step == 0:
                return []
            span = abs(stop - start)
            if span > 10_000_000:
                raise EngineHang(f"series of {span} rows exceeds the execution budget")
            return list(range(start, stop, step))

        def fn_has_column_privilege(*args: Any) -> Any:
            # Listing 18: DuckDB always returns TRUE even for invalid
            # arguments; PostgreSQL raises an error for them.
            if self.dialect.name == "duckdb":
                return True
            if any(isinstance(arg, (int, float)) and not isinstance(arg, bool) for arg in args):
                raise UnsupportedFunctionError("has_column_privilege: invalid argument types")
            return True

        def fn_version() -> str:
            return f"{self.dialect.display_name} (MiniDB emulation)"

        def fn_current_database() -> str:
            return "main"

        def fn_format(template: Any = "", *args: Any) -> Any:
            if template is None:
                return None
            text = str(template)
            for arg in args:
                for marker in ("%s", "%d", "%g", "{}"):
                    if marker in text:
                        text = text.replace(marker, render_value(arg), 1)
                        break
            return text

        def fn_printf(template: Any = "", *args: Any) -> Any:
            return fn_format(template, *args)

        def fn_if(condition: Any = None, then: Any = None, otherwise: Any = None) -> Any:
            return then if condition not in (None, False, 0) else otherwise

        def fn_to_json(value: Any = None) -> Any:
            return render_value(value)

        def fn_json_extract(document: Any = None, path: Any = None) -> Any:
            return None

        def fn_list_value(*args: Any) -> list:
            return list(args)

        def fn_list_extract(values: Any = None, index: Any = 1) -> Any:
            if not isinstance(values, list):
                return None
            position = int(_num(index) or 1)
            return values[position - 1] if 0 < position <= len(values) else None

        def fn_list_contains(values: Any = None, item: Any = None) -> Any:
            if not isinstance(values, list):
                return None
            return item in values

        def fn_struct_pack(*args: Any) -> dict:
            return {f"f{i}": arg for i, arg in enumerate(args)}

        def fn_struct_extract(struct: Any = None, key: Any = None) -> Any:
            if isinstance(struct, dict) and key is not None:
                return struct.get(str(key))
            return None

        def fn_nop(*_args: Any) -> None:
            return None

        table: dict[str, Callable[..., Any]] = {
            "abs": fn_abs,
            "length": fn_length,
            "char_length": fn_length,
            "character_length": fn_length,
            "upper": fn_upper,
            "lower": fn_lower,
            "initcap": lambda value=None: None if value is None else str(value).title(),
            "coalesce": fn_coalesce,
            "nullif": fn_nullif,
            "ifnull": fn_ifnull,
            "iif": fn_iif,
            "if": fn_if,
            "round": fn_round,
            "floor": fn_floor,
            "ceil": fn_ceil,
            "ceiling": fn_ceil,
            "sqrt": fn_sqrt,
            "power": fn_power,
            "pow": fn_power,
            "exp": fn_exp,
            "ln": fn_ln,
            "log": fn_log,
            "log10": lambda value=None: None if _num(value) is None else math.log10(_num(value)),
            "log2": lambda value=None: None if _num(value) is None else math.log2(_num(value)),
            "mod": fn_mod,
            "sign": fn_sign,
            "trunc": fn_trunc,
            "truncate": fn_trunc,
            "substr": fn_substr,
            "substring": fn_substr,
            "instr": fn_instr,
            "locate": lambda needle=None, haystack=None: fn_instr(haystack, needle),
            "strpos": lambda haystack=None, needle=None: fn_instr(haystack, needle),
            "replace": fn_replace,
            "trim": fn_trim,
            "ltrim": fn_ltrim,
            "rtrim": fn_rtrim,
            "concat": fn_concat,
            "concat_ws": fn_concat_ws,
            "left": fn_left,
            "right": fn_right,
            "lpad": fn_lpad,
            "rpad": fn_rpad,
            "split_part": fn_split_part,
            "hex": fn_hex,
            "md5": fn_md5,
            "sha1": lambda value=None: None if value is None else hashlib.sha1(str(value).encode()).hexdigest(),
            "sha2": lambda value=None, bits=256: None if value is None else hashlib.sha256(str(value).encode()).hexdigest(),
            "typeof": fn_typeof,
            "pg_typeof": fn_pg_typeof,
            "greatest": fn_greatest,
            "least": fn_least,
            "random": fn_random,
            "rand": fn_rand,
            "setseed": fn_setseed,
            "range": fn_range,
            "generate_series": fn_generate_series,
            "has_column_privilege": fn_has_column_privilege,
            "has_table_privilege": lambda *args: True,
            "version": fn_version,
            "current_database": fn_current_database,
            "current_schema": lambda: "main",
            "current_user": lambda: "squality",
            "user": lambda: "squality",
            "database": fn_current_database,
            "format": fn_format,
            "printf": fn_printf,
            "quote": lambda value=None: "NULL" if value is None else f"'{value}'",
            "unicode": lambda value=None: None if not value else ord(str(value)[0]),
            "to_json": fn_to_json,
            "to_jsonb": fn_to_json,
            "to_char": lambda value=None, fmt=None: to_text(value),
            "to_number": lambda value=None, fmt=None: _num(value),
            "json_extract": fn_json_extract,
            "json": fn_to_json,
            "json_array": lambda *args: list(args),
            "json_object": lambda *args: {str(args[i]): args[i + 1] for i in range(0, len(args) - 1, 2)},
            "json_build_object": lambda *args: {str(args[i]): args[i + 1] for i in range(0, len(args) - 1, 2)},
            "jsonb_build_object": lambda *args: {str(args[i]): args[i + 1] for i in range(0, len(args) - 1, 2)},
            "list_value": fn_list_value,
            "list_extract": fn_list_extract,
            "list_contains": fn_list_contains,
            "struct_pack": fn_struct_pack,
            "struct_extract": fn_struct_extract,
            "unnest": lambda values=None: values,
            "pg_backend_pid": lambda: 4242,
            "pg_sleep": fn_nop,
            "pg_table_size": lambda *args: 8192,
            "pg_total_relation_size": lambda *args: 8192,
            "pg_column_size": lambda value=None: None if value is None else len(render_value(value)),
            "pg_get_viewdef": lambda *args: "",
            "pg_get_expr": lambda *args: "",
            "current_date": lambda: "2024-01-01",
            "current_time": lambda: "00:00:00",
            "current_timestamp": lambda: "2024-01-01 00:00:00",
            "now": lambda: "2024-01-01 00:00:00",
            "curdate": lambda: "2024-01-01",
            "curtime": lambda: "00:00:00",
            "date": lambda value=None: None if value is None else str(value)[:10],
            "time": lambda value=None: None if value is None else str(value)[-8:],
            "datetime": lambda value=None, *mods: None if value is None else str(value),
            "strftime": lambda fmt=None, value=None, *mods: None if value is None else str(value),
            "date_trunc": lambda part=None, value=None: None if value is None else str(value),
            "date_part": lambda part=None, value=None: 2024,
            "extract": lambda part=None, value=None: 2024,
            "julianday": lambda value=None: 2460310.5,
            "unixepoch": lambda value=None: 1704067200,
            "unix_timestamp": lambda value=None: 1704067200,
            "from_unixtime": lambda value=None: "2024-01-01 00:00:00",
            "date_format": lambda value=None, fmt=None: None if value is None else str(value),
            "date_add": lambda value=None, interval=None: value,
            "date_sub": lambda value=None, interval=None: value,
            "datediff": lambda left=None, right=None: 0,
            "str_to_date": lambda value=None, fmt=None: value,
            "age": lambda *args: "0 years",
            "justify_days": lambda value=None: value,
            "justify_hours": lambda value=None: value,
            "last_insert_rowid": lambda: 0,
            "last_insert_id": lambda: 0,
            "changes": lambda: 0,
            "total_changes": lambda: 0,
            "connection_id": lambda: 1,
            "pi": lambda: math.pi,
            "gcd": lambda a=0, b=0: math.gcd(int(_num(a) or 0), int(_num(b) or 0)),
            "lcm": lambda a=0, b=0: abs(int(_num(a) or 0) * int(_num(b) or 0)) // (math.gcd(int(_num(a) or 0), int(_num(b) or 0)) or 1),
            "width_bucket": lambda value=None, low=0, high=1, buckets=1: 1,
            "regexp_replace": lambda value=None, pattern=None, replacement="": value,
            "regexp_matches": lambda value=None, pattern=None: [],
            "glob": lambda pattern=None, value=None: False,
            "like": lambda pattern=None, value=None: False,
            "likelihood": lambda value=None, probability=None: value,
            "zeroblob": lambda size=0: "",
            "randomblob": lambda size=0: "00" * int(_num(size) or 0),
            "hash": lambda value=None: int(hashlib.md5(render_value(value).encode()).hexdigest()[:8], 16),
            "test_opclass_options_func": fn_nop,
            "div": lambda a=None, b=None: None if _num(a) is None or _num(b) is None or _num(b) == 0 else int(_num(a) // _num(b)),
        }
        return table


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = frozenset(
    {
        "count",
        "sum",
        "total",
        "avg",
        "min",
        "max",
        "median",
        "quantile",
        "quantile_cont",
        "quantile_disc",
        "mode",
        "group_concat",
        "string_agg",
        "array_agg",
        "bool_and",
        "bool_or",
        "every",
        "stddev",
        "std",
        "stddev_pop",
        "stddev_samp",
        "var_pop",
        "var_samp",
        "bit_and",
        "bit_or",
        "bit_xor",
        "approx_count_distinct",
        "first_value",
        "last_value",
        "row_number",
        "rank",
        "dense_rank",
    }
)


def is_aggregate(name: str) -> bool:
    """Whether ``name`` is an aggregate function name."""
    return name.lower() in AGGREGATE_FUNCTIONS


def evaluate_aggregate(name: str, values: list[Any], dialect: DialectProfile, distinct: bool = False, is_star: bool = False) -> Any:
    """Compute aggregate ``name`` over ``values`` (one value per input row)."""
    lowered = name.lower()
    if lowered == "count":
        if is_star:
            return len(values)
        present = [value for value in values if value is not None]
        return len(set(map(render_value, present))) if distinct else len(present)
    present = [value for value in values if value is not None]
    if distinct:
        unique: list[Any] = []
        seen: set[str] = set()
        for value in present:
            key = render_value(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        present = unique
    if lowered in ("sum", "total"):
        if not present:
            return 0.0 if lowered == "total" else None
        numbers = [to_number(value, strict=False) for value in present]
        total = sum(numbers)
        if lowered == "total":
            return float(total)
        if all(isinstance(number, int) for number in numbers):
            return int(total)
        return float(total)
    if lowered == "avg":
        if not present:
            return None
        numbers = [float(to_number(value, strict=False)) for value in present]
        return sum(numbers) / len(numbers)
    if lowered == "min":
        if not present:
            return None
        best = present[0]
        for value in present[1:]:
            if compare_values(value, best) == -1:
                best = value
        return best
    if lowered == "max":
        if not present:
            return None
        best = present[0]
        for value in present[1:]:
            if compare_values(value, best) == 1:
                best = value
        return best
    if lowered in ("median", "quantile", "quantile_cont", "quantile_disc"):
        if not present:
            return None
        numbers = sorted(float(to_number(value, strict=False)) for value in present)
        middle = len(numbers) // 2
        if len(numbers) % 2 == 1:
            result = numbers[middle]
        elif lowered == "quantile_disc":
            result = numbers[middle - 1]
        else:
            result = (numbers[middle - 1] + numbers[middle]) / 2.0
        return result
    if lowered == "mode":
        if not present:
            return None
        counts: dict[str, tuple[int, Any]] = {}
        for value in present:
            key = render_value(value)
            count, _ = counts.get(key, (0, value))
            counts[key] = (count + 1, value)
        return max(counts.values(), key=lambda pair: pair[0])[1]
    if lowered in ("group_concat", "string_agg"):
        if not present:
            return None
        return ",".join(str(value) for value in present)
    if lowered == "array_agg":
        return list(present) if present else None
    if lowered in ("bool_and", "every"):
        if not present:
            return None
        return all(bool(value) for value in present)
    if lowered == "bool_or":
        if not present:
            return None
        return any(bool(value) for value in present)
    if lowered in ("stddev", "std", "stddev_samp", "stddev_pop", "var_pop", "var_samp"):
        if len(present) < 2 and lowered in ("stddev", "std", "stddev_samp", "var_samp"):
            return None
        numbers = [float(to_number(value, strict=False)) for value in present]
        if not numbers:
            return None
        mean = sum(numbers) / len(numbers)
        denominator = len(numbers) if lowered.endswith("pop") else max(len(numbers) - 1, 1)
        variance = sum((number - mean) ** 2 for number in numbers) / denominator
        if lowered.startswith("var"):
            return variance
        return math.sqrt(variance)
    if lowered in ("bit_and", "bit_or", "bit_xor"):
        if not present:
            return None
        numbers = [int(to_number(value, strict=False)) for value in present]
        result = numbers[0]
        for number in numbers[1:]:
            if lowered == "bit_and":
                result &= number
            elif lowered == "bit_or":
                result |= number
            else:
                result ^= number
        return result
    if lowered == "approx_count_distinct":
        return len({render_value(value) for value in present})
    if lowered == "first_value":
        return present[0] if present else None
    if lowered == "last_value":
        return present[-1] if present else None
    if lowered in ("row_number", "rank", "dense_rank"):
        return len(values)
    raise UnsupportedFunctionError(f"no such aggregate function: {name}")
