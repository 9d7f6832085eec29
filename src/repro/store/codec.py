"""Compact, versioned result codec for store payloads.

PR 3 persisted donor runs by pickling whole ``TransplantResult`` object
graphs.  That worked, but each cell dragged its full per-record payload —
every :class:`~repro.core.records.Record` (raw text, expectations), every
:class:`~repro.adapters.base.ExecutionOutcome` (rows *and* their rendered
strings), every :class:`~repro.core.comparison.ComparisonResult` — through
pickle, which made off-diagonal matrix cells too fat to persist at all.

This codec replaces those pickles with a **column-oriented** wire format:

* per-record fields are stored as parallel arrays over all records of a file
  (one outcome character each, record indexes, interned reason / error-class
  columns, sparse comparison and execution columns),
* ``Record`` objects are **not stored at all** — results reference them by
  index into the live ``TestFile.records``, and decoding reattaches them.
  Store keys embed the file's content hash
  (:func:`~repro.store.keys.file_result_key`), so the file a caller decodes
  against is guaranteed content-identical to the one that produced the
  results,
* every string (SQL text, error messages, rendered values, previews) goes
  through one per-payload intern table, so repeated text is stored once,
* the JSON document is zlib-compressed inside a small framed envelope —
  magic, codec version, and a payload digest that is verified on every read
  (a flipped bit anywhere in any section reads as a miss), and
* each file section additionally carries a digest over its own columns —
  record indexes, outcomes, and the rendered-value references included —
  re-checked with ``verify=True`` on the decode functions (the roundtrip
  tests' and debuggers' tool; routine reads lean on the frame digest, which
  already covers the same bytes).  Decode fidelity itself (decoded ==
  encoded, canonical byte for byte) is pinned by the roundtrip property
  tests.

Any mismatch — wrong magic, old codec version, corrupt zlib stream, digest
mismatch, a file whose shape no longer matches — raises :class:`CodecError`;
store clients treat that as a miss and recompute, never as data.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Any

from repro.adapters.base import ExecutionOutcome, ExecutionStatus
from repro.adapters.faults import FaultReport
from repro.core.comparison import ComparisonResult
from repro.core.records import TestFile
from repro.core.runner import FileResult, RecordOutcome, RecordResult, SuiteResult

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "decode_analysis_partial",
    "decode_file_result",
    "encode_analysis_partial",
    "encode_file_result",
    "fault_reports_for",
    "frame_intact",
]

#: Frame magic; the byte after it is the codec version.
MAGIC = b"RRC"

#: Wire-format version; bump on any incompatible layout change.  Old blobs
#: then decode as :class:`CodecError` (a miss), never as garbage.
CODEC_VERSION = 2

#: zlib level 6 is the sweet spot for these payloads (mostly repeated SQL
#: text and small integer arrays); 9 buys <2% for ~2x the CPU.
_ZLIB_LEVEL = 6

_OUTCOME_TO_CHAR = {
    RecordOutcome.PASS: "P",
    RecordOutcome.FAIL: "F",
    RecordOutcome.SKIP: "S",
    RecordOutcome.CRASH: "C",
    RecordOutcome.HANG: "H",
}
_CHAR_TO_OUTCOME = {char: outcome for outcome, char in _OUTCOME_TO_CHAR.items()}

_STATUS_TO_CHAR = {
    ExecutionStatus.OK: "o",
    ExecutionStatus.ERROR: "e",
    ExecutionStatus.CRASH: "c",
    ExecutionStatus.HANG: "h",
}
_CHAR_TO_STATUS = {char: status for status, char in _STATUS_TO_CHAR.items()}


class CodecError(Exception):
    """The payload cannot be (de)serialized; callers treat reads as a miss."""


class _Interner:
    """String -> index table shared by every column of one payload."""

    __slots__ = ("strings", "_index")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def __call__(self, text: str) -> int:
        index = self._index.get(text)
        if index is None:
            index = self._index[text] = len(self.strings)
            self.strings.append(text)
        return index


# -- value encoding ---------------------------------------------------------------
#
# Result rows hold MiniDB's value model: None, bool, int, float, str, list
# (DuckDB LIST) and dict (STRUCT).  None/bool/int pass through as themselves;
# everything else is tagged so decoding is exact: floats travel as hex (no
# rounding), strings as intern indexes, containers recursively.


def _encode_value(value: Any, intern: _Interner) -> Any:
    if value is None or value is True or value is False:
        return value
    kind = type(value)
    if kind is int:
        return value
    if kind is str:
        return {"s": intern(value)}
    if kind is float:
        return {"f": value.hex()}
    if kind is list or kind is tuple:
        return {"l": [_encode_value(item, intern) for item in value]}
    if kind is dict:
        return {"d": [[intern(str(key)), _encode_value(item, intern)] for key, item in value.items()]}
    raise CodecError(f"cannot encode value of type {kind.__name__}")


def _encode_rows(execution: Any, intern: _Interner) -> Any:
    """Query rows, column-major when rectangular (codec v2).

    Rectangular results — every query result the engine produces — encode as
    ``{"n": row_count, "c": [per-column value arrays]}``; the decoder keeps
    that layout and hands it to the executor/comparison columnar paths without
    reassembling row lists.  Zero-width rows keep only the count; ragged rows
    (never produced by the engine, but representable) fall back to the v1
    row-major list-of-lists.  Outcomes decoded from a v2 frame and never
    materialised re-encode straight from their columnar backing state.
    """
    state = execution.__dict__
    if "rows" not in state:
        columns = state.get("_row_columns")
        count = state.get("_row_count")
        if columns is not None:
            return {"n": count, "c": [[_encode_value(value, intern) for value in column] for column in columns]}
        if count is not None:
            return {"n": count}
    rows = execution.rows
    if rows:
        width = len(rows[0])
        if all(len(row) == width for row in rows):
            if width == 0:
                return {"n": len(rows)}
            return {
                "n": len(rows),
                "c": [[_encode_value(row[index], intern) for row in rows] for index in range(width)],
            }
    return [[_encode_value(value, intern) for value in row] for row in rows]


def _encode_rendered(execution: Any, intern: _Interner) -> Any:
    """Rendered text, as a render-style marker when it is derivable.

    Outcomes from the engine adapters carry ``_render_style`` — their rendered
    form is a deterministic function of the rows — so the codec stores just
    the style name (``{"y": <intern>}``) and the decoder re-derives the text
    lazily on first access.  Anything else stores the full interned grid.
    """
    style = execution.__dict__.get("_render_style")
    if style is not None:
        return {"y": intern(style)}
    return [[intern(value) for value in row] for row in execution.rendered]


def _decode_value(payload: Any, strings: list[str]) -> Any:
    if payload is None or payload is True or payload is False or type(payload) is int:
        return payload
    if type(payload) is dict:
        if "s" in payload:
            return strings[payload["s"]]
        if "f" in payload:
            return float.fromhex(payload["f"])
        if "l" in payload:
            return [_decode_value(item, strings) for item in payload["l"]]
        if "d" in payload:
            return {strings[key]: _decode_value(item, strings) for key, item in payload["d"]}
    raise CodecError(f"unknown value encoding: {payload!r}")


# -- file sections ----------------------------------------------------------------


def _section_digest(section: dict) -> str:
    """Digest of one file section's columns (record indexes, outcomes,
    rendered-value/preview intern references, execution rows).

    Computed over the compact column rendering — *not* the expanded object
    graph, which would make every warm read pay a full canonical
    serialization.  Store reads do not re-verify it: the frame digest
    (:func:`_unframe`) already covers every section byte, so a second hash
    per section would only re-prove the same bytes.  ``verify=True`` on the
    decode functions turns the re-check on — the roundtrip tests use it to
    pin encode/decode symmetry, and it is the first thing to reach for when
    debugging a suspected codec bug.
    """
    payload = json.dumps(
        {key: value for key, value in section.items() if key != "digest"},
        ensure_ascii=False,
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _encode_file_section(file_result: FileResult, test_file: TestFile, intern: _Interner) -> dict:
    records = test_file.records
    record_indexes: list[int] = []
    cursor = 0
    for record_result in file_result.results:
        record = record_result.record
        index = None
        # results are appended in record order, so a forward scan finds each
        # one; identity first (the common case), equality as the fallback for
        # results that were rebuilt from an equal suite
        for probe in range(cursor, len(records)):
            if records[probe] is record:
                index = probe
                break
        if index is None:
            for probe in range(cursor, len(records)):
                if records[probe] == record:
                    index = probe
                    break
        if index is None:
            raise CodecError(f"result record not found in {test_file.path!r} (records out of order?)")
        cursor = index + 1
        record_indexes.append(index)

    outcomes: list[str] = []
    reasons: list[int] = []
    errors: list[int] = []
    error_types: list[int] = []
    comparisons: list[list] = []
    executions: list[list] = []
    for position, record_result in enumerate(file_result.results):
        outcomes.append(_OUTCOME_TO_CHAR[record_result.outcome])
        reasons.append(intern(record_result.reason))
        errors.append(intern(record_result.error))
        error_types.append(intern(record_result.error_type))
        comparison = record_result.comparison
        if comparison is not None:
            comparisons.append(
                [
                    position,
                    1 if comparison.matches else 0,
                    intern(comparison.reason),
                    intern(comparison.mismatch_kind),
                    [intern(line) for line in comparison.expected_preview],
                    [intern(line) for line in comparison.actual_preview],
                ]
            )
        execution = record_result.execution
        if execution is not None:
            executions.append(
                [
                    position,
                    _STATUS_TO_CHAR[execution.status],
                    [intern(column) for column in execution.columns],
                    _encode_rows(execution, intern),
                    _encode_rendered(execution, intern),
                    intern(execution.error),
                    intern(execution.error_type),
                    intern(execution.statement),
                ]
            )

    section = {
        "path": intern(file_result.path),
        "suite": intern(file_result.suite),
        "host": intern(file_result.host),
        "ri": record_indexes,
        "oc": "".join(outcomes),
        "rs": reasons,
        "er": errors,
        "et": error_types,
        "cmp": comparisons,
        "exe": executions,
    }
    section["digest"] = _section_digest(section)
    return section


def _decode_file_section(section: dict, test_file: TestFile, strings: list[str], verify: bool = False) -> FileResult:
    if verify and (not isinstance(section, dict) or _section_digest(section) != section.get("digest")):
        raise CodecError("file section does not match its stored digest")
    try:
        records = test_file.records
        file_result = FileResult(
            path=strings[section["path"]],
            suite=strings[section["suite"]],
            host=strings[section["host"]],
        )
        # hot loop: the sparse comparison/execution columns are written in
        # position order, so a pointer walk replaces two dict lookups per
        # record; dataclasses are built around __init__ (plain __dict__
        # instances are field-for-field identical — same equality, canonical
        # bytes, and pickle — at a fraction of the per-record constructor
        # cost); every per-record global is bound to a local
        comparisons = section["cmp"]
        executions = section["exe"]
        outcomes = section["oc"]
        reasons = section["rs"]
        errors = section["er"]
        error_types = section["et"]
        append = file_result.results.append
        char_to_outcome = _CHAR_TO_OUTCOME
        char_to_status = _CHAR_TO_STATUS
        decode_value = _decode_value
        new_comparison = ComparisonResult.__new__
        new_execution = ExecutionOutcome.__new__
        new_record_result = RecordResult.__new__
        cmp_cursor = exe_cursor = 0
        cmp_count = len(comparisons)
        exe_count = len(executions)
        for position, record_index in enumerate(section["ri"]):
            comparison = None
            if cmp_cursor < cmp_count and comparisons[cmp_cursor][0] == position:
                entry = comparisons[cmp_cursor]
                cmp_cursor += 1
                comparison = new_comparison(ComparisonResult)
                comparison.__dict__ = {
                    "matches": bool(entry[1]),
                    "reason": strings[entry[2]],
                    "expected_preview": [strings[index] for index in entry[4]],
                    "actual_preview": [strings[index] for index in entry[5]],
                    "mismatch_kind": strings[entry[3]],
                }
            execution = None
            if exe_cursor < exe_count and executions[exe_cursor][0] == position:
                entry = executions[exe_cursor]
                exe_cursor += 1
                execution = new_execution(ExecutionOutcome)
                state = {
                    "status": char_to_status[entry[1]],
                    "columns": [strings[index] for index in entry[2]],
                    "error": strings[entry[5]],
                    "error_type": strings[entry[6]],
                    "statement": strings[entry[7]],
                }
                raw_rows = entry[3]
                if type(raw_rows) is dict:
                    # column-major (v2): keep the columnar layout; ``rows``
                    # materialises lazily (ExecutionOutcome.__getattr__) and
                    # comparison consumes the columns directly
                    state["_row_count"] = raw_rows["n"]
                    raw_columns = raw_rows.get("c")
                    if raw_columns is not None:
                        state["_row_columns"] = [
                            [decode_value(value, strings) for value in column] for column in raw_columns
                        ]
                else:
                    state["rows"] = [[decode_value(value, strings) for value in row] for row in raw_rows]
                raw_rendered = entry[4]
                if type(raw_rendered) is dict:
                    state["_render_style"] = strings[raw_rendered["y"]]
                else:
                    state["rendered"] = [[strings[index] for index in row] for row in raw_rendered]
                execution.__dict__ = state
            record_result = new_record_result(RecordResult)
            record_result.__dict__ = {
                "record": records[record_index],
                "outcome": char_to_outcome[outcomes[position]],
                "reason": strings[reasons[position]],
                "error": strings[errors[position]],
                "error_type": strings[error_types[position]],
                "comparison": comparison,
                "execution": execution,
            }
            append(record_result)
        if cmp_cursor != cmp_count or exe_cursor != exe_count:
            raise CodecError("file section has comparison/execution entries for unknown positions")
    except CodecError:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as error:
        raise CodecError(f"malformed file section: {type(error).__name__}: {error}") from error
    return file_result


# -- framing ----------------------------------------------------------------------


def _frame(document: dict, intern: _Interner) -> bytes:
    document["strs"] = intern.strings
    payload = json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(payload).digest()[:8]
    return MAGIC + bytes([CODEC_VERSION]) + digest + zlib.compress(payload, _ZLIB_LEVEL)


def frame_intact(blob: Any) -> bool:
    """Whether ``blob`` is a structurally sound codec frame (digest verified).

    The store's :meth:`~repro.store.artifacts.ArtifactStore.audit` uses this
    to digest-verify persisted frames without the live suite a full decode
    would need to reattach records from.
    """
    if not isinstance(blob, (bytes, bytearray)):
        return False
    blob = bytes(blob)
    if len(blob) < len(MAGIC) + 9 or blob[: len(MAGIC)] != MAGIC or blob[len(MAGIC)] != CODEC_VERSION:
        return False
    digest = blob[len(MAGIC) + 1 : len(MAGIC) + 9]
    try:
        payload = zlib.decompress(blob[len(MAGIC) + 9 :])
    except zlib.error:
        return False
    return hashlib.sha256(payload).digest()[:8] == digest


def _unframe(blob: Any, expected_kind: str) -> tuple[dict, list[str]]:
    if not isinstance(blob, (bytes, bytearray)):
        raise CodecError(f"expected codec bytes, got {type(blob).__name__}")
    blob = bytes(blob)
    if len(blob) < len(MAGIC) + 9:  # magic + version byte + 8-byte digest
        raise CodecError("truncated codec frame (shorter than its header)")
    if blob[: len(MAGIC)] != MAGIC:
        raise CodecError("not a result-codec payload (bad magic)")
    version = blob[len(MAGIC)]
    if version != CODEC_VERSION:
        raise CodecError(f"codec version {version} != {CODEC_VERSION}")
    digest = blob[len(MAGIC) + 1 : len(MAGIC) + 9]
    try:
        payload = zlib.decompress(blob[len(MAGIC) + 9 :])
    except zlib.error as error:
        raise CodecError(f"corrupt codec payload: {error}") from error
    if hashlib.sha256(payload).digest()[:8] != digest:
        raise CodecError("codec payload digest mismatch")
    try:
        document = json.loads(payload)
    except json.JSONDecodeError as error:
        raise CodecError(f"corrupt codec document: {error}") from error
    if not isinstance(document, dict) or document.get("k") != expected_kind:
        raise CodecError(f"codec document is not a {expected_kind!r} payload")
    strings = document.get("strs")
    if not isinstance(strings, list):
        raise CodecError("codec document has no string table")
    return document, strings


# -- public API -------------------------------------------------------------------


def encode_file_result(file_result: FileResult, test_file: TestFile) -> bytes:
    """Serialize one :class:`FileResult` against its source ``test_file``."""
    intern = _Interner()
    return _frame({"k": "file", "f": _encode_file_section(file_result, test_file, intern)}, intern)


def decode_file_result(blob: bytes, test_file: TestFile, verify: bool = False) -> FileResult:
    """Rebuild a :class:`FileResult`, reattaching records from ``test_file``.

    ``verify=True`` re-checks the per-section column digest on top of the
    frame digest (debugging / test aid; the frame digest already covers the
    same bytes).
    """
    document, strings = _unframe(blob, "file")
    return _decode_file_section(document["f"], test_file, strings, verify=verify)


def encode_analysis_partial(pass_id: str, partial: dict) -> bytes:
    """Serialize one file's analysis partial (a JSON document) for ``pass_id``.

    Analysis partials are small count dictionaries (see
    :mod:`repro.analysis.incremental`); framing them through the codec buys
    the same guarantees execution results have — version byte, payload
    digest, :func:`frame_intact` / store-audit coverage — without the
    column machinery, which count dicts do not need.
    """
    if not isinstance(partial, dict):
        raise CodecError(f"analysis partial must be a dict, got {type(partial).__name__}")
    return _frame({"k": "analysis", "p": pass_id, "d": partial}, _Interner())


def decode_analysis_partial(blob: bytes, pass_id: str) -> dict:
    """Rebuild one file's analysis partial; the frame must carry ``pass_id``.

    A frame written by a different pass (a key collision would be the only
    route there) or whose document is not a dict raises :class:`CodecError`
    — a miss, never a wrong answer.
    """
    document, _strings = _unframe(blob, "analysis")
    if document.get("p") != pass_id:
        raise CodecError(f"analysis frame belongs to pass {document.get('p')!r}, not {pass_id!r}")
    partial = document.get("d")
    if not isinstance(partial, dict):
        raise CodecError("analysis frame has no partial document")
    return partial


def fault_reports_for(result: SuiteResult, host: str) -> tuple[list[FaultReport], list[FaultReport]]:
    """(crashes, hangs) extracted from a suite result, as ``run_transplant`` does.

    Fault reports are pure projections of the per-record results, so the codec
    never stores them — decoding recomputes them, bit-for-bit.
    """
    crashes: list[FaultReport] = []
    hangs: list[FaultReport] = []
    for file_result in result.files:
        for record_result in file_result.results:
            if record_result.outcome is RecordOutcome.CRASH:
                crashes.append(
                    FaultReport(dbms=host, kind="crash", statement=record_result.sql, message=record_result.error)
                )
            elif record_result.outcome is RecordOutcome.HANG:
                hangs.append(
                    FaultReport(dbms=host, kind="hang", statement=record_result.sql, message=record_result.error)
                )
    return crashes, hangs
