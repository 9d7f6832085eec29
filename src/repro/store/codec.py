"""Compact, versioned result codec for store payloads.

Pickling whole ``TransplantResult`` graphs drags every record, execution and
comparison of a cell through pickle, which makes off-diagonal matrix cells
too fat to persist.  This codec stores results in a **column-oriented** wire
format instead:

* per-record fields are stored as parallel arrays over all records of a file
  (one outcome character each, record indexes, interned reason / error-class
  columns, sparse comparison and execution columns),
* ``Record`` objects are **not stored at all** — results reference them by
  index into the live ``TestFile.records``, and decoding reattaches them.
  Store keys embed the file's content hash
  (:func:`~repro.store.keys.file_result_key`), so the file a caller decodes
  against is guaranteed content-identical to the one that produced the
  results,
* a ``file`` frame holds two documents, each with its own string intern
  table.  The **head** carries everything a warm campaign reads: the
  per-record columns, the comparisons and the executions of non-PASS
  records.  The **body** carries the executions of PASS records, which hold
  almost all result rows.  Loading parses only the head; the body is parsed
  when ``FileResult.results`` is first read,
* every store artifact is one frame of this codec (:func:`frame`): magic,
  codec version, and a digest over a zlib-compressed payload whose first
  line is the frame's kind — the store namespace it lives in — verified on
  every load (a flipped bit anywhere reads as a miss).  A ``file-results``
  frame holds the head and body documents; :func:`encode_document` frames
  the one small JSON document of every other client but ``corpus-suites``,
* the head also records each FAIL record's Table 6 incompatibility and
  Table 7 difficulty category, computed at encode time by
  :func:`~repro.core.classification.failure_categories`; a FAIL record built
  from the frame carries them, so the RQ4 tables classify stored failures
  without tokenizing them again, and
* the head also carries a digest over the head columns and the body
  document, re-checked only with ``verify=True`` (the roundtrip tests' and
  debuggers' tool).
  Decode fidelity itself (decoded == encoded, canonical byte for byte, built
  lazily or not) is pinned by the roundtrip property tests.

Any mismatch — wrong magic, old codec version, corrupt zlib stream, digest
mismatch, a frame of another kind, a head whose shape does not fit the file
— raises :class:`CodecError`, and the store treats it as a miss (see
:meth:`~repro.store.artifacts.ArtifactStore.load`): recompute, never data.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import TYPE_CHECKING, Any, Callable

from repro.adapters.base import ExecutionOutcome, ExecutionStatus
from repro.adapters.faults import FaultReport
from repro.core.classification import DifficultyCategory, IncompatibilityCategory, failure_categories
from repro.core.comparison import ComparisonResult
from repro.core.records import TestFile
from repro.core.runner import FileResult, RecordOutcome, RecordResult, SuiteResult
from repro.errors import CodecError
from repro.store.keys import FILE_RESULTS_NAMESPACE

if TYPE_CHECKING:
    from repro.store.artifacts import ArtifactStore

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "decode_document",
    "decode_file_result",
    "encode_document",
    "encode_file_result",
    "fault_reports_for",
    "frame",
    "save_checked",
    "unframe",
]

#: Frame magic; the byte after it is the codec version.
MAGIC = b"RRC"

#: Wire-format version; bump on any incompatible layout change.  Old blobs
#: then decode as :class:`CodecError` (a miss), never as garbage.
CODEC_VERSION = 5

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
_OUTCOME_CHARS = frozenset(_CHAR_TO_OUTCOME)

_STATUS_TO_CHAR = {
    ExecutionStatus.OK: "o",
    ExecutionStatus.ERROR: "e",
    ExecutionStatus.CRASH: "c",
    ExecutionStatus.HANG: "h",
}
_CHAR_TO_STATUS = {char: status for status, char in _STATUS_TO_CHAR.items()}

#: a FAIL record's categories travel as indexes into these enums' orders
_INCOMPATIBILITY_TO_INDEX = {category: index for index, category in enumerate(IncompatibilityCategory)}
_INDEX_TO_INCOMPATIBILITY = dict(enumerate(IncompatibilityCategory))
_DIFFICULTY_TO_INDEX = {category: index for index, category in enumerate(DifficultyCategory)}
_INDEX_TO_DIFFICULTY = dict(enumerate(DifficultyCategory))


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
    """Query rows, column-major when rectangular.

    Rectangular results — every query result the engine produces — encode as
    ``{"n": row_count, "c": [per-column value arrays]}``; the decoder keeps
    that layout and hands it to the executor/comparison columnar paths without
    reassembling row lists.  Zero-width rows keep only the count; ragged rows
    (never produced by the engine, but representable) fall back to a
    row-major list-of-lists.  Outcomes decoded from a frame and never
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


# -- file frames ------------------------------------------------------------------

#: the head columns the section digest covers, in digest order
_HEAD_COLUMNS = ("path", "suite", "host", "ri", "oc", "rs", "er", "et", "cmp", "exe", "fc")


def _section_digest(head: dict, body: bytes) -> str:
    """Digest of one file's head columns and its serialized body document.

    The body's bytes are hashed as written, so encoding serializes the body
    once.  Only ``verify=True`` re-checks the digest: routine loads rely on
    the frame digest (:func:`unframe`), which covers every byte of both
    documents.
    """
    columns = json.dumps([head.get(name) for name in _HEAD_COLUMNS], ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(columns.encode("utf-8") + b"\n" + body).hexdigest()[:16]


def _encode_execution(position: int, execution: ExecutionOutcome, intern: _Interner) -> list:
    return [
        position,
        _STATUS_TO_CHAR[execution.status],
        [intern(column) for column in execution.columns],
        _encode_rows(execution, intern),
        _encode_rendered(execution, intern),
        intern(execution.error),
        intern(execution.error_type),
        intern(execution.statement),
    ]


def encode_file_result(file_result: FileResult, test_file: TestFile) -> bytes:
    """Serialize one :class:`FileResult` against its source ``test_file``."""
    records = test_file.records
    results = file_result.results
    record_indexes: list[int] = []
    cursor = 0
    for record_result in results:
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

    intern = _Interner()
    body_intern = _Interner()
    outcomes: list[str] = []
    reasons: list[int] = []
    errors: list[int] = []
    error_types: list[int] = []
    comparisons: list[list] = []
    executions: list[list] = []
    body_executions: list[list] = []
    categories: list[list] = []
    for position, record_result in enumerate(results):
        outcomes.append(_OUTCOME_TO_CHAR[record_result.outcome])
        if record_result.outcome is RecordOutcome.FAIL:
            incompatibility, difficulty = failure_categories(record_result)
            categories.append(
                [position, _INCOMPATIBILITY_TO_INDEX[incompatibility], _DIFFICULTY_TO_INDEX[difficulty]]
            )
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
            if record_result.outcome is RecordOutcome.PASS:
                body_executions.append(_encode_execution(position, execution, body_intern))
            else:
                executions.append(_encode_execution(position, execution, intern))

    head = {
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
        "fc": categories,
    }
    body = _document({"exe": body_executions}, body_intern)
    head["digest"] = _section_digest(head, body)
    return frame(FILE_RESULTS_NAMESPACE, _document(head, intern), body)


def _check_positions(entries: list, size: int, what: str) -> None:
    """``entries`` (``[position, ...]`` lists) sit at ascending positions below ``size``."""
    previous = -1
    for entry in entries:
        position = entry[0]
        if not previous < position < size:
            raise CodecError(f"file {what} positions are out of range or order")
        previous = position


def _parse(data: bytes, what: str) -> dict:
    """One JSON object of a frame; anything else is a :class:`CodecError`."""
    try:
        document = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CodecError(f"corrupt {what}: {error}") from error
    if not isinstance(document, dict):
        raise CodecError(f"{what} is not a JSON object")
    return document


def _parse_body(data: bytes) -> dict:
    body = _parse(data, "file body")
    if not isinstance(body.get("strs"), list) or not isinstance(body.get("exe"), list):
        raise CodecError("file body has no string table or executions")
    return body


class _FileFrame:
    """The lazy state of a loaded ``file-results`` frame, parked in ``FileResult._frame``.

    The constructor runs the head's shape checks, so a malformed head is a
    miss at load, and decodes the head's executions: as parsed JSON, a row
    value costs far more memory than decoded, so the frame keeps no parsed
    JSON document.  Records are built on demand — non-PASS ones from the
    head alone, FAIL ones with their stored categories — and kept, so
    materialising ``results`` reuses them.  The frame digest covers the
    body, so a body that fails to build can only come from an encoder bug;
    it raises :class:`CodecError` when it is built.
    """

    def __init__(self, head: dict, strings: list[str], body: bytes, records: list) -> None:
        try:
            outcomes = head["oc"]
            indexes = head["ri"]
            size = len(outcomes)
            if type(outcomes) is not str or not (
                len(indexes) == len(head["rs"]) == len(head["er"]) == len(head["et"]) == size
            ):
                raise CodecError("file head columns differ in length")
            if indexes and (min(indexes) < 0 or max(indexes) >= len(records)):
                raise CodecError("file head references records outside the test file")
            if not _OUTCOME_CHARS.issuperset(outcomes):
                raise CodecError("file head has unknown outcome characters")
            _check_positions(head["cmp"], size, "comparison")
            _check_positions(head["exe"], size, "execution")
            _check_positions(head["fc"], size, "category")
            if any(outcomes[entry[0]] == "P" for entry in head["exe"]):
                raise CodecError("file head holds the execution of a PASS record")
            self.identity = {name: strings[head[name]] for name in ("path", "suite", "host")}
            #: position -> ExecutionOutcome; PASS records' join with the body
            self.executions = {entry[0]: _decode_execution(entry, strings) for entry in head["exe"]}
            #: position -> (Table 6, Table 7) category of a FAIL record
            self.categories = {
                entry[0]: (_INDEX_TO_INCOMPATIBILITY[entry[1]], _INDEX_TO_DIFFICULTY[entry[2]]) for entry in head["fc"]
            }
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise CodecError(f"malformed file head: {type(error).__name__}: {error}") from error
        self.columns = (indexes, outcomes, head["rs"], head["er"], head["et"])
        self.comparisons = {entry[0]: entry for entry in head["cmp"]}
        self.strings = strings
        self.body: bytes | None = body  # None once joined
        self.records = records
        self.total = size
        self.counts = {outcome: outcomes.count(char) for outcome, char in _OUTCOME_TO_CHAR.items()}
        self.built: dict[int, RecordResult] = {}

    def _join_body(self) -> None:
        if self.body is None:
            return
        body = _parse_body(self.body)
        try:
            _check_positions(body["exe"], self.total, "body execution")
            if any(self.columns[1][entry[0]] != "P" for entry in body["exe"]):
                raise CodecError("file body holds the execution of a non-PASS record")
            strings = body["strs"]
            self.executions.update((entry[0], _decode_execution(entry, strings)) for entry in body["exe"])
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise CodecError(f"malformed file body: {type(error).__name__}: {error}") from error
        self.body = None

    def select(self, outcomes: tuple) -> list[RecordResult]:
        wanted = {_OUTCOME_TO_CHAR[outcome] for outcome in outcomes}
        column = self.columns[1]
        if not any(char in column for char in wanted):
            return []
        if "P" in wanted:
            self._join_body()
        return [self._build(position) for position, char in enumerate(column) if char in wanted]

    def results(self) -> list[RecordResult]:
        self._join_body()
        return [self._build(position) for position in range(self.total)]

    def _build(self, position: int) -> RecordResult:
        record_result = self.built.get(position)
        if record_result is not None:
            return record_result
        indexes, outcomes, reasons, errors, error_types = self.columns
        strings = self.strings
        try:
            comparison = None
            entry = self.comparisons.get(position)
            if entry is not None:
                comparison = ComparisonResult.__new__(ComparisonResult)
                comparison.__dict__ = {
                    "matches": bool(entry[1]),
                    "reason": strings[entry[2]],
                    "expected_preview": [strings[index] for index in entry[4]],
                    "actual_preview": [strings[index] for index in entry[5]],
                    "mismatch_kind": strings[entry[3]],
                }
            # dataclasses are built around __init__: plain __dict__ instances
            # are field-for-field identical (same equality, canonical bytes
            # and pickle) at a fraction of the constructor cost
            record_result = RecordResult.__new__(RecordResult)
            record_result.__dict__ = {
                "record": self.records[indexes[position]],
                "outcome": _CHAR_TO_OUTCOME[outcomes[position]],
                "reason": strings[reasons[position]],
                "error": strings[errors[position]],
                "error_type": strings[error_types[position]],
                "comparison": comparison,
                "execution": self.executions.get(position),
            }
            categories = self.categories.get(position)
            if categories is not None:
                record_result.__dict__["_categories"] = categories
        except (IndexError, KeyError, TypeError) as error:
            raise CodecError(f"malformed file frame: {type(error).__name__}: {error}") from error
        self.built[position] = record_result
        return record_result


def _decode_execution(entry: list, strings: list[str]) -> ExecutionOutcome:
    state = {
        "status": _CHAR_TO_STATUS[entry[1]],
        "columns": [strings[index] for index in entry[2]],
        "error": strings[entry[5]],
        "error_type": strings[entry[6]],
        "statement": strings[entry[7]],
    }
    raw_rows = entry[3]
    if type(raw_rows) is dict:
        # column-major: keep the columnar layout; ``rows`` materialises
        # lazily (ExecutionOutcome.__getattr__) and comparison consumes the
        # columns directly
        state["_row_count"] = raw_rows["n"]
        raw_columns = raw_rows.get("c")
        if raw_columns is not None:
            state["_row_columns"] = [[_decode_value(value, strings) for value in column] for column in raw_columns]
    else:
        state["rows"] = [[_decode_value(value, strings) for value in row] for row in raw_rows]
    raw_rendered = entry[4]
    if type(raw_rendered) is dict:
        state["_render_style"] = strings[raw_rendered["y"]]
    else:
        state["rendered"] = [[strings[index] for index in row] for row in raw_rendered]
    execution = ExecutionOutcome.__new__(ExecutionOutcome)
    execution.__dict__ = state
    return execution


# -- framing ----------------------------------------------------------------------

#: magic, version byte, 8-byte payload digest
_HEADER_BYTES = len(MAGIC) + 9


def _json(document: dict) -> bytes:
    """Compact JSON: escapes every newline, so it never holds a raw one."""
    return json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _document(document: dict, intern: _Interner) -> bytes:
    """One compact JSON document with its string table."""
    document["strs"] = intern.strings
    return _json(document)


def frame(kind: str, *documents: bytes) -> bytes:
    """One store artifact: ``documents`` framed as a ``kind`` payload.

    The payload is the kind, then each document, newline-separated, so only
    the last document may hold a raw newline.  It is zlib-compressed behind
    the magic, the codec version byte and an 8-byte digest of the payload.
    """
    payload = b"\n".join((kind.encode("utf-8"), *documents))
    digest = hashlib.sha256(payload).digest()[:8]
    return MAGIC + bytes([CODEC_VERSION]) + digest + zlib.compress(payload, _ZLIB_LEVEL)


def unframe(blob: Any, kind: str) -> bytes:
    """The documents of a ``kind`` frame, once its header, digest and kind check out.

    Anything else — not bytes, truncated, another codec version, a corrupt
    zlib stream, a digest mismatch, a frame of another kind — raises
    :class:`CodecError`.  The store's audit runs this check alone, so it
    verifies every file without decoding what the frame holds.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise CodecError(f"expected codec bytes, got {type(blob).__name__}")
    if len(blob) < _HEADER_BYTES:
        raise CodecError("truncated codec frame (shorter than its header)")
    if blob[: len(MAGIC)] != MAGIC:
        raise CodecError("not a codec frame (bad magic)")
    version = blob[len(MAGIC)]
    if version != CODEC_VERSION:
        raise CodecError(f"codec version {version} != {CODEC_VERSION}")
    try:
        payload = zlib.decompress(blob[_HEADER_BYTES:])
    except zlib.error as error:
        raise CodecError(f"corrupt codec payload: {error}") from error
    if hashlib.sha256(payload).digest()[:8] != blob[len(MAGIC) + 1 : _HEADER_BYTES]:
        raise CodecError("codec payload digest mismatch")
    stored_kind, _, documents = payload.partition(b"\n")
    if stored_kind != kind.encode("utf-8"):
        raise CodecError(f"codec frame of kind {stored_kind.decode('utf-8', 'replace')!r} is not a {kind!r} frame")
    return documents


# -- public API -------------------------------------------------------------------


def decode_file_result(blob: bytes, test_file: TestFile, verify: bool = False) -> FileResult:
    """Load a :class:`FileResult`, reattaching records from ``test_file``.

    Only the frame head is parsed: the result answers its counters,
    ``total``, ``failures()`` and ``select()`` from the head, and builds
    ``results`` from the body on first access.  ``verify=True`` builds
    ``results`` at once and re-checks the section digest over the head
    columns and the body document (debugging / test aid; the frame digest
    already covers the same bytes).
    """
    head_bytes, separator, body = unframe(blob, FILE_RESULTS_NAMESPACE).partition(b"\n")
    if not separator:
        raise CodecError("file frame has no body document")
    head = _parse(head_bytes, "file head")
    strings = head.get("strs")
    if not isinstance(strings, list):
        raise CodecError("file head has no string table")
    if verify and _section_digest(head, body) != head.get("digest"):
        raise CodecError("file section does not match its stored digest")
    lazy = _FileFrame(head, strings, body, test_file.records)
    file_result = FileResult.__new__(FileResult)
    file_result.__dict__ = {**lazy.identity, "_outcome_counts": {}, "_counted": 0, "_counted_list": None, "_frame": lazy}
    if verify:
        file_result.results  # noqa: B018 - build every record now
    return file_result


def encode_document(kind: str, document: dict) -> bytes:
    """Frame one small JSON ``document`` as a ``kind`` artifact.

    The frame of every store client but ``file-results`` and
    ``corpus-suites``: analysis partials, donor recordings and the bug
    probes.  Tuples come back as lists and keys as strings, so clients store
    documents built from JSON types.
    """
    return frame(kind, _json(document))


def decode_document(blob: bytes, kind: str) -> dict:
    """The document :func:`encode_document` framed as ``kind``; any other frame is a :class:`CodecError`."""
    return _parse(unframe(blob, kind), f"{kind} document")


def save_checked(store: "ArtifactStore", namespace: str, key: dict, write: Callable, *args) -> bytes | None:
    """Save ``write(*args)`` under ``key`` and return the frame stored, or None.

    A value the codec rejects is not stored, and neither is one the store
    fails to write; both return None.  An unencodable value is no error:
    reuse simply does not extend to it.
    """
    try:
        blob = write(*args)
    except CodecError:
        return None
    return blob if store.save(namespace, key, blob) else None


def fault_reports_for(result: SuiteResult, host: str) -> tuple[list[FaultReport], list[FaultReport]]:
    """(crashes, hangs) extracted from a suite result, as ``run_transplant`` does.

    Fault reports are pure projections of the per-record results, so the codec
    never stores them — decoding recomputes them, bit-for-bit, from the frame
    heads alone.
    """
    crashes: list[FaultReport] = []
    hangs: list[FaultReport] = []
    for file_result in result.files:
        for record_result in file_result.select(RecordOutcome.CRASH, RecordOutcome.HANG):
            crash = record_result.outcome is RecordOutcome.CRASH
            (crashes if crash else hangs).append(
                FaultReport(
                    dbms=host, kind="crash" if crash else "hang", statement=record_result.sql, message=record_result.error
                )
            )
    return crashes, hangs
