"""``repro.formats`` — the registry-driven native test-format subsystem.

One :class:`~repro.formats.base.FormatParser` subclass per format, registered
with :func:`register_format`; everything else in the library resolves formats
exclusively through this package:

* :func:`get_format` / :func:`available_formats` — name-based lookup,
* :func:`detect_format` — extension + content sniffing when no name is given,
* :func:`parse_test_file` / :func:`parse_test_text` — the parsing entry points
  (``suite_format=None`` auto-detects).

The four shipped formats mirror the paper's subject suites: ``slt`` (SQLite's
sqllogictest), ``duckdb`` (SLT dialect with runner extensions), ``postgres``
(regression scripts + ``.out`` transcripts), ``mysql`` (mysqltest scripts +
``.result`` transcripts).  Adding a fifth format is a single module — see
docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import os

from repro.core.records import TestFile
from repro.errors import TestFormatError
from repro.formats.base import FormatParser, SLT_CONTROL_COMMANDS
from repro.formats.registry import (
    available_formats,
    detect_format,
    get_format,
    register_format,
    registered_parsers,
)

# Importing the format modules registers the four shipped parsers.
from repro.formats.slt import SLTFormat
from repro.formats.duckdb import DuckDBFormat
from repro.formats.postgres import PostgresFormat
from repro.formats.mysql import MySQLFormat


def _detect_for_file(path: str, text: str) -> FormatParser:
    """Detection with the blank-file tolerance file loading needs.

    Blank / comment-only files sniff to nothing but are valid (and empty) in
    every format claiming their extension, so they fall back to the first
    claimant instead of failing; genuinely unrecognisable content still
    raises.
    """
    try:
        return detect_format(path=path, text=text)
    except TestFormatError:
        if any(line.strip() and not line.lstrip().startswith(("#", "--")) for line in text.splitlines()):
            raise
        extension = os.path.splitext(path)[1].lower()
        for candidate in registered_parsers():
            if extension in candidate.extensions:
                return candidate
        raise


def parse_test_file(path: str, suite_format: str | None = None, suite: str | None = None) -> TestFile:
    """Parse the test file at ``path``; auto-detect the format when unnamed."""
    if suite_format:
        return get_format(suite_format).parse_file(path, suite=suite)
    # auto-detect: read once, reusing the text for sniffing and parsing
    text = FormatParser.read_text(path)
    parser = _detect_for_file(path, text)
    return parser.parse_text(text, companion=parser.load_companion(path), path=path, suite=suite)


def parse_test_text(
    text: str,
    suite_format: str | None = None,
    path: str = "<memory>",
    companion: str | None = None,
    suite: str | None = None,
) -> TestFile:
    """Parse in-memory test text; auto-detect the format when unnamed.

    ``companion`` is the format's expected-output transcript (a PostgreSQL
    ``.out`` or MySQL ``.result`` text), ``suite`` the label the parsed file
    carries (the format's canonical name when None).
    """
    parser = get_format(suite_format) if suite_format else detect_format(path=path if path != "<memory>" else None, text=text)
    return parser.parse_text(text, companion=companion, path=path, suite=suite)


__all__ = [
    "FormatParser",
    "SLT_CONTROL_COMMANDS",
    "SLTFormat",
    "DuckDBFormat",
    "PostgresFormat",
    "MySQLFormat",
    "register_format",
    "get_format",
    "available_formats",
    "registered_parsers",
    "detect_format",
    "parse_test_file",
    "parse_test_text",
]
