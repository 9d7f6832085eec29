"""The :class:`FormatParser` base class: one subclass per native test format.

Every test-suite format SQuaLity understands (SLT, DuckDB, PostgreSQL
regression, MySQL Test Framework — the paper's four subject suites) is a
:class:`FormatParser` subclass registered with
:func:`repro.formats.registry.register_format`.  The base class centralises
everything the four seed parsers used to re-implement independently:

* file reading (UTF-8 with replacement, consistent across formats),
* companion expected-output discovery (``.out`` / ``.result`` files, looked up
  next to the test file and in the sibling directories the real suites use),
* streaming block iteration (:meth:`iter_blocks` — records separated by blank
  lines, comment lines dropped, 1-based line numbers preserved),
* ``skipif`` / ``onlyif`` condition handling and control-record assembly,
* content sniffing hooks used by :func:`repro.formats.detect_format`.

Adding a fifth format is one module: subclass, set ``name`` / ``extensions``,
implement :meth:`parse_text` (and optionally :meth:`sniff`), and decorate with
``@register_format``.
"""

from __future__ import annotations

import hashlib
import os
import re
from abc import ABC, abstractmethod
from typing import Iterator

from repro.core.records import Condition, ControlRecord, TestFile

#: Recognises SLT-family record headers (``statement ok`` / ``query I`` …).
#: Shared negative signal for the MySQL and PostgreSQL sniffers — content with
#: these directives is never an mtr or psql script — and the positive core of
#: the SLT sniffer, so the detectors cannot drift apart.
SLT_DIRECTIVE_PATTERN = re.compile(r"^(statement\s+(ok|error)\b|query\s+\S+)")

#: Control-record command words shared by the SLT format family (SQLite's
#: runner plus the DuckDB extensions).  Exposed here because several formats
#: and the RQ1 feature census consult the same vocabulary.
SLT_CONTROL_COMMANDS = {
    "halt",
    "hash-threshold",
    "mode",
    "set",
    "sleep",
    "restart",
    "reconnect",
    "load",
    "require",
    "loop",
    "endloop",
    "foreach",
    "endfor",
    "unzip",
    "include",
}

#: MySQL Test Framework command words that appear after a ``--`` prefix.
#: Shared by the MySQL sniffer (positive signal) and the PostgreSQL sniffer
#: (negative signal: mtr command lines must not count as psql comments), so
#: the two detectors can never drift apart.
MTR_COMMAND_WORDS = {
    "disable_warnings",
    "enable_warnings",
    "disable_query_log",
    "enable_query_log",
    "disable_result_log",
    "enable_result_log",
    "error",
    "echo",
    "source",
    "sleep",
    "send",
    "reap",
    "let",
    "eval",
    "exit",
    "die",
}


def _source_digest(*parts: str | None) -> bytes:
    """SHA-256 over ``parts``, each length-prefixed; ``None`` has its own marker."""
    digest = hashlib.sha256()
    for part in parts:
        if part is None:
            digest.update(b"n")
            continue
        data = part.encode("utf-8", "surrogatepass")
        digest.update(b"s" + len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.digest()


class FormatParser(ABC):
    """Parses one native test-file format into the unified IR.

    Subclasses are stateless: one shared instance per registered format lives
    in the registry, and every ``parse_*`` call is independent.
    """

    #: canonical lowercase format name, e.g. ``"slt"``
    name: str = "abstract"
    #: alternative names accepted by :func:`repro.formats.get_format`
    aliases: tuple[str, ...] = ()
    #: file extensions the format claims (used by suite loading and detection)
    extensions: tuple[str, ...] = ()
    #: one-line human description (shown by ``--list-formats``)
    description: str = ""
    #: suffix of the companion expected-output file (``".out"``, ``".result"``)
    companion_suffix: str | None = None
    #: sibling directories searched for the companion file (``"expected"``, ``"r"``)
    companion_dirs: tuple[str, ...] = ()

    # -- the format-specific part ------------------------------------------------------

    @abstractmethod
    def parse_text(
        self,
        text: str,
        companion: str | None = None,
        path: str = "<memory>",
        suite: str | None = None,
    ) -> TestFile:
        """Parse in-memory ``text`` (plus optional companion transcript)."""

    def sniff(self, text: str) -> float:
        """Score how strongly ``text`` looks like this format (0.0 = not at all).

        Scores are compared across formats by :func:`repro.formats.detect_format`;
        they only need a consistent relative ordering, not calibration.
        """
        return 0.0

    # -- shared file handling ----------------------------------------------------------

    def parse_file(self, path: str, suite: str | None = None) -> TestFile:
        """Parse the test file at ``path``, pairing its companion if present."""
        return self.parse_text(
            self.read_text(path),
            companion=self.load_companion(path),
            path=path,
            suite=suite,
        )

    @staticmethod
    def read_text(path: str) -> str:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def companion_candidates(self, path: str) -> list[str]:
        """Paths where the expected-output companion of ``path`` may live."""
        if self.companion_suffix is None:
            return []
        base = os.path.splitext(os.path.basename(path))[0]
        directory = os.path.dirname(path)
        candidates = [os.path.splitext(path)[0] + self.companion_suffix]
        for sibling in self.companion_dirs:
            candidates.append(os.path.join(directory, "..", sibling, base + self.companion_suffix))
            candidates.append(os.path.join(directory, sibling, base + self.companion_suffix))
        return candidates

    def load_companion(self, path: str) -> str | None:
        for candidate in self.companion_candidates(path):
            if os.path.exists(candidate):
                return self.read_text(candidate)
        return None

    # -- shared record-stream machinery ------------------------------------------------

    @staticmethod
    def iter_blocks(text: str) -> Iterator[tuple[int, list[str]]]:
        """Stream ``(first_line_number, lines)`` blocks of consecutive non-blank lines.

        Line numbers are 1-based.  Comment-only lines (starting with ``#``)
        are dropped, but a trailing comment after a directive
        (``onlyif mysql # DIV for integer division``) is kept for
        :meth:`strip_comment` to remove later.  This is a generator so huge
        suite files never need to be block-split eagerly.
        """
        current: list[str] = []
        start = 0
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.rstrip("\n")
            if stripped.strip() == "":
                if current:
                    yield start, current
                    current = []
                continue
            if stripped.lstrip().startswith("#"):
                continue
            if not current:
                start = number
            current.append(stripped)
        if current:
            yield start, current

    @staticmethod
    def strip_comment(line: str) -> str:
        """Remove a trailing ``# comment`` from a directive line."""
        if "#" in line:
            return line.split("#", 1)[0].rstrip()
        return line

    @staticmethod
    def parse_condition(words: list[str]) -> Condition | None:
        """Interpret a directive as a ``skipif``/``onlyif`` guard, if it is one."""
        if len(words) >= 2 and words[0].lower() in ("skipif", "onlyif"):
            return Condition(kind=words[0].lower(), dbms=words[1].lower())
        return None

    @staticmethod
    def control_record(line: int, raw: str, conditions: list[Condition], words: list[str]) -> ControlRecord:
        """Assemble a :class:`ControlRecord` from a directive line's words."""
        return ControlRecord(
            line=line,
            raw=raw,
            conditions=list(conditions),
            command=words[0].lower() if words else "",
            arguments=words[1:],
        )

    def new_test_file(self, text: str, path: str, suite: str | None, companion: str | None = None) -> TestFile:
        """A :class:`TestFile` shell with the format's default suite name.

        Only parsers of the ``repro`` package stamp it with a digest of the
        parse inputs (see :class:`TestFile`): the code fingerprint in every
        store key covers no other parser code.
        """
        test_file = TestFile(path=path, suite=suite or self.name, source_lines=len(text.splitlines()))
        if type(self).__module__.startswith("repro."):
            test_file._source_digest = _source_digest(self.name, path, test_file.suite, text, companion)
        return test_file

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FormatParser {self.name} extensions={self.extensions}>"
