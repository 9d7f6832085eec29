"""Loading a directory of native-format test files into the unified IR.

Formats are resolved exclusively through the :mod:`repro.formats` registry,
which is also where single files and in-memory text parse
(:func:`repro.formats.parse_test_file` / :func:`repro.formats.parse_test_text`);
passing ``suite_format=None`` auto-detects the format per file via
:func:`repro.formats.detect_format`.
"""

from __future__ import annotations

import os

from repro.core.records import TestSuite


def load_suite(
    directory: str,
    suite_format: str | None = None,
    name: str | None = None,
) -> TestSuite:
    """Load every test file under ``directory`` in the given native format.

    With ``suite_format=None`` every registered format's extensions are
    collected and each file's format is sniffed individually.  Expected output
    files (``.out`` / ``.result``) are paired automatically by the per-format
    parsers and are not loaded as test files themselves.
    """
    from repro.formats import get_format, parse_test_file as _parse_detected, registered_parsers

    if suite_format is None:
        parser = None
        extensions = tuple({extension for candidate in registered_parsers() for extension in candidate.extensions})
    else:
        parser = get_format(suite_format)
        extensions = parser.extensions
    suite = TestSuite(name=name or suite_format or "detected")
    paths: list[str] = []
    for root, _dirs, files in os.walk(directory):
        if os.path.basename(root) in ("expected", "r"):
            continue  # output directories of the PostgreSQL / MySQL layouts
        for filename in sorted(files):
            if filename.endswith(extensions):
                paths.append(os.path.join(root, filename))
    paths.sort()
    for path in paths:
        # suite labels stay the parser's canonical name (the seed behaviour:
        # "sqlite"/"postgresql" aliases still label files "slt"/"postgres")
        if parser is not None:
            suite.files.append(parser.parse_file(path))
        else:
            suite.files.append(_parse_detected(path))
    return suite
