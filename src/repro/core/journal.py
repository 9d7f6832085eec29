"""Campaign write-ahead journal: durable progress records for crash recovery.

A campaign that dies mid-flight (SIGKILL, OOM, power loss) loses every piece
of in-memory coordination state.  The journal makes campaign progress durable: an
append-only JSONL file, one fsync'd line per event, recording which matrix
cells started and finished (and which per-file artifacts they produced).
Replaying the journal after a crash reconstructs exactly where the campaign
stood, and a resumed ``run_matrix(journal=...)`` re-enters only the cells
the journal does not show as complete — the per-file ``file-results``
artifacts the dead process already persisted make that re-entry cost only
the files that were genuinely in flight.

Identity and placement:

* A campaign is identified by :func:`campaign_id` — the SHA-256 of the
  canonical matrix spec (suite content hashes, hosts, tolerance, translation
  switch, record cap) plus the store's code fingerprint.  Two processes
  running the same campaign against the same store derive the same id; a
  code change or a different matrix derives a different one, and opening a
  journal whose recorded id does not match raises
  :class:`~repro.errors.JournalMismatchError` instead of mixing campaigns.
* By default journals live under the store (``<store root>/journals/``),
  one file per campaign id, so ``--resume-from <dir>`` can point at the
  directory and each campaign of a multi-matrix run (plain + translated)
  finds its own journal.

Durability and torn tails:

* :meth:`CampaignJournal.append` writes one complete JSON line, flushes, and
  ``fsync``s before returning — an event the caller observed as journaled
  survives any subsequent crash.
* A crash *during* an append leaves a torn final line.
  :func:`replay_journal` tolerates exactly that — the final line (and only
  the final line) may be incomplete, and reads as "this event never
  happened"; garbage anywhere earlier is real corruption and raises
  :class:`~repro.errors.JournalError`.  Re-opening a torn journal truncates
  the tail before appending, so the file never accumulates mid-file garbage.

The journal is append-only history, not a deduplicated state table: a
resumed campaign appends fresh events for the cells it re-enters, and replay
folds the history into current state (the last ``cell-finish`` per cell
wins).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import JournalError, JournalMismatchError
from repro.killpoints import kill_point
from repro.store.keys import canonical_bytes, suite_content_hash

#: Journal line-format version; bump on incompatible event-shape changes.
JOURNAL_VERSION = 1

#: Subdirectory of the store root where default-placed journals live.
JOURNAL_DIRNAME = "journals"


def campaign_spec(
    suites: "dict[str, Any]",
    hosts: tuple[str, ...],
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    max_records_per_file: int | None = None,
) -> dict:
    """The canonical description of one ``run_matrix`` campaign.

    Suites join by *content hash*, not by name alone: a campaign over a
    regenerated-but-identical corpus is the same campaign (and may resume a
    journal the previous process wrote), while an edited corpus is a new
    one.  ``workers``/``executor`` are deliberately absent — sharding cannot
    change a campaign's results, so it must not change its identity.
    """
    return {
        "suites": {name: suite_content_hash(suite) for name, suite in suites.items()},
        "hosts": list(hosts),
        "float_tolerance": float_tolerance,
        "translate": bool(translate_dialect),
        "max_records_per_file": max_records_per_file,
    }


def campaign_id(spec: dict, fingerprint: str) -> str:
    """Stable identity of one campaign: matrix spec + store code fingerprint."""
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\0")
    digest.update(canonical_bytes(spec))
    return digest.hexdigest()


def journal_path(directory: "str | os.PathLike", campaign: str) -> Path:
    """The journal file for ``campaign`` inside a journals directory."""
    return Path(directory) / f"campaign-{campaign[:16]}.jsonl"


@dataclass
class JournalReplay:
    """The state a journal's event history folds into.

    ``completed`` holds the ``(suite, host)`` cells whose *latest*
    ``cell-finish`` reported ``complete`` (no infrastructure degradation);
    ``started`` holds every cell that ever logged a ``cell-start``.  A cell
    in ``started`` but not ``completed`` was in flight (or degraded) when
    the writing process stopped — resume re-enters it.  ``files`` maps each
    cell to the artifact digests its journaled files produced.
    """

    path: Path
    campaign: str | None = None
    spec: dict | None = None
    fingerprint: str | None = None
    started: set = field(default_factory=set)
    completed: set = field(default_factory=set)
    files: dict = field(default_factory=dict)
    events: int = 0
    #: True when the file ended in a torn (partially-written) final line
    torn_tail: bool = False
    #: byte offset of the end of the last intact line (0 for an empty file);
    #: re-opening truncates here before appending
    valid_bytes: int = 0

    def incomplete_cells(self) -> list[tuple[str, str]]:
        """Cells that started but never finished cleanly, in sorted order."""
        return sorted(self.started - self.completed)


def replay_journal(path: "str | os.PathLike") -> JournalReplay:
    """Fold a journal file's history into a :class:`JournalReplay`.

    Tolerates a torn final line (the crash-mid-append signature): the torn
    bytes read as "no event".  Anything else that fails to parse — garbage
    on an interior line, a non-header first line — raises
    :class:`~repro.errors.JournalError`; a journal that misleads resume is
    worse than one that refuses.
    """
    path = Path(path)
    replay = JournalReplay(path=path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return replay
    cut = raw.rfind(b"\n") + 1
    replay.valid_bytes = cut
    replay.torn_tail = cut < len(raw)
    for number, line in enumerate(raw[:cut].split(b"\n")[:-1], start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as error:
            raise JournalError(f"corrupt journal {path}: unparseable line {number}: {error}") from error
        if not isinstance(event, dict) or "event" not in event:
            raise JournalError(f"corrupt journal {path}: line {number} is not an event object")
        _fold_event(replay, event, number)
    return replay


def _fold_event(replay: JournalReplay, event: dict, number: int) -> None:
    kind = event["event"]
    if replay.campaign is None:
        if kind != "campaign":
            raise JournalError(f"corrupt journal {replay.path}: line {number} precedes the campaign header")
        for required in ("campaign", "spec", "fingerprint"):
            if required not in event:
                raise JournalError(f"corrupt journal {replay.path}: campaign header lacks {required!r}")
        replay.campaign = event["campaign"]
        replay.spec = event["spec"]
        replay.fingerprint = event["fingerprint"]
        replay.events += 1
        return
    replay.events += 1
    if kind == "campaign":
        # a resumed process re-opens the journal and re-asserts the header;
        # CampaignJournal.open verified the id, so nothing to fold
        return
    cell = (event.get("suite"), event.get("host"))
    if kind == "cell-start":
        replay.started.add(cell)
        # re-entering a cell supersedes its previous finish: until the new
        # finish lands, the cell is in flight again
        replay.completed.discard(cell)
    elif kind == "cell-finish":
        replay.started.add(cell)
        if event.get("complete"):
            replay.completed.add(cell)
        else:
            replay.completed.discard(cell)
    elif kind == "file-finish":
        artifact = event.get("artifact")
        if artifact is not None:
            replay.files.setdefault(cell, []).append(artifact)
    # unknown event kinds are tolerated (forward compatibility): they were
    # intact lines, so they are history — just history this reader ignores


def open_campaign_journal(setting: "bool | str | os.PathLike", store, spec: dict) -> "CampaignJournal":
    """Open the journal a ``journal=`` setting names for the campaign ``spec``.

    ``True`` keeps it under ``store`` (``<store root>/journals/``); a
    ``.jsonl`` path (or an existing file) names the file outright; any other
    path is a journals directory holding one file per campaign.  ``store``
    (an :class:`~repro.store.ArtifactStore`) supplies the fingerprint the
    campaign id embeds.
    """
    if setting is True:
        return CampaignJournal.open_in(Path(store.root) / JOURNAL_DIRNAME, spec, store.fingerprint)
    path = Path(setting)
    if path.suffix == ".jsonl" or path.is_file():
        return CampaignJournal.open(path, spec, store.fingerprint)
    return CampaignJournal.open_in(path, spec, store.fingerprint)


class CampaignJournal:
    """An open, append-only campaign journal (one campaign, one file).

    Use :meth:`open` — it derives the campaign id, validates any existing
    journal against it, truncates a torn tail, and writes the header for a
    fresh file.  :meth:`append` is durable: the line is flushed and fsync'd
    before the call returns.  Appends are serialized by an internal lock, so
    each :meth:`append_many` batch lands as one contiguous fsync'd block even
    when several threads share a journal.
    """

    def __init__(self, path: Path, campaign: str, spec: dict, fingerprint: str, handle: "io.BufferedWriter", replay: JournalReplay):
        self.path = path
        self.campaign = campaign
        self.spec = spec
        self.fingerprint = fingerprint
        #: the journal's state as of opening — what a resume should skip
        self.replay = replay
        self._handle = handle
        self._lock = threading.Lock()

    @classmethod
    def open(cls, path: "str | os.PathLike", spec: dict, fingerprint: str) -> "CampaignJournal":
        """Open (or create) the journal at ``path`` for this campaign.

        An existing journal is replayed and its recorded campaign id checked
        against ``campaign_id(spec, fingerprint)`` — a mismatch raises
        :class:`~repro.errors.JournalMismatchError`.  A torn final line is
        truncated away; a fresh (or empty) file gets the campaign header.
        """
        path = Path(path)
        campaign = campaign_id(spec, fingerprint)
        replay = replay_journal(path)
        if replay.campaign is not None and replay.campaign != campaign:
            raise JournalMismatchError(
                f"journal {path} records campaign {replay.campaign[:16]}..., "
                f"but this campaign is {campaign[:16]}... — wrong matrix, store, or code version"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "ab")
        try:
            if replay.torn_tail:
                # drop the half-written final line so the next append starts
                # on a clean boundary (mid-file garbage would read as corrupt)
                handle.truncate(replay.valid_bytes)
                handle.seek(0, os.SEEK_END)
            journal = cls(path, campaign, spec, fingerprint, handle, replay)
            if replay.campaign is None:
                journal.append(
                    {
                        "event": "campaign",
                        "campaign": campaign,
                        "spec": spec,
                        "fingerprint": fingerprint,
                        "version": JOURNAL_VERSION,
                    }
                )
            return journal
        except BaseException:
            handle.close()
            raise

    @classmethod
    def open_in(cls, directory: "str | os.PathLike", spec: dict, fingerprint: str) -> "CampaignJournal":
        """Open this campaign's journal inside a journals directory."""
        return cls.open(journal_path(directory, campaign_id(spec, fingerprint)), spec, fingerprint)

    # -- appends -----------------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Durably append one event line (write + flush + fsync)."""
        self.append_many([event])

    def append_many(self, events: "list[dict]") -> None:
        """Durably append several event lines under a single fsync.

        Batching matters for per-file events: one fsync per cell instead of
        one per file keeps journaling cost proportional to cells.
        """
        if not events:
            return
        payload = b"".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n" for event in events
        )
        with self._lock:
            if self._handle.closed:
                raise JournalError(f"journal {self.path} is closed")
            try:
                self._handle.write(payload)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as error:
                raise JournalError(f"journal {self.path} append failed: {error}") from error
        kill_point("journal-append")

    def cell_started(self, suite: str, host: str) -> None:
        self.append({"event": "cell-start", "suite": suite, "host": host})

    def cell_finished(self, suite: str, host: str, complete: bool, files: "list[dict] | None" = None) -> None:
        """Journal one cell's completion, batching its per-file events.

        ``files`` is a list of per-file event payloads — dicts with ``path``
        and ``artifact`` (the ``file-results`` store digest) keys — journaled
        as ``file-finish`` lines in the same durable batch; None for
        storeless or degraded cells.
        """
        events: list[dict] = [
            {"event": "file-finish", "suite": suite, "host": host, **entry} for entry in (files or [])
        ]
        events.append({"event": "cell-finish", "suite": suite, "host": host, "complete": bool(complete)})
        self.append_many(events)

    # -- state -------------------------------------------------------------------------

    def is_cell_complete(self, suite: str, host: str) -> bool:
        """Whether the journal (as of opening) records this cell complete."""
        return (suite, host) in self.replay.completed

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CampaignJournal {self.path} campaign={self.campaign[:16]} completed={len(self.replay.completed)}>"
