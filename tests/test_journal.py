"""Write-ahead journal invariants: durability, torn tails, campaign identity.

The journal's crash-safety contract has three legs, each pinned here:

* **Torn tails are incomplete, never corrupt** — a crash mid-append leaves a
  partially-written final line, and replay must read it as "this event never
  happened" at *every* possible truncation offset, because SIGKILL does not
  choose a polite byte to die on.
* **Replay is a pure fold** — replaying the same file twice gives the same
  state, and re-opening a torn journal truncates the tail so appends resume
  on a clean line boundary.
* **Identity is enforced** — a journal belongs to one campaign (matrix spec
  + store fingerprint); opening it for any other campaign refuses instead of
  silently mixing progress.
"""

from __future__ import annotations

import json

import pytest

from repro.core.journal import (
    JOURNAL_DIRNAME,
    CampaignJournal,
    campaign_id,
    campaign_spec,
    journal_path,
    replay_journal,
)
from repro.corpus import build_suite
from repro.errors import JournalError, JournalMismatchError

FINGERPRINT = "test-fingerprint"


@pytest.fixture(scope="module")
def tiny_suites():
    return {"slt": build_suite("slt", file_count=2, records_per_file=3, seed=5, store=None)}


@pytest.fixture
def spec(tiny_suites):
    return campaign_spec(tiny_suites, ("sqlite",))


def _journal_with_history(path, spec):
    with CampaignJournal.open(path, spec, FINGERPRINT) as journal:
        journal.cell_started("slt", "sqlite")
        journal.cell_finished(
            "slt",
            "sqlite",
            complete=True,
            files=[{"path": "slt/f0.test", "artifact": "b" * 64}],
        )
        journal.cell_started("slt", "postgres")
    return path


class TestReplay:
    def test_folds_history_into_state(self, tmp_path, spec):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        replay = replay_journal(path)
        assert replay.campaign == campaign_id(spec, FINGERPRINT)
        assert replay.completed == {("slt", "sqlite")}
        assert replay.started == {("slt", "sqlite"), ("slt", "postgres")}
        assert replay.incomplete_cells() == [("slt", "postgres")]
        assert replay.files[("slt", "sqlite")] == ["b" * 64]
        assert not replay.torn_tail

    def test_replay_is_idempotent(self, tmp_path, spec):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        first, second = replay_journal(path), replay_journal(path)
        assert first.completed == second.completed
        assert first.started == second.started
        assert first.files == second.files
        assert first.events == second.events
        assert first.valid_bytes == second.valid_bytes

    def test_missing_file_is_empty_state(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.campaign is None
        assert replay.events == 0
        assert not replay.torn_tail

    def test_reentry_supersedes_completion(self, tmp_path, spec):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, spec, FINGERPRINT) as journal:
            journal.cell_started("slt", "sqlite")
            journal.cell_finished("slt", "sqlite", complete=True)
            journal.cell_started("slt", "sqlite")  # resumed process re-enters
        assert replay_journal(path).incomplete_cells() == [("slt", "sqlite")]

    def test_incomplete_finish_is_not_completion(self, tmp_path, spec):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, spec, FINGERPRINT) as journal:
            journal.cell_started("slt", "sqlite")
            journal.cell_finished("slt", "sqlite", complete=False)
        replay = replay_journal(path)
        assert replay.completed == set()
        assert replay.incomplete_cells() == [("slt", "sqlite")]

    def test_unknown_event_kinds_are_tolerated(self, tmp_path, spec):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        with open(path, "ab") as handle:
            handle.write(json.dumps({"event": "from-the-future", "x": 1}).encode() + b"\n")
        replay = replay_journal(path)
        assert replay.completed == {("slt", "sqlite")}


class TestTornTails:
    def test_truncation_at_every_byte_offset_is_incomplete_not_corrupt(self, tmp_path, spec):
        """SIGKILL does not choose a polite byte: any prefix must replay."""
        source = _journal_with_history(tmp_path / "full.jsonl", spec)
        raw = source.read_bytes()
        reference = replay_journal(source)
        target = tmp_path / "torn.jsonl"
        for cut in range(len(raw) + 1):
            target.write_bytes(raw[:cut])
            replay = replay_journal(target)  # must never raise
            assert replay.valid_bytes <= cut
            assert replay.torn_tail == (replay.valid_bytes < cut)
            assert replay.events <= reference.events
            # state from a prefix is a prefix of the full state
            assert replay.started <= reference.started

    def test_reopen_truncates_torn_tail_and_resumes_cleanly(self, tmp_path, spec):
        source = _journal_with_history(tmp_path / "j.jsonl", spec)
        raw = source.read_bytes()
        source.write_bytes(raw + b'{"event": "cell-fin')  # crash mid-append
        assert replay_journal(source).torn_tail
        with CampaignJournal.open(source, spec, FINGERPRINT) as journal:
            journal.cell_finished("slt", "postgres", complete=True)
        replay = replay_journal(source)
        assert not replay.torn_tail
        assert replay.completed == {("slt", "sqlite"), ("slt", "postgres")}

    def test_interior_garbage_raises(self, tmp_path, spec):
        source = _journal_with_history(tmp_path / "j.jsonl", spec)
        lines = source.read_bytes().splitlines(keepends=True)
        lines[1] = b"}}}garbage{{{\n"  # NOT the final line: real corruption
        source.write_bytes(b"".join(lines))
        with pytest.raises(JournalError):
            replay_journal(source)

    def test_non_event_json_line_raises(self, tmp_path, spec):
        source = _journal_with_history(tmp_path / "j.jsonl", spec)
        with open(source, "ab") as handle:
            handle.write(b"[1, 2, 3]\n{}\n")
        with pytest.raises(JournalError):
            replay_journal(source)


class TestCampaignIdentity:
    def test_fingerprint_mismatch_is_rejected(self, tmp_path, spec):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        with pytest.raises(JournalMismatchError):
            CampaignJournal.open(path, spec, "other-code-version")

    def test_spec_mismatch_is_rejected(self, tmp_path, spec, tiny_suites):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        other = campaign_spec(tiny_suites, ("sqlite", "postgres"))
        with pytest.raises(JournalMismatchError):
            CampaignJournal.open(path, other, FINGERPRINT)

    def test_same_campaign_reopens(self, tmp_path, spec):
        path = _journal_with_history(tmp_path / "j.jsonl", spec)
        with CampaignJournal.open(path, spec, FINGERPRINT) as journal:
            assert journal.is_cell_complete("slt", "sqlite")
            assert not journal.is_cell_complete("slt", "postgres")

    def test_workers_do_not_change_identity(self, spec):
        # sharding cannot change results, so it must not change identity:
        # campaign_spec has no workers/executor parameters at all
        assert "workers" not in spec
        assert "executor" not in spec
        assert campaign_id(spec, FINGERPRINT) == campaign_id(json.loads(json.dumps(spec)), FINGERPRINT)

    def test_open_in_places_journal_by_campaign_id(self, tmp_path, spec):
        directory = tmp_path / JOURNAL_DIRNAME
        with CampaignJournal.open_in(directory, spec, FINGERPRINT) as journal:
            assert journal.path == journal_path(directory, campaign_id(spec, FINGERPRINT))
            assert journal.path.exists()


class TestDurability:
    def test_append_after_close_raises(self, tmp_path, spec):
        journal = CampaignJournal.open(tmp_path / "j.jsonl", spec, FINGERPRINT)
        journal.close()
        with pytest.raises(JournalError):
            journal.cell_started("slt", "sqlite")

    def test_cell_finished_batches_files_with_finish(self, tmp_path, spec):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, spec, FINGERPRINT) as journal:
            journal.cell_finished(
                "slt", "sqlite", complete=True,
                files=[{"path": "a.test", "artifact": "x" * 64}, {"path": "b.test", "artifact": "y" * 64}],
            )
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert events == ["campaign", "file-finish", "file-finish", "cell-finish"]
