"""Deterministic SIGKILL injection points for crash-safety tests.

The crash-safety layer's promise — *a SIGKILL at any instant costs at most
the in-flight files* — can only be tested by actually killing a process at
the worst possible instants.  This module instruments those instants:
durability-critical seams call :func:`kill_point` with an operation name, and
when the environment schedules a kill for that operation's N-th call the
process SIGKILLs **itself** — no cleanup handlers, no ``atexit``, no
``finally`` blocks, exactly what a power loss or OOM kill looks like.

Configuration is purely environmental so it crosses ``fork``/``spawn``
boundaries into process-pool workers with no plumbing:

* ``REPRO_KILL_POINTS="op:at[,op:at...]"`` — SIGKILL on the ``at``-th call
  of ``op`` in this process (1-based, counted per process).
* ``REPRO_KILL_ONCE_DIR=<dir>`` — arm each scheduled kill at most once
  *across* processes: before dying, the process atomically creates a marker
  file in the directory, and a process that finds the marker already present
  skips the kill.  This is what lets a worker-kill test re-dispatch work to a
  rebuilt worker without the replacement dying at the same point.

Instrumented operations (grep for ``kill_point(`` to confirm the list):

========================  ==========================================================
``store-tmp``             after an artifact's temp file is written, before the
                          atomic rename (a crash here leaks a ``.tmp-`` file)
``store-write``           after the atomic rename (the artifact is durable)
``journal-append``        after a journal line is written and fsync'd
``cell-start``            a campaign cell is about to execute
``cell-finish``           a campaign cell's files persisted and it is journaled
``file-finish``           a shard/assembly worker persisted one file's results
========================  ==========================================================

This module deliberately imports nothing from :mod:`repro` — it is called
from the store's write path and the journal's append path, and must never be
able to create an import cycle.  When no kill schedule is configured, a call
costs one dict lookup.
"""

from __future__ import annotations

import os
import signal
import threading

#: schedule environment variable: ``"op:at[,op:at...]"``
KILL_POINTS_ENV = "REPRO_KILL_POINTS"

#: cross-process once-markers directory (optional)
KILL_ONCE_DIR_ENV = "REPRO_KILL_ONCE_DIR"

_LOCK = threading.Lock()
_SCHEDULE: dict[str, int] | None = None  # op -> 1-based call index; None = unparsed
_CALLS: dict[str, int] = {}


def _parse_schedule(raw: str) -> dict[str, int]:
    schedule: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        op, _, at = part.partition(":")
        try:
            index = int(at)
        except ValueError:
            continue  # a malformed entry must never break a real campaign
        if op and index >= 1:
            schedule[op] = index
    return schedule


def _schedule() -> dict[str, int]:
    global _SCHEDULE
    if _SCHEDULE is None:
        raw = os.environ.get(KILL_POINTS_ENV, "")
        _SCHEDULE = _parse_schedule(raw) if raw else {}
    return _SCHEDULE


def reset_kill_points() -> None:
    """Re-read the environment and rewind call counters (test hook)."""
    global _SCHEDULE
    with _LOCK:
        _SCHEDULE = None
        _CALLS.clear()


def kill_point(op: str) -> None:
    """SIGKILL this process if the environment scheduled a kill here.

    Counts one call of ``op``; when the count matches the scheduled index
    (and the once-marker, if configured, was not already claimed), the
    process kills itself with ``SIGKILL`` — uncatchable, unbufferable, the
    honest simulation of power loss at this exact instant.
    """
    schedule = _schedule()
    if not schedule:
        return
    at = schedule.get(op)
    if at is None:
        return
    with _LOCK:
        count = _CALLS.get(op, 0) + 1
        _CALLS[op] = count
    if count != at:
        return
    once_dir = os.environ.get(KILL_ONCE_DIR_ENV)
    if once_dir:
        marker = os.path.join(once_dir, f"killed-{op}-{at}")
        try:
            descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # another process already died at this point
        except OSError:
            pass  # marker dir unusable: fail open (kill anyway)
        else:
            os.close(descriptor)
    os.kill(os.getpid(), signal.SIGKILL)
