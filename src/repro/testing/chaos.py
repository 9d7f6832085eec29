"""Chaos harness: deterministic fault injection at the infrastructure seams.

The resilience layer's promise is behavioural — *recoverable faults leave no
trace, unrecoverable ones degrade the campaign instead of killing it* — and
the only honest way to test that promise is to make infrastructure actually
fail.  This module injects faults at the two seams the resilience layer
guards:

* **Adapters** — :func:`inject_adapter` re-registers an adapter name with a
  factory that wraps every built instance in a :class:`ChaosAdapter`, which
  consults a shared :class:`FaultSchedule` before each lifecycle/execute call.
  Because the registry indirection is also how the per-file executor builds
  adapters (``fork_config`` → ``create_adapter``), the same injection reaches
  every adapter a campaign leases with no extra plumbing.
* **The artifact store** — :class:`ChaosStore` overrides the store's
  ``_read``/``_write`` I/O hooks to raise ``EIO`` per schedule, driving the
  graceful-degradation path (:meth:`repro.store.artifacts.ArtifactStore._record_io_error`).

Schedules are **deterministic**: a fault fires on the K-th call of an
operation (optionally every call from K onward), counted under a lock, with
no wall-clock or RNG involvement beyond the seed recorded for reporting.  A
failing chaos test therefore reproduces exactly from its printed seed.

Process-pool caveat: a worker *process* forked inside an injection block
inherits the chaos factory, but with its own copy of the schedule's counters
and of the circuit breaker, and neither travels back to this process.  Run
chaos campaigns without a worker pool, where every file executes in this
process and ``at`` counts calls campaign-wide.

Beyond in-process faults, :func:`run_crash_campaign` is the **kill-point
crash harness**: it runs a real store-backed campaign in a subprocess
(:mod:`repro.testing.crash_child`) and either lets ``REPRO_KILL_POINTS``
SIGKILL it from the inside — at a store write, a cell boundary, a finished
file — or lands a SIGINT/SIGTERM from the outside to exercise the graceful
drain.  ``tests/test_crash.py`` uses it to assert the crash-safety
invariants: the store audits clean after any kill, and re-running the same
campaign converges to a byte-identical result with only in-flight work
re-executed.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.adapters.base import DBMSAdapter, ExecutionOutcome
from repro.adapters.registry import get_adapter_entry, register_adapter
from repro.killpoints import KILL_ONCE_DIR_ENV, KILL_POINTS_ENV
from repro.store.artifacts import ArtifactStore


class ChaosError(OSError):
    """A deterministic injected infrastructure fault.

    An ``OSError`` subclass with ``transient = True``, so both halves of
    :func:`repro.core.resilience.is_transient_error` classify it as
    retryable — exactly the kind of fault the retry layer exists for.
    """

    transient = True


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: inject ``kind`` on the ``at``-th call of ``op``.

    ``op`` names the instrumented operation (``"execute"``, ``"setup"``,
    ``"reset"`` on adapters; ``"read"``, ``"write"`` on stores).  ``at`` is
    1-based.  ``every=True`` makes the fault permanent from ``at`` onward —
    the "adapter that will never work again" used to drive quarantine.
    ``kind="hang"`` sleeps ``seconds`` instead of raising (a wedge the
    watchdog must notice; it finishes on its own so tests never leak a
    truly stuck thread).
    """

    op: str
    at: int = 1
    kind: str = "raise"  # "raise" | "hang"
    every: bool = False
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("FaultSpec.at is 1-based")
        if self.kind not in ("raise", "hang"):
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultSchedule:
    """Thread-safe per-operation call counters driving a set of faults.

    One schedule is shared by every chaos wrapper of a campaign (each adapter
    a cell leases, each one rebuilt for a retry, the store), so ``at`` counts
    calls campaign-wide in arrival order.  ``injected`` records every fault that
    actually fired, for assertions and failure reports.
    """

    def __init__(self, faults: "list[FaultSpec] | tuple[FaultSpec, ...]", seed: int = 0):
        self.faults = tuple(faults)
        self.seed = seed
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        #: (op, call index, kind) of every fault that fired
        self.injected: list[tuple[str, int, str]] = []

    def tick(self, op: str) -> FaultSpec | None:
        """Count one call of ``op``; the fault to inject now, or None."""
        with self._lock:
            count = self._calls.get(op, 0) + 1
            self._calls[op] = count
            for fault in self.faults:
                if fault.op != op:
                    continue
                if count == fault.at or (fault.every and count >= fault.at):
                    self.injected.append((op, count, fault.kind))
                    return fault
        return None

    def calls(self, op: str) -> int:
        with self._lock:
            return self._calls.get(op, 0)

    def reset(self) -> None:
        """Rewind every counter (and the injection log) for a fresh campaign."""
        with self._lock:
            self._calls.clear()
            self.injected.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultSchedule seed={self.seed} faults={len(self.faults)} injected={len(self.injected)}>"


class ChaosAdapter(DBMSAdapter):
    """Wraps a real adapter; injects scheduled faults before delegating.

    Faults fire on ``setup``/``reset``/``execute`` — the operations the
    resilience layer guards; ``teardown``/``close`` stay clean so failure
    paths can always clean up.  ``fork_config`` delegates to the inner
    adapter: the returned registry name resolves through the chaos-injected
    registry entry, so clones rebuilt from it are chaos-wrapped too (sharing
    this adapter's schedule through the factory closure).
    """

    def __init__(self, inner: DBMSAdapter, schedule: FaultSchedule):
        self.inner = inner
        self.schedule = schedule
        self.name = inner.name
        self.dialect = inner.dialect

    def _maybe_fault(self, op: str) -> None:
        fault = self.schedule.tick(op)
        if fault is None:
            return
        if fault.kind == "hang":
            time.sleep(fault.seconds)
            return
        raise ChaosError(errno.EIO, f"chaos[{self.schedule.seed}]: injected {op} fault (call {self.schedule.calls(op)})")

    def connect(self) -> None:
        self.inner.connect()

    def setup(self) -> None:
        self._maybe_fault("setup")
        self.inner.setup()

    def reset(self) -> None:
        self._maybe_fault("reset")
        self.inner.reset()

    def execute(self, sql: str) -> ExecutionOutcome:
        self._maybe_fault("execute")
        return self.inner.execute(sql)

    def close(self) -> None:
        self.inner.close()

    def teardown(self) -> None:
        self.inner.teardown()

    def fork_config(self) -> tuple[str, dict] | None:
        return self.inner.fork_config()


@contextmanager
def inject_adapter(name: str, schedule: FaultSchedule) -> Iterator[FaultSchedule]:
    """Chaos-wrap every adapter built under ``name`` for the block's duration.

    Re-registers ``name`` (keeping its aliases, which the registry retargets
    atomically) with a factory that wraps the original factory's product in a
    :class:`ChaosAdapter` sharing ``schedule``.  The original entry is
    restored on exit, whatever happens inside.  Adapters built *before*
    injection (e.g. sitting idle in a pool) are untouched — use fresh pools
    in chaos tests.
    """
    original = get_adapter_entry(name)

    def _chaos_factory(**kwargs) -> DBMSAdapter:
        return ChaosAdapter(original.factory(**kwargs), schedule)

    register_adapter(original.name, _chaos_factory, aliases=original.aliases, description=f"chaos({original.description})")
    try:
        yield schedule
    finally:
        register_adapter(original.name, original.factory, aliases=original.aliases, description=original.description)


class ChaosStore(ArtifactStore):
    """An :class:`ArtifactStore` whose I/O layer fails on schedule.

    Overrides the ``_read``/``_write`` hooks to raise ``EIO`` when the shared
    :class:`FaultSchedule` says so — exercising exactly the branch that
    triggers graceful degradation, without touching real-filesystem failure
    modes.  Corruption faults are *not* modelled here; the store's own tests
    cover garbled artifacts.
    """

    def __init__(self, *args, schedule: FaultSchedule, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = schedule

    def _read(self, path):
        fault = self.schedule.tick("read")
        if fault is not None:
            raise OSError(errno.EIO, f"chaos[{self.schedule.seed}]: injected read fault")
        return super()._read(path)

    def _write(self, path, payload) -> None:
        fault = self.schedule.tick("write")
        if fault is not None:
            raise OSError(errno.EIO, f"chaos[{self.schedule.seed}]: injected write fault")
        super()._write(path, payload)


# -- kill-point crash harness -----------------------------------------------------------


@dataclass
class CrashOutcome:
    """One crash-harness child run: exit status plus its parsed summary.

    ``summary`` is the child's ``CRASH-CHILD-SUMMARY`` JSON payload, or None
    when the child died before printing one (the expected shape of a SIGKILL
    run).  ``returncode`` follows :mod:`subprocess` conventions: negative
    values are the killing signal.
    """

    returncode: int
    summary: "dict | None"
    stdout: str
    stderr: str

    @property
    def killed(self) -> bool:
        """True when the child died to SIGKILL (self-inflicted kill point)."""
        return self.returncode == -signal.SIGKILL


def parse_crash_summary(stdout: str) -> "dict | None":
    """The last ``CRASH-CHILD-SUMMARY`` JSON line of a child's stdout, or None."""
    from repro.testing.crash_child import SUMMARY_MARKER

    for line in reversed(stdout.splitlines()):
        if line.startswith(SUMMARY_MARKER):
            return json.loads(line[len(SUMMARY_MARKER):].strip())
    return None


def run_crash_campaign(
    store_dir: "str | os.PathLike",
    child_args: "tuple[str, ...] | list[str]" = (),
    kill_points: str | None = None,
    kill_once_dir: "str | os.PathLike | None" = None,
    send_signal: int | None = None,
    ready_file: "str | os.PathLike | None" = None,
    signal_timeout: float = 30.0,
    timeout: float = 120.0,
) -> CrashOutcome:
    """Run one :mod:`~repro.testing.crash_child` campaign in a subprocess.

    ``kill_points`` (the ``REPRO_KILL_POINTS`` schedule, e.g.
    ``"store-write:2"``) makes the child SIGKILL itself at an injected
    operation point; ``kill_once_dir`` threads ``REPRO_KILL_ONCE_DIR`` so a
    resumed (or worker-rebuilt) process does not re-fire the same point.
    When ``kill_points`` is None, both variables are *stripped* from the
    child's environment — a verification run must never inherit a schedule.

    ``send_signal`` delivers a signal from the outside instead: the harness
    waits for ``ready_file`` to appear (the child touches it at its first
    in-flight statement; see ``--ready-file``) and then signals, so the
    graceful-drain path is exercised with work genuinely in flight.

    The child always runs against ``store_dir``; run the same campaign twice
    with the same store to test crash-resume convergence.
    """
    command = [
        sys.executable,
        "-m",
        "repro.testing.crash_child",
        "--store-dir",
        str(store_dir),
        *child_args,
    ]
    env = dict(os.environ)
    if kill_points is not None:
        env[KILL_POINTS_ENV] = kill_points
        if kill_once_dir is not None:
            env[KILL_ONCE_DIR_ENV] = str(kill_once_dir)
    else:
        env.pop(KILL_POINTS_ENV, None)
        env.pop(KILL_ONCE_DIR_ENV, None)
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        if send_signal is not None:
            deadline = time.monotonic() + signal_timeout
            if ready_file is not None:
                while (
                    time.monotonic() < deadline
                    and not Path(ready_file).exists()
                    and process.poll() is None
                ):
                    time.sleep(0.01)
            if process.poll() is None:
                process.send_signal(send_signal)
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    except BaseException:
        process.kill()
        process.communicate()
        raise
    return CrashOutcome(
        returncode=process.returncode,
        summary=parse_crash_summary(stdout),
        stdout=stdout,
        stderr=stderr,
    )
