"""Campaign resilience: retries, watchdog deadlines, and infra-failure records.

The paper's methodology depends on *completing* full cross-execution matrices
(RQ4 counts rediscovered bugs across every (suite, host) cell), but a
production-scale campaign meets infrastructure faults the experiment logic
cannot prevent: a flaky adapter connection, a wedged engine, a disk that
stops accepting writes.  This module is the one place those faults are
classified and bounded so that they degrade to *partial, resumable,
honestly-reported* results instead of killing the campaign:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  **deterministic seeded jitter** (no ``random`` — the delay is derived from
  a hash of ``(seed, token, attempt)``), gated on a retryable-error
  predicate so programming errors never loop.
* :func:`run_with_deadline` — a watchdog that turns a wedged execution into
  a :class:`~repro.errors.WatchdogTimeout` the campaign layer converts into
  a HANG outcome, instead of a worker stuck forever.
* :class:`ResiliencePolicy` — the bundle the campaign layers
  (:mod:`repro.core.parallel`, :mod:`repro.core.transplant`) thread through
  shard and cell execution.
* :class:`InfraFailure` — the structured record a partial campaign carries in
  ``SuiteResult.infra_failures`` / ``TransplantResult.infra_failures``.  Only
  *unrecovered* faults are recorded: a retry that succeeds leaves no trace in
  the result, which is what keeps a recovered campaign byte-identical to a
  fault-free one (``tests/test_chaos.py`` pins this with
  ``assert_equivalent``).

Timeout configuration is resolved end to end here as well:
``REPRO_TIMEOUT_SECONDS`` (or :func:`set_default_timeout`, or the experiments
CLI's ``--timeout``) feeds both the SQLite adapter's statement timeout and
the campaign watchdog deadlines.

This module deliberately imports nothing from :mod:`repro.adapters` (the
adapters import it for timeout resolution); the circuit breaker that
quarantines misbehaving adapter configurations lives with the pool it guards
(:class:`repro.adapters.pool.CircuitBreaker`).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WatchdogTimeout

#: Fallback statement/watchdog timeout when nothing is configured.
DEFAULT_TIMEOUT_SECONDS = 5.0

#: Environment variable configuring the default timeout end to end.
TIMEOUT_ENV_VAR = "REPRO_TIMEOUT_SECONDS"

_TIMEOUT_OVERRIDE: float | None = None


def set_default_timeout(seconds: float | None) -> float | None:
    """Set the process-wide timeout override; returns the previous override.

    ``None`` clears the override (the environment variable, then the built-in
    default, apply again).  Process-pool workers never read the override:
    the watchdog deadline reaches them inside the pickled
    :class:`ResiliencePolicy`, and SQLite's statement timeout inside the
    ``RunnerSpec.adapter_kwargs`` the adapter resolved at construction.
    """
    global _TIMEOUT_OVERRIDE
    previous = _TIMEOUT_OVERRIDE
    _TIMEOUT_OVERRIDE = float(seconds) if seconds is not None else None
    return previous


def _timeout_from_env() -> float | None:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def default_timeout_seconds() -> float:
    """The effective statement timeout: override, environment, or default."""
    if _TIMEOUT_OVERRIDE is not None:
        return _TIMEOUT_OVERRIDE
    from_env = _timeout_from_env()
    return from_env if from_env is not None else DEFAULT_TIMEOUT_SECONDS


def configured_watchdog_seconds() -> float | None:
    """The watchdog deadline, or None when no timeout was configured.

    Unlike :func:`default_timeout_seconds` this has no built-in fallback: the
    watchdog runs the guarded operation on a helper thread, which is pure
    overhead for the (overwhelmingly common) non-wedged case, so campaigns
    only arm it when a timeout was explicitly configured.
    """
    if _TIMEOUT_OVERRIDE is not None:
        return _TIMEOUT_OVERRIDE
    return _timeout_from_env()


def is_transient_error(error: BaseException) -> bool:
    """Whether ``error`` plausibly goes away on retry.

    Infrastructure faults — lost connections, I/O hiccups, timeouts — are
    transient; programming errors (``TypeError``, assertion failures) are
    not and must propagate on the first attempt.  Adapters and the chaos
    harness can mark any exception explicitly with a truthy ``transient``
    attribute.
    """
    if getattr(error, "transient", False):
        return True
    return isinstance(error, (ConnectionError, TimeoutError, OSError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``attempts`` counts total tries (1 = no retry).  The delay before attempt
    ``n+1`` is ``base_delay * 2**(n-1)`` capped at ``max_delay``, plus a
    jitter fraction in ``[0, jitter)`` of that delay derived from
    ``sha256(seed, token, n)`` — deterministic for a given (seed, token), so
    two runs of the same campaign back off identically and tests can pin
    exact schedules.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable: Callable[[BaseException], bool] = is_transient_error

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a failed ``attempt`` (1-based) warrants another try."""
        return attempt < self.attempts and self.retryable(error)

    def delay_for(self, attempt: int, token: str = "") -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based) fails."""
        delay = min(self.base_delay * (2 ** max(0, attempt - 1)), self.max_delay)
        if self.jitter > 0:
            digest = hashlib.sha256(f"{self.seed}:{token}:{attempt}".encode("utf-8")).digest()
            fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay += delay * self.jitter * fraction
        return delay


def run_with_deadline(operation: Callable[[], Any], deadline_seconds: float, label: str = "operation") -> Any:
    """Run ``operation`` with a watchdog deadline.

    The operation runs on a daemon helper thread; if it does not finish
    within ``deadline_seconds`` a :class:`~repro.errors.WatchdogTimeout` is
    raised and the helper thread is abandoned (Python cannot kill it — the
    caller must treat whatever state the operation touched, typically an
    adapter, as unusable and discard it).  Results and exceptions from an
    operation that finishes in time propagate unchanged.
    """
    outcome: dict[str, Any] = {}

    def _invoke() -> None:
        try:
            outcome["value"] = operation()
        except BaseException as error:  # travels back to the calling thread
            outcome["error"] = error

    thread = threading.Thread(target=_invoke, name=f"watchdog:{label}", daemon=True)
    thread.start()
    thread.join(deadline_seconds)
    if thread.is_alive():
        raise WatchdogTimeout(f"{label} exceeded {deadline_seconds}s watchdog deadline", deadline=deadline_seconds)
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@dataclass(frozen=True)
class InfraFailure:
    """One unrecovered infrastructure fault of a partial campaign.

    ``kind`` is one of ``"retry-exhausted"`` (a transient error survived
    every attempt), ``"watchdog-timeout"`` (a wedged execution was cut off),
    ``"adapter-quarantined"`` (the circuit breaker refused the adapter), or
    ``"shutdown-drain"`` (a signal-requested drain prevented the work from
    starting; see :mod:`repro.core.shutdown` — these cells re-enter on
    resume).  ``path`` is the affected test file: every fault degrades only
    the files it hit, one record per file.
    Only *unrecovered* faults become records — recovered retries leave the
    results byte-identical to a fault-free run.
    """

    kind: str
    suite: str
    host: str
    path: str = ""
    detail: str = ""
    attempts: int = 1


@dataclass(frozen=True)
class ResiliencePolicy:
    """The resilience knobs campaigns thread through per-file execution.

    ``watchdog_seconds`` is the per-file deadline (None disarms the
    watchdog); ``quarantine_after`` is the circuit breaker's consecutive-
    failure threshold for one ``(adapter name, kwargs)`` configuration.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    watchdog_seconds: float | None = None
    quarantine_after: int = 3


def default_policy() -> ResiliencePolicy:
    """The policy campaigns use when the caller passes none: bounded retry,
    watchdog armed only when a timeout was configured (env/CLI/override)."""
    return ResiliencePolicy(retry=RetryPolicy(), watchdog_seconds=configured_watchdog_seconds())
