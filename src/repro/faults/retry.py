"""Retry / timeout / backoff for non-blocking conduit operations.

:class:`RetryingOp` drives one one-sided operation through transient
failures without ever blocking: the caller supplies an ``issue``
closure that performs one attempt and returns its completion
:class:`~repro.sim.Future`.  On a retryable failure the attempt is
reissued after exponential backoff *on the virtual clock*; on success
the outer future fires with the attempt's value; once the policy's
attempt budget is exhausted (or a :class:`~repro.util.errors.FatalError`
arrives) the outer future fails with ``FatalError`` — which the DiOMP
fence surfaces to the application.

With ``op_timeout`` set, an attempt whose completion event never
arrives (a dropped event) is declared timed out, counted, and retried;
one-sided puts/gets are idempotent, so a late original completion is
harmless and is ignored via an attempt token.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional

from repro.sim import Future, Simulator
from repro.util.errors import ConfigurationError, FatalError, TimeoutError
from repro.util.units import US


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Tunable recovery knobs for one conduit."""

    #: total attempt budget per operation (1 = no retries)
    max_attempts: int = 4
    #: backoff before the first retry
    base_backoff: float = 2.0 * US
    #: multiplier applied per further retry
    backoff_factor: float = 2.0
    #: backoff ceiling
    max_backoff: float = 1e-3
    #: per-attempt completion timeout (None = wait forever; required to
    #: recover from dropped completion events)
    op_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ConfigurationError(
                f"op_timeout must be positive, got {self.op_timeout}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before reissuing after the ``attempt``-th failure."""
        return min(
            self.max_backoff, self.base_backoff * self.backoff_factor ** (attempt - 1)
        )


class RetryingOp:
    """One operation's recovery state machine (see module docstring).

    ``issue()`` must return a Future and must not block — it may run in
    scheduler context when a retry fires.  ``labels`` flow onto the
    ``conduit.retries`` / ``conduit.backoff_seconds`` /
    ``conduit.timeouts`` / ``conduit.giveups`` counters.
    """

    def __init__(
        self,
        sim: Simulator,
        issue: Callable[[], Future],
        policy: RetryPolicy,
        obs=None,
        labels: Optional[Dict[str, Any]] = None,
        description: str = "op",
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0
        self.labels = dict(labels or {})
        self._issue = issue
        self._token = 0
        #: the operation's terminal completion (value or FatalError)
        self.future = Future(sim, description=f"retry:{description}")
        if obs is not None and getattr(obs, "enabled", False):
            self._m_retries = obs.counter(
                "conduit.retries", "reissued conduit operations"
            )
            self._m_backoff = obs.counter(
                "conduit.backoff_seconds", "virtual time spent backing off"
            )
            self._m_timeouts = obs.counter(
                "conduit.timeouts", "per-attempt completion timeouts"
            )
            self._m_giveups = obs.counter(
                "conduit.giveups", "operations that exhausted their retries"
            )
        else:
            self._m_retries = self._m_backoff = None
            self._m_timeouts = self._m_giveups = None
        self._begin()

    # -- attempt lifecycle -------------------------------------------------------

    def _begin(self) -> None:
        self.attempts += 1
        self._token += 1
        token = self._token
        attempt = self._issue()
        # Expose the attempt's expected completion to hybrid polling.
        self.future.eta = attempt.eta
        if self.policy.op_timeout is not None:
            self.sim.call_later(
                self.policy.op_timeout, lambda: self._on_timeout(token, attempt)
            )
        attempt.add_done_callback(lambda fut: self._on_done(token, fut))

    def _on_done(self, token: int, attempt: Future) -> None:
        if token != self._token or self.future.fired:
            return  # a stale (timed-out) attempt finally completed
        if attempt.error is None:
            self.future.fire(attempt.value)
        else:
            self._on_failure(attempt.error)

    def _on_timeout(self, token: int, attempt: Future) -> None:
        if token != self._token or self.future.fired or attempt.fired:
            return
        self._token += 1  # invalidate the attempt's eventual completion
        self.timeouts += 1
        if self._m_timeouts is not None:
            self._m_timeouts.inc(**self.labels)
        self._on_failure(
            TimeoutError(
                f"{self.future.description}: no completion within "
                f"{self.policy.op_timeout:g}s (attempt {self.attempts})"
            )
        )

    def _on_failure(self, error: BaseException) -> None:
        if isinstance(error, FatalError) or self.attempts >= self.policy.max_attempts:
            if self._m_giveups is not None:
                self._m_giveups.inc(**self.labels)
            if isinstance(error, FatalError):
                final = error
            else:
                final = FatalError(
                    f"{self.future.description}: giving up after "
                    f"{self.attempts} attempt(s): {error}"
                )
                final.__cause__ = error
            self.future.fail(final)
            return
        delay = self.policy.backoff(self.attempts)
        self.retries += 1
        if self._m_retries is not None:
            self._m_retries.inc(**self.labels)
            self._m_backoff.inc(delay, **self.labels)
        self.sim.call_later(delay, self._begin)
