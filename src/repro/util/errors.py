"""Exception hierarchy for the repro package.

All library exceptions derive from :class:`ReproError` so callers can
catch everything the library raises with a single ``except`` clause
while still distinguishing subsystems by subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Raised for violations of the discrete-event simulation protocol.

    Examples: calling a blocking primitive from outside a simulated
    task, resuming a finished task, or running a simulator twice.
    """


class DeadlockError(SimulationError):
    """Raised when the event queue drains while tasks are still blocked.

    The message lists the blocked tasks and what each is waiting on,
    which is usually enough to diagnose a missing notify/put/fence.
    """


class AllocationError(ReproError):
    """Raised when a memory allocation cannot be satisfied.

    Covers device-memory exhaustion, global-segment exhaustion, invalid
    frees (double free, unknown pointer), and allocator misuse.
    """


class CommunicationError(ReproError):
    """Raised for invalid communication requests.

    Examples: put/get outside a registered segment, rank out of range,
    size mismatch between send and receive buffers, or operating on a
    torn-down communicator.
    """


class FaultError(CommunicationError):
    """Base of the fault/recovery taxonomy (see :mod:`repro.faults`).

    Everything the fault-injection layer produces and the retry layer
    surfaces derives from this class, so callers can separate injected
    degradation from ordinary misuse errors.
    """


class TransientError(FaultError):
    """A recoverable communication failure.

    The conduit retry layer treats these as retryable: the operation is
    reissued with exponential backoff until it succeeds or the policy's
    attempt budget is exhausted.
    """


class TimeoutError(FaultError):
    """An operation exceeded its per-attempt timeout.

    Produced by the retry layer when a completion event never arrives
    (e.g. a dropped event injected by a fault plan).  Counts as a failed
    attempt; retried like :class:`TransientError`.
    """


class FatalError(FaultError):
    """An unrecoverable communication failure.

    Raised when retries are exhausted (``__cause__`` holds the last
    underlying error) or when a fault plan injects a non-retryable
    failure.  Surfaced to the application at the next ``ompx_fence``.
    """


class ConfigurationError(ReproError):
    """Raised when a platform/cluster/runtime configuration is invalid."""


class PercentileError(ConfigurationError, ValueError):
    """An invalid percentile rank ``q`` (outside ``[0, 1]``).

    The unified taxonomy for every percentile surface: historically
    :func:`repro.obs.rollup.exact_percentile` and
    ``HistogramStats.percentile`` raised :class:`ConfigurationError`
    while ``ServiceResult.queue_wait_percentile`` raised
    :class:`ValueError` for the same misuse.  All now raise this class,
    which inherits from *both* bases so existing ``except`` clauses
    keep working.
    """


class PlanVerificationError(ConfigurationError):
    """A communication plan failed verification (see :mod:`repro.plan`).

    The message lists every issue the verifier found — dangling buffer
    references, cyclic or unknown dependencies, out-of-range accesses,
    cross-rank peer mismatches, unfenced RMA, or one-sided visibility
    hazards.
    """


class DeviceError(ReproError):
    """Raised by the simulated device runtime.

    Covers invalid stream/event handles, out-of-bounds device copies,
    IPC handle misuse, and peer-access violations.
    """
