"""Shared retry/backoff policy for every UDP client in the suite.

The paper's daemons all speak fire-and-forget UDP; the only reliable
round-trip is the sensor library's query/reply.  Before this module each
client hard-coded its own timeout and retry count.  Now a single
:class:`BackoffPolicy` value describes the retry schedule — a bounded
exponential backoff — and every transport (the sensor client library,
the tempd sender, the daemon listeners) derives its timing from the one
source of truth here.

Keeping this in :mod:`repro.faults` is deliberate: retries are the
*resilience* half of fault injection, and chaos experiments tune both
sides from the same place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class BackoffPolicy:
    """A bounded exponential-backoff retry schedule.

    ``attempts`` tries are made; attempt *i* (0-based) waits up to
    ``min(base_timeout * multiplier**i, max_timeout)`` seconds for a
    reply before the next attempt.
    """

    attempts: int = 3
    base_timeout: float = 0.5
    multiplier: float = 2.0
    max_timeout: float = 4.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_timeout <= 0.0 or self.max_timeout <= 0.0:
            raise ValueError("timeouts must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def timeout(self, attempt: int) -> float:
        """Receive timeout for the given 0-based attempt."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.base_timeout * self.multiplier ** attempt,
                   self.max_timeout)

    def timeouts(self) -> Iterator[float]:
        """The full schedule, one timeout per attempt."""
        for attempt in range(self.attempts):
            yield self.timeout(attempt)

    def total_budget(self) -> float:
        """Worst-case seconds a caller can block before giving up."""
        return sum(self.timeouts())


#: The policy every UDP client uses unless told otherwise.
DEFAULT_BACKOFF = BackoffPolicy()
