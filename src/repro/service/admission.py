"""Pluggable admission controllers gating open-loop arrivals.

An admission controller is the service's first line of overload defence: it
sees every arrival *before* queueing and either admits it or drops it with a
reason.  Three policies ship with the repository:

* ``always`` — admit everything (the open-loop baseline; delivered load is
  then bounded only by the transport's capacity);
* ``token_bucket`` — classic rate limiter: tokens refill continuously at
  ``rate_per_ms`` up to ``burst``, one token per admitted request, so
  sustained offered load above the rate is shed while bursts up to the
  bucket depth pass through;
* ``queue_bound`` — drop-tail: reject arrivals that find the request queue
  already ``queue_limit`` deep.

:data:`ADMISSION_CONTROLLERS` names them: ``traffic.admission`` validates
against it and :func:`create_admission` builds from it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

from ..errors import ConfigurationError
from .arrivals import ServiceRequest


class AdmissionController(ABC):
    """Decides, at arrival time, whether a request enters the service queue."""

    @abstractmethod
    def admit(
        self, request: ServiceRequest, *, now_us: float, queue_depth: int
    ) -> Optional[str]:
        """``None`` to admit ``request``; a short drop reason otherwise."""


class AlwaysAdmit(AdmissionController):
    """Admit every arrival (the open-loop baseline)."""

    def admit(
        self, request: ServiceRequest, *, now_us: float, queue_depth: int
    ) -> Optional[str]:
        return None


class TokenBucket(AdmissionController):
    """Continuous-refill token bucket: sustained rate + bounded burst."""

    def __init__(self, *, rate_per_ms: float, burst: int) -> None:
        if rate_per_ms <= 0:
            raise ConfigurationError(f"token bucket rate must be > 0, got {rate_per_ms}")
        if burst < 1:
            raise ConfigurationError(f"token bucket burst must be >= 1, got {burst}")
        self.rate_per_ms = rate_per_ms
        self.burst = burst
        self._tokens = float(burst)
        self._last_us = 0.0

    def admit(
        self, request: ServiceRequest, *, now_us: float, queue_depth: int
    ) -> Optional[str]:
        elapsed_us = now_us - self._last_us
        self._last_us = now_us
        self._tokens = min(
            float(self.burst), self._tokens + elapsed_us * (self.rate_per_ms / 1000.0)
        )
        if self._tokens < 1.0:
            return "rate_limited"
        self._tokens -= 1.0
        return None


class QueueBound(AdmissionController):
    """Drop-tail: reject arrivals to a queue already at its limit."""

    def __init__(self, *, queue_limit: int) -> None:
        if queue_limit < 1:
            raise ConfigurationError(f"queue limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit

    def admit(
        self, request: ServiceRequest, *, now_us: float, queue_depth: int
    ) -> Optional[str]:
        if queue_depth >= self.queue_limit:
            return "queue_full"
        return None


#: The admission controllers, by the name ``traffic.admission`` selects.
ADMISSION_CONTROLLERS: Dict[str, Type[AdmissionController]] = {
    "always": AlwaysAdmit,
    "token_bucket": TokenBucket,
    "queue_bound": QueueBound,
}


def create_admission(
    name: str, *, rate_per_ms: float = 10.0, burst: int = 8, queue_limit: int = 64
) -> AdmissionController:
    """Instantiate the controller named ``name``.

    Policy parameters reach only the policies that declare them — the
    token-bucket rate/burst, the drop-tail queue limit — so adding a policy
    never widens every caller's signature.
    """
    key = (name or "").strip()
    cls = ADMISSION_CONTROLLERS.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown admission controller {name!r}; registered: {sorted(ADMISSION_CONTROLLERS)}"
        )
    if cls is TokenBucket:
        return TokenBucket(rate_per_ms=rate_per_ms, burst=burst)
    if cls is QueueBound:
        return QueueBound(queue_limit=queue_limit)
    return cls()
