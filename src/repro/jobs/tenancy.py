"""Per-tenant admission control: active-job quotas and rate limits.

Two independent gates run at submit time, both answering with a
structured 429 when they fail:

- **active-job quota** — at most ``max_active`` queued+running jobs per
  tenant, so one tenant cannot occupy the whole queue;
- **token-bucket rate limit** — ``rate_per_s`` sustained submits with
  ``burst`` headroom, so a tight submit loop is throttled even while
  its earlier jobs finish quickly.

:class:`QuotaExceeded` carries the machine-readable fields the HTTP
layer surfaces (``reason``, ``retry_after_s``), so clients can back
off precisely instead of guessing.

Tenant tracking is bounded: after :data:`MAX_TENANTS` distinct names, new
tenants share one overflow bucket — an unbounded tenant-id stream
(or an attack) cannot grow server memory or metric cardinality.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.codec import Count, Float, check_domain, domain
from repro.errors import ReproError

#: Label under which tenants beyond the tracking bound are pooled.
OVERFLOW_TENANT = "_overflow"
#: Distinct tenants tracked with their own bucket before the overflow.
MAX_TENANTS = 64


class QuotaExceeded(ReproError):
    """A submit rejected by tenancy limits (HTTP 429)."""

    def __init__(
        self, tenant: str, reason: str, message: str, retry_after_s: float
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        #: ``"max_active"`` or ``"rate"``.
        self.reason = reason
        self.retry_after_s = round(max(0.0, retry_after_s), 3)


@dataclass(frozen=True)
class TenantPolicy:
    """The admission limits applied to one tenant; a value outside a
    field's domain (a negative count, a non-finite rate) is refused at
    construction."""

    #: Max queued+running jobs at once.
    max_active: int = domain(Count(), 8)
    #: Sustained submit rate (tokens refilled per second).
    rate_per_s: float = domain(Float(0.0), 5.0)
    #: Bucket capacity (instantaneous burst headroom).
    burst: int = domain(Count(), 10)

    __post_init__ = check_domain


class TokenBucket:
    """A classic token bucket over an injectable monotonic clock."""

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate_per_s
        )
        self._stamp = now

    def take(self) -> bool:
        """Consume one token; False when the bucket is dry."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def give_back(self) -> None:
        """Return one token :meth:`take` consumed (capped at the burst)."""
        self._refill()
        self._tokens = min(self.burst, self._tokens + 1.0)

    def seconds_until_token(self) -> float:
        """How long until :meth:`take` would succeed."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        if self.rate_per_s <= 0:
            return float("inf")
        return (1.0 - self._tokens) / self.rate_per_s


class QuotaManager:
    """Admission control across tenants (thread-safe)."""

    def __init__(
        self,
        default: TenantPolicy | None = None,
        overrides: dict[str, TenantPolicy] | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default = default or TenantPolicy()
        self.overrides = dict(overrides or {})
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._admitted: dict[str, int] = {}

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The policy applied to ``tenant``."""
        return self.overrides.get(tenant, self.default)

    def _bucket_key(self, tenant: str) -> str:
        # Named-override tenants always get their own bucket; anonymous
        # long-tail tenants share the overflow bucket past the bound.
        if tenant in self.overrides or tenant in self._buckets:
            return tenant
        if len(self._buckets) >= MAX_TENANTS:
            return OVERFLOW_TENANT
        return tenant

    def admit(self, tenant: str, active_jobs: int) -> None:
        """Gate one submit; raises :class:`QuotaExceeded` on refusal."""
        policy = self.policy_for(tenant)
        if active_jobs >= policy.max_active:
            raise QuotaExceeded(
                tenant,
                "max_active",
                f"tenant {tenant!r} already has {active_jobs} active job(s) "
                f"(limit {policy.max_active}); retry after one completes",
                retry_after_s=1.0,
            )
        with self._lock:
            key = self._bucket_key(tenant)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = TokenBucket(
                    policy.rate_per_s, policy.burst, clock=self._clock
                )
            if not bucket.take():
                raise QuotaExceeded(
                    tenant,
                    "rate",
                    f"tenant {tenant!r} exceeded {policy.rate_per_s}/s "
                    f"submit rate (burst {policy.burst})",
                    retry_after_s=bucket.seconds_until_token(),
                )
            self._admitted[key] = self._admitted.get(key, 0) + 1

    def refund(self, tenant: str) -> None:
        """Undo one :meth:`admit` of ``tenant`` whose submit was then
        refused (its record could not be written): the token and the
        admitted count go back."""
        with self._lock:
            key = self._bucket_key(tenant)
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.give_back()
                self._admitted[key] -= 1

    def usage(self) -> dict[str, dict]:
        """Per-tenant admitted counts (for ``/metrics`` and debugging)."""
        with self._lock:
            return {
                tenant: {"admitted": count}
                for tenant, count in sorted(self._admitted.items())
            }
