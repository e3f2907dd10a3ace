"""Multi-tenant request classes and weighted-fair admission.

A production inference service rarely serves one traffic class: an
interactive tenant with a tight latency SLO shares the fleet with batch
tenants that tolerate far looser deadlines but can flood the queue. This
module gives each class a name, a deadline, a scheduling ``weight`` and a
traffic ``share`` (:class:`TenantClass` / :class:`TenantMix`), and adds
the protection mechanism the EDF queue alone cannot provide:
:class:`WeightedFairAdmission`.

EDF orders *admitted* work optimally, but admission itself is
first-come-first-served — a flash crowd from one tenant fills the bounded
queue and every other tenant's requests then wait behind it (or bounce
off ``queue-full``). Weighted-fair admission closes that hole at the
door: while the queue sits below a contention ``watermark`` everyone is
admitted, and above it a tenant is admitted only while its share of the
recently admitted requests does not exceed its weight share. Because
shares sum to one, at least one tenant is always at or under its
guaranteed slice, so the policy can never deadlock the queue — it only
throttles whoever is flooding. The engine consults the policy via
``ServerConfig(admission_policy=...)`` (see
:meth:`repro.serve.Engine._admit`); rejections carry the
``tenant-over-share`` reason so per-tenant metrics show exactly what the
policy cost each class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["TenantClass", "TenantMix", "WeightedFairAdmission",
           "default_tenants"]


@dataclass(frozen=True)
class TenantClass:
    """One request class: its SLO and its claim on the fleet.

    ``deadline_ms`` is the class's relative latency budget (every request
    of the tenant carries it); ``weight`` is its guaranteed share of
    admissions under contention (relative to the other tenants' weights);
    ``share`` is its fraction of *offered* traffic when a
    :class:`TenantMix` assigns tenants to generated arrivals; ``priority``
    is descriptive rank for reports (higher = more important).
    """

    name: str
    deadline_ms: float
    weight: float = 1.0
    share: float = 1.0
    priority: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("a tenant needs a name")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.share < 0:
            raise ValueError("share must be >= 0")


class TenantMix:
    """An ordered set of tenant classes with normalised traffic shares."""

    def __init__(self, tenants: list[TenantClass]):
        if not tenants:
            raise ValueError("a tenant mix needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        total = sum(t.share for t in tenants)
        if total <= 0:
            raise ValueError("tenant shares must sum to something positive")
        self.tenants = list(tenants)
        self._by_name = {t.name: t for t in tenants}
        self.shares = np.array([t.share / total for t in tenants])

    def __iter__(self):
        return iter(self.tenants)

    def __len__(self) -> int:
        return len(self.tenants)

    def __getitem__(self, name: str) -> TenantClass:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def draw(self, n: int, rng: np.random.Generator | int = 0
             ) -> list[TenantClass]:
        """Assign ``n`` arrivals to tenants by traffic share (seeded)."""
        rng = np.random.default_rng(rng)
        idx = rng.choice(len(self.tenants), size=n, p=self.shares)
        return [self.tenants[int(i)] for i in idx]

    def rates_rps(self, total_rps: float) -> dict[str, float]:
        """Split a total offered rate into per-tenant rates by share."""
        return {t.name: float(total_rps * s)
                for t, s in zip(self.tenants, self.shares)}

    def describe(self) -> str:
        lines = []
        for t, s in zip(self.tenants, self.shares):
            lines.append(f"  {t.name:12s} deadline {t.deadline_ms:6.2f} ms  "
                         f"weight {t.weight:4.1f}  share {100 * s:5.1f}%  "
                         f"priority {t.priority}")
        return "\n".join(lines)


def default_tenants() -> TenantMix:
    """The canonical two-class mix used by the CLI and benchmarks.

    ``interactive`` — the high-priority tenant: a quarter of the traffic,
    a tight deadline, and three quarters of the admission weight.
    ``batch`` — the bulk tenant: most of the traffic, a loose deadline,
    and the remaining weight, so a batch flood cannot evict interactive
    work at the admission door.
    """
    return TenantMix([
        TenantClass("interactive", deadline_ms=3.0, weight=3.0,
                    share=0.25, priority=1),
        TenantClass("batch", deadline_ms=12.0, weight=1.0,
                    share=0.75, priority=0),
    ])


class WeightedFairAdmission:
    """Admission control that enforces weighted shares under contention.

    Below ``watermark * queue_capacity`` queued requests the policy is
    inert (uncontended capacity is free-for-all — throttling there would
    only waste it). Above the watermark, a tenant is admitted only while
    its count among the last ``window`` admissions stays within its
    weight share. Unknown tenants (including untagged requests) bypass
    the policy entirely, so single-class workloads behave exactly as
    before.

    The policy is engine-owned state: :class:`repro.serve.Engine` calls
    :meth:`reset` at construction, :meth:`allow` per arrival under
    consideration and :meth:`record` per successful admission, all in
    virtual-time order, so runs replay deterministically.
    """

    def __init__(self, tenants: TenantMix | list[TenantClass],
                 watermark: float = 0.5, window: int = 128):
        if not 0.0 <= watermark <= 1.0:
            raise ValueError("watermark must be in [0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        classes = list(tenants)
        self.weights = {t.name: t.weight for t in classes}
        self.total_weight = sum(self.weights.values())
        self.watermark = watermark
        self.window = window
        self._recent: deque[str] = deque()
        self._counts: dict[str, int] = {}

    def reset(self) -> None:
        """Forget the admission history (fresh serving run)."""
        self._recent.clear()
        self._counts = {name: 0 for name in self.weights}

    def share_of(self, tenant: str) -> float:
        """The tenant's share of the recent admission window."""
        if not self._recent:
            return 0.0
        return self._counts.get(tenant, 0) / len(self._recent)

    def fair_share_of(self, tenant: str) -> float:
        """The tenant's guaranteed admission share (weight-normalised)."""
        return self.weights[tenant] / self.total_weight

    def allow(self, request, queue_len: int, capacity: int) -> bool:
        """Whether this arrival may be admitted right now.

        ``queue_len``/``capacity`` describe the EDF queue at the moment
        of the decision. Side-effect free: the engine records the
        admission separately (rejected requests must not consume window
        slots, or a flood would launder its own share down).
        """
        tenant = getattr(request, "tenant", None)
        if tenant is None or tenant not in self.weights:
            return True
        if queue_len < self.watermark * capacity:
            return True
        n = len(self._recent)
        if n == 0:
            return True
        # admitted-share * total_weight <= weight * window-size, in
        # integers — no float drift in the admission decision
        return (self._counts.get(tenant, 0) * self.total_weight
                <= self.weights[tenant] * n)

    def record(self, request) -> None:
        """Count one successful admission against its tenant's share."""
        tenant = getattr(request, "tenant", None)
        if tenant is None or tenant not in self.weights:
            return
        self._recent.append(tenant)
        self._counts[tenant] = self._counts.get(tenant, 0) + 1
        if len(self._recent) > self.window:
            old = self._recent.popleft()
            self._counts[old] -= 1

    def describe(self) -> str:
        shares = ", ".join(
            f"{name}: {self.fair_share_of(name):.2f}"
            for name in sorted(self.weights))
        return (f"weighted-fair admission (watermark "
                f"{self.watermark:.2f}, window {self.window}; "
                f"fair shares {shares})")
