"""Routing policies: which replica serves the next request.

Three disciplines, in increasing awareness of what the replicas know:

- :class:`RoundRobin` — oblivious cycling; the baseline every serving
  system starts from.
- :class:`JoinShortestQueue` — route to the replica with the least
  un-executed work; near-optimal for homogeneous fleets but blind to
  device speed, so a Nano-class replica with a short queue can still be
  the slowest place to send a request.
- :class:`DeadlineAwareP2C` — power-of-two-choices (Mitzenmacher's "two
  random choices" result: sampling two queues and picking the better one
  captures most of the benefit of global knowledge at O(1) cost) made
  deadline-aware: the two sampled replicas are compared by their
  *estimated finish time* (device-speed-aware, so heterogeneous fleets
  route correctly), and when the better estimate would still miss the
  request's deadline the policy rejects onward through the remaining
  replicas in estimate order — the same estimate-then-commit discipline
  as NetCut's Algorithm 1 — before falling back to the least-bad
  replica, whose admission control has the final word.

All policies are deterministic: the only randomness is the P2C sampler's
own generator, seeded via :func:`repro.device.stable_seed`.
"""

from __future__ import annotations

import numpy as np

from repro.device.spec import stable_seed
from repro.serve.request import Request

from .replica import Replica

__all__ = ["RoutingPolicy", "RoundRobin", "JoinShortestQueue",
           "DeadlineAwareP2C", "POLICIES", "make_policy"]


class RoutingPolicy:
    """Base policy: pick a replica from the routable candidates.

    ``choose`` receives only replicas that are currently routable
    (healthy, not draining); it returns one of them or ``None`` to
    signal that nothing can take the request (the router then drops it
    at cluster level instead of crashing).
    """

    name = "base"

    def choose(self, candidates: list[Replica], request: Request,
               now_ms: float) -> Replica | None:
        raise NotImplementedError


class RoundRobin(RoutingPolicy):
    """Cycle through the routable replicas in order."""

    name = "round-robin"

    def __init__(self):
        self._turn = 0

    def choose(self, candidates: list[Replica], request: Request,
               now_ms: float) -> Replica | None:
        if not candidates:
            return None
        chosen = candidates[self._turn % len(candidates)]
        self._turn += 1
        return chosen


class JoinShortestQueue(RoutingPolicy):
    """Route to the replica with the least un-executed work.

    Ties break by candidate order, which is stable (the router keeps
    replicas in creation order), so routing is deterministic.
    """

    name = "jsq"

    def choose(self, candidates: list[Replica], request: Request,
               now_ms: float) -> Replica | None:
        if not candidates:
            return None
        return min(enumerate(candidates), key=lambda p: (p[1].load, p[0]))[1]


class DeadlineAwareP2C(RoutingPolicy):
    """Deadline-aware power-of-two-choices over latency estimates.

    Two distinct replicas are sampled uniformly; each is asked when one
    more request would finish (:meth:`Replica.estimate_finish_ms`) and
    the earlier one is taken — *if* its estimate meets the request's
    absolute deadline. Otherwise the policy widens to every remaining
    candidate in estimate order (cheap: the fleet is small compared to
    the request rate) and commits to the first that fits; when no
    replica's estimate fits, the least-bad one is returned — serving a
    probable miss beats dropping outright, and the replica's own
    admission control still rejects truly unmeetable work.
    """

    name = "p2c-deadline"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(
            stable_seed("cluster-router", self.name, seed))

    def choose(self, candidates: list[Replica], request: Request,
               now_ms: float) -> Replica | None:
        if not candidates:
            return None
        if len(candidates) <= 2:
            sampled = list(enumerate(candidates))
        else:
            i, j = self._rng.choice(len(candidates), size=2, replace=False)
            sampled = [(int(i), candidates[int(i)]),
                       (int(j), candidates[int(j)])]
        estimates = {idx: rep.estimate_finish_ms(now_ms)
                     for idx, rep in sampled}
        idx, best = min(sampled, key=lambda p: (estimates[p[0]], p[0]))
        if estimates[idx] <= request.abs_deadline_ms:
            return best
        # both sampled estimates miss: reject onward through the rest of
        # the fleet, cheapest estimate first
        ranked = sorted(
            ((rep.estimate_finish_ms(now_ms), i, rep)
             for i, rep in enumerate(candidates) if i not in estimates),
            key=lambda t: (t[0], t[1]))
        for est, _, rep in ranked:
            if est <= request.abs_deadline_ms:
                return rep
        # every estimate misses: fall back to the least-bad replica
        ranked.append((estimates[idx], idx, best))
        return min(ranked, key=lambda t: (t[0], t[1]))[2]


#: Policy factories by CLI name: name -> (seed) -> policy.
POLICIES = {
    RoundRobin.name: lambda seed: RoundRobin(),
    JoinShortestQueue.name: lambda seed: JoinShortestQueue(),
    DeadlineAwareP2C.name: lambda seed: DeadlineAwareP2C(seed),
}


def make_policy(name: str, seed: int = 0) -> RoutingPolicy:
    """Instantiate a routing policy by name (see :data:`POLICIES`)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown routing policy {name!r}; available: "
                       f"{sorted(POLICIES)}") from None
    return factory(seed)
