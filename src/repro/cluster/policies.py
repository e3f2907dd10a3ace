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
own generator, seeded via :func:`repro.device.stable_seed`. The sampler
reads that generator's PCG64 words itself, and each pair it draws equals
``Generator.choice(n, 2, replace=False)`` on the same seeded stream, so
routing costs no NumPy call per request.
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

    The pair is ``Generator.choice(n, 2, replace=False)`` on the seeded
    stream, drawn without calling it: the policy reads its generator's
    raw 64-bit words in blocks and replays NumPy's 32-bit draws (low
    word, then high), its Lemire bounded draw, its Floyd sampler and its
    two-element shuffle. Nothing else draws from that generator, so
    reading ahead is safe. With at most two candidates nothing is drawn.
    """

    name = "p2c-deadline"

    #: raw 64-bit words read from the generator per refill
    _BLOCK = 1024

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(
            stable_seed("cluster-router", self.name, seed))
        self._next_word = iter(()).__next__    # the first draw refills

    def _word(self) -> int:
        """The stream's next 32-bit word, in PCG64's ``next_uint32`` order."""
        try:
            return self._next_word()
        except StopIteration:
            raw = self._rng.bit_generator.random_raw(self._BLOCK)
            self._next_word = iter(np.column_stack(
                (raw & 0xFFFFFFFF, raw >> 32)).ravel().tolist()).__next__
            return self._next_word()

    def _draw(self, top: int) -> int:
        """A uniform integer in ``[0, top]``, by NumPy's 32-bit Lemire rule."""
        n = top + 1
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0xFFFFFFFF - top) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def _pair(self, n: int) -> tuple[int, int]:
        """Two distinct indices below ``n`` (``n >= 3``), in the order
        ``Generator.choice(n, 2, replace=False)`` returns them."""
        i = self._draw(n - 2)
        j = self._draw(n - 1)
        if j == i:
            j = n - 1
        return (j, i) if self._draw(1) == 0 else (i, j)

    def choose(self, candidates: list[Replica], request: Request,
               now_ms: float) -> Replica | None:
        n = len(candidates)
        if n == 0:
            return None
        a, b = (0, n - 1) if n <= 2 else self._pair(n)
        idx, best = a, candidates[a]
        est = best.estimate_finish_ms(now_ms)
        if b != a:
            other = candidates[b]
            est_b = other.estimate_finish_ms(now_ms)
            # the lower estimate, ties to the lower candidate index
            if est_b < est or (est_b == est and b < a):
                idx, best, est = b, other, est_b
        if est <= request.abs_deadline_ms:
            return best
        # both sampled estimates miss: reject onward through the rest of
        # the fleet, cheapest estimate first
        ranked = sorted((rep.estimate_finish_ms(now_ms), k, rep)
                        for k, rep in enumerate(candidates)
                        if k != a and k != b)
        for est_k, _, rep in ranked:
            if est_k <= request.abs_deadline_ms:
                return rep
        # every estimate misses: fall back to the least-bad replica
        ranked.append((est, idx, best))
        return min(ranked)[2]


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
