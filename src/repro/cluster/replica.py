"""One serving shard: an engine, a TRN ladder and a device of its own.

A :class:`Replica` is the single-node serving engine
(:class:`repro.serve.Engine`) with a name and the push interface a
cluster router needs: requests are :meth:`submit`-ted at their true
virtual arrival times and the replica :meth:`advance`-s its own clock
between global events, serving batches exactly as the single-node engine
would — ``advance`` is the engine's steppable ``run_until`` core, the
same code path :meth:`repro.serve.Engine.run` uses, so a one-replica
cluster reproduces a plain :class:`repro.serve.Server` run bit for bit.

Each replica owns its ladder, its device spec and (optionally) its own
fault injector, which is what makes heterogeneous fleets first-class: a
Xavier-class replica next to two Nano-class ones is just three replicas
built from three specs, and killing one of them is a fault scenario
scoped to that replica alone.
"""

from __future__ import annotations

from dataclasses import replace

from repro.serve.engine import Engine, ServerConfig
from repro.serve.ladder import TRNLadder
from repro.serve.request import Request

__all__ = ["Replica", "ReplicaTracer", "homogeneous_replicas"]


class ReplicaTracer:
    """A tracer proxy stamping every span with the replica that emitted it.

    Wraps a shared :class:`repro.obs.Tracer` (or anything duck-compatible)
    so the cluster's one trace buffer interleaves per-replica spans that
    remain attributable: each span's args carry ``replica: <name>``.
    """

    __slots__ = ("replica", "_inner")

    def __init__(self, replica: str, inner):
        self.replica = replica
        self._inner = inner

    def emit(self, name, cat, ts_ms, dur_ms, rid, args) -> None:
        tagged = {"replica": self.replica} if args is None \
            else {**args, "replica": self.replica}
        self._inner.emit(name, cat, ts_ms, dur_ms, rid, tagged)

    def instant(self, name, cat, ts_ms, rid=None, **args) -> None:
        self.emit(name, cat, ts_ms, 0.0, rid, args)


class Replica(Engine):
    """A single serving shard driven by a cluster router.

    A :class:`repro.serve.Engine` with a name: the router
    :meth:`submit`-s requests into its ``pending`` arrivals, steps it with
    :meth:`advance` and reads its ``clock_ms`` and ``responses``. Like
    the engine, it is single-use: build fresh replicas per run.

    ``tracer`` is wrapped in a :class:`ReplicaTracer` so this replica's
    spans are attributable in a shared buffer, and ``telemetry`` sees its
    series under a ``replica=<name>`` label; ``faults`` (a
    :class:`repro.faults.FaultInjector`) wraps *this replica's* ladder
    only — the cluster's other replicas stay healthy.
    """

    def __init__(self, name: str, ladder: TRNLadder,
                 config: ServerConfig | None = None,
                 tracer=None, drift=None, faults=None, telemetry=None):
        super().__init__(
            ladder, config or ServerConfig(),
            tracer=None if tracer is None else ReplicaTracer(name, tracer),
            drift=drift, faults=faults, telemetry=telemetry,
            labels=None if telemetry is None else {"replica": name})
        self.name = name
        self.draining = False

    @property
    def spec(self):
        """The device spec this replica serves on."""
        return self.ladder.rungs[0].spec

    @property
    def load(self) -> int:
        """Requests routed here but not yet executed (pending + queued)."""
        return len(self.pending) + len(self.queue)

    def healthy(self, now_ms: float) -> bool:
        """Whether new traffic should be routed here at ``now_ms``.

        Healthy means some rung's circuit breaker would accept work (a
        side-effect-free read — see
        :meth:`repro.faults.CircuitBreaker.would_allow`). Without
        resilience there are no breakers and the replica always reads
        healthy; a draining replica refuses new traffic regardless.
        """
        if self.draining:
            return False
        return self.available_rung(now_ms) is not None

    def estimate_finish_ms(self, now_ms: float) -> float:
        """When one more routed request would plausibly finish.

        The estimate-then-commit quantity deadline-aware routing consults
        before dispatching (the cluster analogue of NetCut's Algorithm 1
        estimating a TRN before training it): the replica's next free
        time plus the backlog served in maximally-packed batches on the
        rung the engine would actually target, from the same noise-free
        latency model admission control trusts. Unhealthy replicas
        estimate with the fastest rung — the engine's own last resort.
        """
        rung = self.available_rung(now_ms) or self.ladder.fastest
        backlog = self.load + 1
        max_batch = self.config.max_batch
        batches = -(-backlog // max_batch)           # ceil division
        start = max(self.clock_ms, now_ms)
        return start + batches * rung.estimate_ms(min(backlog, max_batch))

    def submit(self, request: Request) -> None:
        """Accept one routed request (dispatched in global arrival order)."""
        self.pending.append(request)

    def advance(self, until_ms: float) -> None:
        """Serve admitted work, never starting a batch at or past the horizon.

        The router steps a replica to each arrival instant at which it
        can start work (its clock is behind and it has load), so all
        replicas observe fault windows and serve batches in one
        consistent virtual timeline.
        """
        self.run_until(until_ms)

    def finish(self) -> None:
        """Drain everything: serve the backlog, then end the run.

        After the infinite-horizon step the queue is empty unless every
        rung hard-failed; :meth:`repro.serve.Engine.drain` converts any
        leftovers to ``DROPPED`` responses so the conservation law
        ``completed + dropped == admitted`` holds. The replica takes no
        closing telemetry sample: the router takes the fleet's one, after
        every replica has finished.
        """
        self.run_until()
        self.drain()


def homogeneous_replicas(base, spec, n: int,
                         config: ServerConfig | None = None,
                         num_classes: int = 5, max_rungs: int = 6,
                         tracer=None, drift=None,
                         faults: dict[int, object] | None = None,
                         telemetry=None) -> list[Replica]:
    """Build ``n`` identical replicas, each with its own ladder and seed.

    Every replica gets a fresh :class:`repro.serve.TRNLadder` from the
    same base network and spec (samplers are stateful, so sharing one
    ladder would entangle the shards) and a per-replica measurement seed
    (``config.seed + index``) so the fleet's noise streams are
    independent but the whole cluster run stays deterministic. ``faults``
    maps replica indices to per-replica fault injectors.
    """
    config = config or ServerConfig()
    replicas = []
    for i in range(n):
        ladder = TRNLadder.from_base(base, spec, num_classes=num_classes,
                                     max_rungs=max_rungs)
        replicas.append(Replica(
            f"r{i}", ladder, replace(config, seed=config.seed + i),
            tracer=tracer, drift=drift,
            faults=None if faults is None else faults.get(i),
            telemetry=telemetry))
    return replicas
