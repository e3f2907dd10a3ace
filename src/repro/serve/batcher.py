"""Micro-batching: coalesce queued requests into one batched inference.

On launch-overhead-dominated embedded GPUs a batch of B requests costs far
less than B single inferences (kernels launch once, weights are read once,
occupancy improves), so batching is the cheapest capacity lever a server
has — as long as no batch member's deadline is sacrificed to wait for the
others. The batcher therefore grows a batch from the EDF head only while
the *batched* latency estimate still finishes by the head's deadline
(:func:`deadline_fit`); the fluid model in :mod:`repro.workload.fluid`
applies the same rule to its fluid queue heads.
"""

from __future__ import annotations

from .ladder import TRNRung
from .queue import EDFQueue
from .request import Request

__all__ = ["MicroBatcher", "deadline_fit"]


def deadline_fit(estimate_ms, now_ms: float, deadline_ms: float,
                 limit: int) -> int:
    """The batch size the deadline-fit rule forms, at most ``limit``.

    Grows from 1 while ``now_ms + estimate_ms(b + 1) <= deadline_ms`` and
    stops at the first size that does not fit, even if a larger one would
    (a non-monotone latency table). ``deadline_ms`` is the EDF head's: the
    queue pops deadlines in non-decreasing order, so a batch that finishes
    by the head's deadline finishes by every member's. The head always
    runs, so the result is at least 1.
    """
    b = 1
    while b < limit and now_ms + estimate_ms(b + 1) <= deadline_ms:
        b += 1
    return b


class MicroBatcher:
    """Form deadline-safe micro-batches from the head of an EDF queue.

    ``tracer`` (e.g. :class:`repro.obs.Tracer`) receives one ``batch``
    span per formed batch carrying the batch size; the engine's matching
    ``forward`` span carries the member rids and executed rung.
    ``on_form`` (a callable ``(size, stop)``) is invoked once per formed
    batch with the stop reason; the engine feeds it into the labeled
    stop-reason counters.
    """

    def __init__(self, max_batch: int = 8, tracer=None, on_form=None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.tracer = tracer
        self._emit = None if tracer is None else tracer.emit
        self._on_form = on_form

    def form(self, queue: EDFQueue, now_ms: float,
             rung: TRNRung) -> list[Request]:
        """Pop the next micro-batch to execute at ``now_ms`` on ``rung``.

        The EDF head is always taken (running it late still beats never
        running it — a miss is recorded either way); the batch then grows
        by :func:`deadline_fit` against the head's deadline, up to
        ``max_batch`` and the queue's depth.
        """
        if not len(queue):
            raise IndexError("cannot form a batch from an empty queue")
        head = queue.pop()
        limit = min(self.max_batch, len(queue) + 1)
        size = deadline_fit(rung.estimate_ms, now_ms, head.abs_deadline_ms,
                            limit)
        batch = [head]
        for _ in range(size - 1):
            batch.append(queue.pop())
        if self._emit is not None or self._on_form is not None:
            # member rids ride the engine's matching "forward" span; the
            # batched estimate and stop reason are stamped here because
            # only the batcher knows *why* growth stopped (estimate_ms at
            # the final size is one cached dict lookup, no per-member work)
            stop = ("max-batch" if size == self.max_batch
                    else "queue-empty" if size == limit
                    else "deadline-fit")
            if self._on_form is not None:
                self._on_form(size, stop)
            if self._emit is not None:
                self._emit("batch", "batch", now_ms, 0.0, None,
                           {"size": size,
                            "est_ms": rung.estimate_ms(size),
                            "stop": stop})
        return batch
