"""Micro-batching: coalesce queued requests into one batched inference.

On launch-overhead-dominated embedded GPUs a batch of B requests costs far
less than B single inferences (kernels launch once, weights are read once,
occupancy improves), so batching is the cheapest capacity lever a server
has — as long as no batch member's deadline is sacrificed to wait for the
others. The batcher therefore grows a batch from the EDF head only while
the *batched* latency estimate still fits inside every member's remaining
slack (minus a configurable safety margin for estimator error).
"""

from __future__ import annotations

from .ladder import TRNRung
from .queue import EDFQueue
from .request import Request

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Form deadline-safe micro-batches from the head of an EDF queue.

    ``tracer`` (e.g. :class:`repro.obs.Tracer`) receives one ``batch``
    span per formed batch carrying the batch size; the engine's matching
    ``forward`` span carries the member rids and executed rung.
    ``on_form`` (a callable ``(size, stop)``) is invoked once per formed
    batch with the stop reason; the engine feeds it into the labeled
    stop-reason counters.
    """

    def __init__(self, max_batch: int = 8, slack_margin_ms: float = 0.0,
                 tracer=None, on_form=None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if slack_margin_ms < 0:
            raise ValueError("slack_margin_ms must be >= 0")
        self.max_batch = max_batch
        self.slack_margin_ms = slack_margin_ms
        self.tracer = tracer
        self._emit = None if tracer is None else tracer.emit
        self._on_form = on_form

    def _fits(self, batch: list[Request], now_ms: float,
              est_ms: float) -> bool:
        finish = now_ms + est_ms + self.slack_margin_ms
        return all(finish <= r.abs_deadline_ms for r in batch)

    def form(self, queue: EDFQueue, now_ms: float,
             rung: TRNRung) -> list[Request]:
        """Pop the next micro-batch to execute at ``now_ms`` on ``rung``.

        The EDF head is always taken (running it late still beats never
        running it — a miss is recorded either way); further requests join
        only while the grown batch's estimated completion time keeps every
        member inside its deadline minus the slack margin. Because the
        queue is deadline-ordered, the first request that does not fit
        terminates growth: later requests have no tighter deadlines but the
        batch only gets slower.
        """
        if not len(queue):
            raise IndexError("cannot form a batch from an empty queue")
        batch = [queue.pop()]
        stop = None
        while len(batch) < self.max_batch and len(queue):
            candidate = queue.peek()
            est = rung.estimate_ms(len(batch) + 1)
            if not self._fits(batch + [candidate], now_ms, est):
                stop = "deadline-fit"
                break
            batch.append(queue.pop())
        if self._emit is not None or self._on_form is not None:
            # member rids ride the engine's matching "forward" span; the
            # batched estimate and stop reason are stamped here because
            # only the batcher knows *why* growth stopped (estimate_ms at
            # the final size is one cached dict lookup, no per-member work)
            if stop is None:
                stop = ("max-batch" if len(batch) == self.max_batch
                        else "queue-empty")
            if self._on_form is not None:
                self._on_form(len(batch), stop)
            if self._emit is not None:
                self._emit("batch", "batch", now_ms, 0.0, None,
                           {"size": len(batch),
                            "est_ms": rung.estimate_ms(len(batch)),
                            "stop": stop})
        return batch
