"""Request tracing over the serving stack's virtual clock.

A :class:`Span` is one event in a request's life (``enqueue → admit →
batch → forward → respond``, or ``drop`` when admission rejects it),
stamped in virtual milliseconds. :class:`Tracer` records spans into a
bounded in-memory :class:`TraceBuffer` — O(capacity) memory no matter how
long a trace runs, with an explicit count of spans dropped once full — and
is consumed duck-typed by :mod:`repro.serve` (the engine, queue and
batcher emit spans only when a tracer is attached, so the untraced hot
path stays unchanged).

Exporters live in :mod:`repro.obs.export`: JSONL (one span per line) and
the Chrome trace-event format (load in ``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

from collections import deque

__all__ = ["Span", "TraceBuffer", "Tracer"]


class Span:
    """One traced event. ``dur_ms == 0`` marks an instant event.

    A ``__slots__`` class rather than a dataclass: spans are created on the
    serving hot path (several per request), where attribute-dict and
    frozen-dataclass ``__setattr__`` costs are measurable.
    """

    __slots__ = ("name", "cat", "ts_ms", "dur_ms", "rid", "args")

    def __init__(self, name: str, cat: str, ts_ms: float,
                 dur_ms: float = 0.0, rid: int | None = None,
                 args: dict | None = None):
        self.name = name            # enqueue/admit/batch/forward/respond/...
        self.cat = cat              # component: "queue", "batch", "serve", ...
        self.ts_ms = ts_ms          # virtual-time start
        self.dur_ms = dur_ms
        self.rid = rid              # request id, when the span has one
        self.args = {} if args is None else args

    def __repr__(self) -> str:
        return (f"Span(name={self.name!r}, cat={self.cat!r}, "
                f"ts_ms={self.ts_ms}, dur_ms={self.dur_ms}, "
                f"rid={self.rid}, args={self.args})")

    def as_dict(self) -> dict:
        d = {"name": self.name, "cat": self.cat, "ts_ms": self.ts_ms,
             "dur_ms": self.dur_ms}
        if self.rid is not None:
            d["rid"] = self.rid
        if self.args:
            d["args"] = dict(self.args)
        return d


class TraceBuffer:
    """Bounded FIFO of spans; the oldest spans yield once capacity is hit.

    ``dropped`` counts evictions so an exported trace is never silently
    partial: ``len(buffer) + buffer.dropped`` is the true span count.

    Internally spans live as plain field tuples and only become
    :class:`Span` objects on iteration: the write side sits on the serving
    hot path (a C-level ``deque.append`` per span), while the read side —
    exports, tests, post-hoc analysis — happily pays the construction.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self._raw: deque[tuple] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, span: Span) -> None:
        if len(self._raw) == self.capacity:
            self.dropped += 1
        self._raw.append((span.name, span.cat, span.ts_ms, span.dur_ms,
                          span.rid, span.args))

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        return (Span(*fields) for fields in self._raw)

    def clear(self) -> None:
        self._raw.clear()
        self.dropped = 0


class Tracer:
    """The write side of tracing, shared by every serve component.

    All methods are cheap enough to call per request; none allocate when
    tracing is off because callers guard with ``if tracer is not None``.
    """

    def __init__(self, capacity: int = 65536):
        self.buffer = TraceBuffer(capacity)
        # per-name counts of spans evicted from the buffer; live spans are
        # counted by scanning the buffer on read, so the hot path only pays
        # for name bookkeeping once the buffer is full
        self._evicted: dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def emit(self, name: str, cat: str, ts_ms: float, dur_ms: float,
             rid: int | None, args: dict | None) -> None:
        """Positional fast path: record one span with no argument binding.

        This is what the serve components call per request — CPython's
        keyword/``**kwargs`` binding costs ~0.3µs per call, which across
        several spans per request is measurable against the serving loop's
        own work. Pass ``args=None`` rather than ``{}`` when a span has no
        payload; the read side normalises it.
        """
        buf = self.buffer
        raw = buf._raw
        if len(raw) == buf.capacity:
            old = raw[0][0]
            self._evicted[old] = self._evicted.get(old, 0) + 1
            buf.dropped += 1
        raw.append((name, cat, ts_ms, dur_ms, rid, args))

    def instant(self, name: str, cat: str, ts_ms: float,
                rid: int | None = None, **args) -> None:
        """Record a zero-duration event (keyword-friendly wrapper)."""
        self.emit(name, cat, ts_ms, 0.0, rid, args)

    def span(self, name: str, cat: str, ts_ms: float, dur_ms: float,
             rid: int | None = None, **args) -> None:
        """Record a complete (duration) event (keyword-friendly wrapper)."""
        self.emit(name, cat, ts_ms, dur_ms, rid, args)

    # -- read-out ------------------------------------------------------------
    def _by_name(self) -> dict[str, int]:
        counts = dict(self._evicted)
        for rec in self.buffer._raw:
            counts[rec[0]] = counts.get(rec[0], 0) + 1
        return counts

    def count(self, name: str) -> int:
        """Total spans recorded under ``name`` (including evicted ones)."""
        n = self._evicted.get(name, 0)
        for rec in self.buffer._raw:
            if rec[0] == name:
                n += 1
        return n

    def spans(self, name: str | None = None) -> list[Span]:
        """Buffered spans, optionally filtered by name, in record order."""
        if name is None:
            return list(self.buffer)
        return [s for s in self.buffer if s.name == name]

    def snapshot(self) -> dict:
        """Span statistics as a plain dict (what :meth:`report` prints)."""
        return {"buffered": len(self.buffer),
                "dropped": self.buffer.dropped,
                "by_name": dict(sorted(self._by_name().items()))}

    def report(self) -> str:
        """One line per span kind plus buffer occupancy."""
        snap = self.snapshot()
        parts = [f"{name}: {n}" for name, n in snap["by_name"].items()]
        lines = ["spans: " + (", ".join(parts) if parts else "none"),
                 f"buffer: {snap['buffered']}/{self.buffer.capacity} "
                 f"({snap['dropped']} dropped)"]
        return "\n".join(lines)

    def clear(self) -> None:
        self.buffer.clear()
        self._evicted.clear()
