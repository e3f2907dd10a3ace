"""Composable arrival processes: production traffic for the serving stack.

The serving/cluster layers consume plain lists of
:class:`repro.serve.Request`, so a workload generator is anything that
produces arrival times. This module models the arrival *intensity*
(requests per second as a function of virtual time) as a first-class
object — :class:`ArrivalProcess` — and samples concrete traces from it
with Lewis–Shedler thinning: candidate arrivals are drawn from a
homogeneous Poisson process at the peak rate and each is kept with
probability ``rate(t) / peak_rate``. The result is an exact draw from
the non-homogeneous Poisson process with that intensity, fully
deterministic under a seeded generator.

Four intensities cover the production shapes the single-rate traces of
:func:`poisson_trace` cannot express:

- :class:`DiurnalCycle` — the daily sine every consumer service rides;
- :class:`FlashCrowd` — a ramp/hold/decay spike (a push notification, a
  product launch) on top of a base rate;
- :class:`MarkovModulated` — an MMPP switching between rate states with
  exponential dwell times, the standard model for correlated bursts;
- :class:`Superposition` — the sum of independent processes, which is
  how per-tenant streams compose into one offered load.

:func:`poisson_trace`, :func:`uniform_trace` and :func:`offered_load`
are re-exported by :mod:`repro.serve`; their seeded draw order is
fixed, so existing seeded experiments reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.synthetic import render_object, sample_object

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "DiurnalCycle",
    "FlashCrowd",
    "MarkovModulated",
    "Superposition",
    "make_process",
    "generate_trace",
    "poisson_trace",
    "uniform_trace",
    "offered_load",
]


class ArrivalProcess:
    """An arrival intensity over virtual time (milliseconds).

    Subclasses implement :meth:`rate_rps` (vectorised over numpy arrays
    of times) and :attr:`peak_rate_rps` (a finite upper bound on the
    intensity, used as the thinning envelope). Processes whose intensity
    is itself random (:class:`MarkovModulated`) realise it in
    :meth:`prepare`, which :meth:`arrival_times_ms` calls once per draw.
    """

    def rate_rps(self, t_ms):
        """Instantaneous arrival rate (requests/second) at time ``t_ms``."""
        raise NotImplementedError

    @property
    def peak_rate_rps(self) -> float:
        """A finite upper bound on :meth:`rate_rps` (thinning envelope)."""
        raise NotImplementedError

    def prepare(self, horizon_ms: float, rng: np.random.Generator) -> None:
        """Realise any internal randomness for one draw (default: none)."""

    def mean_rate_rps(self, horizon_ms: float, samples: int = 512) -> float:
        """Time-averaged intensity over ``[0, horizon_ms)`` (numeric)."""
        ts = (np.arange(samples) + 0.5) * (horizon_ms / samples)
        return float(np.mean(self.rate_rps(ts)))

    def arrival_times_ms(self, horizon_ms: float,
                         rng: np.random.Generator | int = 0) -> np.ndarray:
        """One exact draw of the arrival times in ``[0, horizon_ms)``.

        Lewis–Shedler thinning against the peak-rate envelope, vectorised
        in chunks: the candidate stream and the acceptance stream each
        consume the generator in a fixed order, so a seed pins the trace.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        rng = np.random.default_rng(rng)
        self.prepare(horizon_ms, rng)
        peak = self.peak_rate_rps
        if peak <= 0:
            return np.empty(0)
        mean_gap_ms = 1e3 / peak
        out = []
        t = 0.0
        while t < horizon_ms:
            gaps = rng.exponential(mean_gap_ms, size=2048)
            candidates = t + np.cumsum(gaps)
            t = float(candidates[-1])
            candidates = candidates[candidates < horizon_ms]
            if candidates.size == 0:
                continue
            keep = rng.random(candidates.size) * peak \
                <= self.rate_rps(candidates)
            out.append(candidates[keep])
        return np.concatenate(out) if out else np.empty(0)

    def describe(self) -> str:
        return type(self).__name__


class ConstantRate(ArrivalProcess):
    """A homogeneous Poisson process (the classic open-loop model)."""

    def __init__(self, rate_rps: float):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        self._rate = float(rate_rps)

    def rate_rps(self, t_ms):
        return np.full_like(np.asarray(t_ms, dtype=float), self._rate)

    @property
    def peak_rate_rps(self) -> float:
        return self._rate

    def describe(self) -> str:
        return f"constant {self._rate:,.0f} rps"


class DiurnalCycle(ArrivalProcess):
    """A sinusoidal daily cycle: ``base * (1 + amplitude*sin(...))``.

    ``period_ms`` is the cycle length in *virtual* milliseconds — serving
    experiments compress a day into however much virtual time the trace
    spans. ``phase`` (radians) shifts where in the cycle the trace starts.
    """

    def __init__(self, base_rps: float, amplitude: float = 0.5,
                 period_ms: float = 1000.0, phase: float = 0.0):
        if base_rps <= 0:
            raise ValueError("base_rps must be positive")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        self.base_rps = float(base_rps)
        self.amplitude = float(amplitude)
        self.period_ms = float(period_ms)
        self.phase = float(phase)

    def rate_rps(self, t_ms):
        t = np.asarray(t_ms, dtype=float)
        cycle = np.sin(2.0 * math.pi * t / self.period_ms + self.phase)
        return self.base_rps * (1.0 + self.amplitude * cycle)

    @property
    def peak_rate_rps(self) -> float:
        return self.base_rps * (1.0 + self.amplitude)

    def describe(self) -> str:
        return (f"diurnal {self.base_rps:,.0f} rps ±"
                f"{100 * self.amplitude:.0f}% / {self.period_ms:.0f} ms")


class FlashCrowd(ArrivalProcess):
    """A base rate with a ramp/hold/decay spike riding on top.

    The rate climbs linearly from ``base_rps`` to
    ``base_rps * peak_multiplier`` over ``ramp_ms`` starting at
    ``start_ms``, holds the peak for ``hold_ms``, then decays
    exponentially back with time constant ``decay_ms`` — the canonical
    shape of a crowd arriving on a push notification and losing interest.
    """

    def __init__(self, base_rps: float, peak_multiplier: float,
                 start_ms: float, ramp_ms: float = 10.0,
                 hold_ms: float = 50.0, decay_ms: float = 25.0):
        if base_rps <= 0:
            raise ValueError("base_rps must be positive")
        if peak_multiplier < 1.0:
            raise ValueError("peak_multiplier must be >= 1")
        if min(ramp_ms, decay_ms) <= 0 or hold_ms < 0 or start_ms < 0:
            raise ValueError("flash-crowd phases must be positive "
                             "(hold_ms may be zero)")
        self.base_rps = float(base_rps)
        self.peak_multiplier = float(peak_multiplier)
        self.start_ms = float(start_ms)
        self.ramp_ms = float(ramp_ms)
        self.hold_ms = float(hold_ms)
        self.decay_ms = float(decay_ms)

    def rate_rps(self, t_ms):
        t = np.asarray(t_ms, dtype=float)
        peak = self.base_rps * self.peak_multiplier
        ramp_end = self.start_ms + self.ramp_ms
        hold_end = ramp_end + self.hold_ms
        frac = np.clip((t - self.start_ms) / self.ramp_ms, 0.0, 1.0)
        rate = self.base_rps + (peak - self.base_rps) * frac
        decay = self.base_rps + (peak - self.base_rps) \
            * np.exp(-np.maximum(t - hold_end, 0.0) / self.decay_ms)
        return np.where(t < hold_end, rate, decay)

    @property
    def peak_rate_rps(self) -> float:
        return self.base_rps * self.peak_multiplier

    def describe(self) -> str:
        return (f"flash crowd {self.base_rps:,.0f} rps x"
                f"{self.peak_multiplier:.1f} @ {self.start_ms:.0f} ms "
                f"(+{self.ramp_ms:.0f}/{self.hold_ms:.0f}/"
                f"{self.decay_ms:.0f} ms)")


class MarkovModulated(ArrivalProcess):
    """A Markov-modulated Poisson process: correlated bursts.

    The intensity jumps between ``rates_rps`` states; state ``i`` holds
    for an exponential dwell with mean ``mean_dwell_ms[i]``, then moves
    to a uniformly random *other* state. The realised state trajectory is
    drawn in :meth:`prepare` (per trace draw, from the same seeded
    generator as the arrivals), so one seed pins both the burst schedule
    and the arrivals inside it.
    """

    def __init__(self, rates_rps: tuple[float, ...],
                 mean_dwell_ms: tuple[float, ...], start_state: int = 0):
        if len(rates_rps) < 2:
            raise ValueError("an MMPP needs at least two rate states")
        if len(mean_dwell_ms) != len(rates_rps):
            raise ValueError("need one mean dwell per rate state")
        if min(rates_rps) < 0 or max(rates_rps) <= 0:
            raise ValueError("rates must be non-negative, one positive")
        if min(mean_dwell_ms) <= 0:
            raise ValueError("mean dwells must be positive")
        if not 0 <= start_state < len(rates_rps):
            raise ValueError("start_state out of range")
        self.rates_rps_states = tuple(float(r) for r in rates_rps)
        self.mean_dwell_ms = tuple(float(d) for d in mean_dwell_ms)
        self.start_state = start_state
        self._switch_ms = np.array([0.0])
        self._state_rates = np.array([self.rates_rps_states[start_state]])

    def prepare(self, horizon_ms: float, rng: np.random.Generator) -> None:
        switches, rates = [0.0], [self.rates_rps_states[self.start_state]]
        state, t = self.start_state, 0.0
        n = len(self.rates_rps_states)
        while t < horizon_ms:
            t += float(rng.exponential(self.mean_dwell_ms[state]))
            nxt = int(rng.integers(n - 1))
            state = nxt if nxt < state else nxt + 1   # any *other* state
            switches.append(t)
            rates.append(self.rates_rps_states[state])
        self._switch_ms = np.array(switches)
        self._state_rates = np.array(rates)

    def rate_rps(self, t_ms):
        t = np.asarray(t_ms, dtype=float)
        idx = np.searchsorted(self._switch_ms, t, side="right") - 1
        return self._state_rates[np.clip(idx, 0, len(self._state_rates) - 1)]

    @property
    def peak_rate_rps(self) -> float:
        return max(self.rates_rps_states)

    def describe(self) -> str:
        states = "/".join(f"{r:,.0f}" for r in self.rates_rps_states)
        return f"mmpp [{states}] rps"


class Superposition(ArrivalProcess):
    """The sum of independent arrival processes (rates add)."""

    def __init__(self, *processes: ArrivalProcess):
        if not processes:
            raise ValueError("a superposition needs at least one process")
        self.processes = tuple(processes)

    def prepare(self, horizon_ms: float, rng: np.random.Generator) -> None:
        for p in self.processes:
            p.prepare(horizon_ms, rng)

    def rate_rps(self, t_ms):
        t = np.asarray(t_ms, dtype=float)
        total = np.zeros_like(t)
        for p in self.processes:
            total = total + p.rate_rps(t)
        return total

    @property
    def peak_rate_rps(self) -> float:
        # conservative envelope: the component peaks need not align, but
        # thinning only requires an upper bound, not a tight one
        return sum(p.peak_rate_rps for p in self.processes)

    def describe(self) -> str:
        return " + ".join(p.describe() for p in self.processes)


#: Named scenario builders for the CLI and benchmarks:
#: ``make_process(kind, base_rps, horizon_ms)``.
_SCENARIOS = {
    "constant": lambda base, horizon: ConstantRate(base),
    "diurnal": lambda base, horizon: DiurnalCycle(
        base, amplitude=0.5, period_ms=horizon),
    "flash": lambda base, horizon: FlashCrowd(
        base, peak_multiplier=4.0, start_ms=0.35 * horizon,
        ramp_ms=0.05 * horizon, hold_ms=0.2 * horizon,
        decay_ms=0.1 * horizon),
    "mmpp": lambda base, horizon: MarkovModulated(
        (0.5 * base, 2.0 * base), (0.2 * horizon, 0.05 * horizon)),
    "diurnal-flash": lambda base, horizon: Superposition(
        DiurnalCycle(base, amplitude=0.5, period_ms=horizon),
        FlashCrowd(0.25 * base, peak_multiplier=10.0,
                   start_ms=0.35 * horizon, ramp_ms=0.05 * horizon,
                   hold_ms=0.2 * horizon, decay_ms=0.1 * horizon)),
}

WORKLOAD_KINDS = tuple(sorted(_SCENARIOS))


def make_process(kind: str, base_rps: float,
                 horizon_ms: float) -> ArrivalProcess:
    """Build a named workload shape scaled to a trace horizon."""
    try:
        factory = _SCENARIOS[kind]
    except KeyError:
        raise KeyError(f"unknown workload kind {kind!r}; available: "
                       f"{list(WORKLOAD_KINDS)}") from None
    return factory(float(base_rps), float(horizon_ms))


def _payloads(n: int, image_size: int, rng: np.random.Generator,
              render: bool) -> list:
    if not render:
        return [None] * n
    return [render_object(sample_object(rng), size=image_size, rng=rng)
            for _ in range(n)]


def generate_trace(process: ArrivalProcess, horizon_ms: float,
                   deadline_ms: float | None = None, tenants=None,
                   rng: np.random.Generator | int = 0,
                   image_size: int = 32, render: bool = False,
                   start_rid: int = 0) -> list:
    """Sample one trace of :class:`repro.serve.Request`s from a process.

    With ``tenants`` (a :class:`repro.workload.TenantMix`) each arrival is
    assigned a tenant class by traffic share and inherits that tenant's
    deadline; otherwise every request carries ``deadline_ms``. The draw
    order is fixed (arrivals, then tenant assignment, then payloads), so
    one seed pins the whole trace.
    """
    # imported lazily: repro.serve re-exports this module's trace makers,
    # so a module-level serve import would be circular either way round
    from repro.serve.request import Request

    if tenants is None and deadline_ms is None:
        raise ValueError("need deadline_ms or a TenantMix with deadlines")
    rng = np.random.default_rng(rng)
    arrivals = process.arrival_times_ms(horizon_ms, rng)
    n = len(arrivals)
    names = [None] * n
    deadlines = [deadline_ms] * n
    if tenants is not None:
        assigned = tenants.draw(n, rng)
        names = [t.name for t in assigned]
        deadlines = [t.deadline_ms for t in assigned]
    xs = _payloads(n, image_size, rng, render)
    return [Request(rid=start_rid + i, arrival_ms=float(arrivals[i]),
                    deadline_ms=float(deadlines[i]), x=xs[i],
                    tenant=names[i])
            for i in range(n)]


def poisson_trace(n: int, rate_rps: float, deadline_ms: float,
                  rng: np.random.Generator | int = 0,
                  image_size: int = 32, render: bool = False,
                  burst: tuple[float, float, float] | None = None
                  ) -> list:
    """``n`` Poisson arrivals at ``rate_rps`` requests/second.

    ``burst=(start_frac, end_frac, multiplier)`` scales the arrival rate by
    ``multiplier`` for the requests whose *index* falls in the given
    fraction of the trace — e.g. ``(0.3, 0.7, 4.0)`` makes the middle 40%
    of requests arrive 4x faster, a load spike the ladder must absorb.
    """
    from repro.serve.request import Request

    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(rng)
    mean_gap_ms = 1e3 / rate_rps
    gaps = rng.exponential(mean_gap_ms, size=n)
    if burst is not None:
        lo, hi, mult = burst
        if mult <= 0:
            raise ValueError("burst multiplier must be positive")
        idx = np.arange(n)
        in_burst = (idx >= lo * n) & (idx < hi * n)
        gaps[in_burst] /= mult
    arrivals = np.cumsum(gaps)
    xs = _payloads(n, image_size, rng, render)
    return [Request(rid=i, arrival_ms=float(arrivals[i]),
                    deadline_ms=deadline_ms, x=xs[i])
            for i in range(n)]


def uniform_trace(n: int, rate_rps: float, deadline_ms: float,
                  rng: np.random.Generator | int = 0,
                  image_size: int = 32, render: bool = False
                  ) -> list:
    """``n`` evenly spaced arrivals (a closed-loop sensor at a fixed rate)."""
    from repro.serve.request import Request

    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(rng)
    gap_ms = 1e3 / rate_rps
    xs = _payloads(n, image_size, rng, render)
    return [Request(rid=i, arrival_ms=float((i + 1) * gap_ms),
                    deadline_ms=deadline_ms, x=xs[i])
            for i in range(n)]


def offered_load(trace: list, service_ms: float) -> float:
    """Utilisation ρ of a trace against a fixed per-request service time.

    ρ > 1 means the server cannot keep up without batching or degradation;
    the acceptance tests use this to calibrate overload scenarios.
    """
    if not trace:
        return 0.0
    span_ms = max(r.arrival_ms for r in trace)
    if span_ms <= 0:
        return float("inf")
    return len(trace) * service_ms / span_ms
