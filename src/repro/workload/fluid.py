"""Fluid mode: an analytical approximation of the serving stack.

The discrete-event simulator charges per request — a 100-replica fleet
under tens of thousands of rps costs minutes of wall time per scenario.
This module answers the same questions (admitted throughput, per-tenant
miss rate, fleet sizing) in milliseconds by treating the workload as a
*fluid*: requests become a continuous quantity flowing through the same
pipeline the engine implements — admission (un-meetable-deadline check,
weighted-fair shares, bounded queue), an EDF-ordered queue, deadline-fit
micro-batching against the rung's latency table, and the device noise
model — integrated deterministically over small time steps instead of
being sampled one request at a time.

The approximation is M/G/1-flavoured rather than a closed formula: the
per-tenant queues are fluid FIFOs whose heads compete in EDF order, the
service rate is the batching-aware ``B / est(B)`` with ``B`` limited by
both queue depth and the head's deadline (the batcher's own
:func:`repro.serve.batcher.deadline_fit`), and misses come from the
analytic tail of the device's noise/straggler distribution evaluated at
each parcel's remaining slack. Because every replica of a homogeneous
fleet sees an equal share of a well-balanced router's traffic, a fleet
solve is a single-replica solve at ``rate / n`` — which is what lets
fluid mode stress the autoscaler and router at fleet sizes the event
loop cannot reach. Cross-validation against the discrete simulator lives in
``benchmarks/test_workload_slo.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.serve.batcher import deadline_fit
from repro.serve.engine import admission_rung

__all__ = ["FluidModel", "FluidPrediction", "TenantPrediction"]

_SQRT2 = math.sqrt(2.0)


def _normal_tail(x: float) -> float:
    """P(Z > x) for a standard normal."""
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass
class TenantPrediction:
    """Fluid-mode outcome of one tenant class (fleet totals)."""

    name: str
    deadline_ms: float
    offered_rps: float
    admitted_rps: float
    completed_rps: float
    miss_rate: float

    @property
    def rejected_rps(self) -> float:
        return max(self.offered_rps - self.admitted_rps, 0.0)


@dataclass
class FluidPrediction:
    """One fluid solve: a rung, a fleet size, per-tenant outcomes."""

    rung: str
    horizon_ms: float
    replicas: int
    tenants: dict[str, TenantPrediction]
    mean_batch: float

    @property
    def offered_rps(self) -> float:
        return sum(t.offered_rps for t in self.tenants.values())

    @property
    def admitted_rps(self) -> float:
        return sum(t.admitted_rps for t in self.tenants.values())

    @property
    def completed_rps(self) -> float:
        return sum(t.completed_rps for t in self.tenants.values())

    @property
    def miss_rate(self) -> float:
        """Completed-weighted miss rate across tenants."""
        done = self.completed_rps
        if done <= 0:
            return 0.0
        return sum(t.miss_rate * t.completed_rps
                   for t in self.tenants.values()) / done

    def report(self) -> str:
        lines = [f"fluid prediction — rung {self.rung}, "
                 f"{self.replicas} replica(s), "
                 f"mean batch {self.mean_batch:.2f}",
                 f"  offered {self.offered_rps:,.0f} rps, admitted "
                 f"{self.admitted_rps:,.0f} rps, miss rate "
                 f"{100 * self.miss_rate:.2f}%"]
        for t in self.tenants.values():
            lines.append(
                f"  {t.name:12s} offered {t.offered_rps:9,.0f}  admitted "
                f"{t.admitted_rps:9,.0f}  miss {100 * t.miss_rate:6.2f}%  "
                f"(deadline {t.deadline_ms:.2f} ms)")
        return "\n".join(lines)


class FluidModel:
    """Analytical serving model over a ladder's latency tables.

    Build with :meth:`from_ladder` so the latency tables, noise model and
    admission knobs come from exactly the objects the discrete server
    uses; then :meth:`solve` one scenario per rung, :meth:`solve_ladder`
    all rungs, :meth:`sweep` fleet sizes, or :meth:`plan_fleet` the
    smallest fleet meeting a miss-rate target.
    """

    def __init__(self, latency_tables: dict[str, list[float]],
                 queue_capacity: int, max_batch: int,
                 admission_est_ms: float, deadline_ms: float,
                 noise_std: float = 0.0, straggler_prob: float = 0.0,
                 straggler_scale: float = 0.0, tenants=None, policy=None,
                 admission_control: bool = True):
        """``latency_tables`` maps rung name -> ``[est(1), .., est(B)]``."""
        if not latency_tables:
            raise ValueError("need at least one rung latency table")
        for name, table in latency_tables.items():
            if len(table) != max_batch:
                raise ValueError(f"rung {name!r}: need one estimate per "
                                 f"batch size 1..{max_batch}")
        self.latency_tables = {n: [float(e) for e in t]
                               for n, t in latency_tables.items()}
        self.queue_capacity = queue_capacity
        self.max_batch = max_batch
        self.admission_est_ms = admission_est_ms
        self.deadline_ms = deadline_ms
        self.noise_std = noise_std
        self.straggler_prob = straggler_prob
        self.straggler_scale = straggler_scale
        self.tenants = tenants
        self.policy = policy
        self.admission_control = admission_control
        # E[noise * straggler]: the sampler's mean service inflation
        self.mean_factor = 1.0 + straggler_prob * straggler_scale / 2.0

    @classmethod
    def from_ladder(cls, ladder, config, tenants=None) -> "FluidModel":
        """Derive the model from a :class:`repro.serve.TRNLadder` and
        :class:`repro.serve.ServerConfig` (same objects the server runs)."""
        tables = {r.name: [r.estimate_ms(b)
                           for b in range(1, config.max_batch + 1)]
                  for r in ladder.rungs}
        adm_rung = admission_rung(ladder, config.adaptive)
        spec = ladder.rungs[0].spec
        return cls(tables, config.queue_capacity, config.max_batch,
                   adm_rung.estimate_ms(1), config.deadline_ms,
                   noise_std=spec.noise_std,
                   straggler_prob=spec.straggler_prob,
                   straggler_scale=spec.straggler_scale,
                   tenants=tenants,
                   policy=getattr(config, "admission_policy", None),
                   admission_control=config.admission_control)

    # -- the device noise tail ----------------------------------------------
    def miss_probability(self, slack_ms: float, est_ms: float) -> float:
        """P(service > slack) under the device noise/straggler model.

        Service is ``est * clip(N(1, sigma), 0.5, inf) * S`` with ``S``
        the straggler multiplier ``1 + scale * U`` hitting with
        probability ``p`` (see :func:`repro.device.runtime.sample_runs`);
        the straggler branch is integrated numerically over ``U``.
        """
        if slack_ms <= 0:
            return 1.0
        z = slack_ms / est_ms
        if z <= 0.5:
            return 1.0              # noise is clipped at 0.5x below
        if self.noise_std <= 0:
            base = 1.0 if z < 1.0 else 0.0
        else:
            base = _normal_tail((z - 1.0) / self.noise_std)
        p = self.straggler_prob
        if p <= 0:
            return base
        # E_U[ P(N > z / (1 + scale*U)) ], 8-point midpoint rule
        acc = 0.0
        for k in range(8):
            u = (k + 0.5) / 8.0
            zz = z / (1.0 + self.straggler_scale * u)
            if self.noise_std <= 0:
                acc += 1.0 if zz < 1.0 else 0.0
            else:
                acc += _normal_tail((zz - 1.0) / self.noise_std)
        return (1.0 - p) * base + p * (acc / 8.0)

    # -- tenant bookkeeping --------------------------------------------------
    def _tenant_specs(self) -> list[tuple[str, float, float, float]]:
        """(name, deadline_ms, traffic share, admission weight) rows."""
        if self.tenants is None:
            return [("default", self.deadline_ms, 1.0, 1.0)]
        mix = self.tenants
        return [(t.name, t.deadline_ms, float(s), t.weight)
                for t, s in zip(mix.tenants, mix.shares)]

    def _waterfill(self, arr: dict[str, float], total: float,
                   weights: dict[str, float]) -> dict[str, float]:
        """Allocate ``total`` among tenants by weight, capped by demand."""
        alloc = {n: 0.0 for n in arr}
        active = [n for n in arr if arr[n] > 0]
        remaining = total
        while active and remaining > 1e-15:
            wsum = sum(weights[n] for n in active)
            capped = False
            for n in list(active):
                give = remaining * weights[n] / wsum
                room = arr[n] - alloc[n]
                if give >= room:
                    alloc[n] = arr[n]
                    active.remove(n)
                    capped = True
                else:
                    alloc[n] += give
            remaining = total - sum(alloc.values())
            if not capped:
                break
        return alloc

    # -- the solver ----------------------------------------------------------
    def solve(self, process, horizon_ms: float, rung: str | None = None,
              replicas: int = 1, dt_ms: float | None = None
              ) -> FluidPrediction:
        """Integrate one scenario on one rung; per-tenant fleet outcomes.

        ``process`` is a :class:`repro.workload.ArrivalProcess` describing
        the *fleet-wide* offered load; each of the ``replicas`` identical
        replicas is assumed to receive ``1/replicas`` of it (what a
        balanced router delivers on a homogeneous fleet), so fleet size
        changes nothing but the per-replica rate — a 100-replica solve
        costs the same milliseconds as a 1-replica solve. The returned
        rates are fleet totals.
        """
        if rung is None:
            rung = next(iter(self.latency_tables))
        if rung not in self.latency_tables:
            raise KeyError(f"unknown rung {rung!r}; have "
                           f"{sorted(self.latency_tables)}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        est = self.latency_tables[rung]     # est[b-1] = est(batch b)
        if dt_ms is None:
            # resolve both the arrival shape and the service granularity
            dt_ms = max(min(horizon_ms / 1000.0, est[0]), horizon_ms / 8000.0)
        specs = self._tenant_specs()
        deadlines = {n: d for n, d, _, _ in specs}
        shares = {n: s for n, _, s, _ in specs}
        weights = {n: w for n, _, _, w in specs}
        use_policy = (self.policy is not None and all(
            n in getattr(self.policy, "weights", {}) for n in deadlines))
        watermark = self.policy.watermark if use_policy else 1.0

        queues: dict[str, deque] = {n: deque() for n in deadlines}
        qlen: dict[str, float] = {n: 0.0 for n in deadlines}
        offered = {n: 0.0 for n in deadlines}
        admitted = {n: 0.0 for n in deadlines}
        completed = {n: 0.0 for n in deadlines}
        missed = {n: 0.0 for n in deadlines}
        batch_weight = batch_sum = 0.0

        # deliberately no process.prepare() here: the fluid solve is
        # randomness-free. A stochastic intensity (MarkovModulated) must
        # be realised by the caller — process.prepare(horizon, rng) —
        # so the discrete and fluid runs share one burst schedule.
        t = 0.0
        # integrate past the horizon until the queues drain, mirroring the
        # discrete engine, which serves every admitted request to the end
        while t < horizon_ms or sum(qlen.values()) > 1e-9:
            # -- serve: EDF over the fluid FIFO heads -------------------
            budget = dt_ms
            while budget > 1e-12:
                head_name, head_deadline = None, float("inf")
                for n, q in queues.items():
                    if q and q[0][0] + deadlines[n] < head_deadline:
                        head_name = n
                        head_deadline = q[0][0] + deadlines[n]
                if head_name is None:
                    break
                now = t + (dt_ms - budget)
                admit_ms, amount = queues[head_name][0]
                # the batcher's deadline-fit rule, over whole requests
                limit = min(self.max_batch, int(sum(qlen.values())))
                b = deadline_fit(lambda n: est[n - 1], now, head_deadline,
                                 limit)
                per_req = est[b - 1] * self.mean_factor / b
                take = min(amount, budget / per_req)
                if take <= 1e-12:
                    break
                wait = now - admit_ms
                pm = self.miss_probability(deadlines[head_name] - wait,
                                           est[b - 1])
                completed[head_name] += take
                missed[head_name] += take * pm
                batch_weight += take
                batch_sum += take * b
                budget -= take * per_req
                qlen[head_name] -= take
                if take >= amount - 1e-12:
                    queues[head_name].popleft()
                else:
                    queues[head_name][0] = (admit_ms, amount - take)
            # -- admit: un-meetable check, fair shares, bounded queue ---
            if t < horizon_ms:
                rate = float(process.rate_rps(t + 0.5 * dt_ms)) / replicas
                arr = {n: rate * shares[n] * dt_ms / 1e3 for n in deadlines}
                for n in arr:
                    offered[n] += arr[n]
                    if (self.admission_control
                            and deadlines[n] <= self.admission_est_ms):
                        arr[n] = 0.0   # rejected: unmeetable-deadline
                qtot = sum(qlen.values())
                free = max(self.queue_capacity - qtot, 0.0)
                total = min(sum(arr.values()), free)
                if total > 0:
                    if use_policy and qtot >= watermark * self.queue_capacity:
                        alloc = self._waterfill(arr, total, weights)
                    else:
                        scale = total / sum(arr.values())
                        alloc = {n: a * scale for n, a in arr.items()}
                    for n, a in alloc.items():
                        if a > 0:
                            queues[n].append((t + 0.5 * dt_ms, a))
                            qlen[n] += a
                            admitted[n] += a
            t += dt_ms

        to_rps = 1e3 * replicas / horizon_ms
        tenants = {
            n: TenantPrediction(
                name=n, deadline_ms=deadlines[n],
                offered_rps=offered[n] * to_rps,
                admitted_rps=admitted[n] * to_rps,
                completed_rps=completed[n] * to_rps,
                miss_rate=(missed[n] / completed[n]
                           if completed[n] > 0 else 0.0))
            for n in deadlines}
        mean_batch = batch_sum / batch_weight if batch_weight else 0.0
        return FluidPrediction(rung, horizon_ms, replicas, tenants,
                               mean_batch)

    def solve_ladder(self, process, horizon_ms: float, replicas: int = 1
                     ) -> dict[str, FluidPrediction]:
        """One prediction per rung (the "per tenant per rung" surface)."""
        return {name: self.solve(process, horizon_ms, rung=name,
                                 replicas=replicas)
                for name in self.latency_tables}

    def sweep(self, process, horizon_ms: float, replica_counts,
              rung: str | None = None) -> dict[int, FluidPrediction]:
        """Solve the same scenario across fleet sizes (autoscaler stress)."""
        return {int(n): self.solve(process, horizon_ms, rung=rung,
                                   replicas=int(n))
                for n in replica_counts}

    def plan_fleet(self, process, horizon_ms: float,
                   target_miss_rate: float, rung: str | None = None,
                   max_replicas: int = 256) -> int | None:
        """Smallest fleet whose *every* tenant meets the miss target.

        Doubles until feasible, then bisects — O(log n) fluid solves, so
        planning a fleet of hundreds stays well under a second. Returns
        ``None`` when even ``max_replicas`` cannot meet the target.
        """
        def ok(n: int) -> bool:
            pred = self.solve(process, horizon_ms, rung=rung, replicas=n)
            return all(tp.miss_rate <= target_miss_rate
                       for tp in pred.tenants.values())

        hi = 1
        while hi <= max_replicas and not ok(hi):
            hi *= 2
        if hi > max_replicas:
            return None if not ok(max_replicas) else max_replicas
        lo = hi // 2   # lo infeasible (or 0), hi feasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi
