"""The ladder-builder Pareto bake-off, as machine-readable JSON.

Runs every registered :class:`repro.netcut.LadderBuilder` strategy
(greedy layer removal, filter pruning, HALP global channel selection,
DP depth selection) over the zoo nets and device profiles, and writes
``BENCH_builders.json`` at the repo root: per-strategy Pareto frontiers,
accuracy-at-deadline per strategy, whether the mixed-strategy frontier
dominates-or-ties each single-strategy one, a seeded Poisson overload
served through the mixed ladder, and that ladder's compiled memory: each
rung's ``weight_bytes`` and its ``arena_bytes`` after one forward at the
server's ``max_batch``, the ladder's summed weight bytes, and the bytes
of the distinct weight arrays its rungs read (rungs cut from one base
share the layers they keep). Everything is analytic, virtual-time or a
function of shapes and weights, and seeded, so the JSON is
byte-identical across machines and ``PYTHONHASHSEED`` values — two
commits differ only when builder behaviour or compiled memory changed.

Rung construction (the expensive part: each pruned/cut rung is a full
network rebuild) is cached per ``(net, device, max_rungs)`` under the
same ``~/.cache/repro-netcut`` workbench cache ``examples_smoke.sh``
warms (override with ``REPRO_CACHE_DIR``), as round-trippable
deployment artifacts — a cache hit skips straight to the frontier math
and the serve replay. ``scripts/bench.sh`` builds cold (``--no-cache``):
the key does not cover the code that builds the rungs.

Run via scripts/bench.sh, or directly:

    PYTHONPATH=src python scripts/bench_builders.py \
        [--nets mobilenet_v1_0.5 resnet50] [--devices xavier nano] \
        [--max-rungs N] [--out PATH] [--no-cache]
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.device import DEVICE_PROFILES, network_latency  # noqa: E402
from repro.metrics import accuracy_at_deadline, frontier_dominates  # noqa: E402
from repro.netcut import (  # noqa: E402
    BUILDERS,
    artifact_points,
    build_rungs,
    frontier_artifacts,
    load_artifact,
    save_artifact,
)
from repro.serve import Server, ServerConfig, TRNLadder  # noqa: E402
from repro.train.pretrain import default_cache_dir  # noqa: E402
from repro.workload import poisson_trace  # noqa: E402
from repro.zoo import build_network  # noqa: E402

NETS = ["mobilenet_v1_0.5", "resnet50"]
DEVICES = ["xavier", "nano"]
MAX_RUNGS = 4           # per strategy; the mixed ladder draws on all of them
DEADLINE_FRAC = 0.6     # deadline = 0.6x the full network's model latency
REQUESTS = 600
SEED = 0


def _point_dict(p) -> dict:
    return {"name": p.name, "latency_ms": round(p.latency_ms, 6),
            "accuracy": round(p.accuracy, 6)}


def build_or_load_rungs(name, device, max_rungs, cache_dir):
    """Per-strategy artifacts for one (net, device), via the rung cache.

    The cache key folds in everything the rungs depend on; a stale layout
    (e.g. a renamed strategy) misses and rebuilds rather than erroring.
    """
    spec = DEVICE_PROFILES[device]()
    slot = None
    if cache_dir:
        slot = os.path.join(cache_dir, "builders",
                            f"{name}-{device}-r{max_rungs}")
        manifest = os.path.join(slot, "manifest.json")
        if os.path.exists(manifest):
            try:
                with open(manifest) as fh:
                    listing = json.load(fh)
                if sorted(listing) == sorted(BUILDERS):
                    return {strategy: [load_artifact(os.path.join(slot, f))
                                       for f in files]
                            for strategy, files in listing.items()}, spec
            except (OSError, ValueError, KeyError):
                pass

    base = build_network(name).build(0)
    per_strategy = build_rungs(base, spec, max_rungs=max_rungs)
    if slot is not None:
        os.makedirs(slot, exist_ok=True)
        listing = {}
        for strategy, artifacts in per_strategy.items():
            listing[strategy] = []
            for artifact in artifacts:
                fname = f"{artifact.trn_name}.npz"
                save_artifact(artifact, os.path.join(slot, fname))
                listing[strategy].append(fname)
        with open(os.path.join(slot, "manifest.json"), "w") as fh:
            json.dump(listing, fh, sort_keys=True, indent=2)
    return per_strategy, spec


def ladder_memory(ladder, batch: int) -> dict:
    """Compiled memory of a ladder: per rung, ``weight_bytes`` and
    ``arena_bytes`` after one forward at ``batch``; the summed weight
    bytes, and the bytes of the distinct weight arrays the rungs read."""
    rungs = {}
    distinct = {}
    for rung in ladder.rungs:
        x = np.zeros(rung.network.input_shape, dtype=np.float32)
        rung.forward([x] * batch)
        plan = rung.network.compile()
        rungs[rung.name] = {"weight_bytes": plan.weight_bytes,
                            "arena_bytes": plan.arena_bytes}
        for step in plan.plan.steps:
            distinct.update((id(w), w) for w in step.kernel.weights())
    return {
        "rungs": dict(sorted(rungs.items())),
        "weight_bytes": sum(r["weight_bytes"] for r in rungs.values()),
        "distinct_weight_bytes": sum(w.nbytes for w in distinct.values()),
        "arena_bytes": sum(r["arena_bytes"] for r in rungs.values()),
    }


def serve_mixed(artifacts, spec, deadline_ms) -> dict:
    """Replay the seeded overload through the mixed-frontier ladder, then
    record its compiled memory at the server's ``max_batch``."""
    ladder = TRNLadder.from_artifacts(artifacts, spec)
    full_ms = max(r.estimate_ms(1) for r in ladder.rungs)
    config = ServerConfig(deadline_ms=deadline_ms, execute=False, seed=SEED,
                          queue_capacity=64, window=16, min_observations=8,
                          cooldown=8)
    trace = poisson_trace(REQUESTS, 1.2e3 / full_ms, deadline_ms, rng=SEED)
    result = Server(ladder, config).run_trace(trace)
    snapshot = result.metrics.snapshot()
    span_s = (trace[-1].arrival_ms - trace[0].arrival_ms) / 1e3
    return {
        "miss_rate": round(result.metrics.miss_rate, 6),
        "admitted_rps": round(
            snapshot["counters"]["admitted"] / span_s, 1),
        "completed": snapshot["counters"]["completed"],
        "rung_share": {
            rung: round(count / max(snapshot["counters"]["completed"], 1), 6)
            for rung, count in sorted(snapshot["per_rung"].items())},
        "memory": ladder_memory(ladder, config.max_batch),
    }


def bake_off(name, device, max_rungs, cache_dir) -> dict:
    per_strategy, spec = build_or_load_rungs(name, device, max_rungs,
                                             cache_dir)
    full_ms = network_latency(build_network(name).build(0), spec).total_ms
    deadline_ms = round(DEADLINE_FRAC * full_ms, 6)

    # flatten in sorted-strategy order so frontier tie-breaks between
    # equal points are identical on the fresh-build and cache-load paths
    mixed = [a for strategy in sorted(per_strategy)
             for a in per_strategy[strategy]]
    mixed_points = artifact_points(mixed)
    strategies = {}
    dominance = {}
    for strategy in sorted(per_strategy):
        points = artifact_points(per_strategy[strategy])
        strategies[strategy] = {
            "rungs": len(points),
            "frontier": [_point_dict(p) for p in artifact_points(
                frontier_artifacts(per_strategy[strategy]))],
            "accuracy_at_deadline": round(
                accuracy_at_deadline(points, deadline_ms), 6),
        }
        dominance[strategy] = frontier_dominates(mixed_points, points)

    front = frontier_artifacts(mixed)
    return {
        "full_latency_ms": round(full_ms, 6),
        "deadline_ms": deadline_ms,
        "strategies": strategies,
        "mixed": {
            "rungs": len(mixed),
            "frontier": [_point_dict(p) for p in artifact_points(front)],
            "frontier_builders": sorted({a.builder for a in front}),
            "accuracy_at_deadline": round(
                accuracy_at_deadline(mixed_points, deadline_ms), 6),
            "dominates": dominance,
        },
        "serve": serve_mixed(front, spec, deadline_ms),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nets", nargs="+", default=NETS)
    parser.add_argument("--devices", nargs="+", default=DEVICES,
                        choices=sorted(DEVICE_PROFILES))
    parser.add_argument("--max-rungs", type=int, default=MAX_RUNGS)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_builders.json"))
    parser.add_argument("--no-cache", action="store_true",
                        help="always rebuild rungs (skip the workbench "
                             "cache)")
    args = parser.parse_args(argv)
    cache_dir = None if args.no_cache else default_cache_dir()

    nets = {}
    for name in args.nets:
        nets[name] = {}
        for device in args.devices:
            nets[name][device] = bake_off(name, device, args.max_rungs,
                                          cache_dir)
            mixed = nets[name][device]["mixed"]
            print(f"{name} @ {device}: mixed frontier "
                  f"{mixed['rungs']} rungs -> "
                  f"{len(mixed['frontier'])} points "
                  f"(acc@deadline {mixed['accuracy_at_deadline']}), "
                  f"dominates {mixed['dominates']}")

    payload = {
        "benchmark": "builder-bakeoff",
        "scenario": {
            "builders": sorted(BUILDERS),
            "deadline_frac": DEADLINE_FRAC,
            "max_rungs_per_strategy": args.max_rungs,
            "requests": REQUESTS,
            "seed": SEED,
        },
        "nets": nets,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
