"""Emit the compiled-forward perf trajectory as machine-readable JSON.

Runs every zoo network through both forward paths — the interpreted
node walk and the compiled fused schedule (``Network.compile()``) — and
writes ``BENCH_forward.json`` at the repo root: samples/sec per network
and batch size for each path, the compiled/interpreted speedup, a
numerical-parity verdict (``allclose``) per network, and — at batch 1,
via the plan's opt-in timing hooks — the mean wall-clock latency of
every fused kernel (``kernels_ms``), so a kernel-level regression shows
up as one moved key instead of a diffuse slowdown.

The kernel breakdown is reconciled against the end-to-end number:
``end_to_end_ms`` is one untimed batch-1 compiled forward (the inverse
of its measured samples/sec) and ``unattributed_ms`` is what no kernel
timing accounts for, ``end_to_end_ms - kernel_total_ms`` (the plan's
validity check, the input and output copies, the call into the plan).
Untimed and kernel-timed windows alternate and each side keeps its
fastest window, so the host's speed drift lands on both sides alike
instead of in the residual.

``arena_bytes`` is the compiled plan's activation memory after a forward
at every batch size in BATCHES: one buffer set (input slot, arena slots,
kernel scratch and constant operands) sized for the largest batch, on
whose prefixes every smaller batch runs. ``weight_bytes`` is what the
plan's bound calls read besides activations on every forward, at any
batch size: weights, and the per-sample tiles of separately added biases
and batch-norm affines. At batch 1 it is most of the bytes a forward
moves.

``bound_calls`` is the number of calls in the batch-1 arena's program,
and ``channel_broadcast_calls`` the number of those that are element-wise
ufuncs reading an array of fewer dimensions than their output: a
per-channel vector broadcast over an activation, which NumPy runs through
its buffered iterator a vector's length at a time. Both are counts, the
same on every host.

Unlike the serving benchmarks this one is real wall-clock compute
(NumPy kernels), so absolute numbers vary across machines; the
*speedup* column and the parity verdicts are the stable signals. The
headline ``speedup`` per network is batch 1 — the paper's real-time
serving regime, where per-layer dispatch overhead dominates and the
fused static schedule pays off most.

Run via scripts/bench.sh, or directly:

    PYTHONPATH=src python scripts/bench_forward.py
"""

import gc
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import numpy as np  # noqa: E402

from repro.zoo import NETWORKS, build_network  # noqa: E402

BATCHES = (1, 8, 32)
WARMUP = 5
MIN_REPS = 5
MIN_SECONDS = 0.25
WINDOWS = 4
SEED = 0


def _window(fn, x) -> tuple[int, float]:
    """One timing window: ``(calls, seconds)`` of repeating ``fn(x)`` for at
    least MIN_REPS calls and MIN_SECONDS."""
    reps = 0
    start = time.perf_counter()
    while True:
        fn(x)
        reps += 1
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed >= MIN_SECONDS:
            return reps, elapsed


def _time_sps(fn, x, batch: int) -> float:
    """Samples/sec for ``fn(x)``: warm up, then best of WINDOWS windows.

    Taking the fastest window filters out scheduler noise (the slow
    windows measure the machine, the fast one measures the code).
    """
    for _ in range(WARMUP):
        fn(x)
    best = 0.0
    gc.disable()
    for _ in range(WINDOWS):
        reps, elapsed = _window(fn, x)
        best = max(best, reps * batch / elapsed)
    gc.enable()
    return best


def _time_sps_and_kernels(plan, fn, x):
    """Batch-1 samples/sec for ``fn(x)`` and the plan's kernel table.

    WINDOWS untimed windows alternate with as many windows under the
    plan's per-step timing. The samples/sec is the fastest untimed
    window's; the table (mean ms per launch) is the timed window's with
    the lowest kernel total.
    """
    for _ in range(WARMUP):
        fn(x)
    best, tables = 0.0, []
    gc.disable()
    for _ in range(WINDOWS):
        reps, elapsed = _window(fn, x)
        best = max(best, reps / elapsed)
        plan.enable_timing()
        _window(fn, x)
        tables.append(plan.latency_table())
        plan.disable_timing()
    gc.enable()
    return best, min(tables, key=lambda table: table.end_to_end_ms)


def _broadcasts_channels(op) -> bool:
    """Whether a bound call is an element-wise ufunc that reads an array of
    fewer dimensions than its output."""
    func = op.func
    if not isinstance(func, np.ufunc) or func.signature is not None:
        return False
    out = op.keywords["out"] if "out" in op.keywords else op.args[func.nin]
    return any(isinstance(a, np.ndarray) and a.ndim < out.ndim for a in op.args[: func.nin])


def bench_network(name: str) -> dict:
    net = build_network(name).build(0)
    rng = np.random.default_rng(SEED)
    out: dict = {"batches": {}}
    allclose = True
    for batch in BATCHES:
        x = rng.standard_normal((batch,) + net.input_shape, dtype=np.float32)
        net.uncompile()
        interp_out = net.forward(x)
        interp_sps = _time_sps(net.forward, x, batch)
        plan = net.compile()
        compiled_out = net.forward(x)
        if batch == 1:
            # the real-time regime: the per-fused-kernel breakdown too
            compiled_sps, table = _time_sps_and_kernels(plan, net.forward, x)
        else:
            compiled_sps = _time_sps(net.forward, x, batch)
        # float32 accumulation order differs between the paths (BN folding,
        # fused post-ops); on softmax outputs 1e-4 absolute is parity
        allclose &= bool(np.allclose(compiled_out, interp_out, rtol=1e-3, atol=1e-4))
        out["batches"][str(batch)] = {
            "interpreted_sps": round(interp_sps, 2),
            "compiled_sps": round(compiled_sps, 2),
            "speedup": round(compiled_sps / interp_sps, 3),
        }
        if batch == 1:
            out["kernels_ms"] = {r.anchor: round(r.recorded_ms, 6) for r in table.records}
            out["kernel_total_ms"] = round(table.end_to_end_ms, 6)
            # the untimed forward, whole: what the kernels leave unexplained
            end_to_end_ms = 1e3 / compiled_sps
            out["end_to_end_ms"] = round(end_to_end_ms, 6)
            out["unattributed_ms"] = round(end_to_end_ms - table.end_to_end_ms, 6)
    for batch in BATCHES:
        plan.run(np.zeros((batch,) + net.input_shape, dtype=np.float32))
    out["arena_bytes"] = plan.arena_bytes
    out["weight_bytes"] = plan.weight_bytes
    ops = plan._arenas[1].ops
    out["bound_calls"] = len(ops)
    out["channel_broadcast_calls"] = sum(map(_broadcasts_channels, ops))
    out["allclose"] = allclose
    out["speedup"] = out["batches"]["1"]["speedup"]  # real-time headline
    out["plan_steps"] = len(plan.plan.steps)
    out["arena_slots"] = len(plan.plan.slot_shapes)
    return out


def main() -> None:
    nets = {}
    for name in NETWORKS:
        nets[name] = bench_network(name)
        b1 = nets[name]["batches"]["1"]
        print(
            f"{name:22s} b1 {b1['interpreted_sps']:>8.1f} -> "
            f"{b1['compiled_sps']:>8.1f} sps  ({b1['speedup']:.2f}x)  "
            f"unattributed {nets[name]['unattributed_ms']:.3f} ms  "
            f"arenas {nets[name]['arena_bytes'] / 2**20:.1f} MiB  "
            f"weights {nets[name]['weight_bytes'] / 2**20:.2f} MiB  "
            f"allclose={nets[name]['allclose']}"
        )

    payload = {
        "kind": "repro.bench.forward",
        "batches": list(BATCHES),
        "networks": nets,
    }
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCH_forward.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")

    bad = [n for n, r in nets.items() if not r["allclose"]]
    if bad:
        print(f"PARITY FAILURE: {', '.join(bad)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
