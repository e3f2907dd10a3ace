"""The compiled forward path: fusion rules, static schedule, arenas.

This module is the single source of truth for *layer fusion*: the grouping
of graph nodes into the kernels a runtime launches. The device latency
model (:mod:`repro.device.latency`) and the compiled executor below both
consume the same
:class:`KernelGroup` partition, so what the latency model *prices* as one
fused kernel is exactly what the compute path *runs* as one fused kernel.

Compilation (:func:`compile_network`, or :meth:`Network.compile
<repro.nn.graph.Network.compile>`) happens once per network state:

1. the graph is partitioned into kernel groups (conv+BN+ReLU chains fuse,
   batch norms behind conv/dense anchors fold into the weights),
2. the groups are laid out as a flat :class:`ExecutionPlan` — a static
   schedule with precomputed consumer counts and a liveness-based *arena*
   assignment, so activation buffers are reused both across steps (a slot
   freed by its last consumer is recycled for a later output of the same
   shape) and across calls (one buffer set persists between forwards),
3. every step gets a fused kernel from :mod:`repro.nn.kernels`, picked
   by the anchor's exact layer type and geometry; a layer type with no
   kernel raises ``TypeError`` here.

A compiled network keeps one buffer set, sized for the largest batch it
has run: an input slot (the network input, value 0), the output slots
and every kernel's scratch. The im2col and depthwise einsum steps whose
patch matrices have the same width and ones column share one patch
buffer, sized for the largest of them, whose ones column (an im2col
step's, when it has one) is written once, at allocation: each step's
matrix is a C-contiguous view of its leading part, and every matrix row
starts on a multiple of the width. Batch is the leading axis of each
buffer, so the arena for a batch of ``n`` binds on ``[:n]`` prefixes:
each kernel is *bound* to its buffers once as a few zero-argument NumPy
calls. A larger batch allocates a new set at its size and drops every
binding of the old one; they rebind on their next use. A forward copies
the batch into the input slot, calls the arena's flat list of bound calls
in order and returns a copy of the output slot; it does no per-kernel
dispatch, view building or allocation.

The buffer set also holds the read-only constant operands activations
clamp against (zeros, and sixes for ReLU6), one flat array per value the
size of the largest slot. Weights are not part of it: every kernel's
constant arrays come from the process-wide table in
:mod:`repro.nn.kernels`, one read-only copy per distinct content, so the
plans of a ladder's rungs read one copy of each layer they share.

The plan is validated on every use against a state signature (structure
version + parameter/batch-norm-statistic version counters); weight
mutation through ``Parameter.value`` or ``load_state_dict`` triggers a
transparent recompile, and ``copy()``/``subgraph()`` clones start
uncompiled. The check is O(1) while nothing was written: the signature
walk over every node reruns only after the process-wide
:func:`~repro.nn.layers.state_writes` count has moved. Forward passes
with ``training=True`` or ``capture=`` fall back to the interpreted node
walk, which feature recording and gradient checks rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel, build_kernel
from .layers import (
    Add,
    AvgPool2D,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Input,
    MaxPool2D,
    ReLU,
    ReLU6,
    Softmax,
    state_writes,
)

__all__ = [
    "ANCHOR_TYPES",
    "FUSABLE_TYPES",
    "KernelGroup",
    "fuse_kernels",
    "state_signature",
    "ExecutionPlan",
    "CompiledNetwork",
    "compile_network",
]

Shape = tuple[int, ...]

#: Layer types that start a new kernel.
ANCHOR_TYPES = (Conv2D, DepthwiseConv2D, Dense, MaxPool2D, AvgPool2D,
                GlobalAvgPool, Concat, Add, Softmax, Flatten)

#: Element-wise layer types that fuse into the preceding anchor kernel.
FUSABLE_TYPES = (BatchNorm, ReLU, ReLU6, Dropout)


@dataclass
class KernelGroup:
    """A set of graph nodes executed as one device kernel."""

    node_names: list[str] = field(default_factory=list)

    @property
    def anchor(self) -> str:
        """The node that determines the kernel's compute cost."""
        return self.node_names[0]


def fuse_kernels(net, enabled: bool = True) -> list[KernelGroup]:
    """Partition a network's nodes into kernel groups.

    With ``enabled=False`` every non-input node is its own kernel (the
    unfused baseline used by the deployment-optimizations ablation).

    Fusion is greedy and chain-safe: an element-wise node joins the group
    of its single producer as long as that producer's output has no other
    consumer (otherwise the intermediate tensor must be materialised
    anyway).
    """
    consumers = net.consumers()
    groups: list[KernelGroup] = []
    group_of: dict[str, KernelGroup] = {}
    for node in net.nodes.values():
        if isinstance(node.layer, Input):
            continue
        if (enabled and isinstance(node.layer, FUSABLE_TYPES)
                and len(node.inputs) == 1
                and node.inputs[0] in group_of
                and len(consumers[node.inputs[0]]) == 1):
            group = group_of[node.inputs[0]]
            group.node_names.append(node.name)
            group_of[node.name] = group
            continue
        group = KernelGroup([node.name])
        groups.append(group)
        group_of[node.name] = group
    return groups


def state_signature(net) -> tuple:
    """A cheap fingerprint of everything a compiled plan snapshots.

    Changes whenever the structure is edited (``add``/``build``/
    ``load_state_dict`` bump the network's mutation counter), a parameter
    is reassigned through ``Parameter.value``, or a batch norm updates its
    running statistics. In-place writes into a parameter's array
    (``p.value[...] = x``) are invisible to the signature — use
    ``Network.compile(force=True)`` after such edits.
    """
    params = 0
    stats = 0
    for node in net.nodes.values():
        layer = node.layer
        for p in layer.params.values():
            params += p.version
        stats += getattr(layer, "stats_version", 0)
    return (net._mutation_version, len(net.nodes), net.output_name,
            params, stats)


@dataclass
class _Step:
    """One scheduled kernel launch."""

    kernel: Kernel
    node_names: list[str]
    input_ids: list[int]
    out_id: int
    out_shape: Shape          # per-sample
    slot: int = -1            # arena slot for the output (_assign_slots)

    @property
    def name(self) -> str:
        return self.node_names[0]


def _prefix(state, batch: int):
    """A kernel state cut to its first ``batch`` rows (``None`` stays)."""
    if isinstance(state, tuple):
        return tuple(None if buf is None else buf[:batch] for buf in state)
    return None if state is None else state[:batch]


class _Buffers:
    """A plan's one buffer set, sized for a batch of ``batch``.

    The input slot (value 0, which ``run`` fills), one buffer per arena
    slot, each step's private kernel state (padding borders, softmax
    rows), one patch buffer per patch layout and the read-only constant
    operands :meth:`const` hands out. Batch is the leading axis of every
    one, so a smaller batch runs on their prefixes.
    """

    def __init__(self, batch: int, plan: "ExecutionPlan"):
        self.batch = batch
        self.input = np.empty((batch,) + plan.input_shape, dtype=np.float32)
        self.slots = {sid: np.empty((batch,) + shape, dtype=np.float32)
                      for sid, shape in plan.slot_shapes.items()}
        self.states = [step.kernel.make_state(batch) for step in plan.steps]
        self.patches: dict[tuple[int, int], np.ndarray] = {}
        for (width, ones), rows in plan.patch_rows.items():
            flat = np.empty(batch * rows * width, dtype=np.float32)
            flat.reshape(-1, width)[:, ones:] = 1.0   # no forward writes it
            self.patches[width, ones] = flat
        self._largest = max((buf.size for buf in self.slots.values()),
                            default=0)
        self.constants: dict[float, np.ndarray] = {}

    def state(self, step: _Step, index: int, batch: int):
        """What ``step`` (the plan's ``index``-th) binds for a batch of
        ``batch``: its private state's prefix, paired with its patch
        matrix when it reads one. The matrix is the leading ``batch *
        rows * width`` floats of its layout's buffer, so it is
        C-contiguous and its rows start on multiples of the width."""
        state = _prefix(self.states[index], batch)
        if step.kernel.patches is None:
            return state
        rows, width, ones = step.kernel.patches
        cols = self.patches[width, ones][:batch * rows * width]
        return state, cols.reshape(batch, rows, width)

    def const(self, value: float, like: np.ndarray) -> np.ndarray:
        """A read-only array shaped like ``like`` holding ``value``.

        Activations clamp against these instead of a Python scalar, which
        NumPy converts on every call and runs through a slower loop. One
        flat array per value, the size of the largest slot, backs every
        request as a prefix. The zeros come from ``np.zeros``, whose
        large pages the OS maps lazily, so reading them adds little
        resident memory.
        """
        flat = self.constants.get(value)
        if flat is None:
            flat = np.zeros(self._largest, dtype=np.float32)
            if value:
                flat.fill(value)
            flat.flags.writeable = False
            self.constants[value] = flat
        return flat[:like.size].reshape(like.shape)

    @property
    def nbytes(self) -> int:
        bufs = [self.input, *self.slots.values(), *self.patches.values(),
                *self.constants.values()]
        for state in self.states:
            bufs += state if isinstance(state, tuple) else [state]
        return sum(buf.nbytes for buf in bufs if buf is not None)


class _Arena:
    """One batch size's bound execution program over a plan's buffers.

    Every kernel is bound to the ``[:batch]`` prefixes of its input,
    output and state buffers. ``ops`` is the resulting flat list of
    zero-argument calls a forward makes in order; ``steps`` holds the same
    calls as ``(step name, calls)`` pairs for per-kernel timing. ``input``
    is the prefix ``run`` fills and ``output`` the one holding the result.
    """

    def __init__(self, batch: int, plan: "ExecutionPlan",
                 buffers: _Buffers):
        self.input = buffers.input[:batch]
        slots = {sid: buf[:batch] for sid, buf in buffers.slots.items()}
        value_buf = {vid: slots[sid] for vid, sid in plan.value_slot.items()}
        value_buf[0] = self.input
        self.steps = []
        for i, step in enumerate(plan.steps):
            ins = [value_buf[vid] for vid in step.input_ids]
            self.steps.append((step.name, step.kernel.bind(
                ins, value_buf[step.out_id], buffers.state(step, i, batch),
                buffers.const)))
        self.ops = [op for _, ops in self.steps for op in ops]
        self.output = value_buf[plan.out_value]


class ExecutionPlan:
    """A flat, topologically ordered schedule of fused kernel steps."""

    def __init__(self, net):
        if not net.built:
            raise RuntimeError("network is not built; call build() first")
        self.input_shape = net.input_shape
        groups = fuse_kernels(net, enabled=True)
        produced = {g.node_names[-1] for g in groups}
        # external references may only target a group's *last* node; the
        # fusion rule guarantees this for everything except the network
        # output, which forward() must return as-is
        if net.output_name != "input" and net.output_name not in produced:
            raise ValueError(
                f"output node {net.output_name!r} is fused mid-group; "
                "compiled execution cannot expose its activation")

        node_value = {"input": 0}
        self.steps: list[_Step] = []
        self.num_values = 1
        for group in groups:
            anchor = net.nodes[group.anchor]
            tail = [net.nodes[name].layer for name in group.node_names[1:]]
            in_shape = net.in_shapes(anchor.name)[0]
            out_shape = net.shape_of(group.node_names[-1])
            kernel = build_kernel(anchor.layer, tail, in_shape, out_shape)
            input_ids = [node_value[d] for d in anchor.inputs] or [0]
            out_id = self.num_values
            self.num_values += 1
            node_value[group.node_names[-1]] = out_id
            self.steps.append(_Step(kernel, list(group.node_names),
                                    input_ids, out_id, out_shape))
        self.out_value = node_value.get(net.output_name, 0)
        self._assign_slots()
        #: ``(width, ones column)`` -> the most patch rows a step of that
        #: layout reads: the size of the one buffer those steps share
        self.patch_rows: dict[tuple[int, int], int] = {}
        for step in self.steps:
            if step.kernel.patches is not None:
                rows, width, ones = step.kernel.patches
                self.patch_rows[width, ones] = max(
                    rows, self.patch_rows.get((width, ones), 0))

    def _assign_slots(self) -> None:
        """Liveness-based arena assignment: recycle freed same-shape slots."""
        refs = {self.out_value: 1}  # the output stays live to the end
        for step in self.steps:
            for vid in step.input_ids:
                refs[vid] = refs.get(vid, 0) + 1
        value_slot: dict[int, int] = {}
        slot_shapes: dict[int, Shape] = {}
        free: dict[Shape, list[int]] = {}
        next_slot = 0
        for step in self.steps:
            pool = free.get(step.out_shape)
            if pool:
                sid = pool.pop()
            else:
                sid = next_slot
                next_slot += 1
                slot_shapes[sid] = step.out_shape
            step.slot = sid
            value_slot[step.out_id] = sid
            for vid in step.input_ids:
                refs[vid] -= 1
                if refs[vid] == 0 and vid in value_slot:
                    sid = value_slot[vid]
                    free.setdefault(slot_shapes[sid], []).append(sid)
        self.slot_shapes = slot_shapes
        self.value_slot = value_slot

    def describe(self) -> str:
        """One line per step: kernel type, fused nodes, slot, shape."""
        lines = [f"{len(self.steps)} steps, {len(self.slot_shapes)} arena "
                 f"slots for {self.num_values} values"]
        for step in self.steps:
            lines.append(
                f"  [{step.slot:>3}] "
                f"{type(step.kernel).__name__:22s} "
                f"{'+'.join(step.node_names)}")
        return "\n".join(lines)


class CompiledNetwork:
    """A network frozen into an :class:`ExecutionPlan` plus its buffers.

    Call it (or :meth:`run`) with a batched input; the underlying
    :class:`~repro.nn.graph.Network` routes ``forward``/``forward_batch``
    here automatically while the plan is valid. One buffer set, sized for
    the largest batch run so far, serves every batch size; each size's
    arena binds on its prefixes and is cached (an LRU of at most
    ``MAX_ARENAS`` sizes, which holds bound calls and views, never
    buffers), so steady-state inference allocates nothing but the
    returned output copy.
    """

    MAX_ARENAS = 8

    def __init__(self, net):
        self.net = net
        self.plan = ExecutionPlan(net)
        self.signature = state_signature(net)
        self._structure = self.signature[:3]
        self._writes = state_writes()
        self._buffers: _Buffers | None = None
        self._arenas: dict[int, _Arena] = {}
        self._times: dict[str, list] | None = None

    @property
    def valid(self) -> bool:
        """Whether the plan still matches the network's weights/structure.

        Checked on every routed forward, so it costs O(1) while nothing
        moved: the structure triple is compared first, and the full
        :func:`state_signature` walk runs only when the process-wide
        :func:`~repro.nn.layers.state_writes` count moved since the last
        check that confirmed the signature. The answer is the walk's.
        """
        net = self.net
        if (net._mutation_version, len(net.nodes),
                net.output_name) != self._structure:
            return False
        writes = state_writes()
        if writes == self._writes:
            return True
        if state_signature(net) != self.signature:
            return False
        self._writes = writes
        return True

    def _arena(self, batch: int) -> _Arena:
        # a hit moves to the end, so the first key is least recently used
        arena = self._arenas.pop(batch, None)
        if arena is None:
            if self._buffers is None or batch > self._buffers.batch:
                # every binding views the old set: drop them with it
                # before the larger set is allocated
                self._arenas.clear()
                self._buffers = None
                self._buffers = _Buffers(batch, self.plan)
            elif len(self._arenas) >= self.MAX_ARENAS:
                self._arenas.pop(next(iter(self._arenas)))
            arena = _Arena(batch, self.plan, self._buffers)
        self._arenas[batch] = arena
        return arena

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on a batch ``(N,) + input_shape``.

        The batch is copied into the arena's input slot, cast to float32
        the way ``astype`` casts, so any dtype and memory layout is
        accepted.
        """
        if x.shape[1:] != self.plan.input_shape:
            raise ValueError(
                f"expected batched input (N,)+{self.plan.input_shape}, "
                f"got {x.shape}")
        arena = self._arena(x.shape[0])
        np.copyto(arena.input, x, casting="unsafe")
        if self._times is not None:
            self._run_timed(arena)
        else:
            for op in arena.ops:
                op()
        # the output lives in a reused arena slot; hand the caller a copy
        # so the next forward cannot overwrite it behind their back
        return arena.output.copy()

    __call__ = run

    def _run_timed(self, arena: _Arena) -> None:
        """The instrumented twin of the hot loop: one clock read per step.

        Makes the same bound calls as :meth:`run`, in the same order,
        grouped by step; the only extra work is two ``perf_counter`` calls
        and a dict update per step, accumulated into ``{step name: [calls,
        total_ms]}`` until :meth:`drain_kernel_times` collects them.
        """
        perf = time.perf_counter
        times = self._times
        for name, ops in arena.steps:
            t0 = perf()
            for op in ops:
                op()
            dt_ms = (perf() - t0) * 1e3
            rec = times.get(name)
            if rec is None:
                times[name] = [1, dt_ms]
            else:
                rec[0] += 1
                rec[1] += dt_ms

    # -- per-kernel timing ---------------------------------------------------
    @property
    def timing_enabled(self) -> bool:
        return self._times is not None

    def enable_timing(self) -> None:
        """Time every kernel launch (wall clock) until disabled.

        Opt-in because even two clock reads per step are measurable on
        sub-millisecond networks; the untimed hot loop is untouched.
        """
        if self._times is None:
            self._times = {}

    def disable_timing(self) -> None:
        self._times = None

    def kernel_times_ms(self) -> dict[str, tuple[int, float]]:
        """Accumulated ``{step name: (calls, total_ms)}`` since last drain."""
        if not self._times:
            return {}
        return {name: (calls, total) for name, (calls, total)
                in self._times.items()}

    def drain_kernel_times(self) -> dict[str, tuple[int, float]]:
        """Like :meth:`kernel_times_ms`, but resets the accumulators."""
        out = self.kernel_times_ms()
        if self._times:
            self._times.clear()
        return out

    def latency_table(self, device: str = "wall-clock"):
        """The accumulated timings as a :class:`repro.device.LatencyTable`.

        One :class:`~repro.device.profiler.LayerRecord` per timed step
        (mean ms per launch, anchored at the step's first node), in plan
        order — the same shape :func:`repro.device.profile_network`
        produces, so drift monitoring and ladder rebuilds can consume
        measurements from the *compiled* path too. ``end_to_end_ms`` is
        the per-kernel mean total (launch gaps are not observable here).
        """
        from repro.device.profiler import LatencyTable, LayerRecord
        times = self.kernel_times_ms()
        records = []
        for step in self.plan.steps:
            rec = times.get(step.name)
            if rec is None:
                continue
            calls, total = rec
            records.append(LayerRecord(step.name, tuple(step.node_names),
                                       total / calls))
        return LatencyTable(
            network=getattr(self.net, "name", "network"),
            device=device, records=tuple(records),
            end_to_end_ms=sum(r.recorded_ms for r in records))

    @property
    def arena_bytes(self) -> int:
        """Bytes of the plan's one buffer set: input slot, arena slots,
        kernel scratch, patch buffers and constant operands, sized for the
        largest batch run so far (0 before the first forward). Every batch
        size runs on these buffers, and a patch buffer its steps share
        counts once."""
        return 0 if self._buffers is None else self._buffers.nbytes

    @property
    def weight_bytes(self) -> int:
        """Bytes of the weight, bias and affine arrays the bound program
        reads every forward, whatever the batch: what a batch-1 forward
        streams besides its activations. Per plan: an array another plan
        (or another step) shares counts in every step that reads it."""
        return sum(w.nbytes for step in self.plan.steps
                   for w in step.kernel.weights())

    def describe(self) -> str:
        return self.plan.describe()


def compile_network(net) -> CompiledNetwork:
    """Compile a built network into a :class:`CompiledNetwork`."""
    return CompiledNetwork(net)
