"""Tests for repro.nn.compile: fused schedule vs. the interpreted walk.

Covers the three contracts the compiled forward path makes: numerical
parity with the interpreter (every zoo network, batched and single
sample), transparent plan invalidation (weight reassignment, structure
edits, clones), and the fallback conditions (training, capture) under
which forwards must route through the interpreted walk. It also pins the
kernel each anchor gets (one class per algorithm), the compile-time
``TypeError`` for a layer type without one, and the bound arena program:
per-step timing over the flat call list, input casting and arena
rebuilds. And it pins the one buffer set per plan: every batch size
binds on prefixes of the largest batch's buffers, with outputs
bit-identical to a fresh plan's. Dead-tap elimination (SAME convs on a
1x1 map keep their one live tap), the shared read-only constant operands,
the process-wide table of compiled weights, the patch buffer each patch
layout shares, the per-sample bias and batch-norm tiles with positional
ufunc outputs, and the O(1) validity gate have their own classes.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from conftest import make_tiny_net

from repro.nn import (
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    GlobalAvgPool,
    Layer,
    MaxPool2D,
    Network,
    ReLU,
    ReLU6,
    Softmax,
)
from repro.nn import compile as compile_module
from repro.nn import kernels as kernels_module
from repro.nn.compile import (
    ANCHOR_TYPES,
    FUSABLE_TYPES,
    CompiledNetwork,
    ExecutionPlan,
    compile_network,
    fuse_kernels,
    state_signature,
)
from repro.nn.kernels import (
    DepthwiseEinsumKernel,
    ElementwiseKernel,
    GemmKernel,
    Im2colKernel,
    Kernel,
    WeightTable,
    build_kernel,
)
from repro.zoo import NETWORKS, build_network

RTOL, ATOL = 1e-4, 1e-5


def _batch(net, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + net.input_shape).astype(np.float32)


def _randomize(net: Network, seed: int = 0) -> Network:
    """Seeded non-trivial biases and batch norms, in place: a freshly
    built net's biases are 0 and its batch norms the identity, which
    hides a dropped bias, a mis-folded shift or a corrupted ones column.
    Gamma ~ U(0.5, 1.5), variance ~ U(0.5, 2); biases, beta and mean ~
    N(0, 0.1)."""
    rng = np.random.default_rng(seed)
    for node in net.nodes.values():
        layer = node.layer
        if type(layer) is BatchNorm:
            c = layer.params["gamma"].value.shape
            layer.params["gamma"].value = rng.uniform(0.5, 1.5, c)
            layer.params["beta"].value = rng.normal(0.0, 0.1, c)
            layer.running_mean = rng.normal(0.0, 0.1, c).astype(np.float32)
            layer.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
        elif "b" in layer.params:
            bias = layer.params["b"]
            bias.value = rng.normal(0.0, 0.1, bias.value.shape)
    return net


class Negate(Layer):
    """A layer type with no compiled kernel."""

    def forward(self, inputs, training=False):
        return -inputs[0]

    def out_shape(self, in_shapes):
        return in_shapes[0]


class HalvedConv(Conv2D):
    """A Conv2D subclass whose forward differs from its base's."""

    def forward(self, inputs, training=False):
        return 0.5 * super().forward(inputs, training)


class LeakyReLU(ReLU):
    """A ReLU subclass: fused behind a conv like its base."""

    def forward(self, inputs, training=False):
        return np.where(inputs[0] > 0, inputs[0], 0.1 * inputs[0])


def _net_without_a_kernel(case: str) -> Network:
    """A tiny CNN with one layer whose exact type has no kernel, in one of
    the ``NO_KERNEL_CASES``: a ``Negate`` whose output fans out, a
    ``Negate`` with a ReLU fused behind it, a ``Conv2D`` subclass and a
    ``ReLU`` subclass fused behind a conv."""
    net = Network(f"no_kernel_{case}", (8, 8, 3))
    net.add("stem_conv", HalvedConv(4, 3) if case == "conv-subclass"
            else Conv2D(4, 3))
    net.add("stem_relu", LeakyReLU() if case == "relu-subclass" else ReLU())
    skip = "stem_relu"
    if case in ("fan-out", "relu-tail"):
        skip = net.add("neg", Negate())
        if case == "relu-tail":
            skip = net.add("neg_relu", ReLU())     # fused behind neg
    net.add("b1_conv", Conv2D(4, 3))
    net.add("b1_bn", BatchNorm())
    net.add("b1_relu", ReLU())
    net.add("b1_add", Add(), inputs=[skip, "b1_relu"])
    net.add("gap", GlobalAvgPool())
    net.add("logits", Dense(5))
    net.add("probs", Softmax())
    return net.build(0)


#: case -> the type the compile-time TypeError names
NO_KERNEL_CASES = {"fan-out": "Negate", "relu-tail": "Negate",
                   "conv-subclass": "HalvedConv",
                   "relu-subclass": "LeakyReLU"}


def _net_with_constant_scratch() -> Network:
    """A net whose kernels keep batch-independent constants in scratch: a
    conv with a folded bias (the patch matrix's ones column), an einsum
    depthwise (a 0 padding border) and a SAME max-pool (a -inf border)."""
    net = Network("scratch", (9, 9, 3))
    net.add("conv", Conv2D(12, 3))
    net.add("conv_relu", ReLU())
    net.add("dw", DepthwiseConv2D(3))              # 12 channels: einsum
    net.add("dw_bn", BatchNorm())
    net.add("pool", MaxPool2D(3, stride=2, padding="same"))
    net.add("gap", GlobalAvgPool())
    net.add("logits", Dense(5))
    return net.build(0)


def _arrays_in(state) -> list[np.ndarray]:
    """The arrays of a bound kernel state, nested tuples flattened."""
    if isinstance(state, tuple):
        return [buf for part in state for buf in _arrays_in(part)]
    return [] if state is None else [state]


def _net_with_patch_layouts() -> Network:
    """Three im2col convs of patch width 28 in two layouts: ``a1`` (3x3 on
    3 channels, bias: ones column 27, 64 rows) and ``a2`` (the same at
    stride 2: 16 rows) share a buffer; ``b`` (2x2 on 7 channels, no bias,
    64 rows) has no ones column and a buffer of its own. Biases are
    random, so a clobbered ones column shows in the output."""
    net = Network("patch_layouts", (8, 8, 3))
    net.add("a1", Conv2D(7, 3))
    net.add("a1_relu", ReLU())
    net.add("b", Conv2D(7, 2, use_bias=False))
    net.add("b_gap", GlobalAvgPool())
    net.add("a2", Conv2D(7, 3, stride=2), inputs="input")
    net.add("a2_gap", GlobalAvgPool())
    net.add("sum", Add(), inputs=["b_gap", "a2_gap"])
    net.add("logits", Dense(5))
    return _randomize(net.build(0), seed=3)


def _one_pixel_net(variant: str) -> Network:
    """A SAME 3x3 conv on a 1x1 map, where 8 of its 9 taps read padding,
    in one of the variants ``ONE_PIXEL_VARIANTS`` names."""
    conv = {"stride1": Conv2D(5, 3, use_bias=False),
            "stride2": Conv2D(5, 3, stride=2, use_bias=False),
            "bias": Conv2D(5, 3),
            "bn_relu": Conv2D(5, 3, use_bias=False),
            "relu6": Conv2D(5, 3)}[variant]
    net = Network(f"one_pixel_{variant}", (1, 1, 6))
    net.add("conv", conv)
    if variant == "bn_relu":
        net.add("bn", BatchNorm())
        net.add("relu", ReLU())
    elif variant == "relu6":
        net.add("relu6", ReLU6())
    net.build(0)
    rng = np.random.default_rng(1)
    if variant == "bn_relu":
        bn = net.nodes["bn"].layer
        bn.params["gamma"].value = rng.uniform(0.5, 2.0, 5)
        bn.params["beta"].value = rng.standard_normal(5)
        bn.running_mean = rng.standard_normal(5).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, 5).astype(np.float32)
    return net


ONE_PIXEL_VARIANTS = ("stride1", "stride2", "bias", "bn_relu", "relu6")


def _net_with_einsum_layouts() -> Network:
    """Three steps of patch width 108 and no ones column share a buffer:
    the depthwise einsums ``dw1`` (3x3 on 12 channels, 64 rows) and ``dw2``
    (the same at stride 2: 16 rows), and the bias-free im2col ``conv``
    (3x3 on 12 channels, 64 rows). Biases are random."""
    net = Network("einsum_layouts", (8, 8, 12))
    net.add("dw1", DepthwiseConv2D(3, use_bias=True))
    net.add("dw1_relu", ReLU())
    net.add("dw2", DepthwiseConv2D(3, stride=2, use_bias=True))
    net.add("dw2_gap", GlobalAvgPool())
    net.add("conv", Conv2D(12, 3, use_bias=False), inputs="input")
    net.add("conv_gap", GlobalAvgPool())
    net.add("sum", Add(), inputs=["dw2_gap", "conv_gap"])
    net.add("logits", Dense(5))
    return _randomize(net.build(0), seed=4)


#: the calls that take their output positionally; np.maximum and
#: np.minimum keep ``out=``, because NumPy 2.4 deprecates a third
#: positional argument for those two
POSITIONAL_OUT = (np.add, np.multiply, np.subtract, np.true_divide,
                  np.matmul)


def _check_bound_calls(plan: CompiledNetwork, n: int, where: str) -> None:
    """Run ``plan`` at batch ``n`` and check every call of that arena.

    No element-wise ufunc reads an array of fewer dimensions than its
    output, such as a per-channel vector broadcast over an activation.
    Each read-only operand of one (a bias or affine tile, or a clamp
    constant) has the output's shape or ``(1,) + out.shape[1:]``, and a
    tile is among its step's ``weights()``, which ``weight_bytes`` sums.
    No call in POSITIONAL_OUT takes ``out`` as a keyword.
    """
    plan.run(_batch(plan.net, n))
    consts = list(plan._buffers.constants.values())
    for step, (name, ops) in zip(plan.plan.steps, plan._arenas[n].steps):
        weights = {id(w) for w in step.kernel.weights()}
        for op in ops:
            func = op.func
            msg = f"{where} n={n} {name} {getattr(func, '__name__', func)}"
            assert not (func in POSITIONAL_OUT and "out" in op.keywords), msg
            if not isinstance(func, np.ufunc) or func.signature is not None:
                continue
            out = op.keywords["out"] if "out" in op.keywords else (
                op.args[func.nin])
            for a in op.args[:func.nin]:
                if not isinstance(a, np.ndarray):
                    continue
                assert a.ndim == out.ndim, msg
                if a.flags.writeable:
                    continue
                assert a.shape in (out.shape, (1,) + out.shape[1:]), msg
                if not any(np.may_share_memory(a, c) for c in consts):
                    assert id(a) in weights, msg


@pytest.fixture
def walks(monkeypatch):
    """The networks ``state_signature`` walked, as the compiled path calls
    it, from here on."""
    walked = []
    real = compile_module.state_signature

    def counting(net):
        walked.append(net)
        return real(net)

    monkeypatch.setattr(compile_module, "state_signature", counting)
    return walked


class TestFusionDuality:
    """Every pattern the latency model fuses must run as fused compute."""

    def test_every_anchor_type_has_a_compute_kernel(self):
        # every type that starts a group, a fusable one with fan-out
        # included, builds a kernel (there is no interpreter fallback)
        shape = (6, 6, 4)
        args = {Conv2D: (4, 3), DepthwiseConv2D: (3,), Dense: (4,)}
        for anchor in ANCHOR_TYPES + FUSABLE_TYPES:
            layer = anchor(*args.get(anchor, ()))
            layer.build([shape, shape], np.random.default_rng(0))
            out_shape = layer.out_shape([shape, shape])
            kernel = build_kernel(layer, [], shape, out_shape)
            assert isinstance(kernel, Kernel), anchor.__name__

    def test_every_fusable_type_fuses_behind_a_conv(self, tiny_net):
        # a conv followed by each fusable tail builds one kernel: a batch
        # norm folds into its weights, dropout vanishes, an activation
        # runs in place on its output
        conv = tiny_net.nodes["stem_conv"]
        in_shape = tiny_net.in_shapes(conv.name)[0]
        out_shape = tiny_net.shape_of(conv.name)
        for tail_type in FUSABLE_TYPES:
            tail = tail_type(0.5) if tail_type is Dropout else tail_type()
            tail.build([out_shape], np.random.default_rng(0))
            kernel = build_kernel(conv.layer, [tail], in_shape, out_shape)
            assert type(kernel) is Im2colKernel, tail_type.__name__
            activation = tail_type in (ReLU, ReLU6)
            assert len(kernel.postops) == activation, tail_type.__name__

    def test_compiled_steps_match_fusion_groups(self, tiny_net):
        plan = ExecutionPlan(tiny_net)
        groups = fuse_kernels(tiny_net, enabled=True)
        assert [s.node_names for s in plan.steps] == [
            g.node_names for g in groups]


def _one_layer_net(layer, in_shape) -> Network:
    """``layer`` alone on an input of ``in_shape``, with random nonzero
    parameters and batch-norm statistics."""
    net = Network("one_layer", in_shape)
    net.add("layer", layer)
    net.build(0)
    rng = np.random.default_rng(2)
    for p in layer.params.values():
        p.value = rng.uniform(0.5, 1.5, p.value.shape) * rng.choice(
            [-1.0, 1.0], p.value.shape)
    if isinstance(layer, BatchNorm):
        c = in_shape[-1]
        layer.running_mean = rng.standard_normal(c).astype(np.float32)
        layer.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return net


#: case -> (anchor, input shape, expected kernel class)
SELECTION_CASES = {
    "conv1x1": (lambda: Conv2D(5, 1), (6, 6, 4), GemmKernel),
    "conv1x1-stride2": (lambda: Conv2D(5, 1, stride=2), (7, 7, 4),
                        GemmKernel),
    "conv3x3-on-1x1-map": (lambda: Conv2D(5, 3), (1, 1, 4), GemmKernel),
    "conv3x3": (lambda: Conv2D(5, 3), (6, 6, 4), Im2colKernel),
    "depthwise8": (lambda: DepthwiseConv2D(3, use_bias=True), (6, 6, 8),
                   Im2colKernel),
    "depthwise12": (lambda: DepthwiseConv2D(3, use_bias=True), (6, 6, 12),
                    DepthwiseEinsumKernel),
    "dense": (lambda: Dense(5), (7,), GemmKernel),
    "batchnorm": (BatchNorm, (4, 4, 3), ElementwiseKernel),
    "relu6": (ReLU6, (4, 4, 3), ElementwiseKernel),
}


class TestKernelSelection:
    """``build_kernel`` picks one class per algorithm from the anchor's
    exact type and geometry, and that class computes the layer."""

    @pytest.mark.parametrize("case", SELECTION_CASES)
    def test_kernel_class_and_parity(self, case):
        make, in_shape, expected = SELECTION_CASES[case]
        net = _one_layer_net(make(), in_shape)
        x = 4 * _batch(net, 3)                     # ReLU6 clamps both ends
        interp = net.forward(x)
        plan = net.compile()
        (step,) = plan.plan.steps
        assert type(step.kernel) is expected
        for n in (3, 1, 2):
            np.testing.assert_allclose(plan.run(x[:n]), interp[:n],
                                       rtol=RTOL, atol=ATOL, err_msg=case)


class TestZooParity:
    """Compiled output == interpreted output on every zoo network, with
    random biases and batch-norm statistics."""

    @pytest.mark.parametrize("name", NETWORKS)
    def test_batched_parity(self, name):
        net = _randomize(build_network(name).build(0))
        x = _batch(net, 2)
        interp = net.forward(x)
        net.compile()
        assert net.compiled
        compiled = net.forward(x)
        np.testing.assert_allclose(compiled, interp, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_single_sample_parity(self, name):
        net = _randomize(build_network(name).build(0))
        x = _batch(net, 1)[0]
        interp = net.forward_one(x)
        net.compile()
        compiled = net.forward_one(x)
        assert compiled.shape == interp.shape      # batch axis stays off
        np.testing.assert_allclose(compiled, interp, rtol=RTOL, atol=ATOL)


class TestBuilderParity:
    """Compiled output == interpreted output on every rung a builder emits:
    greedy cuts, pruned channels, HALP and DP-depth selections, cut from a
    base with random biases and batch-norm statistics."""

    @pytest.mark.parametrize("name", NETWORKS)
    def test_every_rung_matches_its_interpreted_copy(self, name):
        from repro.device import xavier
        from repro.netcut import build_rungs

        base = _randomize(build_network(name).build(0))
        rungs = build_rungs(base, xavier(), max_rungs=4)
        for builder, artifacts in rungs.items():
            assert artifacts, builder
            for artifact in artifacts:
                net = artifact.network
                x = _batch(net, 2)
                interp = net.copy().forward(x)
                net.compile()
                assert net.compiled
                np.testing.assert_allclose(
                    net.forward(x), interp, rtol=RTOL, atol=ATOL,
                    err_msg=f"{builder} rung {artifact.trn_name}")


class TestCompiledExecution:
    def test_forward_batch_routes_through_plan(self, tiny_net):
        samples = list(_batch(tiny_net, 4))
        interp = tiny_net.forward_batch(samples)
        tiny_net.compile()
        compiled = tiny_net.forward_batch(samples)
        np.testing.assert_allclose(compiled, interp, rtol=RTOL, atol=ATOL)

    def test_output_is_not_an_arena_view(self, tiny_net):
        plan = tiny_net.compile()
        x = _batch(tiny_net, 2)
        first = plan.run(x)
        snapshot = first.copy()
        plan.run(_batch(tiny_net, 2, seed=1))      # would overwrite a view
        np.testing.assert_array_equal(first, snapshot)

    def test_arenas_cached_per_batch_size(self, tiny_net):
        plan = tiny_net.compile()
        plan.run(_batch(tiny_net, 3))
        buffers = plan._buffers
        plan.run(_batch(tiny_net, 2))              # binds on 3's buffers
        assert set(plan._arenas) == {3, 2}
        assert plan._buffers is buffers
        assert plan.arena_bytes > 0
        a2 = plan._arenas[2]
        plan.run(_batch(tiny_net, 2))
        assert plan._arenas[2] is a2               # reused, not rebuilt
        plan.run(_batch(tiny_net, 4))              # grows: drops bindings
        assert set(plan._arenas) == {4}
        assert plan._buffers is not buffers

    def test_arena_lru_is_bounded(self, tiny_net):
        plan = tiny_net.compile()
        plan.run(_batch(tiny_net, CompiledNetwork.MAX_ARENAS + 2))
        for n in range(1, CompiledNetwork.MAX_ARENAS + 3):
            plan.run(_batch(tiny_net, n))
        assert len(plan._arenas) == CompiledNetwork.MAX_ARENAS

    def test_arena_lru_keeps_the_recently_used_size(self, tiny_net):
        cap = CompiledNetwork.MAX_ARENAS
        plan = tiny_net.compile()
        plan.run(_batch(tiny_net, cap + 2))        # every later size fits
        for n in range(1, cap):
            plan.run(_batch(tiny_net, n))
        assert list(plan._arenas) == [cap + 2, *range(1, cap)]
        plan.run(_batch(tiny_net, cap + 2))        # touch the oldest
        plan.run(_batch(tiny_net, cap))            # evicts one to make room
        assert cap + 2 in plan._arenas
        assert 1 not in plan._arenas

    def test_run_rejects_unbatched_input(self, tiny_net):
        plan = tiny_net.compile()
        with pytest.raises(ValueError, match="batched"):
            plan.run(np.zeros(tiny_net.input_shape, dtype=np.float32))

    def test_evicted_arena_rebuilds_correct_output(self, tiny_net):
        plan = tiny_net.compile()
        x = _batch(tiny_net, 2)
        first = plan.run(x)
        for n in range(3, CompiledNetwork.MAX_ARENAS + 4):
            plan.run(_batch(tiny_net, n))
        assert 2 not in plan._arenas               # dropped as buffers grew
        np.testing.assert_array_equal(plan.run(x), first)
        tiny_net.uncompile()
        np.testing.assert_allclose(first, tiny_net.forward(x),
                                   rtol=RTOL, atol=ATOL)

    def test_input_dtype_and_layout_are_cast_like_astype(self, tiny_net):
        plan = tiny_net.compile()
        rng = np.random.default_rng(3)
        x64 = rng.standard_normal((3,) + tiny_net.input_shape)
        expected = plan.run(x64.astype(np.float32))
        np.testing.assert_array_equal(plan.run(x64), expected)
        wide = np.zeros((3, 8, 16, 3), dtype=np.float32)
        wide[:, :, ::2] = x64
        strided = wide[:, :, ::2]                  # non-contiguous view
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(plan.run(strided), expected)
        fortran = np.asfortranarray(x64.astype(np.float32))
        np.testing.assert_array_equal(plan.run(fortran), expected)

    def test_describe_lists_every_step(self, tiny_net):
        plan = tiny_net.compile()
        text = plan.describe()
        for step in plan.plan.steps:
            assert step.name in text


class TestBoundProgram:
    """The per-arena program of bound calls that a compiled forward runs."""

    @pytest.mark.parametrize("case", NO_KERNEL_CASES)
    def test_layer_without_a_kernel_fails_at_plan_build(self, case):
        net = _net_without_a_kernel(case)
        x = _batch(net, 3)
        interp = net.forward(x)
        with pytest.raises(TypeError,
                           match=rf"layer type {NO_KERNEL_CASES[case]} "):
            net.compile()
        assert not net.compiled
        np.testing.assert_array_equal(net.forward(x), interp)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_every_state_array_leads_with_the_batch(self, name):
        # what each step binds, private scratch and shared patch matrix
        # alike, at the buffer set's batch and at a smaller prefix
        plan = compile_network(build_network(name).build(0))
        buffers = compile_module._Buffers(3, plan.plan)
        for i, step in enumerate(plan.plan.steps):
            for n in (3, 2):
                for buf in _arrays_in(buffers.state(step, i, n)):
                    assert buf.shape[0] == n, step.name
                    assert buf.flags.c_contiguous, step.name

    @pytest.mark.parametrize("sizes", [
        [1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 2, 6, 4, 5, 1]],
        ids=["ascending", "descending", "interleaved"])
    def test_prefix_outputs_match_a_fresh_plan(self, sizes):
        net = _net_with_constant_scratch()
        plan = net.compile()
        conv, dw, pool = (s.kernel for s in plan.plan.steps[:3])
        assert type(conv) is Im2colKernel and len(conv.wf) == 3 * 3 * 3 + 1
        assert type(dw) is DepthwiseEinsumKernel
        assert pool.is_max and pool.pad.needed
        for n in sizes:
            x = _batch(net, n, seed=n)
            np.testing.assert_array_equal(
                plan.run(x), compile_network(net).run(x), err_msg=f"n={n}")

    def test_arena_bytes_is_the_largest_batch_set(self):
        net = build_network("mobilenet_v2_1.0").build(0)
        plan = net.compile()
        assert plan.arena_bytes == 0
        for n in range(1, 9):
            plan.run(_batch(net, n))
        single = compile_network(net)
        single.run(_batch(net, 8))
        assert plan.arena_bytes == single.arena_bytes > 0

    @pytest.mark.parametrize("name", NETWORKS)
    def test_warm_forward_allocates_only_the_output(self, name):
        # a NumPy ufunc call may buffer an operand (getbufsize() elements,
        # freed on return): room for two float32 buffers and their headers
        slack = 2 * np.getbufsize() * 4 + 4096
        net = build_network(name).build(0)
        plan = net.compile()
        x = _batch(net, 8)
        plan.run(x)                                # binds the arena
        tracemalloc.start()
        try:
            out = plan.run(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + slack

    @pytest.mark.parametrize("name", NETWORKS)
    def test_timed_forward_matches_untimed(self, name):
        net = build_network(name).build(0)
        plan = net.compile()
        for n in (1, 3):
            x = _batch(net, n, seed=n)
            untimed = plan.run(x)
            plan.enable_timing()
            timed = plan.run(x)
            times = plan.kernel_times_ms()
            plan.disable_timing()
            np.testing.assert_array_equal(timed, untimed)
            assert set(times) == {step.name for step in plan.plan.steps}
            assert all(calls == 1 for calls, _ in times.values())
            arena = plan._arenas[n]
            assert [op for _, ops in arena.steps for op in ops] == arena.ops


class TestDeadTaps:
    """A SAME conv on a 1x1 map runs as the 1x1 conv of its one live tap."""

    @pytest.mark.parametrize("variant", ONE_PIXEL_VARIANTS)
    def test_one_pixel_conv_keeps_only_the_live_tap(self, variant):
        net = _one_pixel_net(variant)
        # inputs wide enough that the ReLU6 tail clamps at both ends
        batches = {n: 8 * _batch(net, n, seed=n) for n in (1, 2, 3)}
        interp = {n: net.forward(x) for n, x in batches.items()}
        plan = net.compile()
        for n in (1, 2, 3, 3, 2, 1):
            np.testing.assert_allclose(
                net.forward(batches[n]), interp[n], rtol=RTOL, atol=ATOL,
                err_msg=f"{variant} n={n}")
        if variant == "relu6":
            assert (interp[3] == 6.0).any() and (interp[3] == 0.0).any()
        kernel = plan.plan.steps[0].kernel
        assert type(kernel) is GemmKernel
        assert kernel.wf.shape == (6, 5)           # (C_in, F), one tap
        assert kernel.make_state(3) is None        # no padding, no patches
        has_bias = variant in ("bias", "bn_relu", "relu6")
        assert plan.weight_bytes == 4 * (6 * 5 + 5 * has_bias)


class TestConstantOperands:
    """Activations clamp against read-only same-shape constants."""

    @pytest.mark.parametrize("name", ["resnet50", "mobilenet_v2_1.0"])
    def test_constants_are_read_only_and_counted(self, name):
        net = build_network(name).build(0)
        plan = net.compile()
        plan.run(_batch(net, 3))
        buffers = plan._buffers
        largest = max(buf.size for buf in buffers.slots.values())
        clamps = {0.0, 6.0} if name.startswith("mobilenet_v2") else {0.0}
        assert set(buffers.constants) == clamps
        for value, flat in buffers.constants.items():
            assert not flat.flags.writeable
            assert flat.size == largest
            assert (flat == value).all()
        consts = sum(flat.nbytes for flat in buffers.constants.values())
        unbound = compile_module._Buffers(3, plan.plan)  # no constants yet
        assert plan.arena_bytes == unbound.nbytes + consts

    def test_relu6_anchor_and_tail_match_the_interpreter(self):
        net = Network("relu6", (8, 8, 3))
        net.add("conv", Conv2D(8, 3))
        net.add("tail", ReLU6())                   # fused behind conv
        net.add("conv2", Conv2D(8, 1))
        net.add("anchor", ReLU6())                 # conv2 has fan-out
        net.add("out", Add(), inputs=["anchor", "conv2"])
        net.build(0)
        plan = net.compile()
        for n in (2, 16):
            x = 8 * _batch(net, n, seed=n)
            out = plan.run(x)
            net.uncompile()
            interp, acts = net.forward(x, capture=["tail", "anchor"])
            np.testing.assert_allclose(out, interp, rtol=RTOL, atol=ATOL)
            assert all((a == 6.0).any() for a in acts.values())
            plan = net.compile()


class TestWeightTable:
    """Every constant array a kernel binds comes from one process-wide
    table: one read-only copy per distinct content, held weakly."""

    def test_miss_stores_a_read_only_copy_held_weakly(self):
        table = WeightTable()
        given = np.arange(6, dtype=np.float32).reshape(2, 3)
        held = table.intern(given)
        assert held is not given and not np.shares_memory(held, given)
        assert not held.flags.writeable and given.flags.writeable
        np.testing.assert_array_equal(held, given)
        assert table.intern(given.astype(np.float64)) is held
        assert table.intern(given.T.copy().T) is held  # any layout
        assert len(table) == 1
        del held
        gc.collect()
        assert len(table) == 0

    def test_equal_keys_are_confirmed_bitwise(self, monkeypatch):
        # with every checksum equal, only the compare tells arrays apart;
        # -0.0 == 0.0 as values, but not as bits
        monkeypatch.setattr(kernels_module.zlib, "crc32", lambda data: 0)
        table = WeightTable()
        arrays = [np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32),
                  np.full(4, -0.0, dtype=np.float32)]
        held = [table.intern(a) for a in arrays]
        assert len({id(h) for h in held}) == 3 and len(table) == 3
        for a, h in zip(arrays, held):
            assert table.intern(a.copy()) is h
            assert h.tobytes() == a.tobytes()

    @staticmethod
    def _weights(plan) -> list[list[np.ndarray]]:
        return [step.kernel.weights() for step in plan.plan.steps]

    @staticmethod
    def _twin(name: str) -> Network:
        return _randomize(build_network(name).build(0), seed=5)

    @pytest.mark.parametrize("name", ["resnet50", "mobilenet_v2_1.0"])
    def test_separately_built_copies_share_every_weight(self, name):
        a, b = self._twin(name).compile(), self._twin(name).compile()
        wa, wb = self._weights(a), self._weights(b)
        assert sum(map(len, wa)) > 0
        for step, xs, ys in zip(a.plan.steps, wa, wb):
            assert len(xs) == len(ys)
            assert all(x is y for x, y in zip(xs, ys)), step.name
        assert a.weight_bytes == b.weight_bytes

    def test_reassignment_renews_only_the_steps_that_read_it(self):
        net, other = self._twin("resnet50"), self._twin("resnet50")
        plan, kept = net.compile(), other.compile()
        x = _batch(net, 2)
        before = kept.run(x)
        old = self._weights(plan)
        conv = net.nodes["block3_b_conv"].layer
        conv.params["w"].value = conv.params["w"].value * 0.5
        renewed = net.compile()
        assert renewed is not plan and kept.valid
        for step, xs, ys in zip(renewed.plan.steps, old,
                                self._weights(renewed)):
            reads = "block3_b_conv" in step.node_names
            assert all((x is y) != reads for x, y in zip(xs, ys)), step.name
        for xs, ys in zip(self._weights(kept), old):
            assert all(x is y for x, y in zip(xs, ys))
        np.testing.assert_array_equal(kept.run(x), before)
        assert not np.array_equal(renewed.run(x), before)

    def test_parameters_are_never_frozen_or_aliased(self, tiny_net):
        _randomize(tiny_net)
        plan = tiny_net.compile()
        weights = [w for ws in self._weights(plan) for w in ws]
        assert weights and not any(w.flags.writeable for w in weights)
        for _, p in tiny_net.parameters(trainable_only=False):
            assert p.value.flags.writeable
            assert not any(np.may_share_memory(p.value, w) for w in weights)
        # a raw in-place write reaches the plan only through a recompile
        x = _batch(tiny_net, 2)
        before = plan.run(x)
        tiny_net.nodes["logits"].layer.params["w"].value[...] = 0.0
        np.testing.assert_array_equal(plan.run(x), before)
        after = tiny_net.compile(force=True).run(x)
        assert not np.allclose(after, before)
        tiny_net.uncompile()
        np.testing.assert_allclose(after, tiny_net.forward(x),
                                   rtol=RTOL, atol=ATOL)

    def test_table_empties_once_every_plan_is_gone(self, monkeypatch):
        table = WeightTable()
        monkeypatch.setattr(kernels_module, "WEIGHTS", table)
        nets = [self._twin("mobilenet_v1_0.25") for _ in range(2)]
        plans = [net.compile() for net in nets]
        plans[0].run(_batch(nets[0], 2))
        distinct = {id(w) for ws in self._weights(plans[0]) for w in ws}
        assert len(table) == len(distinct) > 0
        del nets, plans
        gc.collect()
        assert len(table) == 0


class TestPatchBuffers:
    """The im2col steps of one patch layout (width, ones column) share one
    patch buffer, sized for the largest of them."""

    def test_one_buffer_per_layout_counted_once(self):
        net = _net_with_patch_layouts()
        plan = net.compile()
        layouts = [s.kernel.patches for s in plan.plan.steps
                   if s.kernel.patches is not None]
        assert layouts == [(64, 28, 27), (64, 28, 28), (16, 28, 27)]
        assert plan.plan.patch_rows == {(28, 27): 64, (28, 28): 64}
        weight_bytes = plan.weight_bytes
        for n in (3, 1, 2):
            plan.run(_batch(net, n, seed=n))
        buffers = plan._buffers
        shared = sum(flat.nbytes for flat in buffers.patches.values())
        assert shared == 4 * 3 * 28 * (64 + 64)
        # per step, the parent layout allocated a matrix for each
        per_step = 4 * 3 * 28 * (64 + 64 + 16)
        private = [buffers.input, *buffers.slots.values(),
                   *buffers.constants.values()]
        private += [b for st in buffers.states for b in _arrays_in(st)]
        rest = sum(buf.nbytes for buf in private)
        assert plan.arena_bytes == rest + shared == rest + per_step - (
            4 * 3 * 28 * 16)
        ones = buffers.patches[28, 27].reshape(-1, 28)[:, 27]
        assert (ones == 1.0).all()
        assert plan.weight_bytes == weight_bytes

    @staticmethod
    def _match_fresh_plans(net: Network, sizes: list[int]) -> None:
        """One plan run at ``sizes`` in turn: each output bit-equal to a
        fresh plan's and close to the interpreter's."""
        plan = net.compile()
        for n in sizes:
            x = _batch(net, n, seed=n)
            out = plan.run(x)
            np.testing.assert_array_equal(
                out, compile_network(net).run(x), err_msg=f"n={n}")
            net.uncompile()
            np.testing.assert_allclose(out, net.forward(x), rtol=RTOL,
                                       atol=ATOL, err_msg=f"n={n}")

    @pytest.mark.parametrize("sizes", [
        [1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 2, 6, 4, 5, 1]],
        ids=["ascending", "descending", "interleaved"])
    def test_shared_patches_match_a_fresh_plan(self, sizes):
        self._match_fresh_plans(_net_with_patch_layouts(), sizes)

    def test_einsum_steps_share_the_layout_buffer(self):
        # a depthwise einsum's patch tensor is a patch matrix with no ones
        # column: the einsums and a bias-free im2col of its width share it
        net = _net_with_einsum_layouts()
        plan = net.compile()
        layouts = [(type(s.kernel), s.kernel.patches) for s in plan.plan.steps
                   if s.kernel.patches is not None]
        assert layouts == [(DepthwiseEinsumKernel, (64, 108, 108)),
                           (DepthwiseEinsumKernel, (16, 108, 108)),
                           (Im2colKernel, (64, 108, 108))]
        assert plan.plan.patch_rows == {(108, 108): 64}
        for n in (3, 1, 2):
            plan.run(_batch(net, n, seed=n))
        buffers = plan._buffers
        (shared,) = buffers.patches.values()
        assert shared.nbytes == 4 * 3 * 64 * 108
        # an einsum's private state is its padding buffer alone
        for step, state in zip(plan.plan.steps, buffers.states):
            if type(step.kernel) is DepthwiseEinsumKernel:
                assert isinstance(state, np.ndarray), step.name
                assert state.shape[1:] == step.kernel.pad.padded_shape
        private = [buffers.input, *buffers.slots.values(),
                   *buffers.constants.values()]
        private += [b for st in buffers.states for b in _arrays_in(st)]
        assert plan.arena_bytes == sum(b.nbytes for b in private) + (
            shared.nbytes)

    @pytest.mark.parametrize("sizes", [
        [1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 2, 6, 4, 5, 1]],
        ids=["ascending", "descending", "interleaved"])
    def test_shared_einsum_patches_match_a_fresh_plan(self, sizes):
        self._match_fresh_plans(_net_with_einsum_layouts(), sizes)


class TestSameShapeCalls:
    """A bias or batch-norm call reads a per-sample tile, never a broadcast
    per-channel vector, and ufuncs take their output positionally: on every
    zoo net and every builder rung, at batch 1 and 3."""

    @pytest.mark.parametrize("name", NETWORKS)
    def test_zoo_calls(self, name):
        plan = _randomize(build_network(name).build(0)).compile()
        for n in (1, 3):
            _check_bound_calls(plan, n, name)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_builder_rung_calls(self, name):
        from repro.device import xavier
        from repro.netcut import build_rungs

        base = _randomize(build_network(name).build(0))
        rungs = build_rungs(base, xavier(), max_rungs=4)
        for builder, artifacts in rungs.items():
            for artifact in artifacts:
                plan = artifact.network.compile()
                for n in (1, 3):
                    _check_bound_calls(
                        plan, n, f"{builder} rung {artifact.trn_name}")

    def test_tiles_are_one_sample_of_the_output(self):
        # a dense bias, a conv's folded batch norm and a batch norm that
        # anchors its own group: each tile repeats its vector per sample
        net = Network("tiles", (4, 4, 3))
        net.add("conv", Conv2D(6, 1))              # GEMM: bias by a call
        net.add("conv_bn", BatchNorm())            # folded into the bias
        net.add("bn", BatchNorm())                 # conv_bn has fan-out
        net.add("sum", Add(), inputs=["conv_bn", "bn"])
        net.add("gap", GlobalAvgPool())
        net.add("logits", Dense(5))
        _randomize(net.build(0), seed=6)
        plan = net.compile()
        conv, bn, _, _, logits = (s.kernel for s in plan.plan.steps)
        (bias,) = conv.postops[0].weights
        assert bias.shape == (1, 4, 4, 6)
        assert (bias == bias[0, 0, 0]).all()
        scale, shift = bn.op.weights
        assert scale.shape == shift.shape == (1, 4, 4, 6)
        layer = net.nodes["bn"].layer
        inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
        np.testing.assert_array_equal(
            scale[0, 2, 1], (layer.params["gamma"].value * inv).astype(
                np.float32))
        assert logits.postops[0].weights[0].shape == (1, 5)
        weights = sum(w.nbytes for k in (conv, bn, logits)
                      for w in k.weights())
        assert plan.weight_bytes == weights == 4 * (
            3 * 6 + 96 + 2 * 96 + 6 * 5 + 5)
        x = _batch(net, 3)
        out = plan.run(x)
        net.uncompile()
        np.testing.assert_allclose(out, net.forward(x), rtol=RTOL, atol=ATOL)


class TestValidityGate:
    """A plan re-walks its network only when a tracked write happened."""

    def test_unchanged_plan_never_walks(self, tiny_net, monkeypatch):
        plan = tiny_net.compile()
        x = _batch(tiny_net, 2)
        expected = plan.run(x)

        def walk(net):
            raise AssertionError("state_signature walked an unchanged plan")

        monkeypatch.setattr(compile_module, "state_signature", walk)
        np.testing.assert_array_equal(tiny_net.forward(x), expected)
        assert tiny_net.compile() is plan

    def test_write_on_another_network_walks_once(self, tiny_net, walks):
        other = make_tiny_net("other")
        plan = tiny_net.compile()
        assert walks == [tiny_net]                 # the compile's snapshot
        p = other.nodes["logits"].layer.params["w"]
        p.value = p.value * 0.5
        assert plan.valid
        assert walks == [tiny_net] * 2
        assert plan.valid and tiny_net.compile() is plan
        assert walks == [tiny_net] * 2             # confirmed: no new walk

    def test_structure_edit_invalidates_without_a_walk(self, tiny_net,
                                                       walks):
        plan = tiny_net.compile()
        stats = {k: v + 1.0 for k, v in tiny_net.state_dict().items()
                 if k.endswith(("running_mean", "running_var"))}
        tiny_net.load_state_dict(stats, strict=False)  # no Parameter write
        assert not plan.valid
        assert walks == [tiny_net]                 # the triple decided
        x = _batch(tiny_net, 2)
        compiled = tiny_net.forward(x)             # recompiles
        assert tiny_net._compiled is not plan
        tiny_net.uncompile()
        np.testing.assert_allclose(compiled, tiny_net.forward(x),
                                   rtol=RTOL, atol=ATOL)


class TestPlanInvalidation:
    def test_weight_reassignment_invalidates(self, tiny_net):
        tiny_net.compile()
        x = _batch(tiny_net, 2)
        before = tiny_net.forward(x)
        p = tiny_net.nodes["logits"].layer.params["w"]
        p.value = p.value * 0.5                    # setter bumps the version
        assert not tiny_net._compiled.valid
        after = tiny_net.forward(x)                # transparent recompile
        assert tiny_net._compiled.valid
        assert not np.allclose(after, before)
        tiny_net.uncompile()
        np.testing.assert_allclose(after, tiny_net.forward(x),
                                   rtol=RTOL, atol=ATOL)

    def test_load_state_dict_invalidates(self, tiny_net):
        tiny_net.compile()
        sig = state_signature(tiny_net)
        state = {k: v * 2.0 for k, v in tiny_net.state_dict().items()}
        tiny_net.load_state_dict(state)
        assert state_signature(tiny_net) != sig
        assert not tiny_net._compiled.valid

    def test_inplace_writes_escape_tracking(self, tiny_net):
        # documented limitation: raw array writes need compile(force=True)
        tiny_net.compile()
        p = tiny_net.nodes["logits"].layer.params["w"]
        p.value[...] = 0.0
        assert tiny_net._compiled.valid            # signature cannot see it
        plan = tiny_net.compile(force=True)
        out = plan.run(_batch(tiny_net, 2))
        tiny_net.uncompile()
        np.testing.assert_allclose(out, tiny_net.forward(_batch(tiny_net, 2)),
                                   rtol=RTOL, atol=ATOL)

    def test_clones_start_uncompiled(self, tiny_net):
        tiny_net.compile()
        assert not tiny_net.copy().compiled
        assert not tiny_net.subgraph("b2_add").compiled

    def test_training_updates_bn_stats_and_invalidates(self, tiny_net):
        tiny_net.compile()
        tiny_net.forward(_batch(tiny_net, 4), training=True)
        assert not tiny_net._compiled.valid
        x = _batch(tiny_net, 2)
        compiled = tiny_net.forward(x)             # recompiles with new stats
        tiny_net.uncompile()
        np.testing.assert_allclose(compiled, tiny_net.forward(x),
                                   rtol=RTOL, atol=ATOL)


class TestInterpreterFallback:
    def test_capture_falls_back(self, tiny_net):
        tiny_net.compile()
        out, acts = tiny_net.forward(_batch(tiny_net, 2), capture=["b1_relu"])
        assert "b1_relu" in acts

    def test_compile_returns_cached_plan(self, tiny_net):
        plan = tiny_net.compile()
        assert tiny_net.compile() is plan
        assert compile_network(tiny_net) is not plan


class TestForwardOne:
    def test_rejects_batched_input(self, tiny_net):
        with pytest.raises(ValueError, match="forward_one expects"):
            tiny_net.forward_one(_batch(tiny_net, 2))

    def test_rejects_wrong_shape(self, tiny_net):
        with pytest.raises(ValueError, match="forward_one expects"):
            tiny_net.forward_one(np.zeros((4, 4, 3), dtype=np.float32))

    def test_matches_implicit_single_sample_path(self, tiny_net):
        x = _batch(tiny_net, 1)[0]
        implicit = tiny_net.forward(x)             # legacy shape sniffing
        explicit = tiny_net.forward_one(x)
        np.testing.assert_array_equal(implicit, explicit)

    def test_capture_stays_unbatched(self, tiny_net):
        x = _batch(tiny_net, 1)[0]
        out, acts = tiny_net.forward_one(x, capture=["b1_relu"])
        assert out.shape == tiny_net.shape_of(tiny_net.output_name)
        assert acts["b1_relu"].shape == tiny_net.shape_of("b1_relu")
