"""Tests for the device substrate: fusion, latency model, runtime, profiler."""

import numpy as np
import pytest

from repro.device import (
    DeviceSpec,
    ServiceTimeSampler,
    fuse_kernels,
    k20m,
    kernel_latency_ms,
    measure_latency,
    nano,
    network_latency,
    profile_network,
    sample_runs,
    xavier,
)
from repro.nn import BatchNorm, Conv2D, Network, ReLU



class TestFusion:
    def test_conv_bn_relu_fuse(self, tiny_net):
        groups = fuse_kernels(tiny_net)
        by_anchor = {g.anchor: g for g in groups}
        assert set(by_anchor["b1_conv"].node_names) == {
            "b1_conv", "b1_bn", "b1_relu"}

    def test_disabled_fusion_one_node_per_kernel(self, tiny_net):
        groups = fuse_kernels(tiny_net, enabled=False)
        assert all(len(g.node_names) == 1 for g in groups)
        assert len(groups) == len(tiny_net.nodes) - 1  # minus Input

    def test_fusion_blocked_by_branch_consumer(self, tiny_net):
        """b2's relu output also feeds the residual Add; in the tiny net
        b1_relu feeds both b2_conv and b2_add, so b1_relu still fuses with
        b1_conv (single consumer chain check applies to intra-group edges)."""
        groups = fuse_kernels(tiny_net)
        anchors = {g.anchor for g in groups}
        assert "b2_add" in anchors  # Add is its own kernel

    def test_all_nodes_covered_exactly_once(self, tiny_net):
        groups = fuse_kernels(tiny_net)
        names = [n for g in groups for n in g.node_names]
        assert sorted(names) == sorted(n for n in tiny_net.nodes
                                       if n != "input")

    def test_multiconsumer_intermediate_not_fused(self):
        """BN whose output feeds two consumers must not fuse away."""
        net = Network("multi", (4, 4, 2))
        net.add("conv", Conv2D(3, 3))
        net.add("bn", BatchNorm())
        net.add("r1", ReLU(), inputs="bn")
        net.add("c2", Conv2D(3, 1), inputs="bn")
        net.build(0)
        groups = fuse_kernels(net)
        conv_group = next(g for g in groups if g.anchor == "conv")
        assert "r1" not in conv_group.node_names


class TestKernelLatency:
    def test_monotonic_in_flops(self, tiny_device):
        lo = kernel_latency_ms(1e4, 1e3, tiny_device)
        hi = kernel_latency_ms(1e7, 1e3, tiny_device)
        assert hi > lo

    def test_monotonic_in_bytes(self, tiny_device):
        lo = kernel_latency_ms(1e3, 1e4, tiny_device)
        hi = kernel_latency_ms(1e3, 1e7, tiny_device)
        assert hi > lo

    def test_launch_overhead_floor(self, tiny_device):
        t = kernel_latency_ms(1.0, 1.0, tiny_device)
        assert t >= tiny_device.launch_overhead_ms()

    def test_int8_faster(self, tiny_device):
        fp = kernel_latency_ms(1e8, 1e3, tiny_device, "fp32")
        q = kernel_latency_ms(1e8, 1e3, tiny_device, "int8")
        assert q < fp

    def test_unknown_precision_rejected(self, tiny_device):
        with pytest.raises(ValueError):
            kernel_latency_ms(1e3, 1e3, tiny_device, "fp8")

    def test_small_kernels_less_efficient(self, tiny_device):
        """Two small kernels cost more than one kernel of combined size."""
        one = kernel_latency_ms(2e5, 2e3, tiny_device)
        two = 2 * kernel_latency_ms(1e5, 1e3, tiny_device)
        assert two > one


class TestNetworkLatency:
    def test_requires_built_network(self):
        net = Network("unbuilt", (4, 4, 1))
        net.add("c", Conv2D(2, 3))
        with pytest.raises(RuntimeError):
            network_latency(net, xavier())

    def test_total_is_sum_of_kernels(self, tiny_net, tiny_device):
        bd = network_latency(tiny_net, tiny_device)
        assert bd.total_ms == pytest.approx(
            sum(k.latency_ms for k in bd.kernels))

    def test_fusion_reduces_latency(self, tiny_net, tiny_device):
        fused = network_latency(tiny_net, tiny_device, fused=True)
        unfused = network_latency(tiny_net, tiny_device, fused=False)
        assert fused.total_ms < unfused.total_ms

    def test_int8_reduces_latency(self, tiny_net, tiny_device):
        fp = network_latency(tiny_net, tiny_device, precision="fp32")
        q = network_latency(tiny_net, tiny_device, precision="int8")
        assert q.total_ms < fp.total_ms

    def test_deterministic(self, tiny_net, tiny_device):
        a = network_latency(tiny_net, tiny_device).total_ms
        b = network_latency(tiny_net, tiny_device).total_ms
        assert a == b

    def test_trimmed_network_is_faster(self, tiny_net, tiny_device):
        sub = tiny_net.subgraph("b1_relu")
        full = network_latency(tiny_net, tiny_device).total_ms
        cut = network_latency(sub, tiny_device).total_ms
        assert cut < full


class TestRuntimeMeasurement:
    def test_warmup_runs_slower(self, tiny_device, rng):
        runs = sample_runs(1.0, 50, tiny_device, rng, start_run=0)
        later = sample_runs(1.0, 50, tiny_device, rng, start_run=1000)
        assert runs[:5].mean() > later.mean()

    def test_measurement_excludes_warmup(self, tiny_net, tiny_device):
        result = measure_latency(tiny_net, tiny_device, rng=0,
                                 warmup=200, runs=800)
        base = network_latency(tiny_net, tiny_device).total_ms
        assert result.mean_ms == pytest.approx(base, rel=0.02)

    def test_measurement_reproducible_by_default(self, tiny_net, tiny_device):
        a = measure_latency(tiny_net, tiny_device)
        b = measure_latency(tiny_net, tiny_device)
        assert a.mean_ms == b.mean_ms

    def test_protocol_recorded(self, tiny_net, tiny_device):
        result = measure_latency(tiny_net, tiny_device, warmup=100, runs=300)
        assert result.warmup == 100 and result.runs == 300
        assert "ms" in str(result)

    def test_stragglers_increase_tail(self, tiny_net):
        clean = DeviceSpec("clean", 10, 1, 5, 1e4, straggler_prob=0.0,
                           noise_std=0.0, warmup_factor=0.0)
        spiky = DeviceSpec("spiky", 10, 1, 5, 1e4, straggler_prob=0.3,
                           straggler_scale=0.5, noise_std=0.0,
                           warmup_factor=0.0)
        a = measure_latency(tiny_net, clean, rng=1)
        b = measure_latency(tiny_net, spiky, rng=1)
        assert b.mean_ms > a.mean_ms


class TestServiceTimeSampler:
    @pytest.mark.parametrize("spec", [xavier(), nano()],
                             ids=lambda s: s.name)
    def test_sample_ms_is_one_sample_runs_run(self, tiny_net, spec):
        """Bit for bit, through runs 5 and 132 (where math.exp would
        differ), the stragglers, and run 1461 (warm-up factor reaches 1)."""
        sampler = ServiceTimeSampler(tiny_net, spec, rng=3)
        reference = np.random.default_rng(3)
        for k in range(1501):
            batch = 1 + k % 3
            want = float(sample_runs(sampler.base_ms(batch), 1, spec,
                                     reference, start_run=k)[0])
            assert sampler.sample_ms(batch) == want, k

    def test_reseed_draws_like_a_fresh_sampler(self, tiny_net,
                                               latency_table_builds):
        spec = xavier()
        sampler = ServiceTimeSampler(tiny_net, spec, rng=0)
        for k in range(300):
            sampler.sample_ms(1 + k % 4)
        assert len(latency_table_builds) == 4
        sampler.reseed(5)
        assert sampler.runs == 0
        got = [sampler.sample_ms(1 + k % 4) for k in range(300)]
        # the cached batch sizes cost the reseeded sampler nothing
        assert len(latency_table_builds) == 4
        fresh = ServiceTimeSampler(tiny_net, spec, rng=5)
        assert got == [fresh.sample_ms(1 + k % 4) for k in range(300)]


class TestProfiler:
    def test_recorded_sum_exceeds_end_to_end(self, tiny_net, tiny_device):
        """The paper's observation: per-layer event sums are inflated."""
        table = profile_network(tiny_net, tiny_device)
        assert table.recorded_total_ms > table.end_to_end_ms

    def test_one_record_per_kernel(self, tiny_net, tiny_device):
        table = profile_network(tiny_net, tiny_device)
        assert len(table.records) == len(fuse_kernels(tiny_net))

    def test_recorded_for_nodes_subsets(self, tiny_net, tiny_device):
        table = profile_network(tiny_net, tiny_device)
        all_nodes = {r.anchor for r in table.records}
        assert table.recorded_for_nodes(all_nodes) == pytest.approx(
            table.recorded_total_ms)
        assert table.recorded_for_nodes(set()) == 0.0


class TestDeviceSpecs:
    def test_xavier_orders_the_zoo_like_the_paper(self):
        """MobileNetV1(0.5) meets the 0.9 ms deadline; others do not."""
        from repro.trim import block_boundaries, build_trn
        from repro.zoo import NETWORKS, build_network

        spec = xavier()
        lat = {}
        for name in NETWORKS:
            base = build_network(name).build(0)
            cut = block_boundaries(base)[-1].output_node
            trn = build_trn(base, cut, 5)
            lat[name] = network_latency(trn, spec).total_ms
        assert lat["mobilenet_v1_0.25"] < lat["mobilenet_v1_0.5"] < 0.9
        for slow in ("mobilenet_v2_1.0", "mobilenet_v2_1.4", "resnet50",
                     "densenet121", "inception_v3"):
            assert lat[slow] > 0.9, slow

    def test_k20m_hours_scale_with_flops(self, tiny_net):
        model = k20m()
        sub = tiny_net.subgraph("b1_relu")
        assert model.train_hours(tiny_net) > model.train_hours(sub) > 0

    def test_k20m_full_net_in_plausible_range(self):
        """A full zoo network should retrain in ~0.1-10 simulated hours."""
        from repro.zoo import build_network

        hours = k20m().train_hours(build_network("resnet50").build(0))
        assert 0.1 < hours < 10.0
