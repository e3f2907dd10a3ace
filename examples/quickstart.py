"""Quickstart: trim a pretrained network to meet a deadline.

This walks the core NetCut loop on a single network:

1. load a pretrained MobileNetV2 (pretrained on the synthetic ImageNet
   stand-in; cached on disk after the first run),
2. measure it on the simulated Jetson Xavier — it misses the 0.9 ms
   robotic-hand deadline,
3. let NetCut pick the cutpoint whose *estimated* latency first meets the
   deadline,
4. retrain the trimmed network (TRN) on the HANDS-like grasp dataset and
   report its accuracy and measured latency.

Run:  python examples/quickstart.py
"""

from repro.device import measure_latency, profile_network, xavier
from repro.estimators import ProfilerEstimator
from repro.hand import DEFAULT_DEADLINE_MS
from repro.data import make_hands_dataset
from repro.train import get_pretrained, retrain
from repro.trim import build_trn, enumerate_blockwise, removed_node_set


def main() -> None:
    device = xavier()
    deadline = DEFAULT_DEADLINE_MS
    print(f"device: {device.name}   deadline: {deadline} ms")

    print("\n[1] loading pretrained mobilenet_v2_1.0 "
          "(first run pretrains it, ~3 min) ...")
    base = get_pretrained("mobilenet_v2_1.0", verbose=True)

    transfer = build_trn(base, enumerate_blockwise(base)[0].cut_node, 5)
    # the zero-cut transfer model is the "off-the-shelf" reference point
    full = measure_latency(base, device).mean_ms
    print(f"[2] off-the-shelf latency: {full:.3f} ms "
          f"-> {'meets' if full <= deadline else 'MISSES'} the deadline")

    print("[3] profiling once, then walking cutpoints until the estimate "
          "meets the deadline ...")
    table = profile_network(transfer, device)
    estimator = ProfilerEstimator(transfer, table)
    chosen = None
    for cut in enumerate_blockwise(base):
        est = estimator.estimate(removed_node_set(base, cut.cut_node))
        print(f"    remove {cut.blocks_removed:2d} block(s): "
              f"estimated {est:.3f} ms")
        if est <= deadline:
            chosen = cut
            break
    if chosen is None:
        raise SystemExit("no cutpoint meets the deadline")

    print(f"[4] retraining TRN at cutpoint {chosen.cut_node!r} "
          f"({chosen.blocks_removed} blocks removed) ...")
    data = make_hands_dataset(800, seed=1)
    train, test = data.split(0.75, rng=0)
    trn, accuracy = next(retrain(base, [chosen.cut_node], train, test,
                                 epochs=50))
    measured = measure_latency(trn, device).mean_ms
    print(f"\nresult: {trn.name}  latency {measured:.3f} ms "
          f"(deadline {deadline} ms)  angular-similarity accuracy "
          f"{accuracy:.3f}")


if __name__ == "__main__":
    main()
