"""The full deployment pipeline: deadline in, shippable network out.

Runs NetCut (one retrained TRN per base network), keeps the most
accurate TRN whose *measured* latency meets the deadline, INT8-quantizes
it with a calibration split, and writes the result to a single ``.npz``
that reloads without any of the training code.

Run:  python examples/deploy_pipeline.py
"""

from repro import Workbench
from repro.device import network_latency
from repro.netcut import deploy
from repro.nn.serialize import load_network


def main() -> None:
    wb = Workbench()
    print("running the deployment pipeline (netcut + retrain -> validate "
          "-> quantize -> serialise) ...")
    artifact = deploy(wb, quantize=True, save_path="deployed_trn.npz")

    print(f"\nselected:   {artifact.trn_name} (from {artifact.base_name})")
    print(f"latency:    {artifact.measured_latency_ms:.3f} ms "
          f"(deadline {artifact.deadline_ms} ms, "
          f"{'OK' if artifact.meets_deadline else 'VIOLATED'})")
    print(f"accuracy:   {artifact.accuracy:.4f} (fp32)  "
          f"{artifact.int8_accuracy:.4f} (int8)")
    int8_ms = network_latency(artifact.network, wb.device,
                              precision="int8").total_ms
    print(f"int8 model latency: {int8_ms:.3f} ms")

    loaded = load_network(artifact.path)
    print(f"\nserialised to {artifact.path}; reloaded "
          f"{loaded.name!r} with {loaded.total_params():,} parameters "
          f"and verified identical structure.")


if __name__ == "__main__":
    main()
