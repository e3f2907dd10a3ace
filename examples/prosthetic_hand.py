"""The full robotic prosthetic hand application (paper §III), end to end.

Builds the complete control loop the paper motivates NetCut with:

- the control-loop timing budget, from which the 0.9 ms visual deadline
  falls out,
- an EMG classifier trained on synthetic Myo-band windows,
- a visual classifier: the TRN NetCut selects under the deadline,
- probability fusion of both modalities over the frames of a reach,
- the actuation command derived from the fused grasp distribution.

It then simulates a batch of reach episodes and reports decision quality
with vision+EMG fusion versus EMG alone — reproducing the paper's point
that the visual classifier in the loop is crucial.

Run:  python examples/prosthetic_hand.py
"""

import numpy as np

from repro import Workbench
from repro.data import grasp_distribution, render_object, sample_object
from repro.hand import (
    ActuationModel,
    ControlLoopSpec,
    EMGClassifier,
    emg_features,
    make_emg_dataset,
    simulate_reach,
    synth_emg_window,
)
from repro.metrics import angular_similarity


def main() -> None:
    spec = ControlLoopSpec()
    deadline = spec.visual_deadline_ms()
    print("control loop:")
    print(f"  camera period     {spec.frame_period_ms:.2f} ms")
    print(f"  preprocessing     {spec.preprocess_ms:.2f} ms")
    print(f"  EMG processing    {spec.emg_processing_ms:.2f} ms")
    print(f"  fusion            {spec.fusion_ms:.2f} ms")
    print(f"  write-back        {spec.writeback_ms:.2f} ms")
    print(f"  safety margin     {spec.safety_margin_ms:.2f} ms")
    print(f"  => visual classifier deadline: {deadline:.2f} ms")

    print("\ntraining the EMG classifier on synthetic Myo windows ...")
    x_emg, y_emg = make_emg_dataset(400, rng=0)
    emg_clf = EMGClassifier(rng=0).fit(x_emg, y_emg, epochs=30)

    print("selecting the visual classifier with NetCut (profiler "
          "estimator) ...")
    wb = Workbench()
    result = wb.netcut("profiler", deadline_ms=deadline)
    # deployment validation: NetCut's picks meet the deadline by
    # *estimate*; before flashing the robot we re-check the measured
    # latency and keep the most accurate candidate that truly fits
    best = result.best_measured
    print(f"  proposed {result.best.trn_name} "
          f"(measured {result.best.measured_latency_ms:.3f} ms); "
          f"validated pick: {best.trn_name}")
    print(f"  selected {best.trn_name}: estimated "
          f"{best.estimated_latency_ms:.3f} ms, measured "
          f"{best.measured_latency_ms:.3f} ms, accuracy {best.accuracy:.3f}")

    # the TRN NetCut retrained for that pick classifies every frame
    trn = best.trn

    print("\nsimulating 40 reach episodes ...")
    rng = np.random.default_rng(7)
    actuation = ActuationModel()
    fused_quality, emg_quality = [], []
    deadline_misses, grasps_formed, posture_errors = 0, 0, []
    for _ in range(40):
        params = sample_object(rng)
        truth = grasp_distribution(params, rng=None)
        frames = np.stack([
            render_object(params, 32, rng) for _ in range(spec.fusion_frames)])
        visual_preds = trn.forward(frames)

        grasp_idx = int(np.argmax(truth))
        emg_window = synth_emg_window(grasp_idx, rng)
        emg_pred = emg_clf.predict(emg_features(emg_window.signal)[None])[0]

        outcome = simulate_reach(visual_preds, emg_pred, truth,
                                 best.measured_latency_ms, spec)
        fused_quality.append(outcome.decision_quality)
        emg_quality.append(float(angular_similarity(emg_pred, truth)))
        deadline_misses += 0 if outcome.deadline_met else 1

        # drive the fingers toward the decided posture in the time left
        act = actuation.drive(outcome.fused_distribution,
                              available_ms=spec.actuation_ms)
        grasps_formed += 1 if act.completed else 0
        posture_errors.append(act.posture_error)

    print(f"  mean decision quality, EMG alone:        "
          f"{np.mean(emg_quality):.3f}")
    print(f"  mean decision quality, vision+EMG fused: "
          f"{np.mean(fused_quality):.3f}")
    print(f"  deadline misses: {deadline_misses}/40")
    print(f"  grasps fully formed before contact: {grasps_formed}/40 "
          f"(mean posture error {np.mean(posture_errors):.3f})")


if __name__ == "__main__":
    main()
