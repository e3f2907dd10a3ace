"""repro — a reproduction of *NetCut: Real-Time DNN Inference Using Layer
Removal* (Zandigohar, Erdoğmuş, Schirner; DATE 2021).

The package is organised bottom-up:

- :mod:`repro.nn` — a NumPy DNN framework (the PyTorch stand-in).
- :mod:`repro.zoo` — the seven pretrained architectures the paper studies.
- :mod:`repro.data` — synthetic pretraining and HANDS-like grasp datasets.
- :mod:`repro.device` — the simulated Jetson Xavier (latency model,
  profiler, INT8 quantization) and Tesla K20m training-cost model.
- :mod:`repro.metrics` — angular similarity and Pareto-frontier analysis.
- :mod:`repro.trim` — layer removal and TRN construction.
- :mod:`repro.train` — transfer learning (feature recording, the retrain
  step, fine-tuning, pretraining with caching).
- :mod:`repro.estimators` — profiler-based and analytical (ε-SVR) latency
  estimators with model selection.
- :mod:`repro.netcut` — Algorithm 1, the blockwise-exploration baseline
  and exploration-cost accounting.
- :mod:`repro.hand` — the robotic prosthetic hand application (EMG,
  fusion, control-loop timing).
- :mod:`repro.experiments` — a caching workbench exposing each of the
  paper's experiments.
"""

from repro.experiments import ExperimentConfig, Workbench

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "Workbench", "__version__"]
