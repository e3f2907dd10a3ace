"""Compare the paper's two latency estimators and the linear baseline.

Reproduces the §V-C analysis in text form: for every blockwise TRN of
every network, compare the measured latency against

- the profiler-based ratio estimate (one per-layer table per network),
- the analytical ε-SVR over device-agnostic features (fitted on a 20%
  split, evaluated on the held-out 80%),
- ordinary linear regression over the same features (the paper's
  "unacceptable" baseline).

Run:  python examples/estimator_comparison.py
"""

import numpy as np

from repro import Workbench
from repro.estimators import relative_error


def main() -> None:
    wb = Workbench()
    s = wb.estimates()
    truth, hold = s.measured, s.held_out

    print(f"{'network':20s} {'profiler':>10} {'SVR (rbf)':>10} "
          f"{'linear':>10}   (mean relative error, %)")
    print("-" * 58)
    for net in wb.config.networks:
        mask = s.base_names == net
        print(f"{net:20s} "
              f"{relative_error(s.profiler[mask], truth[mask]):>9.2f}% "
              f"{relative_error(s.svr[mask], truth[mask]):>9.2f}% "
              f"{relative_error(s.linear[mask], truth[mask]):>9.2f}%")
    print("-" * 58)
    print(f"{'ALL (80% holdout)':20s} "
          f"{relative_error(s.profiler[hold], truth[hold]):>9.2f}% "
          f"{relative_error(s.svr[hold], truth[hold]):>9.2f}% "
          f"{relative_error(s.linear[hold], truth[hold]):>9.2f}%")
    print(f"\nabsolute errors (ms): profiler "
          f"{np.abs(s.profiler - truth).mean():.4f}, "
          f"SVR {np.abs(s.svr[hold] - truth[hold]).mean():.4f}, "
          f"linear {np.abs(s.linear[hold] - truth[hold]).mean():.4f}")
    print("paper reference: profiler 3.5% (0.024 ms), SVR 4.28% "
          "(0.029 ms), linear 23.81% (0.092 ms)")


if __name__ == "__main__":
    main()
