"""End-to-end serving benchmark: wall-clock and SLO metrics of one workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload serve_burst [--seed 0] \\
        [--seconds 20] [--trace 0|1] [--quick]

Workloads: serve_burst, cluster_p2c, execute_resnet50, online_throttle
(see README.md). The workload runs in child processes of
``workloads.py``, one after another: two that only set up, then one that
sets up, replays the seeded traces for ``--seconds`` and checks the
outcome. ``setup_s`` is the median of the three set-ups. ``setup_s`` and
``host_rps`` are scaled to a reference host speed by a calibration loop
timed beside them; the unscaled values are printed too.

With ``--trace 0`` every end-to-end metric is printed by name and unit;
with ``--trace 1`` the child alternates untraced and traced replays and
the per-layer metrics are printed instead. The last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"host_rps": {"value": ..., "unit": "req/s"}, ...}}

A failed check prints ``"correct": false`` and exits 1. A child that
crashes (for instance when ``src/`` is missing) exits 1 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "workloads.py")

WORKLOADS = ("serve_burst", "cluster_p2c", "execute_resnet50",
             "online_throttle")
#: child processes that set the workload up; the median is setup_s
SETUPS = 3
QUICK_SCALE = 0.05
CHILD_TIMEOUT_S = 150

#: end-to-end metric -> unit, in print order
UNITS = {
    "setup_s": "s",
    "host_rps": "req/s",
    "peak_rss_mb": "MB",
    "ontime_frac": "fraction",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "served_acc": "fraction",
}


def child(args, *extra: str) -> dict:
    """Run one workloads.py child; its last stdout line is a JSON report."""
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.quick:
        cmd += ["--scale", str(QUICK_SCALE)]
    # one BLAS thread: small-batch GEMMs gain nothing from more, and the
    # numbers stop depending on the host's core count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {' '.join(cmd[1:])} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith(".self_us"):
        return "us"
    if name.endswith(("share", "_frac", ".overhead")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="replay time per run (default 20, or 0 with "
                             "--quick: the minimum replay count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SCALE:.0%} trace sizes and one set-up "
                             "(smoke test)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else 20.0

    setups = []
    if not args.trace and not args.quick:
        setups = [child(args, "--setup-only") for _ in range(SETUPS - 1)]
    report = child(args)
    setups.append(report)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in report["metrics"].items()}
    else:
        values = dict(report["metrics"], setup_s=statistics.median(
            r["setup_s"] for r in setups))
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in UNITS}

    out = report["outcome"]
    print(f"{args.workload}  seed {args.seed}: {report['replays']} replays "
          f"of {report['traces']} traces, {len(setups)} set-ups")
    print(f"  sent {out['sent']}, completed {out['completed']}, rejected "
          f"{out['rejected']}, dropped {out['dropped']}; fail_frac "
          f"{out['fail_frac']:.6f}")
    if not args.trace:
        print(f"  before host-speed scaling: host_rps "
              f"{report['host_rps_unscaled']:.6g} req/s, setup_s "
              f"{statistics.median(r['setup_s_unscaled'] for r in setups):.6g}"
              f" s")
    for name, m in metrics.items():
        print(f"  {name:60s} {m['value']:.6g} {m['unit']}")
    for check in report["failed_checks"]:
        print(f"  FAILED CHECK: {check}")
    print(json.dumps({
        "correct": not report["failed_checks"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 1 if report["failed_checks"] else 0


if __name__ == "__main__":
    sys.exit(main())
