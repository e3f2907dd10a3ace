#!/usr/bin/env sh
# Benchmark smoke: the fast (virtual-time, no-Workbench) benchmark subset
# plus the machine-readable perf trajectory.
#
# The figure-reproduction benchmarks rebuild the pretrained zoo and the
# 148-TRN exploration — minutes of work with tight tolerances — so they
# stay out of the smoke run; this covers the serve, cluster, obs and
# faults and workload benchmarks, all seeded and wall-clock-independent,
# and emits BENCH_serve.json, BENCH_workload.json, BENCH_forward.json and
# BENCH_builders.json at the repo root so the perf trajectory accumulates
# commit over commit.
# (BENCH_forward.json is real wall-clock NumPy compute — its speedup and
# parity columns are the stable signals, not the absolute samples/sec.)
#
# Every BENCH payload is also appended to RUNSTORE.sqlite (override with
# REPRO_RUNSTORE), so two bench runs can be diffed with
# `python -m repro obs compare A B --store RUNSTORE.sqlite`.
#
# The builder bake-off (bench_builders.py) builds its rungs cold
# (--no-cache): its rung cache is keyed by net, device and rung count,
# not by the code that builds them, and CI restores the workbench cache
# by prefix, so a cached run could serve rungs an older commit built.
# BENCH_builders.json then pins builder and serving outcomes like the
# other virtual-time payloads.
#
# The payloads are regenerated and archived first and the pytest subset
# runs last: one failed wall-clock assert there must not leave stale
# payloads for the byte-identity check and the gate that follow. The
# script exits with the subset's status.
set -eu

cd "$(dirname "$0")/.."

REPRO_RUNSTORE="${REPRO_RUNSTORE:-RUNSTORE.sqlite}"
export REPRO_RUNSTORE
REPRO_CACHE_DIR="${REPRO_CACHE_DIR:-$HOME/.cache/repro-netcut}"
export REPRO_CACHE_DIR

PYTHONPATH=src python scripts/bench_serve.py --store "$REPRO_RUNSTORE"
PYTHONPATH=src python scripts/bench_workload.py
PYTHONPATH=src python scripts/bench_forward.py
PYTHONPATH=src python scripts/bench_builders.py --no-cache

# archive every BENCH payload as one run-store row: regressions become a
# `repro obs compare` query instead of a JSON diff
PYTHONPATH=src python - <<'EOF'
import glob
import json
import os

from repro.obs import RunStore

payloads = {os.path.basename(path)[:-5]: json.load(open(path))
            for path in sorted(glob.glob("BENCH_*.json"))}
with RunStore(os.environ["REPRO_RUNSTORE"]) as store:
    run_id = store.add_run("bench.smoke",
                           meta={"files": ",".join(sorted(payloads))},
                           artifacts=payloads)
print(f"archived {len(payloads)} BENCH payloads as run #{run_id} "
      f"in {os.environ['REPRO_RUNSTORE']}")
EOF

status=0
PYTHONHASHSEED=random PYTHONPATH=src python -m pytest \
    benchmarks/test_serve_throughput.py \
    benchmarks/test_cluster_scaleout.py \
    benchmarks/test_obs_overhead.py \
    benchmarks/test_faults_chaos.py \
    benchmarks/test_netcut_online.py \
    benchmarks/test_workload_slo.py \
    benchmarks/test_builder_bakeoff.py \
    -q --benchmark-disable "$@" || status=$?
exit "$status"
