#!/usr/bin/env sh
# Examples smoke: every demo script must run headless and exit 0.
#
# The examples are the repo's front door — they rot silently when an API
# they demonstrate changes shape, because nothing else imports them. This
# runs each examples/*.py start to finish (virtual-time simulation, no
# GPU, no display) under a per-example wall-clock budget, and fails if
# any example crashes, hangs past the budget, or exists on disk without
# being listed here (so a new demo cannot dodge the smoke).
#
# Ordering matters for speed, not correctness: quickstart runs first to
# warm the Workbench cache (~/.cache/repro-netcut, override with
# REPRO_CACHE_DIR), so the heavier report/pipeline demos reuse its
# pretrained weights and exploration instead of rebuilding them.
#
# Budget override: EXAMPLE_TIMEOUT=1200 scripts/examples_smoke.sh
set -eu

cd "$(dirname "$0")/.."

EXAMPLE_TIMEOUT="${EXAMPLE_TIMEOUT:-900}"

EXAMPLES="
examples/quickstart.py
examples/chaos_serving.py
examples/cluster_serving.py
examples/deadline_sweep.py
examples/deploy_pipeline.py
examples/deployment_optimizations.py
examples/estimator_comparison.py
examples/generate_report.py
examples/online_netcut.py
examples/prosthetic_hand.py
examples/related_work.py
examples/serve_trace.py
examples/telemetry_dashboard.py
examples/visualize_networks.py
examples/workload_replay.py
"

# completeness guard: an example on disk but missing from the list above
# would never be smoked
for path in examples/*.py; do
    case "$EXAMPLES" in
        *"$path"*) ;;
        *) echo "ERROR: $path is not listed in scripts/examples_smoke.sh"
           exit 1 ;;
    esac
done

failed=0
for path in $EXAMPLES; do
    if [ ! -f "$path" ]; then
        echo "ERROR: listed example $path does not exist"
        exit 1
    fi
    echo "=== $path (budget ${EXAMPLE_TIMEOUT}s)"
    start=$(date +%s)
    if PYTHONPATH=src timeout "$EXAMPLE_TIMEOUT" python "$path" \
            > /tmp/example_smoke.log 2>&1; then
        echo "    ok ($(($(date +%s) - start))s)"
    else
        status=$?
        echo "    FAILED (exit $status) — last 30 lines:"
        tail -30 /tmp/example_smoke.log | sed 's/^/    /'
        failed=1
    fi
done

exit $failed
