"""Compare paired benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the captured standard output of benchmark runs, one
file per run, named ``<workload>.<anything>.out`` (for example
``serve_burst.3.out``); other files are ignored. A file in PARENT_DIR and
the file of the same name in CHANGE_DIR are one pair: same workload, same
seed, run back to back. Only the last line of each file is read (the
result JSON of run.py).

Per workload and metric this prints both sides' median and quartiles, the
share of pairs the change wins (ties count for neither) and a verdict:

- ``better``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
- ``worse-by-bound``: the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own interquartile range is wider than the
  bound, and not every change run reads better than every parent run;
- ``unchanged``: otherwise.

Per-layer metrics have no bound; they get ``better``, ``worse`` (the
mirror of the ``better`` rule) or ``-``.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(directory: str) -> dict[str, dict]:
    """File name -> metric values of that run."""
    runs = {}
    for name in sorted(n for n in os.listdir(directory) if n.endswith(".out")):
        with open(os.path.join(directory, name)) as fh:
            lines = fh.read().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        runs[name] = {k: m["value"] for k, m in result["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher: bool,
            bound: float | None) -> tuple[float, str]:
    """(change's win share, verdict) for one metric on one workload."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gap = sign * (cm - pm)
    if share >= 0.9 and gap > p3 - p1:
        return share, "better"
    if bound is None:
        return share, ("worse" if losses / len(parent) >= 0.9
                       and -gap > p3 - p1 else "-")
    if -gap > bound * abs(pm):
        return share, "worse-by-bound"
    if (p3 - p1) > bound * abs(pm) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return share, "unresolved"
    return share, "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: (m["better"] == "higher", m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]}

    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for name in sorted(set(parent) & set(change)):
        pairs.setdefault(name.split(".")[0], []).append(
            (parent[name], change[name]))
    if not pairs:
        print("no paired runs (matching file names) found", file=sys.stderr)
        return 1

    worse = False
    print(f"{'workload':18s} {'metric':58s} {'n':>3s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'win':>5s}  verdict")
    for workload, runs in pairs.items():
        names = [n for n in metrics
                 if all(n in p and n in c for p, c in runs)]
        for name in names:
            higher, bound = metrics[name]
            p = [r[0][name] for r in runs]
            c = [r[1][name] for r in runs]
            share, word = verdict(p, c, higher, bound)
            worse |= word == "worse-by-bound"
            pq = "/".join(f"{v:.4g}" for v in quartiles(p))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:18s} {name:58s} {len(runs):3d} {pq:>32s} "
                  f"{cq:>32s} {share:5.2f}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
