"""Visualise the zoo and the TRN trade-off space without any plotting deps.

Exports Graphviz DOT files for each architecture (render with
``dot -Tsvg``) and prints the Fig. 6 trade-off scatter as a terminal plot,
with the deadline marked.

Run:  python examples/visualize_networks.py
"""

import os

from repro import Workbench
from repro.hand import DEFAULT_DEADLINE_MS
from repro.viz import scatter
from repro.zoo import NETWORKS, build_network


def main() -> None:
    os.makedirs("dot", exist_ok=True)
    for name in NETWORKS:
        net = build_network(name).build(0)
        path = os.path.join("dot", f"{name}.dot")
        with open(path, "w") as fh:
            fh.write(net.to_dot())
        print(f"wrote {path:36s} ({len(net.nodes):4d} nodes, "
              f"{len(net.block_members()):3d} blocks)")

    print("\nTRN trade-off space (Fig. 6), deadline marked with '|':\n")
    wb = Workbench()
    exploration = wb.exploration()
    series = {}
    for r in exploration.records:
        series.setdefault(r.base_name, []).append((r.latency_ms, r.accuracy))
    print(scatter(series, xlabel="latency (ms)", ylabel="accuracy",
                  vline=DEFAULT_DEADLINE_MS))


if __name__ == "__main__":
    main()
