"""TRN construction: cut a pretrained network and attach a transfer head.

A TRimmed Network (TRN) is built from a pretrained network by

1. keeping the subgraph up to a *cutpoint* node (pretrained weights and
   batch-norm statistics are copied, so fine-tuning starts from the
   transferred features), and
2. attaching the paper's transfer head: Global Average Pooling (when the
   cut tensor is spatial), two FC/ReLU layers, and a FC/Softmax output
   (§III-B3).

The TRN naming convention follows the paper's ``ResNet/114`` style: the
number after the slash is the count of remaining graph nodes (the
framework-layer count a Keras ``len(model.layers)`` would report).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Dense, GlobalAvgPool, Network, ReLU, Softmax
from repro.nn.layers import WEIGHTED_TYPES

__all__ = ["DEFAULT_HEAD_HIDDEN", "attach_head", "build_trn",
           "trn_node_count", "removed_weighted_layers", "removed_node_set"]

#: Hidden widths of the two FC/ReLU layers in the transfer head.
DEFAULT_HEAD_HIDDEN = (32, 16)


def attach_head(features: Network, num_classes: int,
                hidden: tuple[int, ...] = DEFAULT_HEAD_HIDDEN,
                rng: np.random.Generator | int = 0) -> Network:
    """Attach the GAP + FC/ReLU + FC/ReLU + FC/Softmax head in place.

    The one head builder: TRNs, the heads trained on recorded features
    and the EMG classifier all get theirs here, one FC/ReLU pair per
    ``hidden`` width (GAP only on a spatial output). ``features`` must be
    built (so shapes are known); the head parameters are freshly
    initialised from ``rng`` and the returned network is ``features``
    itself, rebuilt to cover the new layers.
    """
    out = features.output_name
    if len(features.shape_of(out)) == 3:
        out = features.add("head_gap", GlobalAvgPool(), inputs=out,
                           role="head")
    elif len(features.shape_of(out)) != 1:
        raise ValueError(
            f"cannot attach head to output of shape "
            f"{features.shape_of(out)}")
    for i, width in enumerate(hidden, start=1):
        out = features.add(f"head_fc{i}", Dense(width), inputs=out,
                           role="head")
        out = features.add(f"head_relu{i}", ReLU(), role="head")
    features.add("head_logits", Dense(num_classes), inputs=out, role="head")
    features.add("head_probs", Softmax(), role="head")
    return features.build(rng)


def build_trn(base: Network, cut_node: str, num_classes: int,
              hidden: tuple[int, ...] = DEFAULT_HEAD_HIDDEN,
              rng: np.random.Generator | int = 0,
              name: str | None = None) -> Network:
    """Build a TRN from a pretrained base network and a cutpoint node.

    The feature subgraph is deep-copied, so the base network is untouched
    and several TRNs of the same base can be trained independently.
    """
    features = base.subgraph(cut_node)
    trn = attach_head(features, num_classes, hidden, rng)
    trn.name = name or f"{base.name}/{trn_node_count(trn)}"
    return trn


def trn_node_count(net: Network) -> int:
    """Framework-layer count: all graph nodes except the input placeholder."""
    return len(net.nodes) - 1


def removed_node_set(base: Network, cut_node: str) -> set[str]:
    """Names of all base-network nodes a cut at ``cut_node`` removes.

    This is what the profiler-based estimator consumes: kernels anchored at
    any of these nodes no longer execute in the TRN. It is the complement
    of the nodes :func:`build_trn` keeps, ``base.ancestors(cut_node)``.
    """
    return set(base.nodes) - base.ancestors(cut_node)


def removed_weighted_layers(base: Network, cut_node: str) -> int:
    """Number of weighted (conv/dense) feature layers the cut removes.

    This is the x-axis of the paper's Fig. 5. Head layers of the base
    network do not count: transfer learning replaces them in any case.
    """
    nodes = [base.nodes[name] for name in removed_node_set(base, cut_node)]
    return sum(1 for node in nodes
               if node.role == "feature"
               and isinstance(node.layer, WEIGHTED_TYPES))
