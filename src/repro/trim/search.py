"""Cutpoint enumeration: blockwise vs iterative (exhaustive) layer removal.

Blockwise removal (the paper's chosen heuristic) cuts only at block
boundaries; iterative removal cuts after *every* feature node. Fig. 4 of the
paper compares the two on InceptionV3 and finds intra-block cutpoints gain
less than 0.03 accuracy, motivating the blockwise search space of 148 TRNs
across the seven networks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.nn.graph import Network

from .blocks import block_boundaries, stem_output
from .removal import removed_weighted_layers

__all__ = ["Cutpoint", "transfer_cut", "enumerate_blockwise",
           "enumerate_iterative", "evenly_spaced"]


@dataclass(frozen=True)
class Cutpoint:
    """A candidate TRN: where to cut a base network.

    ``blocks_removed`` counts removed feature blocks (``None`` for
    intra-block cutpoints from iterative enumeration); ``layers_removed``
    counts removed weighted layers — the paper's depth axis.
    """

    base_name: str
    cut_node: str
    blocks_removed: int | None
    layers_removed: int


def transfer_cut(net: Network, cutpoint: Cutpoint | None = None) -> str:
    """The node a TRN's head attaches to: the cutpoint's node, or with
    ``cutpoint=None`` the last feature block's output (the transfer model,
    which keeps every feature block and replaces the pretraining head)."""
    if cutpoint is not None:
        return cutpoint.cut_node
    return block_boundaries(net)[-1].output_node


def enumerate_blockwise(net: Network) -> list[Cutpoint]:
    """All blockwise cutpoints, shallowest cut first.

    Removing ``k`` of ``B`` blocks cuts at the output of block ``B−k``;
    removing all ``B`` blocks cuts at the stem output. The list has exactly
    ``B`` entries — summed over the seven zoo networks this yields the
    paper's 148 TRN candidates.
    """
    bounds = block_boundaries(net)
    # removing k of B blocks cuts at the output of block B-k (1-indexed);
    # removing all B blocks cuts at the stem output.
    cut_nodes = [b.output_node for b in reversed(bounds[:-1])]
    cut_nodes.append(stem_output(net))
    cuts = []
    for k, node in enumerate(cut_nodes, start=1):
        cuts.append(Cutpoint(net.name, node, k,
                             removed_weighted_layers(net, node)))
    return cuts


def enumerate_iterative(net: Network) -> list[Cutpoint]:
    """Exhaustive per-layer cutpoints: after every feature node.

    Cut tensors must be spatial or flat (they all are, for the zoo
    networks). Ordered from the deepest (least removed) to the shallowest
    cut. ``blocks_removed`` is filled in for cutpoints that coincide with a
    block boundary and is ``None`` otherwise.
    """
    boundary_of = {b.output_node: i + 1
                   for i, b in enumerate(block_boundaries(net))}
    n_blocks = len(boundary_of)
    feature_nodes = [n.name for n in net.nodes.values()
                     if n.role == "feature"]
    cuts = []
    for node in reversed(feature_nodes):
        blocks = (n_blocks - boundary_of[node]
                  if node in boundary_of else None)
        if blocks == 0:
            continue  # cutting at the last block boundary removes nothing
        cuts.append(Cutpoint(net.name, node, blocks,
                             removed_weighted_layers(net, node)))
    cuts.append(Cutpoint(net.name, stem_output(net), n_blocks,
                         removed_weighted_layers(net, stem_output(net))))
    return cuts


def evenly_spaced(items: Sequence, count: int | None) -> list:
    """At most ``count`` (a ladder's ``max_rungs``) of ``items``: the
    first, the last and evenly spaced middles, in order (all of them when
    ``count`` is ``None``)."""
    if count is not None and count < 1:
        raise ValueError("max_rungs must be >= 1")
    if count is None or count >= len(items):
        return list(items)
    idx = np.linspace(0, len(items) - 1, count).round().astype(int)
    return [items[i] for i in sorted(set(idx.tolist()))]
