"""Block-boundary extraction for blockwise layer removal.

The zoo constructors tag every node with a ``block_id``; here we recover the
ordered list of feature blocks and the node at which each block's output is
available — the candidate cutpoints for blockwise removal. The paper argues
(Fig. 4) that block boundaries are the right granularity: cutting inside a
block buys little accuracy for a large increase in search-space size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.graph import Network
from repro.nn.layers import WEIGHTED_TYPES

__all__ = ["BlockBoundary", "block_boundaries", "stem_output"]


@dataclass(frozen=True)
class BlockBoundary:
    """A feature block and the node carrying its output."""

    block_id: str
    output_node: str
    weighted_layers: int  # conv/dense layers inside the block


def block_boundaries(net: Network) -> list[BlockBoundary]:
    """Ordered feature blocks of a network with their output nodes.

    The output node of a block is its last node in topological order, which
    by construction of the zoo builders is the node every later block
    consumes.
    """
    return [BlockBoundary(block, members[-1],
                          sum(isinstance(net.nodes[n].layer, WEIGHTED_TYPES)
                              for n in members))
            for block, members in net.block_members().items()]


def stem_output(net: Network) -> str:
    """The last stem node — the deepest possible cut leaves only the stem.

    The input placeholder does not count as a stem layer: a network whose
    only stem-role node is the input has no stem to cut back to.
    """
    name = None
    for node in net.nodes.values():
        if node.role == "stem" and type(node.layer).__name__ != "Input":
            name = node.name
    if name is None:
        raise ValueError(f"network {net.name!r} has no stem nodes")
    return name
