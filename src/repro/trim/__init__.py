"""Layer removal: block boundaries, cutpoint enumeration, TRN construction,
plus the structural-compression surgery (channel pruning, block skipping)
behind the alternative ladder builders."""

from .blocks import BlockBoundary, block_boundaries, stem_output
from .prune import (
    channel_importance,
    prunable_channel_convs,
    prune_channels,
    remove_blocks,
    skippable_blocks,
)
from .removal import (
    DEFAULT_HEAD_HIDDEN,
    attach_head,
    build_trn,
    removed_node_set,
    removed_weighted_layers,
    trn_node_count,
)
from .search import (
    Cutpoint,
    enumerate_blockwise,
    enumerate_iterative,
    evenly_spaced,
    transfer_cut,
)

__all__ = [
    "BlockBoundary",
    "block_boundaries",
    "stem_output",
    "attach_head",
    "build_trn",
    "trn_node_count",
    "removed_weighted_layers",
    "removed_node_set",
    "DEFAULT_HEAD_HIDDEN",
    "Cutpoint",
    "transfer_cut",
    "enumerate_blockwise",
    "enumerate_iterative",
    "evenly_spaced",
    "channel_importance",
    "prunable_channel_convs",
    "prune_channels",
    "skippable_blocks",
    "remove_blocks",
]
