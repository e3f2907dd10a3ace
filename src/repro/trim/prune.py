"""Structural compression beyond cutpoints: channel pruning and block skipping.

Blockwise layer removal (this package's original tool) shortens a network;
the competing compression families in PAPERS.md instead *narrow* it
("To Filter Prune, or to Layer Prune", HALP) or skip interior blocks
(two-stage DP depth compression). This module supplies the graph surgery
both need, on the same :class:`~repro.nn.graph.Network` DAG:

- :func:`channel_importance` — per-output-channel L1 norms of a conv's
  kernel, the standard data-free filter saliency.
- :func:`prunable_channel_convs` — the feature convolutions whose output
  channels can be removed without changing any tensor contract the rest of
  the graph relies on (nothing downstream of a residual ``Add`` or the
  network output; see :func:`_absorbed`).
- :func:`prune_channels` — rebuild the network with a keep-list per conv,
  slicing every affected weight (conv kernels, depthwise kernels,
  batch-norm statistics, dense rows through ``Flatten``/``GlobalAvgPool``).
  It is the only channel-pruning surgery: the filter-prune and HALP
  builders and NetAdapt (:mod:`repro.extensions.netadapt`) all call it.
- :func:`skippable_blocks` / :func:`remove_blocks` — identify and delete
  shape-preserving interior feature blocks, rewiring their consumers to the
  block input (depth compression without a cutpoint).

All functions are pure: they return a fresh built network via the
serialization round-trip and never mutate the input network.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph import Network
from repro.nn.serialize import architecture_dict, network_from_dict

__all__ = [
    "channel_importance",
    "prunable_channel_convs",
    "prune_channels",
    "skippable_blocks",
    "remove_blocks",
]

# layers whose output channel axis is the input channel axis, unchanged:
# a keep-list flows straight through them
_CHANNEL_PRESERVING = {
    "BatchNorm", "ReLU", "ReLU6", "MaxPool2D", "AvgPool2D", "Dropout",
    "Softmax", "GlobalAvgPool", "DepthwiseConv2D",
}
# layers that consume the channel axis and emit their own: a keep-list
# stops here (the layer's weights are sliced on the *input* side instead)
_ABSORBING = {"Conv2D", "Dense"}


def _layer_type(net: Network, name: str) -> str:
    return type(net.nodes[name].layer).__name__


def channel_importance(net: Network, conv: str) -> np.ndarray:
    """L1 norm of each output channel's kernel slice (+ bias if present).

    The classic magnitude saliency of Li et al.'s "Pruning Filters for
    Efficient ConvNets": channels whose kernels are small in L1 contribute
    little to the activations and are pruned first.
    """
    layer = net.nodes[conv].layer
    if type(layer).__name__ != "Conv2D":
        raise ValueError(f"{conv!r} is not a Conv2D node")
    w = layer.params["w"].value  # (kh, kw, c_in, filters)
    imp = np.abs(w).sum(axis=(0, 1, 2))
    if "b" in layer.params:
        imp = imp + np.abs(layer.params["b"].value)
    return imp.astype(np.float64)


def _absorbed(net: Network, conv: str, consumers: dict[str, list[str]]) -> bool:
    """Whether every path out of ``conv``'s channel axis ends in an
    absorbing layer before reaching an ``Add`` or the network output."""
    stack = list(consumers[conv])
    seen: set[str] = set()
    if conv == net.output_name:
        return False
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        kind = _layer_type(net, name)
        if kind in _ABSORBING:
            continue  # this branch slices its input weights instead
        if kind == "Add":
            return False  # would desynchronise the residual sum
        if kind in _CHANNEL_PRESERVING or kind in ("Concat", "Flatten"):
            if name == net.output_name:
                return False  # would change the network's output shape
            stack.extend(consumers[name])
            continue
        return False  # unknown layer: be conservative
    return True


def prunable_channel_convs(net: Network) -> list[str]:
    """Feature convolutions whose output channels may be pruned.

    A conv qualifies when every downstream path of its channel axis is
    absorbed by a Conv2D/Dense (whose input weights we can slice) without
    first touching a residual ``Add`` (all summands must keep identical
    channel sets) or the network output (its shape is the serving
    contract). Stem and head convs are left alone: the stem is the
    network's retina and heads are replaced wholesale by transfer learning.
    """
    consumers = net.consumers()
    return [node.name for node in net.nodes.values()
            if node.role == "feature"
            and type(node.layer).__name__ == "Conv2D"
            and _absorbed(net, node.name, consumers)]


def _propagate_keeps(net: Network,
                     keep: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Keep-index array (into the *original* channel axis) per node output."""
    keeps: dict[str, np.ndarray] = {}
    for node in net.nodes.values():
        kind = type(node.layer).__name__
        if kind == "Input":
            keeps[node.name] = np.arange(net.input_shape[-1])
        elif kind == "Conv2D":
            keeps[node.name] = keep.get(node.name,
                                        np.arange(node.layer.filters))
        elif kind == "Dense":
            keeps[node.name] = np.arange(node.layer.units)
        elif kind == "Add":
            first = keeps[node.inputs[0]]
            for dep in node.inputs[1:]:
                if not np.array_equal(keeps[dep], first):
                    raise ValueError(
                        f"Add node {node.name!r} would sum mismatched "
                        "channel sets; prune only prunable_channel_convs")
            keeps[node.name] = first
        elif kind == "Concat":
            parts, offset = [], 0
            for dep in node.inputs:
                parts.append(keeps[dep] + offset)
                offset += net.shape_of(dep)[-1]
            keeps[node.name] = np.concatenate(parts)
        elif kind == "Flatten":
            in_shape = net.shape_of(node.inputs[0])
            if len(in_shape) == 1:
                keeps[node.name] = keeps[node.inputs[0]]
            else:
                h, w, c = in_shape
                base = np.arange(h * w) * c
                keeps[node.name] = (base[:, None]
                                    + keeps[node.inputs[0]][None, :]).ravel()
        else:  # channel-preserving
            keeps[node.name] = keeps[node.inputs[0]]
    return keeps


def prune_channels(net: Network, keep: dict[str, "np.ndarray | list[int]"],
                   name: str | None = None) -> Network:
    """Rebuild ``net`` with only the listed output channels of each conv.

    ``keep`` maps Conv2D node names to sorted original-channel indices to
    retain. Every key must be a non-head Conv2D whose channels reach a
    Conv2D or Dense before any residual ``Add`` or the network output:
    every :func:`prunable_channel_convs` entry qualifies, and so does a
    stem conv. Weights of the pruned convs, of the layers that carry
    their channel axis (depthwise kernels, batch-norm statistics) and of
    the absorbing layers' input dimensions are sliced from the original
    network, so the pruned network computes exactly the original function
    restricted to the kept channels.
    """
    if not net.built:
        raise RuntimeError("network must be built before pruning")
    consumers = net.consumers()
    norm: dict[str, np.ndarray] = {}
    for conv, idx in keep.items():
        node = net.nodes.get(conv)
        if node is None or node.role == "head" \
                or type(node.layer).__name__ != "Conv2D" \
                or not _absorbed(net, conv, consumers):
            raise ValueError(
                f"{conv!r} is not a prunable conv: it must be a non-head "
                "Conv2D whose channels reach a Conv2D or Dense before any "
                "Add or the network output")
        arr = np.asarray(sorted(int(i) for i in idx), dtype=np.int64)
        filters = node.layer.filters
        if arr.size == 0 or arr[0] < 0 or arr[-1] >= filters or \
                len(set(arr.tolist())) != arr.size:
            raise ValueError(f"invalid keep list for {conv!r}")
        norm[conv] = arr
    keeps = _propagate_keeps(net, norm)

    arch = architecture_dict(net)
    arch["name"] = name or f"{net.name}-pruned"
    for spec in arch["nodes"]:
        if spec["name"] in norm:
            spec["config"]["filters"] = int(norm[spec["name"]].size)

    new_state: dict[str, np.ndarray] = {}
    for key, value in net.state_dict().items():
        node_name, pname = key.split(".", 1)
        node = net.nodes[node_name]
        kind = type(node.layer).__name__
        in_keep = keeps[node.inputs[0]] if node.inputs else None
        if kind == "Conv2D":
            out_keep = norm.get(node_name, np.arange(value.shape[-1]))
            value = value[:, :, in_keep, :][:, :, :, out_keep] \
                if pname == "w" else value[out_keep]
        elif kind == "DepthwiseConv2D":
            value = value[:, :, in_keep] if pname == "w" else value[in_keep]
        elif kind == "Dense":
            if pname == "w":
                value = value[in_keep, :]
        elif kind == "BatchNorm":
            value = value[keeps[node_name]]
        new_state[key] = np.ascontiguousarray(value)
    return network_from_dict(arch, new_state)


def skippable_blocks(net: Network) -> list[str]:
    """Interior feature blocks removable without re-plumbing the graph.

    A block qualifies when it has exactly one external input producer, its
    only externally consumed node is its last node, and input and output
    tensors have the same shape — then consumers of the block output can
    be rewired to the block input verbatim. These are exactly the
    shape-preserving (stride-1, equal-width, possibly residual) blocks.
    """
    consumers = net.consumers()
    out: list[str] = []
    for block, members in net.block_members().items():
        names = set(members)
        entries = {dep for n in members
                   for dep in net.nodes[n].inputs if dep not in names}
        exit_node = members[-1]
        exits = {n for n in members
                 if any(c not in names for c in consumers[n])}
        if len(entries) != 1 or exits != {exit_node}:
            continue
        entry = next(iter(entries))
        if net.shape_of(entry) == net.shape_of(exit_node) \
                and exit_node != net.output_name:
            out.append(block)
    return out


def remove_blocks(net: Network, blocks: "list[str] | set[str]",
                  name: str | None = None) -> Network:
    """Delete whole feature blocks, rewiring consumers to the block inputs.

    Every entry of ``blocks`` must come from :func:`skippable_blocks` (of
    the same network). Consecutive removed blocks chain: the replacement
    map resolves transitively, so removing blocks ``k`` and ``k+1`` wires
    block ``k+2`` straight to block ``k-1``'s output.
    """
    if not net.built:
        raise RuntimeError("network must be built before block removal")
    allowed = set(skippable_blocks(net))
    wanted = list(dict.fromkeys(blocks))
    bad = [b for b in wanted if b not in allowed]
    if bad:
        raise ValueError(f"blocks {bad} are not skippable "
                         "(see skippable_blocks)")
    removed_nodes: set[str] = set()
    replace: dict[str, str] = {}
    block_members = net.block_members()
    for block in wanted:
        members = block_members[block]
        names = set(members)
        entry = next(dep for n in members
                     for dep in net.nodes[n].inputs if dep not in names)
        replace[members[-1]] = entry
        removed_nodes |= names

    def resolve(dep: str) -> str:
        while dep in replace:
            dep = replace[dep]
        return dep

    arch = architecture_dict(net)
    arch["name"] = name or f"{net.name}-skip{len(wanted)}"
    arch["nodes"] = [dict(spec, inputs=[resolve(d) for d in spec["inputs"]])
                     for spec in arch["nodes"]
                     if spec["name"] not in removed_nodes]
    arch["output"] = resolve(arch["output"])
    state = {k: v for k, v in net.state_dict().items()
             if k.split(".", 1)[0] not in removed_nodes}
    return network_from_dict(arch, state)
