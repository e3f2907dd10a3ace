"""Whole-network serialization: architecture + weights in one ``.npz``.

The weight cache in :mod:`repro.train.pretrain` only stores parameters and
relies on the code to rebuild the architecture; this module additionally
persists the *structure* (layer types, constructor arguments, graph edges,
block tags), so a trimmed-and-trained TRN can be shipped as a single file
and reloaded without the code that produced it — the deployment story for
the robotic hand.

Format: a NumPy ``.npz`` whose ``__architecture__`` entry is a JSON string
describing the graph and whose remaining entries are the parameter and
batch-norm-statistic arrays keyed exactly as in
:meth:`repro.nn.graph.Network.state_dict`. A deployment artifact
(:func:`repro.netcut.save_artifact`) adds one ``__artifact__`` JSON entry
of metadata.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import Network
from .layers import (
    Add,
    AvgPool2D,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Input,
    MaxPool2D,
    ReLU,
    ReLU6,
    Softmax,
)

__all__ = ["save_network", "load_network", "load_archive",
           "architecture_dict", "network_from_dict"]


#: Serialisable layer types by name; each rebuilds as ``cls(**config)``
#: from its :meth:`~repro.nn.layers.Layer.config`.
_LAYER_TYPES = {cls.__name__: cls for cls in (
    Conv2D, DepthwiseConv2D, Dense, BatchNorm, MaxPool2D, AvgPool2D,
    Dropout, ReLU, ReLU6, GlobalAvgPool, Flatten, Softmax, Add, Concat)}


def architecture_dict(net: Network) -> dict:
    """JSON-serialisable description of a network's structure."""
    nodes = []
    for node in net.nodes.values():
        if isinstance(node.layer, Input):
            continue
        type_name = type(node.layer).__name__
        if _LAYER_TYPES.get(type_name) is not type(node.layer):
            raise ValueError(
                f"layer type {type_name!r} is not serialisable")
        nodes.append({
            "name": node.name,
            "type": type_name,
            "config": node.layer.config(),
            "inputs": list(node.inputs),
            "block_id": node.block_id,
            "role": node.role,
        })
    return {"name": net.name, "input_shape": list(net.input_shape),
            "output": net.output_name, "nodes": nodes}


def save_network(net: Network, path: str, metadata: dict | None = None
                 ) -> None:
    """Persist a built network (structure + weights) to ``path``, with
    ``metadata`` (if given) as the ``__artifact__`` entry."""
    if not net.built:
        raise RuntimeError("network must be built before saving")
    extra = ({} if metadata is None
             else {"__artifact__": np.array(json.dumps(metadata))})
    np.savez_compressed(
        path, __architecture__=np.array(json.dumps(architecture_dict(net))),
        **extra, **net.state_dict())


def network_from_dict(arch: dict, state: dict[str, np.ndarray]) -> Network:
    """Rebuild a network from an :func:`architecture_dict` and a state dict.

    The inverse of ``(architecture_dict(net), net.state_dict())``; used by
    :func:`load_archive` and by the pruning surgery.
    """
    net = Network(arch["name"], tuple(arch["input_shape"]))
    for spec in arch["nodes"]:
        if spec["type"] not in _LAYER_TYPES:
            raise ValueError(f"unknown layer type {spec['type']!r}")
        net.add(spec["name"], _LAYER_TYPES[spec["type"]](**spec["config"]),
                inputs=spec["inputs"], block_id=spec["block_id"],
                role=spec["role"])
    net.output_name = arch["output"]
    net.build(0)
    net.load_state_dict(state)
    return net


def load_archive(path: str) -> tuple[Network, dict | None]:
    """A file saved by :func:`save_network`: the network and its
    ``__artifact__`` metadata (``None`` when the file has none)."""
    with np.load(path) as archive:
        arch = json.loads(str(archive["__architecture__"]))
        metadata = (json.loads(str(archive["__artifact__"]))
                    if "__artifact__" in archive.files else None)
        state = {k: archive[k] for k in archive.files
                 if not k.startswith("__")}
    return network_from_dict(arch, state), metadata


def load_network(path: str) -> Network:
    """Reconstruct a network saved by :func:`save_network`."""
    return load_archive(path)[0]
