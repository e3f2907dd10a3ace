"""Synthetic datasets: the pretraining task and the HANDS-like transfer task.

A :class:`Dataset` holds images and (possibly soft) labels; training draws
its shuffled minibatches in :func:`repro.train.run_epochs`.
"""

from .hands import GRASP_TYPES, grasp_affinities, grasp_distribution, make_hands_dataset
from .imagenet import SYNTH_IMAGENET_CLASSES, make_synth_imagenet
from .synthetic import (
    SHAPE_FAMILIES,
    TEXTURES,
    Dataset,
    ObjectParams,
    render_object,
    sample_object,
)

__all__ = [
    "Dataset",
    "ObjectParams",
    "render_object",
    "sample_object",
    "SHAPE_FAMILIES",
    "TEXTURES",
    "GRASP_TYPES",
    "grasp_affinities",
    "grasp_distribution",
    "make_hands_dataset",
    "SYNTH_IMAGENET_CLASSES",
    "make_synth_imagenet",
]
