"""Pretraining the zoo on SynthImageNet, with on-disk caching.

The paper starts from ImageNet-pretrained weights; this module produces the
equivalent starting point by training each zoo network on the synthetic
20-class pretraining task (:mod:`repro.data.imagenet`). Pretraining a
network once takes minutes in NumPy, so trained weights are cached as
``.npz`` files keyed by network name and recipe, and every experiment
loads from the cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.data.imagenet import make_synth_imagenet
from repro.nn import Adam, Network
from repro.zoo import build_network

from .trainer import run_epochs

__all__ = ["PretrainConfig", "recipe_for", "default_cache_dir", "pretrain",
           "get_pretrained"]


@dataclass(frozen=True)
class PretrainConfig:
    """Recipe for SynthImageNet pretraining."""

    n_images: int = 1600
    image_size: int = 32
    num_classes: int = 20
    epochs: int = 12
    lr: float = 2e-3
    batch_size: int = 32
    seed: int = 0

    def cache_key(self, network: str) -> str:
        """Filename-safe cache key for this recipe and network."""
        return (f"{network}-n{self.n_images}-s{self.image_size}"
                f"-e{self.epochs}-lr{self.lr:g}-seed{self.seed}")


def recipe_for(name: str, base: PretrainConfig | None = None) -> PretrainConfig:
    """Per-family pretraining recipe.

    The narrow MobileNets need a higher learning rate and more epochs to
    reach useful features from scratch (mirroring how they are harder to
    train than ResNet-style networks in practice); InceptionV3 is the most
    expensive network, and converges in fewer epochs.
    """
    base = base or PretrainConfig()
    if name.startswith("mobilenet"):
        return PretrainConfig(base.n_images, base.image_size,
                              base.num_classes, epochs=20, lr=5e-3,
                              batch_size=base.batch_size, seed=base.seed)
    if name.startswith("inception"):
        return PretrainConfig(base.n_images, base.image_size,
                              base.num_classes, epochs=10, lr=base.lr,
                              batch_size=base.batch_size, seed=base.seed)
    return base


def default_cache_dir() -> str:
    """The weight cache directory (override with ``REPRO_CACHE_DIR``)."""
    return os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-netcut"))


def pretrain(net: Network, config: PretrainConfig = PretrainConfig(),
             verbose: bool = False) -> Network:
    """Train a built network on SynthImageNet in place and return it."""
    data = make_synth_imagenet(config.n_images, config.image_size,
                               seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    optimizer = Adam(config.lr)
    for epoch in range(config.epochs):
        [loss] = run_epochs(net, data.x, data.y, 1, optimizer,
                            config.batch_size, rng)
        if verbose:
            print(f"  [{net.name}] epoch {epoch + 1}/{config.epochs} "
                  f"loss={loss:.4f}")
    return net


def get_pretrained(name: str, config: PretrainConfig | None = None,
                   cache_dir: str | None = None, verbose: bool = False
                   ) -> Network:
    """Build a zoo network with pretrained weights, via the on-disk cache.

    With ``config=None`` the per-family default recipe
    (:func:`recipe_for`) is used — this is what experiments should do.
    """
    config = config or recipe_for(name)
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, config.cache_key(name) + ".npz")

    def build() -> Network:
        return build_network(name, input_shape=(config.image_size,
                                                config.image_size, 3),
                             num_classes=config.num_classes
                             ).build(config.seed)

    if not os.path.exists(path):
        if verbose:
            print(f"pretraining {name} (cache miss: {path})")
        trained = pretrain(build(), config, verbose=verbose)
        np.savez_compressed(path, **trained.state_dict())
    # a miss returns what a hit loads: the trained network's layers still
    # hold their last batch's backward caches and gradient buffers
    net = build()
    with np.load(path) as archive:
        net.load_state_dict(dict(archive))
    return net
