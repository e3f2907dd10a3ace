"""A parametric NumPy image renderer for synthetic vision datasets.

The paper trains on camera images of graspable objects (the HANDS dataset)
after pretraining on ImageNet. Neither is available offline, so this module
renders small RGB images of parametric objects — shape family, size, aspect
ratio, orientation, hue, surface texture — over textured backgrounds. The
pretraining task (:mod:`repro.data.imagenet`) and the transfer task
(:mod:`repro.data.hands`) are both drawn from this renderer family, which
preserves the property layer removal exploits: early convolutional features
(edges, colors) are shared between the tasks while late features specialise.

All rendering is vectorised: shapes are signed-distance functions evaluated
on a coordinate grid with a soft (anti-aliased) threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SHAPE_FAMILIES", "TEXTURES", "ObjectParams", "render_object",
           "sample_object", "Dataset"]

#: The shape families the renderer knows about, chosen to span the geometry
#: range of graspable objects (round, boxy, elongated, flat, small).
SHAPE_FAMILIES = ["sphere", "box", "cylinder", "card", "blob"]

#: Surface textures, used to multiply class count in the pretraining task.
TEXTURES = ["plain", "stripes", "checker", "spots"]


@dataclass
class ObjectParams:
    """Full parametric description of one rendered object."""

    family: str
    size: float          # object radius as a fraction of image size, ~[0.1, 0.45]
    aspect: float        # elongation; 1 = isotropic, >1 = elongated
    angle: float         # orientation in radians
    hue: float           # [0, 1) base hue of the object
    texture: str
    cx: float = 0.5      # center, in image fractions
    cy: float = 0.5


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorised HSV→RGB, all inputs broadcastable in [0, 1]."""
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1 - s)
    q = v * (1 - f * s)
    t = v * (1 - (1 - f) * s)
    table = np.stack([
        np.stack([v, t, p], axis=-1),
        np.stack([q, v, p], axis=-1),
        np.stack([p, v, t], axis=-1),
        np.stack([p, q, v], axis=-1),
        np.stack([t, p, v], axis=-1),
        np.stack([v, p, q], axis=-1),
    ])
    return np.take_along_axis(table, i[None, ..., None], axis=0)[0]


def _sdf(params: ObjectParams, size: int) -> np.ndarray:
    """Signed distance field of the object (negative inside), in pixels."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    x = (xs + 0.5) / size - params.cx
    y = (ys + 0.5) / size - params.cy
    c, s = np.cos(params.angle), np.sin(params.angle)
    u = (c * x + s * y) / max(params.aspect, 1e-3)
    v = -s * x + c * y
    r = params.size
    if params.family in ("sphere", "blob"):
        d = np.sqrt(u * u + v * v) - r
        if params.family == "blob":
            # lumpy boundary to distinguish blobs from spheres
            theta = np.arctan2(v, u)
            d += 0.15 * r * np.sin(5 * theta)
    elif params.family == "box":
        d = np.maximum(np.abs(u), np.abs(v)) - r
    elif params.family == "cylinder":
        # a capsule: elongated along u
        uu = np.clip(u, -r, r)
        d = np.sqrt((u - uu) ** 2 + v * v) - 0.45 * r
    elif params.family == "card":
        # thin rectangle: wide in u, thin in v
        d = np.maximum(np.abs(u) - r, np.abs(v) - 0.28 * r)
    else:
        raise ValueError(f"unknown shape family {params.family!r}")
    return d * size


def _texture_field(params: ObjectParams, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Multiplicative brightness field implementing the surface texture."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    c, s = np.cos(params.angle), np.sin(params.angle)
    u = c * xs + s * ys
    v = -s * xs + c * ys
    if params.texture == "plain":
        return np.ones((size, size))
    if params.texture == "stripes":
        return 0.75 + 0.25 * np.sign(np.sin(u * np.pi / 3.0))
    if params.texture == "checker":
        return 0.75 + 0.25 * np.sign(np.sin(u * np.pi / 4.0)
                                     * np.sin(v * np.pi / 4.0))
    if params.texture == "spots":
        field = np.sin(u * 1.3 + 1.7) * np.sin(v * 1.3 + 0.3)
        return 0.8 + 0.2 * np.sign(field)
    raise ValueError(f"unknown texture {params.texture!r}")


def render_object(params: ObjectParams, size: int = 32,
                  rng: np.random.Generator | None = None,
                  noise: float = 0.03) -> np.ndarray:
    """Render one object to a float32 RGB image in [0, 1].

    The background is a smooth two-tone gradient with additive noise so
    that networks must learn figure/ground separation rather than mean
    color statistics.
    """
    rng = rng or np.random.default_rng(0)
    d = _sdf(params, size)
    mask = 1.0 / (1.0 + np.exp(np.clip(d, -20, 20)))  # soft inside-mask

    bg_hue = (params.hue + 0.45 + 0.1 * rng.random()) % 1.0
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) / size
    grad = 0.35 + 0.3 * (xs * rng.random() + ys * rng.random())
    bg = _hsv_to_rgb(np.full((size, size), bg_hue), np.full((size, size), 0.3),
                     grad)

    tex = _texture_field(params, size, rng)
    shade = 0.55 + 0.45 * np.clip(-d / (params.size * size), 0, 1)  # center highlight
    fg = _hsv_to_rgb(np.full((size, size), params.hue),
                     np.full((size, size), 0.75), np.clip(tex * shade, 0, 1))

    img = bg * (1 - mask[..., None]) + fg * mask[..., None]
    img += rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def sample_object(rng: np.random.Generator,
                  family: str | None = None,
                  texture: str | None = None) -> ObjectParams:
    """Draw random object parameters, optionally fixing family/texture."""
    family = family or SHAPE_FAMILIES[rng.integers(len(SHAPE_FAMILIES))]
    texture = texture or TEXTURES[rng.integers(len(TEXTURES))]
    if family == "blob":
        size = rng.uniform(0.08, 0.18)       # blobs are small (pinchable)
    elif family == "card":
        size = rng.uniform(0.2, 0.42)
    else:
        size = rng.uniform(0.12, 0.4)
    aspect = rng.uniform(1.6, 3.0) if family == "cylinder" else rng.uniform(0.9, 1.4)
    return ObjectParams(
        family=family,
        size=float(size),
        aspect=float(aspect),
        angle=float(rng.uniform(0, np.pi)),
        hue=float(rng.random()),
        texture=texture,
        cx=float(rng.uniform(0.38, 0.62)),
        cy=float(rng.uniform(0.38, 0.62)),
    )


@dataclass
class Dataset:
    """An in-memory image dataset with (possibly soft) labels.

    Attributes
    ----------
    x:
        Images, shape ``(N, H, W, 3)`` float32 in [0, 1].
    y:
        Labels, shape ``(N, K)``; rows sum to 1 (one-hot or probabilistic).
    class_names:
        Length-K names of the label dimensions.
    """

    x: np.ndarray
    y: np.ndarray
    class_names: list[str]

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def num_classes(self) -> int:
        return self.y.shape[1]

    def split(self, train_fraction: float, rng: np.random.Generator | int = 0
              ) -> tuple["Dataset", "Dataset"]:
        """Shuffle and split into (train, test)."""
        rng = np.random.default_rng(rng)
        n = len(self)
        order = rng.permutation(n)
        k = int(round(n * train_fraction))
        tr, te = order[:k], order[k:]
        return (Dataset(self.x[tr], self.y[tr], self.class_names),
                Dataset(self.x[te], self.y[te], self.class_names))

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Select a subset by index array."""
        return Dataset(self.x[indices], self.y[indices], self.class_names)
