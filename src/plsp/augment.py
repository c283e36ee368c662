"""Weak and strong input perturbations.

Image grids (H, W, Ch) get flip / pad-and-crop, with an extra cutout square
on the strong branch. Flat vectors get gaussian jitter (``weak_jitter``, or
``strong_jitter`` on the strong branch) plus bernoulli feature masking on the
strong branch. One ``AugmentSpec`` holds the settings of both branches; its
fields are the CLI's augmentation flags and their defaults. Both pipelines
preserve shape and are deterministic given the generator handed in.

Both branches work on a whole batch at once, with no per-instance loop, and a
batch makes a fixed number of vector draws whatever its values: an image batch
draws its flip flags, then its crop offsets, then (strong only) its cutout
centres; a flat batch draws its jitter, then (strong only) its mask. A single
instance is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for (seed, purpose, epoch, index, branch) tuples."""
    entropy = (seed & 0xFFFF_FFFF_FFFF_FFFF,) + tuple(k & 0xFFFF_FFFF for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class AugmentSpec:
    flip_prob: float = 0.5
    pad: int = 4
    cutout_size: int | None = None   # strong images; None -> min(H, W) // 4
    weak_jitter: float = 0.05
    strong_jitter: float = 0.15
    mask_prob: float = 0.2           # strong vectors only

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError("mask_prob must lie in [0, 1]")
        if self.pad < 0 or (self.cutout_size is not None and self.cutout_size < 0):
            raise ValueError("pad and cutout_size must be >= 0")
        for name in ("weak_jitter", "strong_jitter"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def _augment_images(xs: np.ndarray, pad: int, flips: np.ndarray, offsets: np.ndarray,
                    size: int = 0, centres: np.ndarray | None = None) -> np.ndarray:
    """Flip, zero-pad and crop a batch of grids (n, H, W, ...) given its draws.

    ``flips`` (n,) mirrors the columns; ``offsets`` (n, 2) is each crop's (top,
    left) in the grid padded by ``pad``; ``centres`` (n, 2) places each ``size``
    cutout square at max(0, centre - size // 2), clipped to the grid. One pad,
    one gather and one mask serve the whole batch.
    """
    n, h, w = xs.shape[:3]
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad) + xs.shape[3:], dtype=xs.dtype)
    padded[:, pad:pad + h, pad:pad + w] = xs
    rows = offsets[:, :1] + np.arange(h)
    cols = offsets[:, 1:] + np.arange(w)
    # a flipped grid, padded and cropped at `left`, reads the padded original mirrored
    cols = np.where(flips[:, None], w + 2 * pad - 1 - cols, cols)
    out = padded[np.arange(n)[:, None, None], rows[:, :, None], cols[:, None, :]]
    if size > 0:
        corner = np.maximum(centres - size // 2, 0)
        in_rows = (np.arange(h) >= corner[:, :1]) & (np.arange(h) < corner[:, :1] + size)
        in_cols = (np.arange(w) >= corner[:, 1:]) & (np.arange(w) < corner[:, 1:] + size)
        out[in_rows[:, :, None] & in_cols[:, None, :]] = 0.0
    return out


def _draw_flip_crop(n: int, spec: AugmentSpec, rng: np.random.Generator):
    return rng.random(n) < spec.flip_prob, rng.integers(0, 2 * spec.pad + 1, size=(n, 2))


def weak_batch(xs: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    xs = np.asarray(xs)
    if xs.ndim < 3:  # flat vectors
        return xs + rng.standard_normal(xs.shape) * spec.weak_jitter
    return _augment_images(xs, spec.pad, *_draw_flip_crop(len(xs), spec, rng))


def strong_batch(xs: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    xs = np.asarray(xs)
    if xs.ndim < 3:
        out = xs + rng.standard_normal(xs.shape) * spec.strong_jitter
        if spec.mask_prob > 0:
            out = np.where(rng.random(xs.shape) < spec.mask_prob, 0.0, out)
        return out
    n, h, w = xs.shape[:3]
    size = min(h, w) // 4 if spec.cutout_size is None else spec.cutout_size
    if size > min(h, w):
        raise ValueError("cutout_size exceeds grid")
    flips, offsets = _draw_flip_crop(n, spec, rng)
    centres = rng.integers(0, (h, w), size=(n, 2))
    return _augment_images(xs, spec.pad, flips, offsets, size, centres)


def weak(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    return weak_batch(np.asarray(x)[None], spec, rng)[0]


def strong(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    return strong_batch(np.asarray(x)[None], spec, rng)[0]
