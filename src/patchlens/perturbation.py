"""Multiplicative-noise resampling of a query image.

The batch defines the local input neighborhood the importance metrics look
at: n copies of the image, each multiplied pixelwise by an independent
Normal(1, sigma^2) filter and clamped back to [0, 1]. The original image is
not part of the batch.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .tensor import DTYPE, Rng


def perturb_batch(image: np.ndarray, n: int, sigma: float, seed: int) -> np.ndarray:
    """[n, C, H, W] clamped noisy copies of image; sample i comes from rng
    stream i under seed.

    Stream addressing (not sequential draws from one stream) is what makes
    the batch independent of evaluation order: sample i is a pure function
    of (seed, i, image).
    """
    if n < 2:
        raise UsageError(f"perturbation sample count must be >= 2, got {n}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise UsageError(f"noise sigma must be finite and > 0, got {sigma}")
    image = np.asarray(image, dtype=DTYPE)
    batch = np.empty((n,) + image.shape, dtype=DTYPE)
    for i in range(n):
        np.clip(image * Rng(seed, i).normal(1.0, sigma, image.shape), 0.0, 1.0, out=batch[i])
    return batch
