"""Multiplicative-noise resampling of a query image.

The batch defines the local input neighborhood the importance metrics look
at: n copies of the image, each multiplied pixelwise by an independent
Normal(1, sigma^2) filter and clamped back to [0, 1]. The original image is
not part of the batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .tensor import DTYPE, Rng, gaussian_sample


@dataclass
class PerturbationConfig:
    n: int = 50
    sigma: float = 0.1
    mean: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise UsageError(f"perturbation sample count must be >= 2, got {self.n}")
        if not self.sigma > 0:
            raise UsageError(f"noise sigma must be > 0, got {self.sigma}")


def perturb_batch(image: np.ndarray, cfg: PerturbationConfig) -> np.ndarray:
    """[n, C, H, W] clamped noisy copies of image; sample i comes from rng
    stream i.

    Stream addressing (not sequential draws from one stream) is what makes
    the batch independent of evaluation order: sample i is a pure function
    of (master_seed, i, image).
    """
    image = np.asarray(image, dtype=DTYPE)
    batch = np.empty((cfg.n,) + image.shape, dtype=DTYPE)
    for i in range(cfg.n):
        noise = gaussian_sample(Rng(cfg.master_seed, i), cfg.mean, cfg.sigma, image.shape)
        np.clip(image * noise, 0.0, 1.0, out=batch[i])
    return batch
