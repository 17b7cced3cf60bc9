import math

import numpy as np
import pytest

from patchlens.errors import UsageError
from patchlens.perturbation import perturb_batch
from patchlens.tensor import DTYPE, Rng


def demo_image(seed=0, shape=(3, 8, 8)):
    return Rng(seed, 0).uniform(0, 1, shape).astype(DTYPE)


def test_tiny_sigma_preserves_image():
    img = demo_image()
    for s in perturb_batch(img, 5, 1e-12, 0):
        assert np.max(np.abs(s - img)) < 1e-6


def test_zero_image_is_fixed_point():
    img = np.zeros((3, 4, 4), dtype=DTYPE)
    for s in perturb_batch(img, 5, 0.1, 0):
        assert np.array_equal(s, img)


def test_batch_mean_tracks_original():
    # 50 draws of Normal(1, 0.01): sample mean stddev ~ 0.014 per pixel
    img = (demo_image(3) * 0.8 + 0.1).astype(DTYPE)
    batch = np.stack(perturb_batch(img, 50, 0.1, 0))
    mean = batch.mean(axis=0)
    mid = (img >= 0.1) & (img <= 0.9)
    assert np.all(np.abs(mean[mid] - img[mid]) < 0.05)


def test_all_pixels_in_unit_range():
    img = demo_image(4)
    for s in perturb_batch(img, 20, 0.8, 0):
        assert s.min() >= 0.0 and s.max() <= 1.0


def test_sample_i_is_stream_i():
    img = demo_image(5)
    batch = perturb_batch(img, 6, 0.1, 99)
    for i, s in enumerate(batch):
        noise = Rng(99, i).normal(1.0, 0.1, img.shape)
        want = np.clip(img * noise, 0.0, 1.0)
        assert s.tobytes() == want.tobytes()


def test_rerun_bit_identical():
    img = demo_image(6)
    a = perturb_batch(img, 10, 0.1, 3)
    b = perturb_batch(img, 10, 0.1, 3)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_original_not_in_batch():
    img = demo_image(7)
    assert not any(np.array_equal(s, img) for s in perturb_batch(img, 50, 0.1, 0))


def test_samples_pairwise_distinct_across_runs():
    img = demo_image(8)
    seen = set()
    for seed in range(100):
        for s in perturb_batch(img, 3, 0.1, seed):
            key = s.tobytes()
            assert key not in seen
            seen.add(key)


def test_config_rejects_bad_values():
    img = demo_image()
    with pytest.raises(UsageError):
        perturb_batch(img, 1, 0.1, 0)
    with pytest.raises(UsageError):
        perturb_batch(img, 50, 0.0, 0)
    with pytest.raises(UsageError):
        perturb_batch(img, 50, -0.1, 0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(UsageError):
            perturb_batch(img, 50, bad, 0)
