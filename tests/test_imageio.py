import numpy as np
import pytest

from patchlens.deconvnet import Patch
from patchlens.errors import DataFormatError, UsageError
from patchlens.imageio import (
    annotate_patches,
    draw_box,
    layer_band,
    read_pgm,
    read_ppm,
    resize_bilinear,
    write_pgm,
    write_ppm,
)
from patchlens.importance import NeuronId
from patchlens.tensor import DTYPE, Rng


def quantized_image(seed=0, shape=(3, 9, 7)):
    """Random image already on the 8-bit grid, so writes round-trip exactly."""
    raw = Rng(seed, 0).uniform(0, 1, shape)
    return (np.round(raw * 255) / 255).astype(DTYPE)


# ---------------------------------------------------------------------------
# ppm / pgm

def test_ppm_round_trip(tmp_path):
    img = quantized_image()
    p = tmp_path / "img.ppm"
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)


def test_pgm_round_trip(tmp_path):
    gray = quantized_image(1, (1, 6, 8))[0]
    p = tmp_path / "img.pgm"
    write_pgm(p, gray)
    assert np.array_equal(read_pgm(p), gray)


def test_ppm_values_scaled_to_unit_range(tmp_path):
    p = tmp_path / "img.ppm"
    img = np.zeros((3, 2, 2), dtype=DTYPE)
    img[0, 0, 0] = 1.0
    write_ppm(p, img)
    back = read_ppm(p)
    assert back.max() == 1.0 and back.min() == 0.0


def test_header_comments_skipped(tmp_path):
    p = tmp_path / "img.ppm"
    pixels = bytes(range(12))
    p.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + pixels)
    img = read_ppm(p)
    assert img.shape == (3, 2, 2)
    assert img[0, 0, 0] == 0.0
    assert img[2, 1, 1] == pytest.approx(11 / 255)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DataFormatError):
        read_ppm(p)


def test_truncated_pixels_rejected(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataFormatError):
        read_ppm(p)


def test_wide_maxval_rejected(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(DataFormatError):
        read_ppm(p)


def test_write_checks_shape(tmp_path):
    with pytest.raises(UsageError):
        write_ppm(tmp_path / "x.ppm", np.zeros((1, 4, 4), dtype=DTYPE))
    with pytest.raises(UsageError):
        write_pgm(tmp_path / "x.pgm", np.zeros((1, 4, 4), dtype=DTYPE))


# ---------------------------------------------------------------------------
# annotation

def patch_at(layer, bbox):
    return Patch(NeuronId(layer, 0), "act-sum", bbox,
                 np.zeros((3, bbox[2], bbox[3]), dtype=DTYPE))


def test_draw_box_outline_only():
    img = np.zeros((3, 8, 8), dtype=DTYPE)
    draw_box(img, (2, 2, 4, 4), (1.0, 0.0, 0.0))
    assert img[0, 2, 2] == 1.0 and img[0, 5, 5] == 1.0
    assert img[0, 3, 3] == 0.0  # interior untouched
    assert img[1].sum() == 0.0


def test_layer_bands_partition_range():
    assert [layer_band(layer, (2, 6)) for layer in range(2, 7)] == [0, 0, 1, 1, 2]
    assert layer_band(1, (1, 1)) == 0


def test_annotate_copies_and_colors():
    img = np.zeros((3, 16, 16), dtype=DTYPE)
    out = annotate_patches(img, [patch_at(2, (1, 1, 3, 3)), patch_at(6, (8, 8, 4, 4))], (2, 6))
    assert not img.any()  # original untouched
    assert out[0, 1, 1] == 1.0 and out[2, 1, 1] == 0.0   # shallow layer red
    assert out[2, 8, 8] == 1.0 and out[0, 8, 8] == 0.0   # deep layer blue


# ---------------------------------------------------------------------------
# resize

def test_resize_constant_stays_constant():
    img = np.full((3, 5, 7), 0.37, dtype=DTYPE)
    out = resize_bilinear(img, 16, 16)
    assert out.shape == (3, 16, 16)
    assert np.allclose(out, 0.37, atol=1e-6)


def test_resize_identity_size():
    img = quantized_image(2, (3, 6, 6))
    assert np.array_equal(resize_bilinear(img, 6, 6), img)


def test_resize_single_pixel_input():
    img = np.full((3, 1, 1), 0.8, dtype=DTYPE)
    out = resize_bilinear(img, 16, 16)
    assert np.allclose(out, 0.8, atol=1e-6)


def test_resize_preserves_linear_ramp():
    # bilinear interpolation reproduces an axis-aligned linear ramp exactly
    # away from the clamped half-pixel border
    w = 8
    ramp = np.tile(np.linspace(0, 1, w, dtype=np.float64), (1, w, 1)).astype(DTYPE)
    out = resize_bilinear(ramp, 16, 16)
    xs = np.clip((np.arange(16) + 0.5) * (w / 16) - 0.5, 0, w - 1)
    want = xs / (w - 1)
    assert np.max(np.abs(out[0, 8, :] - want)) < 1e-6


def test_resize_rejects_bad_target():
    with pytest.raises(UsageError):
        resize_bilinear(np.zeros((3, 4, 4), dtype=DTYPE), 0, 4)
