"""Seeded synthetic inputs for the benchmark, written as netpbm files.

The benchmark draws its own images instead of calling the program's dataset
generator, so a change to that generator cannot change what is measured.
The make-up follows the program's two-class set: 32x32 RGB on an exactly
black background; a positive is a filled ellipse plus a crossing bar in a
warm colour, with its exact pixel mask; a negative carries 2-4 rectangles
in a cool colour. Pixels are quantized to the 8-bit grid, so an image in
memory equals its file. No label is flipped.

Image i of a set drawn under `seed` comes from the Philox stream keyed
(seed, stream_base + i): the same seed always gives the same files.
"""
from __future__ import annotations

import os

import numpy as np

SIZE = 32
_MASK64 = (1 << 64) - 1


def rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _paint(img, region, color, r) -> None:
    img[:, region] = np.asarray(color)[:, None] + r.normal(0.0, 0.04, (3, int(region.sum())))


def _figure_mask(r) -> np.ndarray:
    cy, cx = r.integers(10, 22, size=2)
    a, b = r.integers(4, 9, size=2)
    yy, xx = np.mgrid[0:SIZE, 0:SIZE]
    mask = ((yy - cy) / b) ** 2 + ((xx - cx) / a) ** 2 <= 1.0
    length, thick = r.integers(10, 17), r.integers(2, 5)
    if r.integers(0, 2):
        mask[cy - thick // 2:cy - thick // 2 + thick, cx - length // 2:cx - length // 2 + length] = True
    else:
        mask[cy - length // 2:cy - length // 2 + length, cx - thick // 2:cx - thick // 2 + thick] = True
    return mask


def make_image(seed: int, stream: int, label: int):
    """(image float64 [3, 32, 32] on the 8-bit grid, bool mask or None)."""
    r = rng(seed, stream)
    img = np.zeros((3, SIZE, SIZE))
    mask = None
    if label == 1:
        mask = _figure_mask(r)
        _paint(img, mask, (r.uniform(0.55, 1.0), r.uniform(0.15, 0.60), r.uniform(0.05, 0.50)), r)
    else:
        for _ in range(2 + r.integers(0, 3)):
            h, w = r.integers(3, 11, size=2)
            top, left = r.integers(1, SIZE - h), r.integers(1, SIZE - w)
            region = np.zeros((SIZE, SIZE), dtype=bool)
            region[top:top + h, left:left + w] = True
            _paint(img, region, (r.uniform(0.05, 0.35), r.uniform(0.15, 0.60), r.uniform(0.55, 1.0)), r)
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0, mask


def write_ppm(path, image) -> None:
    quant = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    _, h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode() + quant.transpose(1, 2, 0).tobytes())


def write_pgm(path, mask) -> None:
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode() + (mask.astype(np.uint8) * 255).tobytes())


def read_pnm(path) -> np.ndarray:
    """Binary P5/P6 file with maxval 255 and no comments -> float64 in [0, 1],
    [3, H, W] for colour, [H, W] for grey."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic not in (b"P5", b"P6") or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary netpbm file")
    w, h = int(w), int(h)
    channels = 3 if magic == b"P6" else 1
    raw = np.frombuffer(data[-w * h * channels:], dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return raw.reshape(h, w)
    return raw.reshape(h, w, 3).transpose(2, 0, 1)


def write_set(out_dir, seed: int, stream_base: int, rows):
    """Write images for rows of (label, split) and a labels.tsv index.

    Returns a list of dicts (name, label, split, image, mask, ppm, pgm).
    """
    os.makedirs(out_dir, exist_ok=True)
    items, index = [], []
    for i, (label, split) in enumerate(rows):
        image, mask = make_image(seed, stream_base + i, label)
        name = f"img_{i:05d}"
        ppm = os.path.join(out_dir, name + ".ppm")
        write_ppm(ppm, image)
        pgm = None
        if mask is not None:
            pgm = os.path.join(out_dir, name + ".mask.pgm")
            write_pgm(pgm, mask)
        index.append(f"{name}\t{label}\t{split}\t{name + '.mask.pgm' if pgm else '-'}")
        items.append({"name": name, "label": label, "split": split, "image": image,
                      "mask": mask, "ppm": ppm, "pgm": pgm})
    with open(os.path.join(out_dir, "labels.tsv"), "w") as fh:
        fh.write("\n".join(index) + "\n")
    return items
