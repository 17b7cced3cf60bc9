"""Quantitative harness: synthetic data, patch studies, convergence curves.

Three questions get answered here, on a machine-checkable 32x32 two-class
set (an ellipse-plus-bar figure with an exact mask, against a black
background and rectangle distractors):

  * do the selected patches land on the object? (localization ratio)
  * are the patches class-informative? (secondary classifier accuracy)
  * do the two batch metrics converge to the same neurons as the main
    network trains? (Jaccard trajectory over checkpoints)
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, UsageError
from .imageio import read_pgm, read_ppm, resize_bilinear, write_pgm, write_ppm
from .importance import METRICS, jaccard
from .network import (ConvLayer, DenseLayer, FlattenLayer, MaxPoolLayer,
                      NetworkSpec, OutputLayer, ReluLayer, TrainConfig,
                      _he_conv, _he_dense, evaluate_accuracy, train)
from .pipeline import PipelineConfig, explain
from .tensor import DTYPE, Rng


@dataclass
class LabeledImage:
    image: np.ndarray                 # [3, H, W] float32 in [0, 1]
    label: int                        # 1 = figure present
    mask: np.ndarray | None = None    # bool [H, W], exact figure pixels
    name: str = ""
    split: str = "train"


# ---------------------------------------------------------------------------
# synthetic dataset

_SIZE = 32


def _quantize(img: np.ndarray) -> np.ndarray:
    # snap to the 8-bit grid so in-memory data equals its file round-trip
    return (np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0).astype(DTYPE)


def _background(rng: Rng) -> np.ndarray:
    # exactly black: multiplicative perturbation keeps empty pixels empty, so
    # channels blind to the drawn content stay silent and fall under lambda
    return np.zeros((3, _SIZE, _SIZE), dtype=np.float64)


def _paint(img: np.ndarray, region: np.ndarray, color, rng: Rng) -> None:
    shade = rng.normal(0.0, 0.04, (3, int(region.sum())))
    img[:, region] = np.asarray(color)[:, None] + shade


_LABEL_NOISE = 0.05  # train-split flip rate; keeps fitted confidence off 1.0


def _add_rect(img: np.ndarray, rng: Rng, color) -> None:
    h = rng.integers(3, 11)
    w = rng.integers(3, 11)
    top = rng.integers(1, _SIZE - h)
    left = rng.integers(1, _SIZE - w)
    region = np.zeros((_SIZE, _SIZE), dtype=bool)
    region[top:top + h, left:left + w] = True
    _paint(img, region, color, rng)


def _figure_color(rng: Rng):
    return rng.uniform(0.55, 1.0), rng.uniform(0.15, 0.60), rng.uniform(0.05, 0.50)


def _distractor_color(rng: Rng):
    # cool palette, disjoint from the warm figure palette: a crop that shows
    # any figure pixel stays recognizable at any scale
    return rng.uniform(0.05, 0.35), rng.uniform(0.15, 0.60), rng.uniform(0.55, 1.0)


def _figure_mask(rng: Rng) -> np.ndarray:
    """Filled ellipse plus a crossing bar, fully inside the frame."""
    cy = rng.integers(10, 22)
    cx = rng.integers(10, 22)
    a = rng.integers(4, 9)   # ellipse semi-axis, x
    b = rng.integers(4, 9)   # ellipse semi-axis, y
    yy, xx = np.mgrid[0:_SIZE, 0:_SIZE]
    ellipse = ((yy - cy) / b) ** 2 + ((xx - cx) / a) ** 2 <= 1.0
    length = rng.integers(10, 17)
    thick = rng.integers(2, 5)
    bar = np.zeros((_SIZE, _SIZE), dtype=bool)
    if rng.integers(0, 2):
        bar[cy - thick // 2:cy - thick // 2 + thick, cx - length // 2:cx - length // 2 + length] = True
    else:
        bar[cy - length // 2:cy - length // 2 + length, cx - thick // 2:cx - thick // 2 + thick] = True
    return ellipse | bar


def generate_dataset(count: int, rng: Rng) -> list[LabeledImage]:
    """Two-class set, deterministic per rng, 8-bit quantized.

    Positives carry the figure alone, with its exact pixel mask; negatives
    carry rectangles only, so the classes separate by shape rather than by
    clutter statistics.  Every fifth image of each class is tagged
    split=val.  A small fraction of train labels is flipped so a fitted
    classifier's confidence stays bounded; val labels are never flipped,
    and a flipped positive loses its mask so that a mask always means
    label 1.
    """
    if count < 2:
        raise UsageError(f"dataset needs at least 2 images, got {count}")
    images = []
    per_class = [0, 0]
    for i in range(count):
        r = rng.split(i)
        label = i % 2
        img = _background(r)
        if label == 1:
            mask = _figure_mask(r)
            _paint(img, mask, _figure_color(r), r)
        else:
            for _ in range(2 + r.integers(0, 3)):
                _add_rect(img, r, _distractor_color(r))
            mask = None
        split = "val" if per_class[label] % 5 == 0 else "train"
        per_class[label] += 1
        if split == "train" and r.uniform(0.0, 1.0, ()) < _LABEL_NOISE:
            label = 1 - label
            mask = None
        images.append(LabeledImage(_quantize(img), label, mask, f"img_{i:05d}", split))
    return images


def write_dataset(images: list[LabeledImage], out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for im in images:
        write_ppm(os.path.join(out_dir, im.name + ".ppm"), im.image)
        mask_name = "-"
        if im.mask is not None:
            mask_name = im.name + ".mask.pgm"
            write_pgm(os.path.join(out_dir, mask_name), im.mask.astype(DTYPE))
        rows.append(f"{im.name}\t{im.label}\t{im.split}\t{mask_name}")
    with open(os.path.join(out_dir, "labels.tsv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")


def read_dataset(data_dir) -> list[LabeledImage]:
    index = os.path.join(data_dir, "labels.tsv")
    if not os.path.exists(index):
        raise DataFormatError(f"{data_dir}: no labels.tsv index")
    images = []
    with open(index) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(f"{index}:{lineno}: expected 4 tab-separated fields")
            name, label_s, split, mask_name = parts
            try:
                label = int(label_s)
            except ValueError:
                raise DataFormatError(f"{index}:{lineno}: bad label {label_s!r}") from None
            if label not in (0, 1):
                raise DataFormatError(f"{index}:{lineno}: label must be 0 or 1, got {label}")
            if split not in ("train", "val"):
                raise DataFormatError(f"{index}:{lineno}: split must be train or val, got {split!r}")
            image = read_ppm(os.path.join(data_dir, name + ".ppm"))
            mask = None
            if mask_name != "-":
                mask = read_pgm(os.path.join(data_dir, mask_name)) > 0.5
                if mask.shape != image.shape[1:]:
                    raise DataFormatError(f"{index}:{lineno}: mask shape {mask.shape} "
                                          f"does not match image {image.shape[1:]}")
            images.append(LabeledImage(image, label, mask, name, split))
    if not images:
        raise DataFormatError(f"{index}: empty dataset")
    return images


def dataset_split(images: list[LabeledImage], split: str) -> list[LabeledImage]:
    return [im for im in images if im.split == split]


def harness_sets(val_set: list[LabeledImage]) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """The harness's fixed image sets, drawn from the val split in order.

    Returns (probes, positives): the first 4 masked positives and the first
    4 negatives, which both the agreement and the patch classifiers read,
    and the first 20 masked positives for localization.
    """
    val_pos = [im for im in val_set if im.label == 1 and im.mask is not None]
    val_neg = [im for im in val_set if im.label == 0]
    if not val_pos:
        raise DataFormatError("val split has no masked positive images")
    return val_pos[:4] + val_neg[:4], val_pos[:20]


# ---------------------------------------------------------------------------
# patch studies

def patch_hits(patches, mask: np.ndarray) -> int:
    """How many patches' bboxes cover at least one mask pixel."""
    if not patches:
        raise UsageError("empty patch list")
    if mask is None:
        raise UsageError("localization needs a mask")
    hits = 0
    for p in patches:
        top, left, height, width = p.bbox
        hits += bool(mask[top:top + height, left:left + width].any())
    return hits


def _add_crops(out: dict[str, tuple[list, list]], result, label: int) -> None:
    """Append each metric's top patches from one explanation, resized to the
    secondary classifier's 16x16 input, with the parent image's label."""
    for m, (patches, labels) in out.items():
        for p in result.patches(m).patches:
            patches.append(resize_bilinear(p.pixels, 16, 16))
            labels.append(label)


def harvest_patches(net: NetworkSpec, images: list[LabeledImage], cfg: PipelineConfig,
                    metrics) -> dict[str, tuple[list, list]]:
    """Explain each image once and collect, per metric, its top patches
    resized to 16x16, with the parent image's label."""
    out = {m: ([], []) for m in metrics}
    for im in images:
        _add_crops(out, explain(net, im.image, cfg, metrics=metrics), im.label)
    return out


def secondary_network(rng: Rng, classes: int = 2, size: int = 16) -> NetworkSpec:
    """Small patch classifier: two conv+pool stages and a narrow dense head."""
    layers = [
        ConvLayer(_he_conv(rng.split(0), 16, 3, 3, 3), np.zeros(16, dtype=DTYPE), 1, 1),
        ReluLayer(),
        MaxPoolLayer(2, 2),
        ConvLayer(_he_conv(rng.split(1), 16, 16, 3, 3), np.zeros(16, dtype=DTYPE), 1, 1),
        ReluLayer(),
        MaxPoolLayer(2, 2),
        FlattenLayer(),
        DenseLayer(_he_dense(rng.split(2), 32, 16 * (size // 4) ** 2), np.zeros(32, dtype=DTYPE)),
        ReluLayer(),
        DenseLayer(_he_dense(rng.split(3), classes, 32), np.zeros(classes, dtype=DTYPE)),
        OutputLayer(classes),
    ]
    return NetworkSpec((3, size, size), layers)


def train_secondary(patches, labels, rng: Rng, epochs: int = 25, lr: float = 0.08) -> float:
    """80/20 split, train on the large side, return held-out accuracy."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise UsageError("secondary training needs patches from both classes")
    order = rng.split(0).permutation(len(patches))
    n_val = max(1, int(round(0.2 * len(patches))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x = np.stack(patches)
    net = secondary_network(rng.split(1))
    train(net, x[train_idx], labels[train_idx], TrainConfig(epochs=epochs, lr=lr), rng.split(2))
    return evaluate_accuracy(net, x[val_idx], labels[val_idx])


def localization_study(net: NetworkSpec, positives: list[LabeledImage],
                       cfg: PipelineConfig, metrics=METRICS, n_tops=(5, 20)):
    """Pooled localization ratio per (metric, top-N) over masked positives.

    Scores each image once and cuts every top-N from that one explanation,
    so the perturbation forward passes are shared. The largest N is cut
    first: a smaller top-N is a prefix of it, so its neurons are already
    deconvolved.
    Returns rows of (metric, n_top, ratio, total_patches, hits).
    """
    if not positives:
        raise UsageError("localization needs at least one positive image")
    totals = {(m, n): [0, 0] for m in metrics for n in n_tops}
    for im in positives:
        if im.mask is None:
            raise UsageError(f"image {im.name or '?'} has no mask")
        result = explain(net, im.image, cfg, metrics=metrics)
        for n in sorted(n_tops, reverse=True):
            for m in metrics:
                patches = result.patches(m, n).patches
                if patches:
                    totals[(m, n)][0] += patch_hits(patches, im.mask)
                    totals[(m, n)][1] += len(patches)
    rows = []
    for m in metrics:
        for n in n_tops:
            hits, total = totals[(m, n)]
            ratio = hits / total if total else 0.0
            rows.append((m, n, ratio, total, hits))
    return rows


# ---------------------------------------------------------------------------
# convergence trajectory

@dataclass
class TrajectoryPoint:
    epoch: int
    metric: str
    val_accuracy: float
    mean_jaccard: float        # jaccard(corr top-N, precision top-N), probe mean
    secondary_accuracy: float


_AGREEMENT = ("act-out-corr", "act-precision")


def convergence_study(checkpoints, probes: list[LabeledImage], val_images, val_labels,
                      cfg: PipelineConfig, rng: Rng, metrics=_AGREEMENT,
                      secondary_epochs: int = 25) -> list[TrajectoryPoint]:
    """Per-checkpoint metric agreement and patch informativeness.

    checkpoints: list of (epoch, NetworkSpec). For each one: validation
    accuracy, the probe-mean Jaccard between the correlation and precision
    top-N sets, and a secondary classifier accuracy per metric trained on
    that checkpoint's patches of the probes. Each probe is explained once
    per checkpoint, under the two agreement metrics and the selected ones
    together; each metric scores on its own, so the rankings do not depend
    on which others run. With secondary_epochs=0 the classifiers are
    skipped (accuracy NaN) and nothing is deconvolved. The secondary rng
    derivation depends only on rng, never the epoch tag, so equal
    checkpoints yield equal points.
    """
    if len(checkpoints) < 2:
        raise UsageError("convergence study needs at least 2 checkpoints")
    explained = tuple(dict.fromkeys(_AGREEMENT + tuple(metrics)))
    points = []
    for epoch, net in checkpoints:
        pairs = []
        harvested = {m: ([], []) for m in metrics}
        for im in probes:
            result = explain(net, im.image, cfg, metrics=explained)
            pairs.append(jaccard(result.ranked["act-out-corr"], result.ranked["act-precision"]))
            if secondary_epochs > 0:
                _add_crops(harvested, result, im.label)
            del result  # before the next probe's explain allocates
        mean_j = float(np.mean(pairs))
        val_acc = evaluate_accuracy(net, val_images, val_labels)
        for k, (m, (patches, labels)) in enumerate(harvested.items()):
            acc = float("nan")
            if patches and len(set(labels)) > 1:
                acc = train_secondary(patches, labels, rng.split(k), epochs=secondary_epochs)
            points.append(TrajectoryPoint(epoch, m, val_acc, mean_j, acc))
    return points


@dataclass(frozen=True)
class AgreementTrend:
    """The agreement reading over a trajectory's trained epochs.

    Epoch 0, the untrained initialisation, stays outside the trend: its
    Jaccard is the null reading beside it (None when the series has no
    epoch 0).
    """
    spearman: float    # spearman(epoch, Jaccard)
    first: float       # Jaccard at the first trained epoch
    final: float       # Jaccard at the last trained epoch
    delta: float       # final - first
    untrained: float | None


def agreement_trend(points: list[TrajectoryPoint]) -> AgreementTrend:
    jac = {}
    for p in points:
        jac.setdefault(p.epoch, p.mean_jaccard)
    untrained = jac.pop(0, None)
    if not jac:
        raise UsageError("agreement trend needs at least one trained epoch")
    epochs = sorted(jac)
    series = [jac[e] for e in epochs]
    return AgreementTrend(spearman(epochs, series), series[0], series[-1],
                          series[-1] - series[0], untrained)


def spearman(x, y) -> float:
    """Rank correlation with average ranks for ties."""
    def rankdata(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v), dtype=np.float64)
        ranks[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            same = v == val
            if same.sum() > 1:
                ranks[same] = ranks[same].mean()
        return ranks

    rx, ry = rankdata(x), rankdata(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0:
        return 0.0
    return float((dx * dy).sum() / denom)


# ---------------------------------------------------------------------------
# report files

def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def write_trajectory_csv(path, points: list[TrajectoryPoint]) -> None:
    lines = ["epoch,metric,val_accuracy,mean_jaccard,secondary_accuracy"]
    for p in points:
        lines.append(",".join(fmt(v) for v in
                              (p.epoch, p.metric, p.val_accuracy, p.mean_jaccard, p.secondary_accuracy)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_localization_csv(path, rows) -> None:
    lines = ["metric,n_top,localization_ratio,patches,hits"]
    for metric, n, ratio, total, hits in rows:
        lines.append(",".join(fmt(v) for v in (metric, n, ratio, total, hits)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_text(path, points: list[TrajectoryPoint], loc_rows) -> None:
    """Human-readable summary table of the whole evaluation."""
    lines = ["== convergence trajectory =="]
    lines.append("epoch  metric           val_acc  jaccard  secondary_acc")
    for p in points:
        lines.append(f"{p.epoch:>5}  {p.metric:<15}  {fmt(p.val_accuracy):>7}  "
                     f"{fmt(p.mean_jaccard):>7}  {fmt(p.secondary_accuracy)}")
    trend = agreement_trend(points)
    lines.append(f"trend over trained epochs: spearman {fmt(trend.spearman)}, "
                 f"first {fmt(trend.first)}, final {fmt(trend.final)}, delta {fmt(trend.delta)}")
    if trend.untrained is not None:
        lines.append(f"untrained null (epoch 0, outside the trend): jaccard {fmt(trend.untrained)}")
    lines.append("")
    lines.append("== patch localization ==")
    lines.append("metric           n_top  ratio      hits/patches")
    for metric, n, ratio, total, hits in loc_rows:
        lines.append(f"{metric:<15}  {n:>5}  {fmt(ratio):>9}  {hits}/{total}")
    lines.append("")
    lines.append("== secondary classifier (final checkpoint) ==")
    lines.append("metric           held_out_accuracy")
    last_epoch = max(p.epoch for p in points)
    for p in points:
        if p.epoch == last_epoch:
            lines.append(f"{p.metric:<15}  {fmt(p.secondary_accuracy)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
