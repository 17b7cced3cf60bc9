import math

import numpy as np
import pytest

from patchlens import evaluation
from patchlens.deconvnet import Patch
from patchlens.errors import DataFormatError, UsageError
from patchlens.evaluation import (
    TrajectoryPoint,
    agreement_trend,
    convergence_study,
    dataset_split,
    generate_dataset,
    harness_sets,
    harvest_patches,
    localization_study,
    patch_hits,
    read_dataset,
    secondary_network,
    spearman,
    train_secondary,
    write_dataset,
    write_localization_csv,
    write_trajectory_csv,
)
from patchlens.importance import NeuronId
from patchlens.network import forward, reference_network, train, TrainConfig
from patchlens.pipeline import PipelineConfig
from patchlens.tensor import DTYPE, Rng


# ---------------------------------------------------------------------------
# dataset generator

def test_generator_deterministic():
    a = generate_dataset(12, Rng(5, 1))
    b = generate_dataset(12, Rng(5, 1))
    for x, y in zip(a, b):
        assert x.image.tobytes() == y.image.tobytes()
        assert x.label == y.label and x.split == y.split
        assert (x.mask is None) == (y.mask is None)
        if x.mask is not None:
            assert np.array_equal(x.mask, y.mask)


def test_generator_balance_and_masks():
    images = generate_dataset(25, Rng(6, 1))
    pos = [im for im in images if im.label == 1]
    neg = [im for im in images if im.label == 0]
    # near-balanced: only the small train-label noise can tilt the counts
    assert abs(len(pos) - len(neg)) <= 5
    for im in pos:
        assert im.mask is not None
        assert im.mask.shape == (32, 32)
        assert int(im.mask.sum()) >= 30
    for im in neg:
        assert im.mask is None
    assert all(im.image.shape == (3, 32, 32) for im in images)
    assert all(im.image.min() >= 0 and im.image.max() <= 1 for im in images)


def test_generator_label_noise_is_train_only():
    images = generate_dataset(400, Rng(6, 1))
    # generation order alternates classes, so the name index exposes flips
    flips = [im for im in images if im.label != int(im.name[4:]) % 2]
    assert flips
    assert len(flips) < 0.12 * len(images)
    assert all(im.split == "train" for im in flips)
    for im in images:
        if im.split == "val":
            assert im.label == int(im.name[4:]) % 2


def test_generator_has_val_split_per_class():
    images = generate_dataset(30, Rng(7, 1))
    for label in (0, 1):
        val = [im for im in images if im.label == label and im.split == "val"]
        assert val


def test_dataset_round_trip(tmp_path):
    images = generate_dataset(8, Rng(8, 1))
    write_dataset(images, tmp_path)
    back = read_dataset(tmp_path)
    assert len(back) == 8
    for x, y in zip(images, back):
        assert x.image.tobytes() == y.image.tobytes()  # 8-bit grid: lossless
        assert x.label == y.label and x.split == y.split and x.name == y.name
        if x.mask is None:
            assert y.mask is None
        else:
            assert np.array_equal(x.mask, y.mask)


def test_dataset_split_filter():
    images = generate_dataset(20, Rng(9, 1))
    train_set = dataset_split(images, "train")
    val_set = dataset_split(images, "val")
    assert len(train_set) + len(val_set) == 20
    assert all(im.split == "train" for im in train_set)


def test_harness_sets():
    val = dataset_split(generate_dataset(200, Rng(9, 1)), "val")
    probes, positives = harness_sets(val)
    pos = [im for im in val if im.label == 1 and im.mask is not None]
    neg = [im for im in val if im.label == 0]
    assert [im.name for im in probes] == [im.name for im in pos[:4] + neg[:4]]
    assert [im.name for im in positives] == [im.name for im in pos[:20]]
    with pytest.raises(DataFormatError):
        harness_sets(neg)


# ---------------------------------------------------------------------------
# localization hits

def patch_with_bbox(bbox):
    return Patch(NeuronId(2, 0), "act-sum", bbox,
                 np.zeros((3, bbox[2], bbox[3]), dtype=DTYPE))


def test_localization_all_inside():
    mask = np.zeros((32, 32), dtype=bool)
    mask[10:20, 10:20] = True
    patches = [patch_with_bbox((12, 12, 3, 3)) for _ in range(4)]
    assert patch_hits(patches, mask) == len(patches)


def test_localization_none_overlap():
    mask = np.zeros((32, 32), dtype=bool)
    mask[0:4, 0:4] = True
    patches = [patch_with_bbox((20, 20, 5, 5))]
    assert patch_hits(patches, mask) == 0


def test_localization_ratio_exact():
    mask = np.zeros((32, 32), dtype=bool)
    mask[0:2, 0:2] = True
    hits = [patch_with_bbox((0, 0, 2, 2))] * 31
    misses = [patch_with_bbox((20, 20, 2, 2))] * 4
    assert patch_hits(hits + misses, mask) == 31
    # one covered mask pixel makes a hit
    assert patch_hits([patch_with_bbox((1, 1, 3, 3))], mask) == 1


def test_localization_rejects_empty():
    with pytest.raises(UsageError):
        patch_hits([], np.zeros((4, 4), dtype=bool))


def test_localization_smaller_top_reuses_larger_cut(walked_neurons):
    net, images = small_trained_net()
    positives = [im for im in images if im.mask is not None][:2]
    cfg = PipelineConfig(n=6, sigma=0.1, seed=5, layer_range=(2, 3))
    metrics = ("act-sum", "act-precision")
    only_20 = localization_study(net, positives, cfg, metrics=metrics, n_tops=(20,))
    walks_20 = list(walked_neurons)
    assert walks_20
    walked_neurons.clear()
    both = localization_study(net, positives, cfg, metrics=metrics, n_tops=(5, 20))
    assert walked_neurons == walks_20  # the top-5 cut walks no neuron again
    assert [row for row in both if row[1] == 20] == only_20


# ---------------------------------------------------------------------------
# patch dataset + secondary classifier

def small_trained_net():
    images = generate_dataset(24, Rng(10, 1))
    xs = np.stack([im.image for im in images])
    ys = np.array([im.label for im in images])
    net = reference_network(Rng(10, 2))
    train(net, xs, ys, TrainConfig(epochs=1, lr=0.02), Rng(10, 3))
    return net, images


def test_harvest_patches_bounds_and_determinism():
    net, images = small_trained_net()
    cfg = PipelineConfig(n=6, sigma=0.1, seed=3, n_top=2, layer_range=(2, 3))
    picked = images[:3]
    metrics = ("act-sum", "act-precision")
    first = harvest_patches(net, picked, cfg, metrics)
    again = harvest_patches(net, picked, cfg, metrics)
    assert sorted(first) == sorted(metrics)
    for m in metrics:
        patches, labels = first[m]
        assert len(patches) == len(labels) <= 3 * 2 * 2  # images x layers x N
        assert all(p.shape == (3, 16, 16) for p in patches)
        assert set(labels) <= {0, 1}
        patches2, labels2 = again[m]
        assert labels == labels2
        assert len(patches) == len(patches2)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(patches, patches2))


def separable_patches(n_per_class=12):
    dark = [np.zeros((3, 16, 16), dtype=DTYPE)] * n_per_class
    bright = [np.ones((3, 16, 16), dtype=DTYPE)] * n_per_class
    return dark + bright, [0] * n_per_class + [1] * n_per_class


def test_secondary_separable_perfect():
    patches, labels = separable_patches()
    acc = train_secondary(patches, labels, Rng(11, 0), epochs=8, lr=0.1)
    assert acc == 1.0


def test_secondary_deterministic():
    patches, labels = separable_patches(8)
    a = train_secondary(patches, labels, Rng(12, 0), epochs=4, lr=0.05)
    b = train_secondary(patches, labels, Rng(12, 0), epochs=4, lr=0.05)
    assert a == b


def test_secondary_rejects_single_class():
    patches = [np.zeros((3, 16, 16), dtype=DTYPE)] * 6
    with pytest.raises(UsageError):
        train_secondary(patches, [0] * 6, Rng(13, 0))


def test_secondary_shuffled_labels_near_chance():
    # quick 3-reshuffle look; the 10-reshuffle null check runs with the
    # acceptance suite
    r = Rng(14, 0)
    patches, labels = separable_patches(10)
    accs = []
    for k in range(3):
        shuffled = np.array(labels)[r.split(k).permutation(len(labels))].tolist()
        accs.append(train_secondary(patches, shuffled, r.split(100 + k), epochs=6, lr=0.05))
    assert 0.15 <= float(np.mean(accs)) <= 0.85


def test_secondary_network_shape():
    net = secondary_network(Rng(15, 0))
    assert net.input_shape == (3, 16, 16)
    out = forward(net, np.zeros((3, 16, 16), dtype=DTYPE))
    assert out.output.shape == (2,)


# ---------------------------------------------------------------------------
# convergence study

def test_identical_checkpoints_identical_points():
    net, images = small_trained_net()
    val = dataset_split(images, "val")
    train_set = dataset_split(images, "train")
    probes = [next(im for im in train_set if im.label == 1),
              next(im for im in train_set if im.label == 0)]
    vx = np.stack([im.image for im in val])
    vy = np.array([im.label for im in val])
    cfg = PipelineConfig(n=6, sigma=0.1, seed=5, n_top=2, layer_range=(2, 3))
    pts = convergence_study([(1, net), (2, net)], probes, vx, vy, cfg, Rng(16, 0),
                            secondary_epochs=2)
    by_epoch = {}
    for p in pts:
        by_epoch.setdefault(p.epoch, []).append(p)
    a, b = by_epoch[1], by_epoch[2]
    assert len(a) == len(b) == 2  # one point per metric
    for x, y in zip(a, b):
        assert x.metric == y.metric
        assert x.val_accuracy == y.val_accuracy
        assert x.mean_jaccard == y.mean_jaccard
        assert (x.secondary_accuracy == y.secondary_accuracy
                or (math.isnan(x.secondary_accuracy) and math.isnan(y.secondary_accuracy)))
        assert 0.0 <= x.mean_jaccard <= 1.0


def test_probe_explains_deconvolve_nothing(walked_neurons):
    net, images = small_trained_net()
    val = dataset_split(images, "val")
    vx = np.stack([im.image for im in val])
    vy = np.array([im.label for im in val])
    cfg = PipelineConfig(n=6, sigma=0.1, seed=5, n_top=2, layer_range=(2, 3))
    convergence_study([(1, net), (2, net)], val[:2], vx, vy, cfg, Rng(16, 0),
                      secondary_epochs=0)
    assert walked_neurons == []


def test_each_probe_explained_once_per_checkpoint(monkeypatch):
    net, images = small_trained_net()
    val = dataset_split(images, "val")
    vx = np.stack([im.image for im in val])
    vy = np.array([im.label for im in val])
    cfg = PipelineConfig(n=6, sigma=0.1, seed=5, n_top=2, layer_range=(2, 3))
    real = evaluation.explain
    explained = []

    def counting(net, image, cfg, metrics):
        explained.append(image)
        return real(net, image, cfg, metrics=metrics)

    monkeypatch.setattr(evaluation, "explain", counting)
    probes = val[:2]
    pts = convergence_study([(1, net), (2, net)], probes, vx, vy, cfg, Rng(16, 0),
                            metrics=("act-sum", "act-precision"), secondary_epochs=2)
    assert [id(x) for x in explained] == [id(im.image) for im in probes] * 2
    assert [p.metric for p in pts] == ["act-sum", "act-precision"] * 2


def test_convergence_needs_two_checkpoints():
    net, images = small_trained_net()
    with pytest.raises(UsageError):
        convergence_study([(1, net)], images[:2], np.stack([images[0].image]),
                          np.array([images[0].label]), PipelineConfig(n=4), Rng(0, 0))


# ---------------------------------------------------------------------------
# spearman

def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


def test_spearman_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    r = Rng(17, 0)
    x = np.round(r.uniform(0, 1, (40,)) * 10) / 10  # coarse grid forces ties
    y = np.round(r.split(1).uniform(0, 1, (40,)) * 10) / 10
    want = float(scipy_stats.spearmanr(x, y)[0])
    assert spearman(x, y) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# report files

def series(jaccards: dict[int, float]) -> list[TrajectoryPoint]:
    return [TrajectoryPoint(e, m, 0.5, j, 0.5)
            for e, j in jaccards.items() for m in ("act-out-corr", "act-precision")]


def test_trend_leaves_epoch_zero_out():
    with_null = agreement_trend(series({0: 0.9, 1: 0.1, 2: 0.2, 3: 0.4}))
    assert with_null.untrained == 0.9
    without = agreement_trend(series({1: 0.1, 2: 0.2, 3: 0.4}))
    assert without.untrained is None
    for trend in (with_null, without):
        assert trend.spearman == pytest.approx(1.0)
        assert (trend.first, trend.final) == (0.1, 0.4)
        assert trend.delta == 0.4 - 0.1


def test_trend_of_one_trained_epoch_is_flat():
    trend = agreement_trend(series({0: 0.3, 5: 0.2}))
    assert (trend.spearman, trend.delta) == (0.0, 0.0)
    assert (trend.first, trend.final, trend.untrained) == (0.2, 0.2, 0.3)
    with pytest.raises(UsageError):
        agreement_trend(series({0: 0.3}))


def test_csv_writers(tmp_path):
    pts = [TrajectoryPoint(1, "act-out-corr", 0.5, 0.25, 0.75),
           TrajectoryPoint(1, "act-precision", 0.5, 0.25, 0.8)]
    tpath = tmp_path / "trajectory.csv"
    write_trajectory_csv(tpath, pts)
    lines = tpath.read_text().strip().split("\n")
    assert lines[0] == "epoch,metric,val_accuracy,mean_jaccard,secondary_accuracy"
    assert len(lines) == 3
    lpath = tmp_path / "localization.csv"
    write_localization_csv(lpath, [("act-sum", 5, 0.9, 100, 90)])
    lines = lpath.read_text().strip().split("\n")
    assert lines[0] == "metric,n_top,localization_ratio,patches,hits"
    assert lines[1] == "act-sum,5,0.9,100,90"
