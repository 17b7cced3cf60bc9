import math
import os
import shutil

import numpy as np
import pytest

from patchlens import deconvnet, network
from patchlens.cli import main
from patchlens.evaluation import dataset_split, read_dataset
from patchlens.imageio import write_pgm, write_ppm
from patchlens.importance import METRICS
from patchlens.tensor import DTYPE


def tree_bytes(root):
    seen = {}
    for base, _dirs, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                seen[rel] = fh.read()
    return seen


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--synthetic", "14", "--epochs", "1", "--lr", "0.02",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    return out


def positive_val_image(trained):
    lines = (trained / "dataset" / "labels.tsv").read_text().strip().split("\n")
    for line in lines:  # labels.tsv has no header row
        name, label, split, mask = line.split("\t")
        if label == "1" and split == "val" and mask != "-":
            return (trained / "dataset" / f"{name}.ppm",
                    trained / "dataset" / mask)
    raise AssertionError("no masked positive val image in tiny dataset")


# ---------------------------------------------------------------------------
# train

def test_train_layout(trained):
    assert (trained / "dataset" / "labels.tsv").exists()
    assert (trained / "checkpoints" / "epoch_000.nnwc").exists()
    assert (trained / "checkpoints" / "epoch_001.nnwc").exists()
    assert (trained / "checkpoints" / "network.manifest").exists()
    log = (trained / "train_log.tsv").read_text().strip().split("\n")
    assert log[0] == "epoch\ttrain_acc\tval_acc\tloss"
    assert len(log) == 2 and log[1].startswith("1\t")
    loss = float(dict(zip(log[0].split("\t"), log[1].split("\t")))["loss"])
    assert math.isfinite(loss) and loss > 0
    manifest = (trained / "MANIFEST.txt").read_text()
    assert manifest.startswith("run=train\n")
    assert "arg.epochs=1" in manifest
    assert "file=checkpoints/epoch_001.nnwc" in manifest
    assert "file=MANIFEST.txt" not in manifest


def test_train_zero_epochs(tmp_path):
    rc = main(["train", "--synthetic", "6", "--epochs", "0", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    ckpts = sorted(os.listdir(tmp_path / "checkpoints"))
    assert ckpts == ["epoch_000.nnwc", "network.manifest"]
    log = (tmp_path / "train_log.tsv").read_text()
    assert log == "epoch\ttrain_acc\tval_acc\tloss\n"


def test_train_rerun_byte_identical(tmp_path):
    args = ["train", "--synthetic", "10", "--epochs", "1", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_train_from_directory(trained, tmp_path):
    rc = main(["train", "--data", str(trained / "dataset"), "--epochs", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "checkpoints" / "epoch_000.nnwc").exists()


def test_train_log_accuracies_are_the_checkpoints(tmp_path):
    # seed 1's accuracies change from epoch to epoch, so a row computed on
    # any net other than its own epoch's checkpoint shows
    rc = main(["train", "--synthetic", "40", "--epochs", "3", "--lr", "0.05", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    dataset = read_dataset(tmp_path / "dataset")
    splits = {}
    for split in ("train", "val"):
        images = dataset_split(dataset, split)
        splits[split] = (np.stack([im.image for im in images]), [im.label for im in images])
    log = (tmp_path / "train_log.tsv").read_text().strip().split("\n")
    assert len(log) == 4
    rows = [row.split("\t") for row in log[1:]]
    assert len({row[1] for row in rows}) == 3
    for epoch, train_acc, val_acc, _loss in rows:
        net = network.load_weights(tmp_path / "checkpoints" / f"epoch_{int(epoch):03d}.nnwc",
                                   tmp_path / "checkpoints" / "network.manifest")
        assert train_acc == f"{network.evaluate_accuracy(net, *splits['train']):.9g}"
        assert val_acc == f"{network.evaluate_accuracy(net, *splits['val']):.9g}"


def test_train_divergence_exit_code(tmp_path):
    with np.errstate(all="ignore"):
        rc = main(["train", "--synthetic", "50", "--epochs", "1", "--lr", "1e39",
                   "--seed", "2", "--out", str(tmp_path)])
    assert rc == 3


# ---------------------------------------------------------------------------
# explain

def explain_args(trained, out, extra=()):
    image, mask = positive_val_image(trained)
    return ["explain",
            "--weights", str(trained / "checkpoints" / "epoch_001.nnwc"),
            "--manifest", str(trained / "checkpoints" / "network.manifest"),
            "--image", str(image), "--n", "8", "--seed", "3",
            "--out", str(out)] + list(extra)


def test_explain_all_metrics_layout(trained, tmp_path):
    rc = main(explain_args(trained, tmp_path, ["--metric", "all"]))
    assert rc == 0
    files = set(os.listdir(tmp_path))
    for m in METRICS:
        assert f"annotated_{m}.ppm" in files
        assert f"scores_{m}.tsv" in files
    assert "ranked.tsv" in files and "patches.tsv" in files
    assert "MANIFEST.txt" in files
    # every patch row has a matching crop file on disk
    rows = (tmp_path / "patches.tsv").read_text().strip().split("\n")[1:]
    for row in rows:
        metric, layer, r, channel, top, left, h, w = row.split("\t")
        assert f"{metric}_{layer}_{r}.ppm" in files
        assert int(h) >= 1 and int(w) >= 1
        assert 0 <= int(top) < 32 and 0 <= int(left) < 32


def test_patches_numbered_by_rank_after_dead_reconstruction(trained, tmp_path, monkeypatch):
    # the first neuron walked back (first metric, lowest layer, rank 1)
    # comes back all zero, so its patch is dead for every metric that ranks it
    real = deconvnet.deconvolve_channels
    victim = []

    def deconvolve_channels(net, trace, layer, channels):
        out = real(net, trace, layer, channels)
        if not victim:
            victim.append((layer, int(channels[0])))
        for row, ch in zip(out, channels):
            if (layer, int(ch)) == victim[0]:
                row[...] = 0
        return out

    monkeypatch.setattr(deconvnet, "deconvolve_channels", deconvolve_channels)
    assert main(explain_args(trained, tmp_path, ["--metric", "all"])) == 0
    ranked = {tuple(row.split("\t")[:4])
              for row in (tmp_path / "ranked.tsv").read_text().strip().split("\n")[1:]}
    patches = [tuple(row.split("\t")[:4])
               for row in (tmp_path / "patches.tsv").read_text().strip().split("\n")[1:]]
    assert patches and all(p in ranked for p in patches)
    layer, channel = str(victim[0][0]), str(victim[0][1])
    dead = {r for r in ranked if (r[1], r[3]) == (layer, channel)}
    assert dead and not dead & set(patches)
    for metric, _, rank, _ in dead:
        assert not (tmp_path / f"{metric}_{layer}_{rank}.ppm").exists()
    assert "dead reconstruction" in (tmp_path / "MANIFEST.txt").read_text()


def test_explain_walks_each_distinct_neuron_once(trained, tmp_path, walked_neurons):
    assert main(explain_args(trained, tmp_path, ["--metric", "all"])) == 0
    ranked = [row.split("\t") for row in (tmp_path / "ranked.tsv").read_text().strip().split("\n")[1:]]
    distinct = {(int(layer), int(channel)) for _, layer, _, channel, _ in ranked}
    assert len(ranked) > len(distinct)  # metrics share neurons
    assert sorted(walked_neurons) == sorted(distinct)


def test_explain_single_metric(trained, tmp_path):
    rc = main(explain_args(trained, tmp_path, ["--metric", "act-sum"]))
    assert rc == 0
    files = os.listdir(tmp_path)
    assert "annotated_act-sum.ppm" in files
    assert not any(f.startswith("annotated_act-var") for f in files)


def test_explain_rerun_byte_identical(trained, tmp_path):
    assert main(explain_args(trained, tmp_path / "a")) == 0
    assert main(explain_args(trained, tmp_path / "b")) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_explain_with_mask_localization(trained, tmp_path):
    image, mask = positive_val_image(trained)
    rc = main(explain_args(trained, tmp_path, ["--mask", str(mask)]))
    assert rc == 0
    rows = (tmp_path / "localization.tsv").read_text().strip().split("\n")
    assert rows[0] == "metric\tratio\tpatches\thits"
    assert len(rows) == 1 + len(METRICS)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_layout(trained, tmp_path):
    rc = main(["evaluate", "--checkpoints", str(trained / "checkpoints"),
               "--data", str(trained / "dataset"),
               "--metrics", "act-out-corr,act-precision",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "epoch,metric,val_accuracy,mean_jaccard,secondary_accuracy"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 4  # 2 checkpoints x 2 metrics
    for metric in ("act-out-corr", "act-precision"):
        assert sum(1 for r in body if r[1] == metric) == 2
    assert (tmp_path / "localization.csv").exists()
    report = (tmp_path / "report.txt").read_text().split("\n")
    # one trained epoch: the trend is flat, and epoch 0 is its null row
    jaccard0 = next(r[3] for r in body if r[0] == "0")
    assert "trend over trained epochs: spearman 0, " in "\n".join(report)
    assert f"untrained null (epoch 0, outside the trend): jaccard {jaccard0}" in report
    assert "run=evaluate" in (tmp_path / "MANIFEST.txt").read_text()


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors(tmp_path, trained):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--synthetic", "1", "--epochs", "0",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(explain_args(trained, tmp_path / "y", ["--metric", "no-such"])) == 1
    assert main(explain_args(trained, tmp_path / "z", ["--layers", "potato"])) == 1
    assert main(explain_args(trained, tmp_path / "w", ["--metric", "act-sum,act-sum"])) == 1
    assert main(["evaluate", "--checkpoints", str(trained / "checkpoints"),
                 "--data", str(trained / "dataset"), "--metrics", "act-var,act-sum,act-var",
                 "--out", str(tmp_path / "v")]) == 1


@pytest.mark.parametrize("extra", [
    ["--eps", "1.5"],
    ["--layers", "2..9"],
    ["--top", "0"],
    ["--n", "1"],
    ["--sigma", "0"],
    ["--sigma", "inf"],
    ["--lambda", "nan"],
])
def test_bad_explain_input_fails_before_any_forward(trained, tmp_path, conv_calls, extra):
    assert main(explain_args(trained, tmp_path, extra)) == 1
    assert conv_calls == []


def test_baseline_metrics_need_no_batch(trained, tmp_path, conv_calls):
    rc = main(explain_args(trained, tmp_path, ["--metric", "act-sum,weight-var", "--n", "1"]))
    assert rc == 0
    assert conv_calls == [1] * 7  # the query image through the reference net's 7 convs


@pytest.mark.parametrize("split, field, value", [
    ("train", 1, "7"),
    ("val", 1, "7"),
    ("val", 2, "vall"),
])
def test_bad_dataset_row_is_a_data_error(trained, tmp_path, capsys, split, field, value):
    data = tmp_path / "data"
    shutil.copytree(trained / "dataset", data)
    rows = [row.split("\t") for row in (data / "labels.tsv").read_text().strip().split("\n")]
    lineno = next(i for i, row in enumerate(rows, 1) if row[2] == split)
    rows[lineno - 1][field] = value
    (data / "labels.tsv").write_text("\n".join("\t".join(row) for row in rows) + "\n")
    rc = main(["train", "--data", str(data), "--epochs", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"labels.tsv:{lineno}: " in capsys.readouterr().err


def test_missing_weights_exit_code(trained, tmp_path):
    args = explain_args(trained, tmp_path)
    args[args.index("--weights") + 1] = str(tmp_path / "nowhere.nnwc")
    assert main(args) == 2


def test_corrupt_weights_exit_code(trained, tmp_path):
    bad = tmp_path / "bad.nnwc"
    bad.write_bytes(b"XXXX not a container")
    args = explain_args(trained, tmp_path / "out")
    args[args.index("--weights") + 1] = str(bad)
    assert main(args) == 2


def test_wrong_image_shape_exit_code(trained, tmp_path):
    small = tmp_path / "small.ppm"
    write_ppm(small, np.zeros((3, 16, 16), dtype=DTYPE))
    args = explain_args(trained, tmp_path / "out")
    args[args.index("--image") + 1] = str(small)
    assert main(args) == 2


def test_single_checkpoint_exit_code(trained, tmp_path):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / "network.manifest").write_bytes(
        (trained / "checkpoints" / "network.manifest").read_bytes())
    (ckpts / "epoch_000.nnwc").write_bytes(
        (trained / "checkpoints" / "epoch_000.nnwc").read_bytes())
    rc = main(["evaluate", "--checkpoints", str(ckpts),
               "--data", str(trained / "dataset"), "--out", str(tmp_path / "out")])
    assert rc == 2
