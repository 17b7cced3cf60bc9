"""End-to-end gate over the published claims, at their stated tolerances.

One module-scoped fixture performs the full reference experiment (2000-image
synthetic set, 30 training epochs); the criterion tests read it. Each test
emits a single PASS/FAIL verdict line, echoed immediately when capture is
off and repeated in the end-of-run summary block either way.
"""
import os
import time

import numpy as np
import pytest

from patchlens.cli import main
from patchlens.deconvnet import extract_patch
from patchlens.evaluation import (
    agreement_trend,
    convergence_study,
    dataset_split,
    generate_dataset,
    harness_sets,
    harvest_patches,
    localization_study,
    train_secondary,
)
from patchlens.importance import (
    LayerScores,
    NeuronId,
    RankedSet,
    jaccard,
    rank,
    score_act_var,
)
from patchlens.network import (
    ConvLayer,
    MaxPoolLayer,
    conv_forward,
    conv_input_grad,
    evaluate_accuracy,
    maxpool_forward,
    reference_network,
    train,
    TrainConfig,
)
from patchlens.pipeline import PipelineConfig
from patchlens.tensor import DTYPE, Rng, pearson_abs

import conftest
from oracles import (
    naive_maxpool,
    run_gradcheck,
    two_pass_pearson_abs,
    two_pass_variance,
)
from test_importance import fake_trace

# The train subcommand defaults to --lr 0.05, which collapses on some small
# sets; the gate keeps 0.02 until one shared default is chosen (ROADMAP item 2).
REFERENCE_LR = 0.02
EARLY_EPOCHS = (1, 2, 3, 4, 5)


def report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    conftest.verdict_lines.append(line)
    return line


@pytest.fixture(scope="module")
def reference_run():
    """The full published experiment: fixed-seed dataset, 30-epoch training."""
    images = generate_dataset(2000, Rng(0, 1))
    train_set = dataset_split(images, "train")
    val_set = dataset_split(images, "val")
    val_x = np.stack([im.image for im in val_set])
    val_y = np.array([im.label for im in val_set])
    net = reference_network(Rng(0, 2))
    t0 = time.monotonic()
    result = train(net, [im.image for im in train_set],
                   [im.label for im in train_set],
                   TrainConfig(epochs=30, lr=REFERENCE_LR), Rng(0, 3))
    train_seconds = time.monotonic() - t0
    probes, positives = harness_sets(val_set)
    return {
        # epoch 0 is the untrained net, rebuilt from its seed: train updates net in place
        "checkpoints": [(0, reference_network(Rng(0, 2)))]
                       + list(enumerate(result.checkpoints, start=1)),
        "final": result.net,
        "probes": probes,
        "positives": positives,
        "val_x": val_x,
        "val_y": val_y,
        "cfg": PipelineConfig(),
        "train_seconds": train_seconds,
    }


# ---------------------------------------------------------------------------
# numeric identities

def test_numeric_identities():
    t0 = time.monotonic()

    adjoint_worst = 0.0
    for i in range(100):
        r = Rng(5000 + i, 0)
        ci = int(r.split(0).integers(1, 4))
        co = int(r.split(1).integers(1, 4))
        k = int(r.split(2).integers(1, 4))
        stride = int(r.split(3).integers(1, 3))
        pad = int(r.split(4).integers(0, 2))
        side = int(r.split(5).integers(k + 2, 11))
        w = (r.split(6).uniform(0, 1, (co, ci, k, k)) - 0.5).astype(DTYPE)
        layer = ConvLayer(w, np.zeros(co, dtype=DTYPE), stride=stride, pad=pad)
        x = (r.split(7).uniform(0, 1, (1, ci, side, side)) - 0.2).astype(DTYPE)
        out = conv_forward(x, layer)
        c = int(r.split(8).integers(0, co))
        y = np.zeros_like(out)
        y[:, c] = (r.split(9).uniform(0, 1, out.shape[2:]) - 0.5).astype(DTYPE)
        lhs = float(np.sum(out.astype(np.float64) * y))
        rhs = float(np.sum(x.astype(np.float64) * conv_input_grad(y, layer, x.shape)))
        denom = max(abs(lhs), abs(rhs), 1e-6)
        adjoint_worst = max(adjoint_worst, abs(lhs - rhs) / denom)

    pearson_worst = 0.0
    variance_worst = 0.0
    for i in range(100):
        r = Rng(6000 + i, 0)
        xs = np.asarray(r.uniform(0, 1, (40,)), dtype=DTYPE)
        ys = np.asarray(r.split(1).uniform(0, 1, (40,)), dtype=DTYPE)
        got = pearson_abs(xs, ys)
        want = two_pass_pearson_abs(xs.tolist(), ys.tolist())
        pearson_worst = max(pearson_worst, abs(got - want))
        m = r.split(2).uniform(0, 1, (1, 6, 6)).astype(DTYPE)
        v = score_act_var(fake_trace({1: m}), 1).values[0]
        variance_worst = max(variance_worst, abs(v - two_pass_variance(m)))

    grad_worst = run_gradcheck(20)
    seconds = time.monotonic() - t0

    ok = (adjoint_worst < 1e-4 and pearson_worst < 1e-9
          and variance_worst < 1e-9 and grad_worst < 1e-2 and seconds < 30)
    line = report("numeric identities", ok,
                  f"adjoint {adjoint_worst:.2e}, pearson {pearson_worst:.2e}, "
                  f"variance {variance_worst:.2e}, gradcheck {grad_worst:.2e}, {seconds:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# structural invariants

def test_structural_invariants():
    t0 = time.monotonic()

    for seed in range(40):
        r = Rng(7100 + seed, 0)
        x = r.uniform(0, 1, (1, 2, 8, 8)).astype(DTYPE)
        layer = MaxPoolLayer(2, 2)
        pooled, switches = maxpool_forward(x, layer)
        want_pool, want_arg = naive_maxpool(x[0], 2, 2)
        assert np.array_equal(pooled[0], want_pool.astype(DTYPE))
        assert np.array_equal(switches[0], want_arg)
        from patchlens.deconvnet import unpool
        up = unpool(pooled[0], switches[0], (2, 8, 8))
        assert np.count_nonzero(up) <= pooled[0].size
        nz = np.nonzero(up)
        for ch, row, col in zip(*nz):
            assert up[ch, row, col] in pooled[0][ch]
        re_pooled, _ = maxpool_forward(up[None], layer)
        assert np.array_equal(re_pooled[0], pooled[0])

    for seed in range(40):
        rec = Rng(7200 + seed, 0).uniform(0, 1, (1, 12, 12)).astype(DTYPE) ** 4
        img = np.ones((1, 12, 12), dtype=DTYPE)
        boxes = []
        for eps in (0.05, 0.2, 0.5, 0.9):
            t, l, h, w = extract_patch(img, rec, NeuronId(1, 0), eps=eps).bbox
            boxes.append((t, l, t + h, l + w))
        for small, big in zip(boxes[1:], boxes[:-1]):
            assert small[0] >= big[0] and small[1] >= big[1]
            assert small[2] <= big[2] and small[3] <= big[3]

    for seed in range(40):
        r = Rng(7300 + seed, 0)
        vals = r.uniform(0, 1, (64,)).tolist()
        dead = set(np.flatnonzero(r.split(1).uniform(0, 1, (64,)) < 0.2).tolist())
        is_dead = np.array([ch in dead for ch in range(64)])
        scores = LayerScores("act-sum", 1, np.where(is_dead, 0.0, vals), is_dead)
        rs = rank([scores], 5)
        order = sorted((ch for ch in range(64) if ch not in dead),
                       key=lambda ch: (-vals[ch], ch))[:5]
        assert rs.layers[1] == [NeuronId(1, ch) for ch in order]

    def ranked(chans):
        rs = RankedSet("act-sum", (1, 1))
        rs.layers[1] = [NeuronId(1, c) for c in sorted(chans)]
        return rs

    for seed in range(60):
        r = Rng(7400 + seed, 0)
        xs = {r.integers(0, 10) for _ in range(r.integers(0, 7))}
        ys = {r.integers(0, 10) for _ in range(r.integers(0, 7))}
        a, b = ranked(xs), ranked(ys)
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        assert (j == 1.0) == (xs == ys)
        assert jaccard(a, a) == 1.0

    seconds = time.monotonic() - t0
    ok = seconds < 60
    line = report("structural invariants", ok,
                  f"switches, unpool, bbox/eps, rank order, jaccard; {seconds:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# metric agreement grows with training

def test_agreement_grows_with_training(reference_run):
    t0 = time.monotonic()
    points = convergence_study(reference_run["checkpoints"], reference_run["probes"],
                               reference_run["val_x"], reference_run["val_y"],
                               reference_run["cfg"], Rng(0, 4), secondary_epochs=0)
    seconds = time.monotonic() - t0
    trend = agreement_trend(points)
    total = reference_run["train_seconds"] + seconds
    ok = trend.spearman > 0.3 and trend.delta >= 0.1 and total < 1200
    line = report("agreement trend", ok,
                  f"spearman {trend.spearman:.3f}, first {trend.first:.3f}, "
                  f"final {trend.final:.3f}, delta {trend.delta:.3f}, "
                  f"untrained {trend.untrained:.3f}, train+study {total:.0f}s")
    assert ok, line


def test_reference_validation_accuracy(reference_run):
    acc = evaluate_accuracy(reference_run["final"], reference_run["val_x"],
                            reference_run["val_y"])
    assert acc >= 0.90


# ---------------------------------------------------------------------------
# patch informativeness

def test_patch_classifier_accuracy(reference_run):
    cfg = reference_run["cfg"]
    probes = reference_run["probes"]
    ckpt = dict(reference_run["checkpoints"])
    metrics = ("act-out-corr", "act-precision")
    cuts = {e: harvest_patches(ckpt[e], probes, cfg, metrics)
            for e in EARLY_EPOCHS + (30,)}
    votes = []
    details = []
    for s in range(3):
        acc = {(e, m): train_secondary(p, lab, Rng(900 + s, 4))
               for e, per_metric in cuts.items()
               for m, (p, lab) in per_metric.items()}
        final_prec = acc[(30, "act-precision")]
        early_prec = float(np.mean([acc[(e, "act-precision")] for e in EARLY_EPOCHS]))
        early_corr = float(np.mean([acc[(e, "act-out-corr")] for e in EARLY_EPOCHS]))
        votes.append(final_prec >= 0.75 and early_prec >= early_corr)
        details.append(f"s{s}: final {final_prec:.2f}, early prec {early_prec:.2f} "
                       f"vs corr {early_corr:.2f}")
    ok = sum(votes) >= 2
    line = report("patch classifier", ok, "; ".join(details))
    assert ok, line


# ---------------------------------------------------------------------------
# localization

def test_patch_localization(reference_run):
    rows = localization_study(reference_run["final"], reference_run["positives"],
                              reference_run["cfg"], n_tops=(5,))
    ratio = {m: r for m, n, r, total, hits in rows}
    precision = ratio["act-precision"]
    baselines = {m: ratio[m] for m in ("act-sum", "act-var", "weight-sum", "weight-var")}
    ok = precision >= 0.7 and all(precision >= r - 0.05 for r in baselines.values())
    line = report("localization", ok,
                  f"precision {precision:.3f} vs " +
                  ", ".join(f"{m} {r:.3f}" for m, r in baselines.items()))
    assert ok, line


# ---------------------------------------------------------------------------
# determinism

def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_byte_identical_reruns(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        rc = main(["train", "--synthetic", "60", "--epochs", "2", "--lr", "0.02",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        runs.append(tree_bytes(out))
    train_same = runs[0] == runs[1]

    image = None
    with open(tmp_path / "train_a" / "dataset" / "labels.tsv") as fh:
        for line in fh:
            name, label, split, mask = line.split("\t")
            if label == "1":
                image = str(tmp_path / "train_a" / "dataset" / (name + ".ppm"))
                break
    weights = str(tmp_path / "train_a" / "checkpoints" / "epoch_002.nnwc")
    manifest = str(tmp_path / "train_a" / "checkpoints" / "network.manifest")
    explains = []
    for tag in ("a", "b"):
        out = tmp_path / f"explain_{tag}"
        rc = main(["explain", "--weights", weights, "--manifest", manifest,
                   "--image", image, "--metric", "all", "--n", "16",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        explains.append(tree_bytes(out))
    explain_same = explains[0] == explains[1]

    ok = train_same and explain_same
    line = report("determinism", ok,
                  f"train dirs identical: {train_same}, explain dirs identical: "
                  f"{explain_same}, {len(explains[0])} files compared")
    assert ok, line


# ---------------------------------------------------------------------------
# permutation null

def test_shuffled_label_null(reference_run):
    cfg = reference_run["cfg"]
    cuts = harvest_patches(reference_run["final"], reference_run["probes"], cfg,
                           ("act-precision",))
    patches, labels = cuts["act-precision"]
    labels = np.asarray(labels)
    accs = []
    for s in range(10):
        r = Rng(1200 + s, 4)
        shuffled = labels[r.permutation(len(labels))]
        if len(set(shuffled.tolist())) < 2:
            continue
        accs.append(train_secondary(patches, shuffled.tolist(), r.split(1)))
    mean = float(np.mean(accs))
    ok = 0.35 <= mean <= 0.65
    line = report("permutation null", ok,
                  f"mean {mean:.3f} over {len(accs)} reshuffles, "
                  f"range {min(accs):.2f}..{max(accs):.2f}")
    assert ok, line
