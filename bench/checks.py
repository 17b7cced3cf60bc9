"""Checks of the program's output files against the float64 reference and
against properties the method must have. Every check returns a list of
problems; an empty list means the output passed.

None of these compares against a stored copy of earlier output. Where the
reference and the program may legitimately disagree (an image whose top two
logits nearly tie, a correlation whose activation sums barely vary, a
channel whose mean activation sits on the lambda gate), that case is
skipped or allowed, never the whole check.
"""
from __future__ import annotations

import math
import os

import numpy as np

import reference
import synth

METRICS = ("act-sum", "act-var", "weight-sum", "weight-var", "act-out-corr", "act-precision")
LAYERS = range(2, 7)     # the explain default --layers 2..6
N_TOP = 5                # the explain default --top
LAMBDA = 1e-3            # the explain default --lambda
TIE_LOGIT = 1e-4         # top-two logit gap below which a prediction may flip
CORR_ATOL = 1e-4
F32_STEP = 2.0 ** -24     # float32 rounding step of a probability just below 1
CORR_TOL_MAX = 0.05       # the most |r| may differ, however coarse the float32 probability
PRINTED = 1e-8            # relative rounding of a score printed with 9 significant digits
CORR_MIN_SPREAD = 1e-4   # relative spread of activation sums below which r is ill-conditioned
DEAD_PEAK = 1e-5


def read_tsv(path, sep="\t") -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(sep)
    return [dict(zip(header, line.split(sep))) for line in lines[1:] if line]


def compare_dirs(a, b) -> list[str]:
    """Byte-for-byte equality of two output directories."""
    problems = []
    names_a = sorted(_files(a))
    names_b = sorted(_files(b))
    if names_a != names_b:
        return [f"rerun wrote different files: {sorted(set(names_a) ^ set(names_b))}"]
    for name in names_a:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"rerun differs in {name}")
    return problems


def _files(root) -> list[str]:
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out += [os.path.relpath(os.path.join(dirpath, f), root) for f in files]
    return out


def check_manifest(out_dir) -> list[str]:
    """MANIFEST.txt lists exactly the files the run wrote."""
    with open(os.path.join(out_dir, "MANIFEST.txt")) as fh:
        listed = sorted(line[5:] for line in fh.read().splitlines() if line.startswith("file="))
    actual = sorted(f for f in _files(out_dir) if f != "MANIFEST.txt")
    return [] if listed == actual else [f"MANIFEST.txt lists {listed}, directory holds {actual}"]


def _notes(out_dir) -> list[str]:
    with open(os.path.join(out_dir, "MANIFEST.txt")) as fh:
        return [line[5:] for line in fh.read().splitlines() if line.startswith("note=")]


def _accuracy_matches(net, images, labels, claimed: float, what: str) -> list[str]:
    """The claimed accuracy equals the reference's, up to images whose top two
    logits nearly tie."""
    logits, _, _, _ = reference.forward(net, images)
    right = int(np.sum(np.argmax(logits, axis=1) == labels))
    ties = int(np.sum(np.abs(logits[:, 0] - logits[:, 1]) < TIE_LOGIT))
    count = claimed * len(labels)
    if abs(count - round(count)) > 1e-6 or abs(round(count) - right) > ties:
        return [f"{what}: program {claimed} ({count:g} of {len(labels)}), reference {right} "
                f"right with {ties} near-ties"]
    return []


# ---------------------------------------------------------------------------
# explain

class ExplainOutput:
    """Parsed output directory of one `explain --metric all` run."""

    def __init__(self, out_dir):
        self.dir = out_dir
        self.scores = {}   # metric -> {(layer, channel): (value, degenerate, text)}
        for m in METRICS:
            rows = read_tsv(os.path.join(out_dir, f"scores_{m}.tsv"))
            self.scores[m] = {(int(r["layer"]), int(r["channel"])):
                              (float(r["value"]), r["degenerate"] == "1", r["value"]) for r in rows}
        self.ranked = {}   # (metric, layer) -> [(rank, channel, value text)]
        for r in read_tsv(os.path.join(out_dir, "ranked.tsv")):
            self.ranked.setdefault((r["metric"], int(r["layer"])), []).append(
                (int(r["rank"]), int(r["channel"]), r["value"]))
        self.patches = [{"metric": r["metric"], "layer": int(r["layer"]), "r": int(r["rank"]),
                         "channel": int(r["channel"]),
                         "bbox": tuple(int(r[k]) for k in ("top", "left", "height", "width"))}
                        for r in read_tsv(os.path.join(out_dir, "patches.tsv"))]
        self.dead = set()
        for note in _notes(out_dir):
            if ": dead reconstruction for layer " in note:
                metric, rest = note.split(": dead reconstruction for layer ")
                layer, channel = rest.split(" channel ")
                self.dead.add((metric, int(layer), int(channel)))

    def patch_for(self, metric, layer, channel):
        for p in self.patches:
            if (p["metric"], p["layer"], p["channel"]) == (metric, layer, channel):
                return p
        return None


def check_scores(out: ExplainOutput) -> list[str]:
    """Every neuron of layers 2..6 scored once per metric; |r| in [0, 1];
    degenerate rows carry 0."""
    problems = []
    for m in METRICS:
        layers = sorted({layer for layer, _ in out.scores[m]})
        if layers != list(LAYERS):
            problems.append(f"{m}: scored layers {layers}")
        for (layer, ch), (value, degenerate, _) in out.scores[m].items():
            if not math.isfinite(value):
                problems.append(f"{m} layer {layer} channel {ch}: value {value}")
            if degenerate and value != 0.0:
                problems.append(f"{m} layer {layer} channel {ch}: degenerate with value {value}")
            if m == "act-out-corr" and not 0.0 <= value <= 1.0:
                problems.append(f"act-out-corr layer {layer} channel {ch}: |r| = {value} outside [0, 1]")
    return problems


def check_ranking(out: ExplainOutput) -> list[str]:
    """Each layer's picks are the top live neurons by value, in value order.

    Scores are printed with 9 significant digits, so two printed-equal values
    may differ in the program; only a printed 0 is known to be an exact tie,
    and exact ties must go to the lower channel.
    """
    problems = []
    for m in METRICS:
        for layer in LAYERS:
            scores = {ch: s for (lay, ch), s in out.scores[m].items() if lay == layer}
            live = {ch: s[0] for ch, s in scores.items() if not s[1]}
            rows = out.ranked.get((m, layer), [])
            picks = [ch for _, ch, _ in rows]
            where = f"{m} layer {layer}"
            if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
                problems.append(f"{where}: ranks {[r for r, _, _ in rows]}")
            if len(picks) != min(N_TOP, len(live)):
                problems.append(f"{where}: {len(picks)} picks from {len(live)} live neurons")
            if len(set(picks)) != len(picks):
                problems.append(f"{where}: repeated picks {picks}")
            if any(ch not in live for ch in picks):
                problems.append(f"{where}: degenerate or unknown neuron picked {picks}")
                continue
            for _, ch, text in rows:
                if text != scores[ch][2]:
                    problems.append(f"{where}: ranked value {text} for channel {ch}, scored {scores[ch][2]}")
            for (a, b) in zip(picks, picks[1:]):
                if live[a] < live[b] or (live[a] == live[b] == 0.0 and a > b):
                    problems.append(f"{where}: channel {a} ({live[a]}) ranked before {b} ({live[b]})")
            if picks:
                last = picks[-1]
                for ch, v in live.items():
                    if ch in picks:
                        continue
                    if v > live[last] or (v == live[last] == 0.0 and ch < last):
                        problems.append(f"{where}: unpicked channel {ch} ({v}) beats pick {last} ({live[last]})")
    return problems


def check_patches(out: ExplainOutput, image) -> list[str]:
    """Every ranked neuron has exactly one patch or is a dead reconstruction;
    patch pixels equal the image crop. Patches are matched to ranked neurons
    by channel, since the rank in patches.tsv counts live patches only."""
    problems = []
    _, height, width = image.shape
    for (m, layer), rows in out.ranked.items():
        for _, ch, _ in rows:
            has_patch = out.patch_for(m, layer, ch) is not None
            if has_patch == ((m, layer, ch) in out.dead):
                problems.append(f"{m} layer {layer} channel {ch}: patch {has_patch}, "
                                f"dead {(m, layer, ch) in out.dead}")
    for p in out.patches:
        m, layer = p["metric"], p["layer"]
        if p["channel"] not in [ch for _, ch, _ in out.ranked.get((m, layer), [])]:
            problems.append(f"patch for unranked neuron {m} layer {layer} channel {p['channel']}")
        top, left, h, w = p["bbox"]
        if not (h >= 1 and w >= 1 and 0 <= top and top + h <= height and 0 <= left and left + w <= width):
            problems.append(f"{m} layer {layer} channel {p['channel']}: bbox {p['bbox']} outside the image")
            continue
        pixels = synth.read_pnm(os.path.join(out.dir, f"{m}_{layer}_{p['r']}.ppm"))
        if not np.array_equal(pixels, image[:, top:top + h, left:left + w]):
            problems.append(f"{m}_{layer}_{p['r']}.ppm: pixels differ from the image crop at {p['bbox']}")
    for m in METRICS:
        if synth.read_pnm(os.path.join(out.dir, f"annotated_{m}.ppm")).shape != image.shape:
            problems.append(f"annotated_{m}.ppm: wrong shape")
    return problems


def check_localization(out: ExplainOutput, mask) -> list[str]:
    """0 <= hits <= patches, and hits equal a recount of bboxes meeting the mask."""
    problems = []
    rows = {r["metric"]: r for r in read_tsv(os.path.join(out.dir, "localization.tsv"))}
    for m in METRICS:
        mine = [p for p in out.patches if p["metric"] == m]
        hits = sum(bool(mask[t:t + h, l:l + w].any()) for t, l, h, w in (p["bbox"] for p in mine))
        row = rows.get(m)
        if row is None:
            problems.append(f"localization.tsv: no row for {m}")
            continue
        n, k = int(row["patches"]), int(row["hits"])
        if not 0 <= k <= n:
            problems.append(f"localization.tsv {m}: hits {k} outside 0..{n}")
        if (n, k) != (len(mine), hits):
            problems.append(f"localization.tsv {m}: {k}/{n}, recount {hits}/{len(mine)}")
        if n and abs(float(row["ratio"]) - k / n) > 1e-9:
            problems.append(f"localization.tsv {m}: ratio {row['ratio']} for {k}/{n}")
    return problems


def check_reconstructions(out: ExplainOutput, net, image) -> list[str]:
    """One reference deconvolution per layer: the first ranked neuron under
    the first metric, in batch-metrics-first order, that ranks one. Its
    reconstruction's peak lies inside the program's bbox, or the program
    reported it dead and the reference reconstruction is zero too."""
    problems = []
    order = ("act-out-corr", "act-precision", "act-sum", "act-var", "weight-sum", "weight-var")
    for layer in LAYERS:
        metric = next((m for m in order if out.ranked.get((m, layer))), None)
        if metric is None:
            problems.append(f"layer {layer}: no metric ranks a neuron")
            continue
        ch = out.ranked[(metric, layer)][0][1]
        mag = np.abs(reference.deconvolve(net, image, layer, ch)).max(axis=0)
        peak = float(mag.max())
        where = f"{metric} layer {layer} channel {ch}"
        patch = out.patch_for(metric, layer, ch)
        if patch is None:
            if peak > DEAD_PEAK:
                problems.append(f"{where}: reported dead, reference peak {peak}")
            continue
        y, x = np.unravel_index(int(np.argmax(mag)), mag.shape)
        top, left, h, w = patch["bbox"]
        if not (top <= y < top + h and left <= x < left + w):
            problems.append(f"{where}: reference peak at ({y}, {x}) outside bbox {patch['bbox']}")
    return problems


def check_prediction(predicted_class: int, predicted_prob: float, net, image) -> list[str]:
    """The program's predicted class and probability for an image match the
    reference, the class only where the top two logits do not nearly tie."""
    logits, probs, _, _ = reference.forward(net, image[None])
    problems = []
    ref_class = int(np.argmax(logits[0]))
    if predicted_class != ref_class and abs(logits[0, 0] - logits[0, 1]) >= TIE_LOGIT:
        problems.append(f"predicted class {predicted_class}, reference {ref_class}")
    if not 0 <= predicted_class < probs.shape[1] or abs(predicted_prob - probs[0, predicted_class]) > 1e-5:
        problems.append(f"predicted probability {predicted_prob}, reference {probs[0]}")
    return problems


def corr_tolerance(out_std: float) -> float:
    """How far the program's |r| may lie from the reference's, given the
    spread of the float64 output probability across the batch."""
    return min(CORR_ATOL + 2 * F32_STEP / out_std, CORR_TOL_MAX) if out_std > 0 else CORR_TOL_MAX


def check_batch_metrics(out: ExplainOutput, net, image) -> list[str]:
    """act-out-corr and act-precision against values recomputed from the
    regenerated perturbation batch (explain defaults: n=50, sigma=0.1, seed 0).

    |r| may differ by CORR_ATOL plus the error that float32 rounding of the
    output probability can cause, 2 * 2^-24 / out_std, but never by more
    than CORR_TOL_MAX: where the probability is too coarse in float32 to give
    |r| that closely (a confidently classified image), a wrong |r| fails
    rather than passing under a tolerance of 1 or more. A program that flags
    a correlation degenerate must face constant activation sums. Precision
    may differ by the reference's float32 sensitivity bound plus the
    rounding of the printed value.
    """
    problems = []
    ref = reference.batch_metrics(net, image, LAYERS)
    for (layer, ch), (value, degenerate, _) in out.scores["act-out-corr"].items():
        r = ref[(layer, ch)]
        where = f"act-out-corr layer {layer} channel {ch}"
        tol = corr_tolerance(r["out_std"])
        if degenerate:
            if r["corr"] is not None and r["corr_spread"] > 1e-6:
                problems.append(f"{where}: degenerate, reference |r| {r['corr']}")
        elif r["corr"] is not None and r["corr_spread"] >= CORR_MIN_SPREAD and abs(value - r["corr"]) > tol:
            problems.append(f"{where}: {value}, reference {r['corr']} within {tol:.3g}")
    for (layer, ch), (value, degenerate, _) in out.scores["act-precision"].items():
        r = ref[(layer, ch)]
        where = f"act-precision layer {layer} channel {ch}"
        if abs(r["mean_abs"] - LAMBDA) < 0.01 * LAMBDA:
            continue
        if degenerate != (r["mean_abs"] < LAMBDA):
            problems.append(f"{where}: degenerate {degenerate}, reference mean |act| {r['mean_abs']}")
        elif not degenerate and abs(value - r["precision"]) > r["precision_tol"] + PRINTED * value:
            problems.append(f"{where}: {value}, reference {r['precision']} within {r['precision_tol']:.3g}")
    return problems


# ---------------------------------------------------------------------------
# train

def check_train(out_dir, epochs, train_x, train_y, val_x, val_y) -> list[str]:
    """train_log.tsv has one row per epoch whose accuracies match the
    reference on that epoch's checkpoint; every checkpoint loads."""
    problems = check_manifest(out_dir)
    rows = read_tsv(os.path.join(out_dir, "train_log.tsv"))
    if [int(r["epoch"]) for r in rows] != list(range(1, epochs + 1)):
        return problems + [f"train_log.tsv epochs {[r['epoch'] for r in rows]}"]
    ckpt = os.path.join(out_dir, "checkpoints")
    for r in rows:
        net = reference.load_net(os.path.join(ckpt, f"epoch_{int(r['epoch']):03d}.nnwc"),
                                 os.path.join(ckpt, "network.manifest"))
        problems += _accuracy_matches(net, train_x, train_y, float(r["train_acc"]), f"epoch {r['epoch']} train_acc")
        problems += _accuracy_matches(net, val_x, val_y, float(r["val_acc"]), f"epoch {r['epoch']} val_acc")
    return problems


def check_loss_falls(out_dir, epochs, train_x, train_y) -> list[str]:
    """The reference training loss after the last epoch is below that after
    the first."""
    ckpt = os.path.join(out_dir, "checkpoints")
    manifest = os.path.join(ckpt, "network.manifest")
    first, last = (reference.cross_entropy(reference.load_net(os.path.join(ckpt, f"epoch_{e:03d}.nnwc"), manifest),
                                           train_x, train_y) for e in (1, epochs))
    return [] if last < first else [f"training loss {first} after epoch 1, {last} after epoch {epochs}"]


# ---------------------------------------------------------------------------
# evaluate

def check_trajectory(out_dir, nets: dict, val_x, val_y, metrics) -> list[str]:
    """trajectory.csv: one row per (checkpoint, metric); val_accuracy matches
    the reference; Jaccard and secondary accuracy lie in [0, 1]."""
    problems = check_manifest(out_dir)
    rows = read_tsv(os.path.join(out_dir, "trajectory.csv"), sep=",")
    got = sorted((int(r["epoch"]), r["metric"]) for r in rows)
    if got != sorted((e, m) for e in nets for m in metrics):
        return problems + [f"trajectory.csv rows {got}"]
    for r in rows:
        epoch = int(r["epoch"])
        problems += _accuracy_matches(nets[epoch], val_x, val_y, float(r["val_accuracy"]),
                                      f"trajectory epoch {epoch} val_accuracy")
        for key in ("mean_jaccard", "secondary_accuracy"):
            if not 0.0 <= float(r[key]) <= 1.0:
                problems.append(f"trajectory epoch {epoch} {r['metric']}: {key} {r[key]}")
    return problems


def check_harness_localization(out_dir, metrics, n_images) -> list[str]:
    """localization.csv: 0 <= hits <= patches <= top x 5 layers x images,
    ratio = hits / patches, and top-5 counts never exceed top-20 counts."""
    problems = []
    rows = read_tsv(os.path.join(out_dir, "localization.csv"), sep=",")
    counts = {}
    for r in rows:
        m, top, n, k = r["metric"], int(r["n_top"]), int(r["patches"]), int(r["hits"])
        counts[(m, top)] = (n, k)
        if not 0 <= k <= n <= top * len(LAYERS) * n_images:
            problems.append(f"localization.csv {m} top-{top}: {k} hits of {n} patches")
        if n and abs(float(r["localization_ratio"]) - k / n) > 1e-9:
            problems.append(f"localization.csv {m} top-{top}: ratio {r['localization_ratio']} for {k}/{n}")
    for m in metrics:
        if (m, 5) not in counts or (m, 20) not in counts:
            problems.append(f"localization.csv: {m} lacks a top-5 or top-20 row")
            continue
        (n5, k5), (n20, k20) = counts[(m, 5)], counts[(m, 20)]
        if n5 > n20 or k5 > k20:
            problems.append(f"localization.csv {m}: top-5 {k5}/{n5} exceeds top-20 {k20}/{n20}")
    return problems
