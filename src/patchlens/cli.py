"""Command line: train a reference net, explain one image, run the harness.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data or file-format error, 3 numeric failure. Every run writes a
MANIFEST.txt inventory of its output files; reruns with identical arguments
produce byte-identical output directories.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DataFormatError, NumericError, UsageError
from .evaluation import (convergence_study, dataset_split, generate_dataset,
                         harness_sets, localization_study, patch_hits,
                         read_dataset, write_dataset, write_localization_csv,
                         write_report_text, write_trajectory_csv)
from .imageio import annotate_patches, read_pgm, read_ppm, write_ppm
from .importance import METRICS, score_dump_text
from .network import (TrainConfig, evaluate_accuracy, load_weights,
                      reference_network, save_weights, train)
from .pipeline import PipelineConfig, explain
from .tensor import Rng

# stream ids under the master seed, one per independent random consumer
_STREAM_DATASET = 1
_STREAM_INIT = 2
_STREAM_TRAIN = 3
_STREAM_SECONDARY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"seed must fit in 64 unsigned bits, got {text}")
    return seed


def _parse_layers(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise UsageError(f"layer range must look like a..b, got {text!r}")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"layer range must look like a..b with integers, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad layer range {text!r}")
    return lo, hi


def _parse_metrics(text: str) -> tuple[str, ...]:
    if text == "all":
        return METRICS
    names = tuple(t for t in text.split(",") if t)
    if not names:
        raise UsageError("empty metric list")
    for name in names:
        if name not in METRICS:
            raise UsageError(f"unknown metric {name!r} (choose from {', '.join(METRICS)} or all)")
    if len(set(names)) != len(names):
        raise UsageError(f"metric list {text!r} names a metric more than once")
    return names


def _prepare_out(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise UsageError(f"output directory {path!r} is not writable: {exc}") from None
    return path


def _write_manifest(out_dir: str, run: str, args_echo: list[tuple[str, object]],
                    notes: list[str]) -> None:
    names = []
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), out_dir)
            if rel != "MANIFEST.txt":
                names.append(rel.replace(os.sep, "/"))
    lines = [f"run={run}"]
    lines += [f"arg.{k}={v}" for k, v in args_echo]
    lines += [f"note={n}" for n in notes]
    lines += [f"file={n}" for n in sorted(names)]
    with open(os.path.join(out_dir, "MANIFEST.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.9g}"


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> None:
    out = _prepare_out(args.out)
    seed = args.seed
    if args.synthetic is not None:
        if args.synthetic < 2:
            raise UsageError(f"--synthetic needs at least 2 images, got {args.synthetic}")
        dataset = generate_dataset(args.synthetic, Rng(seed, _STREAM_DATASET))
        write_dataset(dataset, os.path.join(out, "dataset"))
    else:
        dataset = read_dataset(args.data)
    train_set = dataset_split(dataset, "train")
    val_set = dataset_split(dataset, "val")
    if not train_set:
        raise DataFormatError("dataset has no train-split images")

    net = reference_network(Rng(seed, _STREAM_INIT))
    ckpt_dir = os.path.join(out, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    save_weights(net, os.path.join(ckpt_dir, "epoch_000.nnwc"),
                 os.path.join(ckpt_dir, "network.manifest"))

    x = np.stack([im.image for im in train_set])
    y = np.asarray([im.label for im in train_set], dtype=np.int64)
    val_x = np.stack([im.image for im in val_set]) if val_set else None
    val_y = np.asarray([im.label for im in val_set], dtype=np.int64) if val_set else None

    log = ["epoch\ttrain_acc\tval_acc\tloss"]
    result = train(net, x, y, TrainConfig(epochs=args.epochs, lr=args.lr), Rng(seed, _STREAM_TRAIN))
    for epoch, (loss, snapshot) in enumerate(zip(result.losses, result.checkpoints), start=1):
        save_weights(snapshot, os.path.join(ckpt_dir, f"epoch_{epoch:03d}.nnwc"),
                     os.path.join(ckpt_dir, "network.manifest"))
        train_acc = evaluate_accuracy(snapshot, x, y)
        val_acc = evaluate_accuracy(snapshot, val_x, val_y) if val_set else float("nan")
        log.append(f"{epoch}\t{_fmt(train_acc)}\t{_fmt(val_acc)}\t{_fmt(loss)}")
    with open(os.path.join(out, "train_log.tsv"), "w") as fh:
        fh.write("\n".join(log) + "\n")

    echo = [("epochs", args.epochs), ("lr", args.lr), ("seed", seed)]
    echo.append(("synthetic", args.synthetic) if args.synthetic is not None else ("data", args.data))
    _write_manifest(out, "train", echo, [])


# ---------------------------------------------------------------------------
# explain

def cmd_explain(args) -> None:
    out = _prepare_out(args.out)
    metrics = _parse_metrics(args.metric)
    net = load_weights(args.weights, args.manifest)
    image = read_ppm(args.image)
    if tuple(image.shape) != net.input_shape:
        raise DataFormatError(f"{args.image}: image shape {tuple(image.shape)} "
                              f"does not match network input {net.input_shape}")
    mask = None
    if args.mask:
        mask = read_pgm(args.mask) > 0.5
        if mask.shape != image.shape[1:]:
            raise DataFormatError(f"{args.mask}: mask shape {mask.shape} "
                                  f"does not match image {image.shape[1:]}")
    cfg = PipelineConfig(n=args.n, sigma=args.sigma, seed=args.seed, n_top=args.top,
                         layer_range=args.layers, eps=args.eps,
                         lambda_threshold=args.lambda_threshold)
    result = explain(net, image, cfg, metrics=metrics)

    notes = []
    ranked_rows = ["metric\tlayer\trank\tchannel\tvalue"]
    patch_rows = ["metric\tlayer\trank\tchannel\ttop\tleft\theight\twidth"]
    patch_sets = {}
    for metric in metrics:
        records = result.scores[metric]
        with open(os.path.join(out, f"scores_{metric}.tsv"), "w") as fh:
            fh.write(score_dump_text(records))
        ranked = result.ranked[metric]
        rank_of = {}
        for rec in records:
            values = rec.values.tolist()
            for rank_i, neuron in enumerate(ranked.layers[rec.layer], start=1):
                rank_of[neuron] = rank_i
                ranked_rows.append(f"{metric}\t{rec.layer}\t{rank_i}\t{neuron.channel}"
                                   f"\t{_fmt(values[neuron.channel])}")
        for layer, missing in sorted(ranked.shortfalls.items()):
            notes.append(f"{metric}: layer {layer} short {missing} of {cfg.n_top} neurons")
        patch_set = patch_sets[metric] = result.patches(metric)
        if not patch_set.patches:
            notes.append(f"{metric}: no live patches (degenerate result)")
        # numbered by the neuron's rank in ranked.tsv, so a dead
        # reconstruction leaves a gap rather than shifting later patches
        for patch in patch_set.patches:
            layer, r = patch.neuron.layer, rank_of[patch.neuron]
            write_ppm(os.path.join(out, f"{metric}_{layer}_{r}.ppm"), patch.pixels)
            top, left, height, width = patch.bbox
            patch_rows.append(f"{metric}\t{layer}\t{r}\t{patch.neuron.channel}"
                              f"\t{top}\t{left}\t{height}\t{width}")
        for neuron in patch_set.dead:
            notes.append(f"{metric}: dead reconstruction for layer {neuron.layer} "
                         f"channel {neuron.channel}")
        annotated = annotate_patches(image, patch_set.patches, cfg.layer_range)
        write_ppm(os.path.join(out, f"annotated_{metric}.ppm"), annotated)

    with open(os.path.join(out, "ranked.tsv"), "w") as fh:
        fh.write("\n".join(ranked_rows) + "\n")
    with open(os.path.join(out, "patches.tsv"), "w") as fh:
        fh.write("\n".join(patch_rows) + "\n")
    if mask is not None:
        loc_rows = ["metric\tratio\tpatches\thits"]
        for metric in metrics:
            patches = patch_sets[metric].patches
            if patches:
                hits = patch_hits(patches, mask)
                loc_rows.append(f"{metric}\t{_fmt(hits / len(patches))}\t{len(patches)}\t{hits}")
            else:
                loc_rows.append(f"{metric}\t-\t0\t0")
        with open(os.path.join(out, "localization.tsv"), "w") as fh:
            fh.write("\n".join(loc_rows) + "\n")

    echo = [("eps", args.eps), ("image", args.image), ("lambda", args.lambda_threshold),
            ("layers", f"{cfg.layer_range[0]}..{cfg.layer_range[1]}"),
            ("metric", args.metric), ("n", args.n), ("seed", args.seed),
            ("sigma", args.sigma), ("top", args.top), ("weights", args.weights)]
    if args.mask:
        echo.append(("mask", args.mask))
    _write_manifest(out, "explain", echo, notes)


# ---------------------------------------------------------------------------
# evaluate

def _discover_checkpoints(ckpt_dir: str):
    if not os.path.isdir(ckpt_dir):
        raise UsageError(f"checkpoint directory {ckpt_dir!r} does not exist")
    manifest = os.path.join(ckpt_dir, "network.manifest")
    if not os.path.exists(manifest):
        raise DataFormatError(f"{ckpt_dir}: no network.manifest topology sidecar")
    found = []
    for name in sorted(os.listdir(ckpt_dir)):
        if name.startswith("epoch_") and name.endswith(".nnwc"):
            try:
                epoch = int(name[len("epoch_"):-len(".nnwc")])
            except ValueError:
                raise DataFormatError(f"{ckpt_dir}: cannot parse epoch from {name!r}") from None
            found.append((epoch, load_weights(os.path.join(ckpt_dir, name), manifest)))
    if len(found) < 2:
        raise DataFormatError(f"{ckpt_dir}: need at least 2 epoch_*.nnwc checkpoints, found {len(found)}")
    return sorted(found, key=lambda t: t[0])


def cmd_evaluate(args) -> None:
    out = _prepare_out(args.out)
    metrics = _parse_metrics(args.metrics)
    checkpoints = _discover_checkpoints(args.checkpoints)
    dataset = read_dataset(args.data)
    val_set = dataset_split(dataset, "val")
    if not val_set:
        raise DataFormatError(f"{args.data}: dataset has no val-split images")
    val_x = np.stack([im.image for im in val_set])
    val_y = np.asarray([im.label for im in val_set], dtype=np.int64)
    probes, positives = harness_sets(val_set)

    cfg = PipelineConfig(seed=args.seed, layer_range=args.layers)
    points = convergence_study(checkpoints, probes, val_x, val_y, cfg,
                               Rng(args.seed, _STREAM_SECONDARY), metrics=metrics)
    loc_rows = localization_study(checkpoints[-1][1], positives, cfg, metrics=metrics)

    write_trajectory_csv(os.path.join(out, "trajectory.csv"), points)
    write_localization_csv(os.path.join(out, "localization.csv"), loc_rows)
    write_report_text(os.path.join(out, "report.txt"), points, loc_rows)
    echo = [("checkpoints", args.checkpoints), ("data", args.data),
            ("layers", f"{cfg.layer_range[0]}..{cfg.layer_range[1]}"),
            ("metrics", args.metrics), ("seed", args.seed)]
    _write_manifest(out, "evaluate", echo, [])


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> _Parser:
    parser = _Parser(prog="patchlens",
                     description="Explain a small CNN's image classification with "
                                 "perturbation-ranked neurons and deconvolution patches.")
    sub = parser.add_subparsers(dest="command", metavar="{train,explain,evaluate}")

    p_train = sub.add_parser("train", help="train the reference network", parents=[])
    group = p_train.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="dataset directory (labels.tsv index)")
    group.add_argument("--synthetic", type=int, metavar="COUNT",
                       help="generate COUNT synthetic images and train on them")
    p_train.add_argument("--epochs", type=int, default=30)
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--seed", type=_parse_seed, default=0)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_explain = sub.add_parser("explain", help="explain one image's classification")
    p_explain.add_argument("--weights", required=True)
    p_explain.add_argument("--manifest", required=True)
    p_explain.add_argument("--image", required=True)
    p_explain.add_argument("--mask")
    p_explain.add_argument("--metric", default="all",
                           help="one of the six metric names, a comma list, or all")
    p_explain.add_argument("--n", type=int, default=50, help="perturbation sample count")
    p_explain.add_argument("--sigma", type=float, default=0.1)
    p_explain.add_argument("--top", type=int, default=5)
    p_explain.add_argument("--layers", type=_parse_layers, default=(2, 6), metavar="A..B")
    p_explain.add_argument("--eps", type=float, default=0.1)
    p_explain.add_argument("--lambda", dest="lambda_threshold", type=float, default=1e-3)
    p_explain.add_argument("--seed", type=_parse_seed, default=0)
    p_explain.add_argument("--out", required=True)
    p_explain.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("evaluate", help="run the quantitative harness")
    p_eval.add_argument("--checkpoints", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--metrics", default="all")
    p_eval.add_argument("--layers", type=_parse_layers, default=(2, 6), metavar="A..B")
    p_eval.add_argument("--seed", type=_parse_seed, default=0)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing subcommand (train, explain, or evaluate)")
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
