#!/usr/bin/env python3
"""Reproduce the full reference study end to end.

Trains the reference network on the 2000-image synthetic set (30 epochs,
fixed seed), runs the quantitative harness over every checkpoint, and
renders annotated explanations for the first masked validation positive.
About 7 minutes on a 2-core machine (387 s measured: 220 s training,
166 s harness); everything lands under --out.
"""
import argparse
import os
import sys
import time

from patchlens.cli import main as cli


def run(argv: list[str], t0: float) -> None:
    print(f"[{time.time() - t0:6.1f}s] $ patchlens {' '.join(argv)}", flush=True)
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def first_masked_val_positive(dataset_dir: str) -> tuple[str, str]:
    with open(os.path.join(dataset_dir, "labels.tsv")) as fh:
        for line in fh:
            name, label, split, mask = line.rstrip("\n").split("\t")
            if label == "1" and split == "val" and mask != "-":
                return (os.path.join(dataset_dir, name + ".ppm"),
                        os.path.join(dataset_dir, mask))
    raise SystemExit("dataset has no masked validation positive")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="study_out")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--images", default="2000")
    ap.add_argument("--epochs", default="30")
    args = ap.parse_args()
    t0 = time.time()

    train_dir = os.path.join(args.out, "train")
    run(["train", "--synthetic", args.images, "--epochs", args.epochs,
         "--seed", args.seed, "--out", train_dir], t0)

    dataset = os.path.join(train_dir, "dataset")
    checkpoints = os.path.join(train_dir, "checkpoints")
    run(["evaluate", "--checkpoints", checkpoints, "--data", dataset,
         "--metrics", "all", "--seed", args.seed,
         "--out", os.path.join(args.out, "harness")], t0)

    image, mask = first_masked_val_positive(dataset)
    final = sorted(f for f in os.listdir(checkpoints) if f.endswith(".nnwc"))[-1]
    run(["explain", "--weights", os.path.join(checkpoints, final),
         "--manifest", os.path.join(checkpoints, "network.manifest"),
         "--image", image, "--mask", mask, "--metric", "all",
         "--seed", args.seed, "--out", os.path.join(args.out, "explain")], t0)

    print(f"study complete: {args.out}/harness/report.txt")


if __name__ == "__main__":
    main()
