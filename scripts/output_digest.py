#!/usr/bin/env python3
"""Print a sha256 for every file a fixed small job writes.

The job trains on 96 synthetic images for 2 epochs, explains one positive
and one negative with every metric on the last checkpoint, and evaluates
the two-checkpoint series, all in a temporary directory that is removed
afterwards. Each output file gives one `sha256  path` line, sorted by path.
MANIFEST.txt is hashed without its `arg.` lines, which echo the temporary
paths. --seed takes one seed or a comma list; the job runs once per seed,
and each seed's lines follow a `# seed <s>` line.

The job runs the package in this script's own tree, whatever PYTHONPATH
says, so digesting two checkouts and diffing the output checks that they
write the same bytes:

    python3 scripts/output_digest.py --seed 4,11 > a.txt
    python3 ../other/scripts/output_digest.py --seed 4,11 > b.txt
    diff a.txt b.txt
"""
import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from patchlens.cli import main as cli  # noqa: E402


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli(argv)
    if rc != 0:
        sys.exit(f"patchlens {' '.join(argv)} exited {rc}")


def first_of_each_label(dataset_dir: str) -> dict[str, tuple[str, str]]:
    """{label: (name, mask)} for the first listed image of each label."""
    picked = {}
    with open(os.path.join(dataset_dir, "labels.tsv")) as fh:
        for line in fh:
            name, label, _split, mask = line.rstrip("\n").split("\t")
            picked.setdefault(label, (name, mask))
    return picked


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "MANIFEST.txt":
        data = b"".join(l for l in data.splitlines(keepends=True) if not l.startswith(b"arg."))
    return hashlib.sha256(data).hexdigest()


def digest_job(seed: str) -> None:
    with tempfile.TemporaryDirectory() as out:
        train_dir = os.path.join(out, "train")
        run(["train", "--synthetic", "96", "--epochs", "2", "--seed", seed, "--out", train_dir])
        dataset = os.path.join(train_dir, "dataset")
        checkpoints = os.path.join(train_dir, "checkpoints")
        for label, (name, mask) in sorted(first_of_each_label(dataset).items()):
            argv = ["explain", "--weights", os.path.join(checkpoints, "epoch_002.nnwc"),
                    "--manifest", os.path.join(checkpoints, "network.manifest"),
                    "--image", os.path.join(dataset, name + ".ppm"), "--metric", "all",
                    "--seed", seed, "--out", os.path.join(out, f"explain_{label}")]
            if mask != "-":
                argv += ["--mask", os.path.join(dataset, mask)]
            run(argv)
        run(["evaluate", "--checkpoints", checkpoints, "--data", dataset,
             "--seed", seed, "--out", os.path.join(out, "evaluate")])

        paths = sorted(os.path.relpath(os.path.join(root, f), out).replace(os.sep, "/")
                       for root, _dirs, files in os.walk(out) for f in files)
        print(f"# seed {seed}")
        for rel in paths:
            print(f"{digest(os.path.join(out, rel))}  {rel}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", default="0", help="one seed or a comma list, e.g. 4,11")
    args = ap.parse_args()
    for seed in args.seed.split(","):
        digest_job(seed.strip())


if __name__ == "__main__":
    main()
