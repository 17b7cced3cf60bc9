#!/usr/bin/env python3
"""Print the memory peak and minor page faults of each explain phase.

On the reference network, one explain with every metric and the default
configuration (n = 50, sigma 0.1, layers 2..6, top 5) runs phase by phase,
as pipeline.explain and the CLI's patch cut run them: perturb, the query
image's trace, the batch walk with the batch metrics' reducer, scoring and
ranking, and deconvolution and cut for every metric. One 32-image
`loss_gradients` step follows. Each row gives the phase's tracemalloc peak
and what it leaves held, in MiB, and its minor page faults from
`resource.getrusage` of this process alone. The sequence runs once to warm
up, once for the fault counts and once under tracemalloc, so tracing
itself adds no faults. nproc and the numpy version follow the rows.

    OPENBLAS_NUM_THREADS=1 python3 scripts/mem_peaks.py

The package is imported from this script's own tree, whatever PYTHONPATH
says.
"""
import argparse
import os
import resource
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from patchlens.importance import METRICS, batch_reducer, rank, score_neurons  # noqa: E402
from patchlens.network import forward, forward_batch, loss_gradients, reference_network  # noqa: E402
from patchlens.perturbation import perturb_batch  # noqa: E402
from patchlens.pipeline import ExplainResult, PipelineConfig  # noqa: E402
from patchlens.tensor import DTYPE, Rng  # noqa: E402


def phases(net, image, xb, yb, cfg):
    """(name, call) pairs in run order; each call reads what the earlier
    ones left in `state`."""
    state = {}

    def perturb():
        state["noisy"] = perturb_batch(image, cfg.n, cfg.sigma, cfg.seed)

    def trace():
        state["original"] = forward(net, image)

    def walk():
        state["batch"] = forward_batch(net, state.pop("noisy"), cfg.layers(), batch_reducer(METRICS))

    def score():
        scores = score_neurons(net, state["original"], state.pop("batch"), cfg.layers(),
                               cfg.lambda_threshold, METRICS)
        state["result"] = ExplainResult(net, image, cfg, state.pop("original"), scores,
                                        {m: rank(scores[m], cfg.n_top) for m in METRICS})

    def cut():
        result = state.pop("result")
        for m in METRICS:
            result.patches(m)

    def step():
        loss_gradients(net, xb, yb)

    return [("perturb", perturb), ("query_trace", trace), ("batch_walk_reduced", walk),
            ("score_rank", score), ("deconvolve_cut", cut), ("loss_gradients_32", step)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="seed of the image and minibatch draws")
    args = ap.parse_args()
    net = reference_network(Rng(0, 2))
    image = Rng(args.seed, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    xb = Rng(args.seed, 2).uniform(0, 1, (32, 3, 32, 32)).astype(DTYPE)
    yb = np.arange(32) % 2
    cfg = PipelineConfig()

    for _, call in phases(net, image, xb, yb, cfg):
        call()
    faults = {}
    for name, call in phases(net, image, xb, yb, cfg):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print("phase\tpeak_mib\theld_mib\tminor_faults")
    tracemalloc.start()
    try:
        for name, call in phases(net, image, xb, yb, cfg):
            tracemalloc.reset_peak()
            call()
            held, peak = tracemalloc.get_traced_memory()
            print(f"{name}\t{peak / 2 ** 20:.2f}\t{held / 2 ** 20:.2f}\t{faults[name]}")
    finally:
        tracemalloc.stop()
    print(f"# nproc {os.cpu_count()}, numpy {np.__version__}")


if __name__ == "__main__":
    main()
