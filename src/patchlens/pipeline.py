"""End-to-end explanation of one image: perturb, trace, score, rank, cut.

explain() is the single entry point the CLI and the evaluation harness both
build on. It returns the query image's own trace, the scores (one
LayerScores record per metric and layer) and the ranked sets; the
perturbation batch's record is read by the scoring step and then dropped.
Patches are cut on demand, per metric and top-N, from the query
image's trace: each neuron is deconvolved at most once per result, so a
caller that reads only the rankings deconvolves nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deconvnet import PatchSet, extract_top_patches
from .errors import UsageError
from .importance import (METRICS, LayerScores, NeuronId, RankedSet, batch_reducer,
                         rank, score_neurons)
from .network import ActivationTrace, NetworkSpec, forward, forward_batch
from .perturbation import perturb_batch


@dataclass
class PipelineConfig:
    n: int = 50
    sigma: float = 0.1
    seed: int = 0
    n_top: int = 5
    layer_range: tuple[int, int] = (2, 6)
    eps: float = 0.1
    lambda_threshold: float = 1e-3

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise UsageError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0 <= self.lambda_threshold < math.inf:
            raise UsageError(f"lambda must be finite and >= 0, got {self.lambda_threshold}")
        if self.n_top < 1:
            raise UsageError(f"top count must be >= 1, got {self.n_top}")
        lo, hi = self.layer_range
        if lo < 1 or hi < lo:
            raise UsageError(f"bad layer range {self.layer_range}")

    def layers(self) -> range:
        return range(self.layer_range[0], self.layer_range[1] + 1)


@dataclass
class ExplainResult:
    net: NetworkSpec
    image: np.ndarray
    cfg: PipelineConfig
    original: ActivationTrace
    scores: dict[str, list[LayerScores]]  # metric -> one record per layer
    ranked: dict[str, RankedSet]
    # NeuronId -> reconstruction from the query image's trace, filled by patches()
    reconstructions: dict[NeuronId, np.ndarray] = field(default_factory=dict)

    def patches(self, metric: str, n_top: int | None = None) -> PatchSet:
        """One metric's top-N patches per layer; N defaults to cfg.n_top.

        Another N re-ranks the same scores; neurons deconvolved by an
        earlier cut are reused.
        """
        if metric not in self.ranked:
            raise UsageError(f"metric {metric!r} was not scored in this explanation")
        ranked = self.ranked[metric]
        if n_top is not None and n_top != self.cfg.n_top:
            ranked = rank(self.scores[metric], n_top)
        return extract_top_patches(self.net, self.original, ranked, self.image,
                                   self.cfg.eps, self.reconstructions)


def explain(net: NetworkSpec, image: np.ndarray, cfg: PipelineConfig,
            metrics=METRICS) -> ExplainResult:
    """Scores and rankings for one image under the selected metrics.

    Every input check runs before the first forward pass, so the batch
    (whose draw checks n and sigma) is drawn before the query image's
    trace. The perturbation batch drives only the two batch
    metrics' scores, and its walk keeps, of each conv map in the layer
    range, only what those metrics read of it; every deconvolution starts
    from the unperturbed image's own trace, when patches() asks.
    """
    metrics = tuple(metrics)
    if not metrics:
        raise UsageError("no metrics selected")
    for m in metrics:
        if m not in METRICS:
            raise UsageError(f"unknown metric {m!r} (choose from {', '.join(METRICS)})")
    if cfg.layer_range[1] > net.conv_count:
        raise UsageError(f"layer range {cfg.layer_range} exceeds the network's {net.conv_count} conv layers")
    needs_batch = any(m in ("act-out-corr", "act-precision") for m in metrics)
    noisy = perturb_batch(image, cfg.n, cfg.sigma, cfg.seed) if needs_batch else None
    original = forward(net, image)
    batch = forward_batch(net, noisy, cfg.layers(), batch_reducer(metrics)) if needs_batch else None
    scores = score_neurons(net, original, batch, cfg.layers(), cfg.lambda_threshold, metrics)
    ranked = {m: rank(scores[m], cfg.n_top) for m in metrics}
    return ExplainResult(net, image, cfg, original, scores, ranked)
