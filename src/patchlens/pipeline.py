"""End-to-end explanation of one image: perturb, trace, score, rank, cut.

explain() is the single entry point the CLI and the evaluation harness both
build on. It returns the query image's own trace, the scores, the ranked
sets and the patches, so nothing is recomputed; the perturbation batch's
record is read by the scoring step and then dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deconvnet import PatchSet, extract_top_patches
from .errors import UsageError
from .importance import (METRICS, ImportanceScore, PrecisionConfig, RankedSet,
                         rank, score_neurons)
from .network import ActivationTrace, NetworkSpec, forward, forward_batch
from .perturbation import PerturbationConfig, perturb_batch


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
        self.precision_config()  # checks lambda, the top count and the layer range

    def precision_config(self) -> PrecisionConfig:
        return PrecisionConfig(self.lambda_threshold, self.n_top, self.layer_range)

    def perturbation_config(self) -> PerturbationConfig:
        return PerturbationConfig(self.n, self.sigma, 1.0, self.seed)


@dataclass
class ExplainResult:
    original: ActivationTrace
    scores: list[ImportanceScore]
    ranked: dict[str, RankedSet]
    patch_sets: dict[str, PatchSet]


def explain(net: NetworkSpec, image: np.ndarray, cfg: PipelineConfig,
            metrics=METRICS) -> ExplainResult:
    """Full pipeline for one image under the selected metrics.

    The perturbation batch drives only the two batch metrics' scores, and
    its walk keeps only the layer range's conv maps; every deconvolution
    starts from the unperturbed image's own trace.
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
    perturbation = cfg.perturbation_config() if needs_batch else None
    pcfg = cfg.precision_config()
    original = forward(net, image)
    batch = None
    if needs_batch:
        batch = forward_batch(net, perturb_batch(image, perturbation), pcfg.layers())
    scores = score_neurons(net, original, batch, pcfg, metrics)
    ranked = {m: rank(scores, m, pcfg) for m in metrics}
    patch_sets = {m: extract_top_patches(net, original, ranked[m], image, cfg.eps)
                  for m in metrics}
    return ExplainResult(original, scores, ranked, patch_sets)
