"""End-to-end explanation of one image: perturb, trace, score, rank, cut.

explain() is the single entry point the CLI and the evaluation harness both
build on. It returns the query image's own trace, the scores and the ranked
sets; the perturbation batch's record is read by the scoring step and then
dropped. Patches are cut on demand, per metric and top-N, from the query
image's trace: each neuron is deconvolved at most once per result, so a
caller that reads only the rankings deconvolves nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deconvnet import PatchSet, extract_top_patches
from .errors import UsageError
from .importance import (METRICS, ImportanceScore, NeuronId, PrecisionConfig,
                         RankedSet, rank, score_neurons)
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
    net: NetworkSpec
    image: np.ndarray
    cfg: PipelineConfig
    original: ActivationTrace
    scores: list[ImportanceScore]
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
            pcfg = PrecisionConfig(self.cfg.lambda_threshold, n_top, self.cfg.layer_range)
            ranked = rank(self.scores, metric, pcfg)
        return extract_top_patches(self.net, self.original, ranked, self.image,
                                   self.cfg.eps, self.reconstructions)


def explain(net: NetworkSpec, image: np.ndarray, cfg: PipelineConfig,
            metrics=METRICS) -> ExplainResult:
    """Scores and rankings for one image under the selected metrics.

    The perturbation batch drives only the two batch metrics' scores, and
    its walk keeps only the layer range's conv maps; every deconvolution
    starts from the unperturbed image's own trace, when patches() asks.
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
    return ExplainResult(net, image, cfg, original, scores, ranked)
