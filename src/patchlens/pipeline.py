"""End-to-end explanation of one image: perturb, trace, score, rank, cut.

explain() is the single entry point the CLI and the evaluation harness both
build on; it returns everything the downstream consumers need (traces,
scores, ranked sets, patches) so nothing is recomputed.
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

    The perturbation batch drives only the two batch metrics' scores; every
    deconvolution starts from the unperturbed image's own trace.
    """
    metrics = tuple(metrics)
    if not metrics:
        raise UsageError("no metrics selected")
    for m in metrics:
        if m not in METRICS:
            raise UsageError(f"unknown metric {m!r} (choose from {', '.join(METRICS)})")
    original = forward(net, image, record=True)
    needs_batch = any(m in ("act-out-corr", "act-precision") for m in metrics)
    traces: list[ActivationTrace] = []
    if needs_batch:
        batch = perturb_batch(image, cfg.perturbation_config())
        traces = forward_batch(net, batch)
    pcfg = cfg.precision_config()
    scores = score_neurons(net, original, traces, pcfg, metrics)
    ranked = {m: rank(scores, m, pcfg) for m in metrics}
    patch_sets = {m: extract_top_patches(net, original, ranked[m], image, cfg.eps)
                  for m in metrics}
    return ExplainResult(original, scores, ranked, patch_sets)
