"""Neuron importance: six scoring metrics, per-layer top-N ranking, Jaccard.

A "neuron" is one output channel of a conv layer. Four baseline metrics look
at a single trace of the query image (activation sum/variance of the
channel's map, and sum/variance of the next conv layer's weights reading the
channel). The two batch metrics look across the perturbation batch: the
magnitude of the correlation between per-sample activation and the
network's output, and the mean reciprocal across-batch cell variance
("precision", high when the channel responds stably under input noise).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCorrelationError, UsageError
from .network import ActivationTrace, BatchTrace, NetworkSpec
from .tensor import pearson_abs, tensor_sum, variance

METRICS = ("act-sum", "act-var", "weight-sum", "weight-var", "act-out-corr", "act-precision")

# Reciprocal cap for near-constant cells: across-batch variances below
# _VAR_FLOOR all contribute the same maximal stability credit.
_VAR_FLOOR = 1e-12


class NeuronId(NamedTuple):
    layer: int    # conv layer index, 1-based
    channel: int  # output channel, 0-based


@dataclass(frozen=True)
class ImportanceScore:
    neuron: NeuronId
    metric: str
    value: float
    degenerate: bool = False


@dataclass
class PrecisionConfig:
    """Knobs for batch-metric scoring and top-N selection."""
    lambda_threshold: float = 1e-3
    n_top: int = 5
    layer_range: tuple[int, int] = (2, 6)

    def __post_init__(self):
        if self.lambda_threshold < 0:
            raise UsageError(f"lambda must be >= 0, got {self.lambda_threshold}")
        if self.n_top < 1:
            raise UsageError(f"top count must be >= 1, got {self.n_top}")
        lo, hi = self.layer_range
        if lo < 1 or hi < lo:
            raise UsageError(f"bad layer range {self.layer_range}")

    def layers(self) -> range:
        return range(self.layer_range[0], self.layer_range[1] + 1)


@dataclass
class RankedSet:
    metric: str
    layer_range: tuple[int, int]
    layers: dict[int, list[NeuronId]] = field(default_factory=dict)
    # layer -> how many of the requested N could not be filled with
    # non-degenerate neurons
    shortfalls: dict[int, int] = field(default_factory=dict)

    def selected(self) -> frozenset[NeuronId]:
        return frozenset(n for picks in self.layers.values() for n in picks)


def _activation(trace: ActivationTrace | BatchTrace, neuron: NeuronId) -> np.ndarray:
    """The neuron's recorded map: [H, W] from one trace, [N, H, W] from a batch."""
    try:
        acts = trace.conv_acts[neuron.layer]
    except KeyError:
        raise UsageError(f"trace has no recorded activations for conv layer {neuron.layer}") from None
    channels = acts.shape[-3]
    if not 0 <= neuron.channel < channels:
        raise UsageError(f"channel {neuron.channel} outside layer {neuron.layer}'s {channels} channels")
    return acts[..., neuron.channel, :, :]


def score_act_sum(trace: ActivationTrace, neuron: NeuronId) -> ImportanceScore:
    return ImportanceScore(neuron, "act-sum", tensor_sum(_activation(trace, neuron)))


def score_act_var(trace: ActivationTrace, neuron: NeuronId) -> ImportanceScore:
    return ImportanceScore(neuron, "act-var", variance(_activation(trace, neuron)))


def _next_conv_slice(net: NetworkSpec, neuron: NeuronId):
    """Weights of conv layer l+1 that read channel c of layer l, or None."""
    if neuron.layer + 1 > net.conv_count:
        return None
    nxt = net.conv_layer(neuron.layer + 1)
    if neuron.channel >= nxt.w.shape[1]:
        return None
    return nxt.w[:, neuron.channel, :, :]


def score_weight_sum(net: NetworkSpec, neuron: NeuronId) -> ImportanceScore:
    sl = _next_conv_slice(net, neuron)
    if sl is None:
        return ImportanceScore(neuron, "weight-sum", 0.0, degenerate=True)
    return ImportanceScore(neuron, "weight-sum", tensor_sum(sl))


def score_weight_var(net: NetworkSpec, neuron: NeuronId) -> ImportanceScore:
    sl = _next_conv_slice(net, neuron)
    if sl is None:
        return ImportanceScore(neuron, "weight-var", 0.0, degenerate=True)
    return ImportanceScore(neuron, "weight-var", variance(sl))


def score_correlation(batch: BatchTrace, neuron: NeuronId,
                      ref_class: int) -> ImportanceScore:
    """|Pearson r| between per-sample activation sum and the probability the
    network assigns to ref_class (the original image's predicted class)."""
    maps = _activation(batch, neuron)
    if len(maps) < 2:
        raise UsageError("correlation needs a batch of at least 2 samples")
    sums = [tensor_sum(m) for m in maps]
    outs = batch.output[:, ref_class]
    try:
        value = pearson_abs(sums, outs)
    except DegenerateCorrelationError:
        return ImportanceScore(neuron, "act-out-corr", 0.0, degenerate=True)
    return ImportanceScore(neuron, "act-out-corr", value)


def score_precision(batch: BatchTrace, neuron: NeuronId,
                    cfg: PrecisionConfig) -> ImportanceScore:
    """Mean over cells of 1 / Var_i(cell), Var floored at 1e-12.

    Channels whose mean absolute activation over the whole batch falls below
    lambda are degenerate: a dead channel is perfectly stable, and the floor
    would otherwise rank it at the top.
    """
    maps = _activation(batch, neuron)
    if len(maps) < 2:
        raise UsageError("precision needs a batch of at least 2 samples")
    stack = maps.astype(np.float64)
    if float(np.mean(np.abs(stack))) < cfg.lambda_threshold:
        return ImportanceScore(neuron, "act-precision", 0.0, degenerate=True)
    cell_var = stack.var(axis=0)
    value = float(np.mean(1.0 / np.maximum(cell_var, _VAR_FLOOR)))
    return ImportanceScore(neuron, "act-precision", value)


def score_neurons(net: NetworkSpec, original: ActivationTrace,
                  batch: BatchTrace | None, cfg: PrecisionConfig,
                  metrics=METRICS) -> list[ImportanceScore]:
    """Score every neuron in cfg's layer range under the selected metrics.

    Baselines read the original image's trace; batch metrics read the
    perturbation batch's record (None when no batch metric is selected),
    with the correlation's output column fixed to the class predicted for
    the original image.
    """
    lo, hi = cfg.layer_range
    if hi > net.conv_count:
        raise UsageError(f"layer range {cfg.layer_range} exceeds the network's {net.conv_count} conv layers")
    scores = []
    for metric in metrics:
        if metric not in METRICS:
            raise UsageError(f"unknown metric {metric!r}")
        for layer in cfg.layers():
            for channel in range(net.conv_out_channels(layer)):
                neuron = NeuronId(layer, channel)
                if metric == "act-sum":
                    scores.append(score_act_sum(original, neuron))
                elif metric == "act-var":
                    scores.append(score_act_var(original, neuron))
                elif metric == "weight-sum":
                    scores.append(score_weight_sum(net, neuron))
                elif metric == "weight-var":
                    scores.append(score_weight_var(net, neuron))
                elif metric == "act-out-corr":
                    scores.append(score_correlation(batch, neuron, original.predicted_class))
                elif metric == "act-precision":
                    scores.append(score_precision(batch, neuron, cfg))
    return scores


def rank(scores: list[ImportanceScore], metric: str, cfg: PrecisionConfig) -> RankedSet:
    """Top-N per layer by descending score, ties to the lower channel index.

    Degenerate neurons never rank; layers that cannot fill N record a
    shortfall instead of failing.
    """
    if metric not in METRICS:
        raise UsageError(f"unknown metric {metric!r}")
    per_layer: dict[int, list[ImportanceScore]] = {layer: [] for layer in cfg.layers()}
    if not per_layer:
        raise UsageError("empty layer range")
    for s in scores:
        if s.metric == metric and s.neuron.layer in per_layer:
            per_layer[s.neuron.layer].append(s)
    out = RankedSet(metric, cfg.layer_range)
    for layer, rows in per_layer.items():
        live = [s for s in rows if not s.degenerate]
        live.sort(key=lambda s: (-s.value, s.neuron.channel))
        picks = [s.neuron for s in live[:cfg.n_top]]
        out.layers[layer] = picks
        if len(picks) < cfg.n_top:
            out.shortfalls[layer] = cfg.n_top - len(picks)
    return out


def jaccard(a: RankedSet, b: RankedSet) -> float:
    """|A∩B| / |A∪B| over the union of all layers' selections; 1.0 for two
    empty sets (identical empties)."""
    if a.layer_range != b.layer_range:
        raise UsageError(f"layer ranges differ: {a.layer_range} vs {b.layer_range}")
    sa, sb = a.selected(), b.selected()
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def score_dump_text(scores: list[ImportanceScore]) -> str:
    """Tab-separated score table, sorted by (metric, layer, rank).

    Rank order within a layer is descending value with ascending-channel
    tie-break; degenerate rows sort after live ones, by channel.
    """
    def key(s: ImportanceScore):
        return (s.metric, s.neuron.layer, s.degenerate, -s.value if not s.degenerate else 0.0, s.neuron.channel)

    lines = ["layer\tchannel\tmetric\tvalue\tdegenerate"]
    for s in sorted(scores, key=key):
        lines.append(f"{s.neuron.layer}\t{s.neuron.channel}\t{s.metric}\t{s.value:.9g}\t{int(s.degenerate)}")
    return "\n".join(lines) + "\n"
