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

from .errors import UsageError
from .network import ActivationTrace, BatchTrace, NetworkSpec
from .tensor import pearson_abs_columns, tensor_sum, variance

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


def _activation(trace: ActivationTrace | BatchTrace, layer: int) -> np.ndarray:
    """The layer's recorded maps: [C, H, W] from one trace, [N, C, H, W] from a batch."""
    try:
        return trace.conv_acts[layer]
    except KeyError:
        raise UsageError(f"trace has no recorded activations for conv layer {layer}") from None


def _layer_scores(layer: int, metric: str, values, degenerate=None) -> list[ImportanceScore]:
    """One score per channel; degenerate channels read 0.0."""
    values = np.asarray(values, dtype=np.float64)
    if degenerate is None:
        degenerate = np.zeros(len(values), dtype=bool)
    values = np.where(degenerate, 0.0, values).tolist()
    return [ImportanceScore(NeuronId(layer, c), metric, v, bool(d))
            for c, (v, d) in enumerate(zip(values, degenerate))]


def score_act_sum(trace: ActivationTrace, layer: int) -> list[ImportanceScore]:
    return _layer_scores(layer, "act-sum", tensor_sum(_activation(trace, layer), axis=(1, 2)))


def score_act_var(trace: ActivationTrace, layer: int) -> list[ImportanceScore]:
    return _layer_scores(layer, "act-var", variance(_activation(trace, layer), axis=(1, 2)))


def _weight_scores(net: NetworkSpec, layer: int, metric: str, stat) -> list[ImportanceScore]:
    """stat over the weights of conv layer l+1 that read each channel of
    layer l; every channel is degenerate on the last conv layer."""
    channels = net.conv_out_channels(layer)
    if layer == net.conv_count:
        return _layer_scores(layer, metric, np.zeros(channels), np.ones(channels, dtype=bool))
    # [C, O, kh, kw], contiguous per channel so each slice sums in its own cell order
    slices = np.ascontiguousarray(net.conv_layer(layer + 1).w.transpose(1, 0, 2, 3))
    return _layer_scores(layer, metric, stat(slices, axis=(1, 2, 3)))


def score_weight_sum(net: NetworkSpec, layer: int) -> list[ImportanceScore]:
    return _weight_scores(net, layer, "weight-sum", tensor_sum)


def score_weight_var(net: NetworkSpec, layer: int) -> list[ImportanceScore]:
    return _weight_scores(net, layer, "weight-var", variance)


def score_correlation(batch: BatchTrace, layer: int, ref_class: int) -> list[ImportanceScore]:
    """|Pearson r| between per-sample activation sum and the probability the
    network assigns to ref_class (the original image's predicted class)."""
    maps = _activation(batch, layer)
    if len(maps) < 2:
        raise UsageError("correlation needs a batch of at least 2 samples")
    r = pearson_abs_columns(tensor_sum(maps, axis=(2, 3)), batch.output[:, ref_class])
    return _layer_scores(layer, "act-out-corr", r, np.isnan(r))


# Channels scored together in precision; each block's float64 copy of the
# batch maps stays within about this many bytes.
_PRECISION_BLOCK_BYTES = 1 << 20


def score_precision(batch: BatchTrace, layer: int, cfg: PrecisionConfig) -> list[ImportanceScore]:
    """Mean over cells of 1 / Var_i(cell), Var floored at 1e-12.

    Channels whose mean absolute activation over the whole batch falls below
    lambda are degenerate: a dead channel is perfectly stable, and the floor
    would otherwise rank it at the top.
    """
    maps = _activation(batch, layer)
    n, channels = maps.shape[:2]
    if n < 2:
        raise UsageError("precision needs a batch of at least 2 samples")
    block = max(1, _PRECISION_BLOCK_BYTES // (8 * maps[:, 0].size))
    mean_abs, values = [], []
    for c0 in range(0, channels, block):
        # [b, N, H, W]: each channel's cells contiguous, in the order its
        # own [N, H, W] stack would sum them
        stack = np.ascontiguousarray(maps[:, c0:c0 + block].transpose(1, 0, 2, 3), dtype=np.float64)
        b = len(stack)
        mean_abs.append(np.abs(stack).reshape(b, -1).mean(axis=1))
        cell_var = variance(stack, axis=1)
        values.append((1.0 / np.maximum(cell_var, _VAR_FLOOR)).reshape(b, -1).mean(axis=1))
    return _layer_scores(layer, "act-precision", np.concatenate(values),
                         np.concatenate(mean_abs) < cfg.lambda_threshold)


def score_neurons(net: NetworkSpec, original: ActivationTrace,
                  batch: BatchTrace | None, cfg: PrecisionConfig,
                  metrics=METRICS) -> list[ImportanceScore]:
    """Score every neuron in cfg's layer range under the selected metrics.

    Baselines read the original image's trace; batch metrics read the
    perturbation batch's record (None when no batch metric is selected),
    with the correlation's output column fixed to the class predicted for
    the original image. Scores come in (metric, layer, channel) order.
    """
    lo, hi = cfg.layer_range
    if hi > net.conv_count:
        raise UsageError(f"layer range {cfg.layer_range} exceeds the network's {net.conv_count} conv layers")
    scores = []
    for metric in metrics:
        if metric not in METRICS:
            raise UsageError(f"unknown metric {metric!r}")
        for layer in cfg.layers():
            if metric == "act-sum":
                scores += score_act_sum(original, layer)
            elif metric == "act-var":
                scores += score_act_var(original, layer)
            elif metric == "weight-sum":
                scores += score_weight_sum(net, layer)
            elif metric == "weight-var":
                scores += score_weight_var(net, layer)
            elif metric == "act-out-corr":
                scores += score_correlation(batch, layer, original.predicted_class)
            elif metric == "act-precision":
                scores += score_precision(batch, layer, cfg)
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
