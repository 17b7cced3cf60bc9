"""Neuron importance: six scoring metrics, per-layer top-N ranking, Jaccard.

A "neuron" is one output channel of a conv layer. Four baseline metrics look
at a single trace of the query image (activation sum/variance of the
channel's map, and sum/variance of the next conv layer's weights reading the
channel). The two batch metrics look across the perturbation batch: the
magnitude of the correlation between per-sample activation and the
network's output, and the mean reciprocal across-batch cell variance
("precision", high when the channel responds stably under input noise).

Scores stay per layer from scorer to file: each metric gives one LayerScores
record per conv layer, and LayerScores.order is the one definition of a
layer's rank order, read by both the top-N selection and the score dump.
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
class LayerScores:
    """One metric's scores for every channel of one conv layer.

    Degenerate channels (no usable score) read 0.0 and never rank.
    """
    metric: str
    layer: int               # conv layer index, 1-based
    values: np.ndarray       # float64 [C]
    degenerate: np.ndarray   # bool [C]

    def order(self) -> np.ndarray:
        """Channels in rank order: live ones by descending value, ties to
        the lower channel, then degenerate ones by channel."""
        channels = np.arange(len(self.values))
        return np.lexsort((channels, -self.values, self.degenerate))


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


def _layer_scores(layer: int, metric: str, values, degenerate=None) -> LayerScores:
    """The layer's record, with degenerate channels' values set to 0.0."""
    values = np.asarray(values, dtype=np.float64)
    if degenerate is None:
        degenerate = np.zeros(len(values), dtype=bool)
    return LayerScores(metric, layer, np.where(degenerate, 0.0, values), degenerate)


def score_act_sum(trace: ActivationTrace, layer: int) -> LayerScores:
    return _layer_scores(layer, "act-sum", tensor_sum(_activation(trace, layer), axis=(1, 2)))


def score_act_var(trace: ActivationTrace, layer: int) -> LayerScores:
    return _layer_scores(layer, "act-var", variance(_activation(trace, layer), axis=(1, 2)))


def _weight_scores(net: NetworkSpec, layer: int, metric: str, stat) -> LayerScores:
    """stat over the weights of conv layer l+1 that read each channel of
    layer l; every channel is degenerate on the last conv layer."""
    channels = net.conv_out_channels(layer)
    if layer == net.conv_count:
        return _layer_scores(layer, metric, np.zeros(channels), np.ones(channels, dtype=bool))
    # [C, O, kh, kw], contiguous per channel so each slice sums in its own cell order
    slices = np.ascontiguousarray(net.conv_layer(layer + 1).w.transpose(1, 0, 2, 3))
    return _layer_scores(layer, metric, stat(slices, axis=(1, 2, 3)))


def score_weight_sum(net: NetworkSpec, layer: int) -> LayerScores:
    return _weight_scores(net, layer, "weight-sum", tensor_sum)


def score_weight_var(net: NetworkSpec, layer: int) -> LayerScores:
    return _weight_scores(net, layer, "weight-var", variance)


def score_correlation(batch: BatchTrace, layer: int, ref_class: int) -> LayerScores:
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


def score_precision(batch: BatchTrace, layer: int, lambda_threshold: float) -> LayerScores:
    """Mean over cells of 1 / Var_i(cell), Var floored at 1e-12.

    Channels whose mean absolute activation over the whole batch falls below
    lambda_threshold are degenerate: a dead channel is perfectly stable, and
    the floor would otherwise rank it at the top.
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
                         np.concatenate(mean_abs) < lambda_threshold)


def score_neurons(net: NetworkSpec, original: ActivationTrace, batch: BatchTrace | None,
                  layers, lambda_threshold: float = 1e-3,
                  metrics=METRICS) -> dict[str, list[LayerScores]]:
    """{metric: one record per layer, in layer order} for the selected metrics.

    Baselines read the original image's trace; batch metrics read the
    perturbation batch's record (None when no batch metric is selected),
    with the correlation's output column fixed to the class predicted for
    the original image. A layer outside the network or the record raises
    UsageError.
    """
    score = {
        "act-sum": lambda layer: score_act_sum(original, layer),
        "act-var": lambda layer: score_act_var(original, layer),
        "weight-sum": lambda layer: score_weight_sum(net, layer),
        "weight-var": lambda layer: score_weight_var(net, layer),
        "act-out-corr": lambda layer: score_correlation(batch, layer, original.predicted_class),
        "act-precision": lambda layer: score_precision(batch, layer, lambda_threshold),
    }
    return {m: [score[m](layer) for layer in layers] for m in metrics}


def rank(records: list[LayerScores], n_top: int) -> RankedSet:
    """Top-N per layer: the first n_top live channels of each layer's
    rank order, for one metric's records in layer order.

    Layers that cannot fill N record a shortfall instead of failing.
    """
    if n_top < 1:
        raise UsageError(f"top count must be >= 1, got {n_top}")
    out = RankedSet(records[0].metric, (records[0].layer, records[-1].layer))
    for rec in records:
        live = int(np.count_nonzero(~rec.degenerate))
        picks = [NeuronId(rec.layer, ch) for ch in rec.order()[:min(live, n_top)].tolist()]
        out.layers[rec.layer] = picks
        if len(picks) < n_top:
            out.shortfalls[rec.layer] = n_top - len(picks)
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


def score_dump_text(records: list[LayerScores]) -> str:
    """Tab-separated score table: the records in the order given, each
    layer's rows in its rank order."""
    lines = ["layer\tchannel\tmetric\tvalue\tdegenerate"]
    for rec in records:
        values, degenerate = rec.values.tolist(), rec.degenerate.tolist()
        for ch in rec.order().tolist():
            lines.append(f"{rec.layer}\t{ch}\t{rec.metric}\t{values[ch]:.9g}\t{int(degenerate[ch])}")
    return "\n".join(lines) + "\n"
