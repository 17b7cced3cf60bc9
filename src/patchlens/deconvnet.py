"""Reverse pass from conv channels back to pixel space, and patch cutting.

Starting from the recorded activation of a chosen channel (all sibling
channels zeroed), the reverse pass is the network's one reverse walk, given
a record that holds the query trace's max-pool switches and no relu masks.
So per layer passed on the way down it applies: unpool (values return to
their recorded switch locations, summed where overlapping windows share a
winner, as in training's backward), rectify (with no mask recorded, a relu
clamps negatives to zero), and filter (convolution with the transposed
kernels, no bias). The chosen channels of one layer walk back together, one
row per channel. The reconstruction's high-magnitude region then selects a
rectangular crop of the original image.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeadPathError, UsageError
from .importance import NeuronId, RankedSet
from .network import _CHUNK, ActivationTrace, MaxPoolLayer, NetworkSpec, _walk_back
from .tensor import ensure_finite


@dataclass
class Patch:
    neuron: NeuronId
    metric: str
    bbox: tuple[int, int, int, int]  # top, left, height, width
    pixels: np.ndarray               # crop of the original image


@dataclass
class PatchSet:
    """Patches for one metric's ranked neurons, ordered by (layer, rank).

    Neurons whose reconstruction came back identically zero are recorded in
    `dead` rather than failing the whole extraction.
    """
    metric: str
    patches: list[Patch] = field(default_factory=list)
    dead: list[NeuronId] = field(default_factory=list)


def deconvolve_channels(net: NetworkSpec, trace: ActivationTrace, layer: int,
                        channels) -> np.ndarray:
    """[K, C, H, W] input-shaped reconstructions of K channels of one conv
    layer, walked back together in stacks of network._CHUNK.

    Row k is the reconstruction of channels[k] alone: the walk keeps one
    signal per channel, and every step treats the rows independently.
    """
    if not 1 <= layer <= net.conv_count:
        raise UsageError(f"conv layer index {layer} outside 1..{net.conv_count}")
    acts = trace.conv_acts.get(layer)
    if acts is None:
        raise UsageError(f"trace has no recorded activations for conv layer {layer}")
    channels = np.asarray(channels, dtype=np.intp)
    for ch in channels.tolist():
        if not 0 <= ch < acts.shape[0]:
            raise UsageError(f"channel {ch} outside layer {layer}'s {acts.shape[0]} channels")

    # The walk starts at the conv itself: the recorded activation already sits
    # after the conv's relu when one follows, so rectifying it again would
    # only copy it.
    start = net.conv_position(layer)
    for pos in range(start):
        if isinstance(net.layers[pos], MaxPoolLayer) and pos not in trace.switches:
            raise UsageError(f"trace has no switches for the pool at layer position {pos}")

    out = np.empty((len(channels),) + net.input_shape, dtype=acts.dtype)
    for c0 in range(0, len(channels), _CHUNK):
        chunk = channels[c0:c0 + _CHUNK]
        signal = np.zeros((len(chunk),) + acts.shape, dtype=acts.dtype)
        signal[np.arange(len(chunk)), chunk] = acts[chunk]
        # one query image's switches serve every row; no relu mask is
        # recorded, so every relu on the way down rectifies
        record = {pos: np.broadcast_to(sw, (len(chunk),) + sw.shape)
                  for pos, sw in trace.switches.items() if pos < start}
        signal = _walk_back(net, signal, start, record)
        ensure_finite(signal, "deconvolution reconstruction")
        out[c0:c0 + len(chunk)] = signal
    return out


def extract_patch(image: np.ndarray, reconstruction: np.ndarray, neuron: NeuronId,
                  eps: float, metric: str = "") -> Patch:
    """Crop the tight bounding box of pixels where the reconstruction's
    channel-max magnitude reaches eps times its global peak."""
    if not 0 < eps < 1:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    if reconstruction.shape != image.shape:
        raise UsageError(f"reconstruction shape {reconstruction.shape} does not match image {image.shape}")
    magnitude = np.abs(reconstruction).max(axis=0)
    peak = float(magnitude.max())
    if peak == 0.0:
        raise DeadPathError(f"all-zero reconstruction for {neuron}")
    keep = magnitude >= eps * peak
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    top, bottom = int(rows[0]), int(rows[-1])
    left, right = int(cols[0]), int(cols[-1])
    bbox = (top, left, bottom - top + 1, right - left + 1)
    pixels = image[:, top:bottom + 1, left:right + 1].copy()
    return Patch(neuron, metric, bbox, pixels)


def extract_top_patches(net: NetworkSpec, trace: ActivationTrace, ranked: RankedSet,
                        image: np.ndarray, eps: float = 0.1,
                        reconstructions: dict | None = None) -> PatchSet:
    """One patch per ranked neuron, deconvolved from the query image's own
    trace (the perturbation batch only ever influences the ranking).

    reconstructions caches NeuronId -> reconstruction for this trace: each
    layer's missing neurons are walked back as one batch and added to it,
    so repeated cuts from one trace deconvolve each neuron once.
    """
    cache = {} if reconstructions is None else reconstructions
    out = PatchSet(ranked.metric)
    for layer in sorted(ranked.layers):
        missing = [n.channel for n in ranked.layers[layer] if n not in cache]
        if missing:
            for ch, rec in zip(missing, deconvolve_channels(net, trace, layer, missing)):
                cache[NeuronId(layer, ch)] = rec
        for neuron in ranked.layers[layer]:
            try:
                patch = extract_patch(image, cache[neuron], neuron, eps, metric=ranked.metric)
            except DeadPathError:
                out.dead.append(neuron)
                continue
            out.patches.append(patch)
    return out
