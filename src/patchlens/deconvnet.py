"""Reverse pass from one conv channel back to pixel space, and patch cutting.

Starting from the recorded activation of a chosen channel (all sibling
channels zeroed), the walk back to the input applies, per layer passed on
the way down: unpool (values return to their recorded switch locations),
rectify (negatives clamped to zero), and filter (convolution with the
transposed kernels, no bias). The reconstruction's high-magnitude region
then selects a rectangular crop of the original image.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DeadPathError, UsageError
from .importance import NeuronId, RankedSet
from .network import (ActivationTrace, ConvLayer, FlattenLayer, MaxPoolLayer,
                      NetworkSpec, ReluLayer, conv_input_grad)
from .tensor import ensure_finite


@dataclass
class Patch:
    neuron: NeuronId
    metric: str
    bbox: tuple[int, int, int, int]  # top, left, height, width
    pixels: np.ndarray               # crop of the original image
    reconstruction: np.ndarray       # matching crop of the deconv output


@dataclass
class PatchSet:
    """Patches for one metric's ranked neurons, ordered by (layer, rank).

    Neurons whose reconstruction came back identically zero are recorded in
    `dead` rather than failing the whole extraction.
    """
    metric: str
    patches: list[Patch] = field(default_factory=list)
    dead: list[NeuronId] = field(default_factory=list)


def unpool(pooled: np.ndarray, switches: np.ndarray, pre_shape) -> np.ndarray:
    """Scatter pooled values to their recorded argmax cells, zeros elsewhere."""
    c, h, w = pre_shape
    if pooled.shape != switches.shape:
        raise UsageError(f"pooled shape {pooled.shape} does not match switches {switches.shape}")
    flat_idx = switches.reshape(c, -1)
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= h * w):
        raise DataFormatError(f"switch index outside pre-pool plane of {h}x{w}")
    out = np.zeros((c, h * w), dtype=pooled.dtype)
    out[np.arange(c)[:, None], flat_idx] = pooled.reshape(c, -1)
    return out.reshape(c, h, w)


def deconvolve(net: NetworkSpec, trace: ActivationTrace, neuron: NeuronId) -> np.ndarray:
    """Input-shaped reconstruction of one channel's recorded activation."""
    if not 1 <= neuron.layer <= net.conv_count:
        raise UsageError(f"conv layer index {neuron.layer} outside 1..{net.conv_count}")
    acts = trace.conv_acts.get(neuron.layer)
    if acts is None:
        raise UsageError(f"trace has no recorded activations for conv layer {neuron.layer}")
    if not 0 <= neuron.channel < acts.shape[0]:
        raise UsageError(f"channel {neuron.channel} outside layer {neuron.layer}'s {acts.shape[0]} channels")
    signal = np.zeros_like(acts)
    signal[neuron.channel] = acts[neuron.channel]

    # The recorded activation sits after the conv's relu when one follows.
    start = net.conv_position(neuron.layer)
    if start + 1 < len(net.layers) and isinstance(net.layers[start + 1], ReluLayer):
        start += 1

    for pos in range(start, -1, -1):
        layer = net.layers[pos]
        if isinstance(layer, ConvLayer):
            signal = conv_input_grad(signal[None], layer, (1,) + tuple(net.in_shapes[pos]))[0]
        elif isinstance(layer, ReluLayer):
            signal = np.maximum(signal, 0)
        elif isinstance(layer, MaxPoolLayer):
            switches = trace.switches.get(pos)
            if switches is None:
                raise UsageError(f"trace has no switches for the pool at layer position {pos}")
            signal = unpool(signal, switches, net.in_shapes[pos])
        else:
            raise UsageError(f"cannot reverse through a {layer.kind} layer below conv {neuron.layer}")
    ensure_finite(signal, "deconvolution reconstruction")
    return signal


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
    recon = reconstruction[:, top:bottom + 1, left:right + 1].copy()
    return Patch(neuron, metric, bbox, pixels, recon)


def extract_top_patches(net: NetworkSpec, trace: ActivationTrace, ranked: RankedSet,
                        image: np.ndarray, eps: float = 0.1) -> PatchSet:
    """One patch per ranked neuron, deconvolved from the query image's own
    trace (the perturbation batch only ever influences the ranking)."""
    out = PatchSet(ranked.metric)
    for layer in sorted(ranked.layers):
        for neuron in ranked.layers[layer]:
            reconstruction = deconvolve(net, trace, neuron)
            try:
                patch = extract_patch(image, reconstruction, neuron, eps, metric=ranked.metric)
            except DeadPathError:
                out.dead.append(neuron)
                continue
            out.patches.append(patch)
    return out
