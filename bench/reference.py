"""Independent float64 reference for the benchmark's output checks.

Written from the program's documented formats and method only: it reads the
NNWC weight container and its manifest itself and computes with numpy, never
with a patchlens kernel. Convolution here is a sum of nine shifted matrix
products (the program uses im2col), pooling reads 2x2 blocks through a
reshape (the program scans window offsets), and every sum is float64.
"""
from __future__ import annotations

import struct

import numpy as np

_TAGS = {1: "conv", 2: "relu", 3: "maxpool", 4: "flatten", 5: "dense", 6: "output"}
VAR_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# weights

def load_net(container_path, manifest_path) -> list[dict]:
    """Layer list of dicts: kind plus w, b, stride, pad (conv/dense) or window,
    stride (maxpool), all arrays float64."""
    manifest = {}
    with open(manifest_path) as fh:
        for line in fh:
            if "=" in line:
                key, value = line.strip().split("=", 1)
                manifest[key] = value
    with open(container_path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"NNWC":
        raise ValueError(f"{container_path}: bad magic")
    _version, count = struct.unpack_from("<II", data, 4)
    off = 12

    def block():
        nonlocal off
        rank = data[off]
        off += 1
        if rank == 0:
            return None
        shape = struct.unpack_from(f"<{rank}I", data, off)
        off += 4 * rank
        size = int(np.prod(shape))
        arr = np.frombuffer(data, dtype="<f4", count=size, offset=off).reshape(shape)
        off += 4 * size
        return arr.astype(np.float64)

    layers = []
    for pos in range(count):
        kind = _TAGS[data[off]]
        off += 1
        tokens = dict(t.split("=") for t in manifest[f"layer.{pos}"].split()[1:])
        layer = {"kind": kind}
        if kind in ("conv", "dense"):
            layer["w"], layer["b"] = block(), block()
            if kind == "conv":
                layer["stride"], layer["pad"] = int(tokens["stride"]), int(tokens["pad"])
        else:
            block()
            if kind == "maxpool":
                layer["window"], layer["stride"] = int(tokens["window"]), int(tokens["stride"])
        layers.append(layer)
    if off != len(data):
        raise ValueError(f"{container_path}: trailing bytes")
    return layers


# ---------------------------------------------------------------------------
# layer math

def conv(x, w, b, stride, pad):
    """[N, C, H, W] cross-correlation as a sum of kh*kw shifted products,
    accumulated channels-last."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, ho, wo, o))
    for dy in range(kh):
        for dx in range(kw):
            out += xp[:, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride, :] @ w[:, :, dy, dx].T
    return (out + b).transpose(0, 3, 1, 2)


def conv_adjoint(g, w, stride, pad, in_shape):
    """Transpose of conv (no bias) mapped back onto an [N, C, H, W] input."""
    n, _, ho, wo = g.shape
    _, c, kh, kw = w.shape
    h, wd = in_shape[-2:]
    gl = g.transpose(0, 2, 3, 1)
    xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, c))
    for dy in range(kh):
        for dx in range(kw):
            xp[:, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride, :] += gl @ w[:, :, dy, dx]
    return xp[:, pad:pad + h, pad:pad + wd, :].transpose(0, 3, 1, 2)


def maxpool(x, window, stride):
    """Non-overlapping max pool; switches are flat row-major indices into the
    pre-pool plane, ties to the first cell in row-major order."""
    if window != stride or x.shape[2] % window or x.shape[3] % window:
        raise ValueError("reference pooling covers non-overlapping tiling windows only")
    n, c, h, w = x.shape
    k = window
    blocks = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
    arg = blocks.argmax(axis=-1)
    rows = np.arange(h // k)[:, None] * k + arg // k
    cols = np.arange(w // k)[None, :] * k + arg % k
    return blocks.max(axis=-1), rows * w + cols


def forward(net, x):
    """Batched float64 forward. Returns (logits, probs, acts, switches):
    acts[l] is conv layer l's (1-based) activation after its relu, switches
    maps each pool's layer-list position to its switch indices."""
    x = np.asarray(x, dtype=np.float64)
    acts, switches = {}, {}
    conv_index = 0
    logits = None
    for pos, layer in enumerate(net):
        kind = layer["kind"]
        if kind == "conv":
            x = conv(x, layer["w"], layer["b"], layer["stride"], layer["pad"])
            conv_index += 1
            acts[conv_index] = x
        elif kind == "relu":
            x = np.maximum(x, 0.0)
            if pos > 0 and net[pos - 1]["kind"] == "conv":
                acts[conv_index] = x
        elif kind == "maxpool":
            x, switches[pos] = maxpool(x, layer["window"], layer["stride"])
        elif kind == "flatten":
            x = x.reshape(len(x), -1)
        elif kind == "dense":
            x = x @ layer["w"].T + layer["b"]
        elif kind == "output":
            logits = x
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return logits, e / e.sum(axis=1, keepdims=True), acts, switches


def conv_positions(net) -> list[int]:
    return [pos for pos, layer in enumerate(net) if layer["kind"] == "conv"]


# ---------------------------------------------------------------------------
# the method

def perturbation_batch(image, n=50, sigma=0.1, seed=0):
    """Sample i: the image times Normal(1, sigma^2) noise drawn from the
    Philox4x64 stream keyed (seed, i), clipped to [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    out = np.empty((n,) + image.shape)
    for i in range(n):
        key = np.array([seed, i], dtype=np.uint64)
        noise = np.random.Generator(np.random.Philox(key=key)).normal(1.0, sigma, size=image.shape)
        out[i] = np.clip(image * noise, 0.0, 1.0)
    return out


def batch_metrics(net, image, layers, n=50, sigma=0.1, seed=0, act_rel_err=1e-5):
    """act-out-corr and act-precision for every channel of the given conv layers.

    Returns {(layer, channel): dict} with
      corr         |Pearson r| between the per-sample activation sum and the
                   probability of the original image's predicted class
                   (None when the sums are constant);
      corr_spread  the relative spread of those sums;
      out_std      the spread of that probability across the batch: float32
                   rounds a probability near 1 in steps of 6e-8, so r is
                   only as well defined as out_std is large against them;
      precision    the mean over cells of 1 / max(Var, 1e-12);
      precision_tol how far a float32 computation may land from it when each
                   activation carries an error of act_rel_err times the
                   channel's largest activation: near-constant cells make
                   1 / Var ill-conditioned;
      mean_abs     the channel's mean absolute activation (the lambda gate).
    """
    _, probs0, _, _ = forward(net, image[None])
    ref_class = int(np.argmax(probs0[0]))
    _, probs, acts, _ = forward(net, perturbation_batch(image, n, sigma, seed))
    out_col = probs[:, ref_class]
    dy = out_col - out_col.mean()
    syy = float(dy @ dy)
    result = {}
    for layer in layers:
        a = acts[layer]
        sums = a.sum(axis=(2, 3))
        dx = sums - sums.mean(axis=0)
        sxx = (dx * dx).sum(axis=0)
        spread = np.sqrt(sxx / n) / (np.abs(sums).mean(axis=0) + 1e-30)
        cell_var = a.var(axis=0)
        credit = 1.0 / np.maximum(cell_var, VAR_FLOOR)
        eps = act_rel_err * np.abs(a).max(axis=(0, 2, 3))[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(cell_var > 0, np.minimum(1.0, 2 * eps / np.sqrt(cell_var) + eps ** 2 / cell_var), 0.0)
        precision = credit.mean(axis=(1, 2))
        tol = (credit * rel).mean(axis=(1, 2))
        mean_abs = np.abs(a).mean(axis=(0, 2, 3))
        for ch in range(a.shape[1]):
            corr = None
            if sxx[ch] > 0 and syy > 0:
                corr = min(abs(float(dx[:, ch] @ dy) / np.sqrt(sxx[ch] * syy)), 1.0)
            result[(layer, ch)] = {"corr": corr, "corr_spread": float(spread[ch]),
                                   "out_std": float(np.sqrt(syy / n)),
                                   "precision": float(precision[ch]), "precision_tol": float(tol[ch]),
                                   "mean_abs": float(mean_abs[ch])}
    return result


def deconvolve(net, image, layer, channel):
    """Pixel-space reconstruction [3, H, W] of one conv channel's activation on
    the image: other channels zeroed, then per layer on the way down unpool
    through the recorded switches, rectify, and filter with the transposed
    kernels."""
    image = np.asarray(image, dtype=np.float64)[None]
    _, _, acts, switches = forward(net, image)
    signal = np.zeros_like(acts[layer])
    signal[:, channel] = acts[layer][:, channel]
    start = conv_positions(net)[layer - 1]
    if start + 1 < len(net) and net[start + 1]["kind"] == "relu":
        start += 1
    shapes = _in_shapes(net, image.shape)
    for pos in range(start, -1, -1):
        kind = net[pos]["kind"]
        if kind == "conv":
            lay = net[pos]
            signal = conv_adjoint(signal, lay["w"], lay["stride"], lay["pad"], shapes[pos])
        elif kind == "relu":
            signal = np.maximum(signal, 0.0)
        elif kind == "maxpool":
            n, c, h, w = shapes[pos]
            plane = np.zeros((n, c, h * w))
            idx = switches[pos].reshape(n, c, -1)
            np.put_along_axis(plane, idx, signal.reshape(n, c, -1), axis=2)
            signal = plane.reshape(n, c, h, w)
    return signal[0]


def _in_shapes(net, shape):
    """Input shape of every layer up to the first flatten."""
    shapes, (n, c, h, w) = [], shape
    for layer in net:
        shapes.append((n, c, h, w))
        if layer["kind"] == "conv":
            o, _, kh, kw = layer["w"].shape
            s, p = layer["stride"], layer["pad"]
            c, h, w = o, (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
        elif layer["kind"] == "maxpool":
            k, s = layer["window"], layer["stride"]
            h, w = (h - k) // s + 1, (w - k) // s + 1
        elif layer["kind"] == "flatten":
            break
    return shapes


def cross_entropy(net, images, labels) -> float:
    """Mean cross-entropy of the labels under the network, float64."""
    logits, _, _, _ = forward(net, images)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())
