"""Naive reference implementations the tests compare against.

Everything here trades speed for obviousness: explicit loops, fsum
accumulation, no vectorization. Keep it that way.
"""
import math

import numpy as np


def naive_conv(x, w, b, stride=1, pad=0):
    """Cross-correlation with explicit loops. x: [C,H,W], w: [O,C,kh,kw]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c, h, wd = x.shape
    o, c2, kh, kw = w.shape
    assert c == c2
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        h, wd = h + 2 * pad, wd + 2 * pad
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for f in range(o):
        for i in range(oh):
            for j in range(ow):
                acc = [b[f]]
                for ch in range(c):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc.append(x[ch, i * stride + dy, j * stride + dx] * w[f, ch, dy, dx])
                out[f, i, j] = math.fsum(acc)
    return out


def naive_conv_input_grad(dout, w, x_shape, stride=1, pad=0):
    """Adjoint of naive_conv (no bias), one sample. dout: [O,Ho,Wo]."""
    dout = np.asarray(dout, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c, h, wd = x_shape
    o, _, kh, kw = w.shape
    dx = np.zeros((c, h + 2 * pad, wd + 2 * pad))
    for f in range(o):
        for i in range(dout.shape[1]):
            for j in range(dout.shape[2]):
                dx[:, i * stride:i * stride + kh, j * stride:j * stride + kw] += dout[f, i, j] * w[f]
    return dx[:, pad:pad + h, pad:pad + wd]


def col2im_conv_input_grad(dout, layer, x_shape):
    """conv_input_grad as one [N, kh*kw*C, Ho*Wo] column matrix folded back
    onto the padded image tap by tap: the column-matrix kernel the program
    ran before its per-tap one, which must match it bit for bit."""
    o, c, kh, kw = layer.w.shape
    n, _, ho, wo = dout.shape
    h, w = x_shape[2:]
    s, pad = layer.stride, layer.pad
    wt = layer.w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o).astype(dout.dtype, copy=False)
    d6 = (wt @ dout.reshape(n, o, -1)).reshape(n, kh, kw, c, ho, wo)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dout.dtype)
    for dy in range(kh):
        for dx in range(kw):
            dxp[:, :, dy:dy + ho * s:s, dx:dx + wo * s:s] += d6[:, dy, dx]
    return dxp[:, :, pad:pad + h, pad:pad + w]


def naive_conv_param_grad(dout, x, kshape, stride=1, pad=0):
    """(dw, db) of naive_conv for one sample. dout: [O,Ho,Wo], x: [C,H,W]."""
    dout = np.asarray(dout, dtype=np.float64)
    x = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (pad, pad), (pad, pad)))
    o, c, kh, kw = kshape
    dw = np.zeros(kshape)
    for f in range(o):
        for i in range(dout.shape[1]):
            for j in range(dout.shape[2]):
                dw[f] += dout[f, i, j] * x[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
    return dw, dout.sum(axis=(1, 2))


def naive_maxpool(x, window, stride):
    """Returns (pooled, argmax) with argmax as flat indices into each H*W plane."""
    x = np.asarray(x)
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow), dtype=x.dtype)
    arg = np.zeros((c, oh, ow), dtype=np.int64)
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                best = -np.inf
                best_pos = -1
                for dy in range(window):
                    for dx in range(window):
                        r, cc = i * stride + dy, j * stride + dx
                        if x[ch, r, cc] > best:
                            best = x[ch, r, cc]
                            best_pos = r * w + cc
                out[ch, i, j] = best
                arg[ch, i, j] = best_pos
    return out, arg


def networks_equal(a, b):
    """Structural and bitwise weight equality of two NetworkSpecs."""
    from patchlens.network import ConvLayer, DenseLayer, MaxPoolLayer, OutputLayer

    if a.input_shape != b.input_shape or len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.kind != lb.kind:
            return False
        if isinstance(la, ConvLayer):
            if (la.stride, la.pad) != (lb.stride, lb.pad):
                return False
        if isinstance(la, MaxPoolLayer):
            if (la.window, la.stride) != (lb.window, lb.stride):
                return False
        if isinstance(la, OutputLayer):
            if (la.classes, la.squash) != (lb.classes, lb.squash):
                return False
        if isinstance(la, (ConvLayer, DenseLayer)):
            if la.w.dtype != lb.w.dtype or la.w.shape != lb.w.shape:
                return False
            if not (np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)):
                return False
    return True


def naive_score_neurons(net, original, batch, layers, lambda_threshold=1e-3,
                        metrics=("act-sum", "act-var", "weight-sum", "weight-var",
                                 "act-out-corr", "act-precision")):
    """Per-neuron scoring, one channel at a time, as
    [(metric, layer, channel, value, degenerate)] in (metric, layer,
    channel) order.

    Each channel's statistic is computed from its own slice with the same
    numpy reductions the program applies, so five metrics must match it
    bit for bit; the correlation's dot products follow the textbook form.
    """
    def total(t):
        return float(np.sum(t, dtype=np.float64))

    def var(t):
        flat = np.asarray(t, dtype=np.float64).ravel()
        dev = flat - flat.mean()
        return float(np.mean(dev * dev))

    def corr(xs, ys):
        xa = np.asarray(xs, dtype=np.float64)
        ya = np.asarray(ys, dtype=np.float64)
        dx, dy = xa - xa.mean(), ya - ya.mean()
        sxx, syy = float(np.dot(dx, dx)), float(np.dot(dy, dy))
        if sxx == 0.0 or syy == 0.0:
            return None
        return min(abs(float(np.dot(dx, dy)) / math.sqrt(sxx * syy)), 1.0)

    rows = []
    for metric in metrics:
        for layer in layers:
            for ch in range(net.conv_out_channels(layer)):
                value, dead = 0.0, False
                if metric in ("act-sum", "act-var"):
                    m = original.conv_acts[layer][ch]
                    value = total(m) if metric == "act-sum" else var(m)
                elif metric in ("weight-sum", "weight-var"):
                    if layer == net.conv_count:
                        dead = True
                    else:
                        sl = net.conv_layer(layer + 1).w[:, ch]
                        value = total(sl) if metric == "weight-sum" else var(sl)
                elif metric == "act-out-corr":
                    maps = batch.conv_acts[layer][:, ch]
                    r = corr([total(m) for m in maps], batch.output[:, original.predicted_class])
                    dead = r is None
                    value = 0.0 if dead else r
                else:
                    stack = batch.conv_acts[layer][:, ch].astype(np.float64)
                    dead = float(np.mean(np.abs(stack))) < lambda_threshold
                    if not dead:
                        value = float(np.mean(1.0 / np.maximum(stack.var(axis=0), 1e-12)))
                rows.append((metric, layer, ch, value, dead))
    return rows


def fsum_total(t):
    return math.fsum(np.asarray(t, dtype=np.float64).ravel().tolist())


def sorted_fsum(t):
    return math.fsum(sorted(np.asarray(t, dtype=np.float64).ravel().tolist()))


def two_pass_variance(t):
    vals = np.asarray(t, dtype=np.float64).ravel().tolist()
    n = len(vals)
    mean = math.fsum(vals) / n
    return math.fsum((v - mean) ** 2 for v in vals) / n


def two_pass_pearson_abs(xs, ys):
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.fsum((a - mx) ** 2 for a in xs)
    vy = math.fsum((b - my) ** 2 for b in ys)
    return abs(cov / math.sqrt(vx * vy))


def max_rel_err(got, want, floor=1e-8):
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / scale))


def run_gradcheck(n_seeds, eps=1e-3, probes_per_param=6):
    """Analytic gradients vs central finite differences on a small net.

    Returns the worst relative error across all probed weight entries. The
    net is cast to float64 so the finite-difference quotient is not drowned
    by storage rounding.
    """
    from patchlens.network import (
        ConvLayer, DenseLayer, FlattenLayer, NetworkSpec, OutputLayer,
        ReluLayer, conv_forward_cols, loss_gradients,
    )
    from patchlens.tensor import Rng

    worst = 0.0
    for s in range(n_seeds):
        r = Rng(7000 + s, 0)
        w1 = (r.split(0).uniform(0, 1, (3, 1, 3, 3)) - 0.5).astype(np.float64) * 0.8
        b1 = (r.split(1).uniform(0, 1, (3,)) - 0.5).astype(np.float64) * 0.1
        w2 = (r.split(2).uniform(0, 1, (4, 3 * 6 * 6)) - 0.5).astype(np.float64) * 0.4
        b2 = (r.split(3).uniform(0, 1, (4,)) - 0.5).astype(np.float64) * 0.1
        net = NetworkSpec((1, 6, 6), [
            ConvLayer(w1, b1, stride=1, pad=1), ReluLayer(), FlattenLayer(),
            DenseLayer(w2, b2), OutputLayer(4),
        ])
        xb = r.split(4).uniform(0, 1, (2, 1, 6, 6)).astype(np.float64)
        yb = np.array([s % 4, (s + 1) % 4])
        # a probe moves any conv pre-activation by at most eps, so push every
        # cell at least 5*eps away from the relu kink before differencing
        for _ in range(100):
            pre = conv_forward_cols(xb, net.layers[0])[0]
            near = np.unique(np.nonzero(np.abs(pre) < 5 * eps)[1])
            if near.size == 0:
                break
            b1[near] += 13.7 * eps
        _, grads = loss_gradients(net, xb, yb)
        probe_rng = r.split(5)
        for pos, (dw, db) in grads.items():
            layer = net.layers[pos]
            for arr, grad in ((layer.w, dw), (layer.b, db)):
                flat = arr.reshape(-1)
                gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
                for _ in range(probes_per_param):
                    idx = int(probe_rng.integers(0, flat.size))
                    keep = flat[idx]
                    flat[idx] = keep + eps
                    lp, _ = loss_gradients(net, xb, yb)
                    flat[idx] = keep - eps
                    lm, _ = loss_gradients(net, xb, yb)
                    flat[idx] = keep
                    fd = (lp - lm) / (2 * eps)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-6)
                    worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def _reference_caches(net, xb):
    """Logits and per-layer (position, layer, cache) tuples of the forward
    pass that reference_loss_gradients walks back over: each conv's and
    dense's input, each relu's mask, (switches, input shape) per max-pool
    and the input shape per flatten."""
    from patchlens.network import (ConvLayer, DenseLayer, FlattenLayer, MaxPoolLayer,
                                   ReluLayer, conv_forward_cols, maxpool_forward)

    caches = []
    x = xb
    for pos, layer in enumerate(net.layers[:-1]):
        x_in = x
        if isinstance(layer, ConvLayer):
            x = np.concatenate([conv_forward_cols(x_in[i:i + 8], layer)[0]
                                for i in range(0, len(x_in), 8)])
            cache = x_in
        elif isinstance(layer, ReluLayer):
            x = np.maximum(x, 0)
            cache = x_in > 0
        elif isinstance(layer, MaxPoolLayer):
            x, sw = maxpool_forward(x, layer)
            cache = (sw, x_in.shape)
        elif isinstance(layer, FlattenLayer):
            x = x.reshape(len(x), -1)
            cache = x_in.shape
        elif isinstance(layer, DenseLayer):
            x = x @ layer.w.T.astype(x.dtype, copy=False) + layer.b.astype(x.dtype, copy=False)
            cache = x_in
        caches.append((pos, layer, cache))
    return x, caches


def reference_loss_gradients(net, xb, yb):
    """loss_gradients as its own backward loop over per-layer caches, the
    form the program ran before training and the deconvnet shared one
    reverse walk; the program must match it bit for bit."""
    from patchlens.network import (ConvLayer, DenseLayer, FlattenLayer, MaxPoolLayer,
                                   ReluLayer, conv_input_grad, conv_param_grad,
                                   maxpool_backward)

    n = len(xb)
    logits, caches = _reference_caches(net, xb)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - lse
    loss = -float(np.mean(logp[np.arange(n), yb], dtype=np.float64))
    grad = np.exp(logp)
    grad[np.arange(n), yb] -= 1.0
    grad /= n
    grads = {}
    while caches:  # popping frees each layer's cache once backward has passed it
        pos, layer, cache = caches.pop()
        if isinstance(layer, DenseLayer):
            x_in = cache
            grads[pos] = (grad.T @ x_in, grad.sum(axis=0))
            grad = grad @ layer.w.astype(grad.dtype, copy=False)
        elif isinstance(layer, FlattenLayer):
            grad = grad.reshape(cache)
        elif isinstance(layer, MaxPoolLayer):
            sw, x_shape = cache
            grad = maxpool_backward(grad, sw, x_shape, layer)
        elif isinstance(layer, ReluLayer):
            grad = grad * cache
        elif isinstance(layer, ConvLayer):
            grads[pos] = conv_param_grad(grad, cache, layer)
            if pos:  # the gradient w.r.t. the image itself is never read
                grad = conv_input_grad(grad, layer, cache.shape)
    return loss, grads


def reference_deconvolve(net, trace, layer, channels):
    """deconvolve_channels as its own reverse loop with a rectifying relu,
    the form the program ran before training and the deconvnet shared one
    reverse walk; the program must match it bit for bit."""
    from patchlens.errors import UsageError
    from patchlens.network import (ConvLayer, MaxPoolLayer, ReluLayer, conv_input_grad,
                                   maxpool_backward)

    acts = trace.conv_acts[layer]
    channels = np.asarray(channels, dtype=np.intp)
    start = net.conv_position(layer)
    out = np.empty((len(channels),) + net.input_shape, dtype=acts.dtype)
    for c0 in range(0, len(channels), 8):
        chunk = channels[c0:c0 + 8]
        signal = np.zeros((len(chunk),) + acts.shape, dtype=acts.dtype)
        signal[np.arange(len(chunk)), chunk] = acts[chunk]
        for pos in range(start, -1, -1):
            below = net.layers[pos]
            if isinstance(below, ConvLayer):
                signal = conv_input_grad(signal, below, (len(chunk),) + tuple(net.in_shapes[pos]))
            elif isinstance(below, ReluLayer):
                signal = np.maximum(signal, 0)
            elif isinstance(below, MaxPoolLayer):
                switches = trace.switches.get(pos)
                if switches is None:
                    raise UsageError(f"trace has no switches for the pool at layer position {pos}")
                # one query image's switches serve every row
                signal = maxpool_backward(signal, np.broadcast_to(switches, signal.shape),
                                          (len(chunk),) + tuple(net.in_shapes[pos]), below)
            else:
                raise UsageError(f"cannot reverse through a {below.kind} layer below conv {layer}")
        out[c0:c0 + len(chunk)] = signal
    return out
