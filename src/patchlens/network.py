"""Small convolutional network: layers, traced forward pass, SGD, container io.

Six layer kinds (conv, relu, maxpool, flatten, dense, output) compose into a
NetworkSpec whose shapes are checked end to end at build time. One forward
walk serves every caller and keeps only what that caller reads: a batch's
chosen conv maps (post-nonlinearity), or only what a caller's reducer keeps
of each, for the batch metrics, and, on request, a record for the way back.
A batch walks one segment of layers at a time, so with a reducer the whole
batch's maps of only one layer are alive at once. The record is one dict
keyed by layer-list position: each conv's and dense's input, each relu's
input > 0 mask, and each max-pool's switches.

One reverse walk serves both ways back from a record: training's backward
pass, and the deconvolution of conv channels to pixel space. They differ
only at a relu: where the record holds the relu's mask the walk passes the
gradient through it, and where it holds none the walk rectifies the signal.

All layer math follows the input's dtype: inference runs float32, while the
finite-difference tests cast a whole network to float64 and reuse the exact
same code paths.
"""
from __future__ import annotations

import math
import struct
from copy import deepcopy
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataFormatError, NumericError, UsageError
from .tensor import DTYPE, Rng, ensure_finite


# ---------------------------------------------------------------------------
# layer kinds

@dataclass
class ConvLayer:
    kind: ClassVar[str] = "conv"
    w: np.ndarray  # [out_ch, in_ch, kh, kw]
    b: np.ndarray  # [out_ch]
    stride: int = 1
    pad: int = 0


@dataclass
class ReluLayer:
    kind: ClassVar[str] = "relu"


@dataclass
class MaxPoolLayer:
    kind: ClassVar[str] = "maxpool"
    window: int = 2
    stride: int = 2


@dataclass
class FlattenLayer:
    kind: ClassVar[str] = "flatten"


@dataclass
class DenseLayer:
    kind: ClassVar[str] = "dense"
    w: np.ndarray  # [out, in]
    b: np.ndarray  # [out]


@dataclass
class OutputLayer:
    kind: ClassVar[str] = "output"
    classes: int = 2
    squash: str = "softmax"


Layer = ConvLayer | ReluLayer | MaxPoolLayer | FlattenLayer | DenseLayer | OutputLayer


def conv_out_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - kernel) // stride + 1


class NetworkSpec:
    """Immutable-by-convention network: input shape plus an ordered layer list.

    Layer indices exposed to callers count conv layers only, 1-based, so
    "layer 3" always names the third convolution regardless of interleaved
    relu/pool layers.
    """

    def __init__(self, input_shape, layers):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layers: list[Layer] = list(layers)
        self.in_shapes: list[tuple] = []
        self.out_shapes: list[tuple] = []
        self.conv_positions: list[int] = []
        self._validate()

    # -- structure ----------------------------------------------------------

    def _validate(self) -> None:
        if len(self.input_shape) != 3 or any(s < 1 for s in self.input_shape):
            raise DataFormatError(f"input shape must be [channels, height, width], got {self.input_shape}")
        if not self.layers:
            raise DataFormatError("network has no layers")
        cur = self.input_shape
        for pos, layer in enumerate(self.layers):
            self.in_shapes.append(cur)
            where = f"layer {pos} ({layer.kind})"
            if isinstance(layer, ConvLayer):
                if layer.stride < 1 or layer.pad < 0:
                    raise DataFormatError(f"{where}: stride must be >= 1 and padding >= 0")
                if layer.w.ndim != 4 or layer.b.ndim != 1:
                    raise DataFormatError(f"{where}: weight rank {layer.w.ndim}, bias rank {layer.b.ndim}")
                o, ci, kh, kw = layer.w.shape
                if len(cur) != 3 or ci != cur[0]:
                    raise DataFormatError(f"{where}: expects {ci} input channels, gets shape {cur}")
                if layer.b.shape != (o,):
                    raise DataFormatError(f"{where}: bias shape {layer.b.shape} for {o} channels")
                ho = conv_out_extent(cur[1], kh, layer.stride, layer.pad)
                wo = conv_out_extent(cur[2], kw, layer.stride, layer.pad)
                if ho < 1 or wo < 1:
                    raise DataFormatError(f"{where}: kernel {kh}x{kw} does not fit input {cur}")
                self.conv_positions.append(pos)
                cur = (o, ho, wo)
            elif isinstance(layer, ReluLayer):
                pass
            elif isinstance(layer, MaxPoolLayer):
                if layer.window < 2 or layer.stride < 1:
                    raise DataFormatError(f"{where}: window must be >= 2 and stride >= 1")
                if len(cur) != 3:
                    raise DataFormatError(f"{where}: pooling needs a spatial input, got {cur}")
                ho = (cur[1] - layer.window) // layer.stride + 1
                wo = (cur[2] - layer.window) // layer.stride + 1
                if ho < 1 or wo < 1:
                    raise DataFormatError(f"{where}: window {layer.window} does not fit input {cur}")
                cur = (cur[0], ho, wo)
            elif isinstance(layer, FlattenLayer):
                cur = (int(np.prod(cur)),)
            elif isinstance(layer, DenseLayer):
                if layer.w.ndim != 2 or layer.b.ndim != 1:
                    raise DataFormatError(f"{where}: weight rank {layer.w.ndim}, bias rank {layer.b.ndim}")
                if len(cur) != 1 or layer.w.shape[1] != cur[0]:
                    raise DataFormatError(f"{where}: weight expects {layer.w.shape[1]} features, gets {cur}")
                if layer.b.shape != (layer.w.shape[0],):
                    raise DataFormatError(f"{where}: bias shape {layer.b.shape}")
                cur = (layer.w.shape[0],)
            elif isinstance(layer, OutputLayer):
                if pos != len(self.layers) - 1:
                    raise DataFormatError(f"{where}: output layer must be last")
                if layer.squash != "softmax":
                    raise DataFormatError(f"{where}: unknown squashing kind {layer.squash!r}")
                if len(cur) != 1 or layer.classes != cur[0]:
                    raise DataFormatError(f"{where}: {layer.classes} classes but {cur} input features")
            else:
                raise DataFormatError(f"{where}: unknown layer kind")
            self.out_shapes.append(cur)
        if not isinstance(self.layers[-1], OutputLayer):
            raise DataFormatError("network must end with exactly one output layer")

    @property
    def conv_count(self) -> int:
        return len(self.conv_positions)

    @property
    def num_classes(self) -> int:
        last = self.layers[-1]
        assert isinstance(last, OutputLayer)
        return last.classes

    def conv_position(self, index: int) -> int:
        """Position in the layer list of 1-based conv layer `index`."""
        if not 1 <= index <= self.conv_count:
            raise UsageError(f"conv layer index {index} outside 1..{self.conv_count}")
        return self.conv_positions[index - 1]

    def conv_layer(self, index: int) -> ConvLayer:
        layer = self.layers[self.conv_position(index)]
        assert isinstance(layer, ConvLayer)
        return layer

    def conv_out_channels(self, index: int) -> int:
        return self.out_shapes[self.conv_position(index)][0]

    def copy(self) -> "NetworkSpec":
        return NetworkSpec(self.input_shape, deepcopy(self.layers))

    def astype(self, dtype) -> "NetworkSpec":
        """Copy with every weight tensor cast; used by high-precision checks."""
        layers = deepcopy(self.layers)
        for l in layers:
            if isinstance(l, (ConvLayer, DenseLayer)):
                l.w = l.w.astype(dtype)
                l.b = l.b.astype(dtype)
        return NetworkSpec(self.input_shape, layers)


# ---------------------------------------------------------------------------
# layer math (batched; dtype follows the input)

# Batched walks run 8 images at a time, and the deconvnet walks back 8
# channels at a time. Measured on the 50-image perturbation batch (2-core
# host, one BLAS thread): chunks of 8 run 1.2-1.7x faster than walking
# image by image; chunks of 16 ran at most 15% faster than 8 but peaked at
# 20 MiB under tracemalloc, when each chunk's patch matrix still held
# every image of the chunk.
_CHUNK = 8

# Each conv kernel builds its patch matrix for as many images as fit in
# _COLS_BYTES, and for one image when even one does not fit. Conv maps and
# gradients do not depend on the piece size (numpy runs one GEMM per image
# either way). Swept with scripts/kernel_times.py over 0.5, 1, 2 and
# 4.5 MiB (the largest 8-image matrix) at the reference shapes, 2-core
# host, one BLAS thread: 0.5 and 1 MiB ran the conv forwards within 3% of
# each other and 5-10% faster than 2 and 4.5 MiB, and 1 MiB ran the weight
# gradients fastest (4.5 MiB took 1.7x as long at batch 32). With 1 MiB the
# 50-image perturbation batch, walked whole chunk by chunk and keeping the
# maps of layers 2..6, peaked at 11.4 MiB under tracemalloc, against
# 14.3 MiB with 8-image matrices.
_COLS_BYTES = 1 << 20


def _cols_images(x: np.ndarray, layer: ConvLayer, out_cells: int) -> int:
    """Images per patch matrix: how many [C*kh*kw, out_cells] matrices of
    x's dtype fit in _COLS_BYTES, and never fewer than one."""
    return max(1, _COLS_BYTES // (x.itemsize * layer.w[0].size * out_cells))


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """[N, C, H, W] -> [N, C*kh*kw, Ho*Wo] channel-major patch matrix.

    Row (c, dy, dx) of image n holds input cell (c, i*stride + dy,
    j*stride + dx) of the padded image for every output position (i, j), so
    each copy reads and writes whole output rows.
    """
    if pad:
        n, c, h, w = x.shape
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    n, c, h, w = x.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    win = as_strided(x, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return win.reshape(n, c * kh * kw, ho * wo)


def conv_forward_cols(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    n, c, h, w = x.shape
    o, ci, kh, kw = layer.w.shape
    ho = conv_out_extent(h, kh, layer.stride, layer.pad)
    wo = conv_out_extent(w, kw, layer.stride, layer.pad)
    cols = _im2col(x, kh, kw, layer.stride, layer.pad)
    out = layer.w.reshape(o, -1).astype(x.dtype, copy=False) @ cols
    out += layer.b.astype(x.dtype, copy=False)[:, None]
    return out.reshape(n, o, ho, wo), cols


def conv_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """conv_forward_cols's output, from patch matrices within _COLS_BYTES.

    A batch that fits in one piece keeps the kernel's own output, so the
    caller holds no second copy of it; training rebuilds the patch matrices
    from x in conv_param_grad.
    """
    n, _, h, w = x.shape
    o, _, kh, kw = layer.w.shape
    out_shape = (o, conv_out_extent(h, kh, layer.stride, layer.pad), conv_out_extent(w, kw, layer.stride, layer.pad))
    step = _cols_images(x, layer, out_shape[1] * out_shape[2])
    if n <= step:
        return conv_forward_cols(x, layer)[0]
    out = np.empty((n,) + out_shape, dtype=x.dtype)
    for i in range(0, n, step):
        out[i:i + step] = conv_forward_cols(x[i:i + step], layer)[0]
    return out


def conv_input_grad(dout: np.ndarray, layer: ConvLayer, x_shape) -> np.ndarray:
    """Map an output-shaped tensor back through the transposed kernels (no bias).

    This is both the training gradient w.r.t. the conv input and the
    deconvolution "filter" stage. dout is laid out on rows of the padded
    input width Wp, zeros past Wo, so output cell (i, j) sits at i*Wp + j and
    feeds cell stride*(i*Wp + j) + dy*Wp + dx of the flat padded image
    through kernel tap (dy, dx). Each tap's [C, O] slice times that dout thus
    adds into one strided slice of the flat image, tap by tap in (dy, dx)
    order; the zero columns add nothing. No [N, kh*kw*C, Ho*Wo] column
    matrix is built.
    """
    o, ci, kh, kw = layer.w.shape
    n, _, ho, wo = dout.shape
    h, w = x_shape[2:]
    stride, pad = layer.stride, layer.pad
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.zeros((n, o, ho, wp), dtype=dout.dtype)
    rows[..., :wo] = dout
    rows = rows.reshape(n, o, ho * wp)
    taps = np.ascontiguousarray(layer.w.transpose(2, 3, 1, 0), dtype=dout.dtype)  # [kh, kw, C, O]
    prod = np.empty((n, ci, ho * wp), dtype=dout.dtype)
    # `stride` spare rows below the image take the zero columns' spill
    flat = np.zeros((n, ci, (hp + stride) * wp), dtype=dout.dtype)
    for dy in range(kh):
        for dx in range(kw):
            np.matmul(taps[dy, dx], rows, out=prod)
            start = dy * wp + dx
            flat[:, :, start:start + stride * ho * wp:stride] += prod
    return flat[:, :, :hp * wp].reshape(n, ci, hp, wp)[:, :, pad:pad + h, pad:pad + w]


def conv_param_grad(dout: np.ndarray, x: np.ndarray, layer: ConvLayer):
    """(dw, db) of the conv that mapped x to an output with gradient dout.

    The patch matrix is built from the conv's input, as many images at a
    time as fit in _COLS_BYTES. Each image's [C*kh*kw, O] product lands in
    one [N, C*kh*kw, O] array, summed over images once; this operand order
    measured faster than dout @ cols^T at the reference shapes.
    """
    n, o = dout.shape[:2]
    dmat = dout.reshape(n, o, -1)
    prods = np.empty((n, layer.w[0].size, o), dtype=dout.dtype)
    step = _cols_images(x, layer, dmat.shape[2])
    for start in range(0, n, step):
        cols = _im2col(x[start:start + step], *layer.w.shape[2:], layer.stride, layer.pad)
        np.matmul(cols, dmat[start:start + step].transpose(0, 2, 1), out=prods[start:start + step])
    dw = prods.sum(axis=0).T.reshape(layer.w.shape)
    db = dmat.sum(axis=(0, 2))
    return dw, db


def _pool_views(x: np.ndarray, layer: MaxPoolLayer) -> dict:
    """{(dy, dx): view} in row-major window order; view[n, c, i, j] is cell
    (dy, dx) of pooled cell (i, j)'s window."""
    k, s = layer.window, layer.stride
    ho = (x.shape[2] - k) // s + 1
    wo = (x.shape[3] - k) // s + 1
    return {(dy, dx): x[:, :, dy:dy + ho * s:s, dx:dx + wo * s:s] for dy in range(k) for dx in range(k)}


def maxpool_values(x: np.ndarray, layer: MaxPoolLayer) -> np.ndarray:
    """Pooled maxima only, for walks that keep no switches. A NaN in a
    window propagates to its pooled cell."""
    views = list(_pool_views(x, layer).values())
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def maxpool_forward(x: np.ndarray, layer: MaxPoolLayer) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, switches).

    switches[n, c, i, j] is the flat row-major index into the pre-pool H*W
    plane of the cell that won pooled cell (i, j). Ties go to the first cell
    in row-major scan order: a count runs over the window from its last cell
    to its first, restarting at 0 on each cell equal to the maximum, so it
    ends as the number of leading cells that are not. A window whose
    maximum is NaN has no equal cell; its count of k*k wraps to its first
    cell.
    """
    out = maxpool_values(x, layer)
    k, w, s = layer.window, x.shape[3], layer.stride
    ho, wo = out.shape[2:]
    corner = (np.arange(ho, dtype=np.int32) * s * w)[:, None] + (np.arange(wo, dtype=np.int32) * s)[None, :]
    code = np.zeros(out.shape, dtype=np.min_scalar_type(k * k))
    for view in reversed(_pool_views(x, layer).values()):
        code += 1
        code *= view != out
    code %= k * k
    return out, corner + (code // k) * np.int32(w) + code % k


def maxpool_backward(dout: np.ndarray, switches: np.ndarray, x_shape,
                     layer: MaxPoolLayer) -> np.ndarray:
    """Route each pooled gradient to the cell that won its window.

    When windows do not overlap (stride >= window) every input cell wins at
    most one pooled cell, so plain assignment is exact; overlapping windows
    can pick one cell twice and need the accumulating np.add.at.
    """
    n, c, h, w = x_shape
    dx = np.zeros(n * c * h * w, dtype=dout.dtype)
    flat_idx = switches.reshape(n * c, -1) + (np.arange(n * c) * (h * w))[:, None]
    flat_val = dout.reshape(n * c, -1)
    if layer.stride >= layer.window:
        dx[flat_idx] = flat_val
    else:
        np.add.at(dx, flat_idx, flat_val)
    return dx.reshape(n, c, h, w)


def softmax(z: np.ndarray) -> np.ndarray:
    """Class probabilities in float64, so that a confident output keeps
    its spread: float32 rounds a probability near 1 in steps of 6e-8."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# the forward walk and the reverse walk

def _walk(net: NetworkSpec, x: np.ndarray, convs=(), record: dict | None = None,
          start: int = 0, stop: int | None = None):
    """Walk the batch x, the input of layer position start, through
    positions [start, stop), keeping only what the caller reads.

    stop defaults to the output layer, so a whole walk takes the [N, C, H, W]
    images to logits; the output squash is left to the callers that need
    probabilities. Returns (the output of position stop - 1, maps). maps
    holds, for each 1-based conv index in convs whose map is made in the
    walked span, the map after that conv's nonlinearity (the raw conv output
    when no relu follows). A record dict receives, by layer-list position,
    what _walk_back reads: each conv's and dense's input, each relu's
    x_in > 0 mask and each max-pool's switches. Only walks that keep a
    record build pool switches at all.
    """
    maps: dict[int, np.ndarray] = {}
    conv_index = sum(pos < start for pos in net.conv_positions)
    for pos in range(start, len(net.layers) - 1 if stop is None else stop):
        layer = net.layers[pos]
        x_in = x
        if isinstance(layer, ConvLayer):
            x = conv_forward(x_in, layer)
            if record is not None:
                record[pos] = x_in
            conv_index += 1
            if conv_index in convs:
                maps[conv_index] = x
        elif isinstance(layer, ReluLayer):
            x = np.maximum(x, 0)
            if record is not None:
                record[pos] = x_in > 0
            if conv_index in convs and isinstance(net.layers[pos - 1], ConvLayer):
                maps[conv_index] = x
        elif isinstance(layer, MaxPoolLayer):
            if record is not None:
                x, record[pos] = maxpool_forward(x, layer)
            else:
                x = maxpool_values(x, layer)
        elif isinstance(layer, FlattenLayer):
            x = x.reshape(len(x), -1)
        elif isinstance(layer, DenseLayer):
            x = x @ layer.w.T.astype(x.dtype, copy=False) + layer.b.astype(x.dtype, copy=False)
            if record is not None:
                record[pos] = x_in
    return x, maps


def _walk_back(net: NetworkSpec, signal: np.ndarray, top: int, record: dict,
               grads: dict | None = None) -> np.ndarray:
    """Carry the [K, ...] signal at layer position top's output down to the
    input and return it, popping each layer's record entry as the walk
    passes it, so what the forward walk kept is freed on the way down.

    A relu whose mask was recorded passes the signal where its input was
    positive (the gradient); a relu without one rectifies the signal (the
    deconvnet rule). When grads is given, each conv's and dense's (dw, db)
    is written into it by position, and the walk stops at position 0,
    because nothing reads the gradient with respect to the image.
    """
    for pos in range(top, -1, -1):
        layer = net.layers[pos]
        entry = record.pop(pos, None)
        x_shape = (len(signal),) + net.in_shapes[pos]
        if isinstance(layer, DenseLayer):
            if grads is not None:
                grads[pos] = (signal.T @ entry, signal.sum(axis=0))
            signal = signal @ layer.w.astype(signal.dtype, copy=False)
        elif isinstance(layer, FlattenLayer):
            signal = signal.reshape(x_shape)
        elif isinstance(layer, MaxPoolLayer):
            signal = maxpool_backward(signal, entry, x_shape, layer)
        elif isinstance(layer, ReluLayer):
            signal = np.maximum(signal, 0) if entry is None else signal * entry
        elif isinstance(layer, ConvLayer):
            if grads is not None:
                grads[pos] = conv_param_grad(signal, entry, layer)
                if pos == 0:
                    break
            signal = conv_input_grad(signal, layer, x_shape)
    return signal


@dataclass
class ActivationTrace:
    """Everything recorded about one image's forward pass.

    conv_acts maps 1-based conv layer index to the activation recorded after
    that conv's nonlinearity (the raw conv output when no relu follows).
    switches maps the layer-list position of each max-pool to its switch
    tensor. output is the float64 class-probability vector.
    """

    conv_acts: dict[int, np.ndarray]
    switches: dict[int, np.ndarray]
    output: np.ndarray
    predicted_class: int
    predicted_prob: float


def forward(net: NetworkSpec, image: np.ndarray) -> ActivationTrace:
    """Trace one image: every conv map and every max-pool's switches."""
    if tuple(image.shape) != net.input_shape:
        raise DataFormatError(f"image shape {tuple(image.shape)} does not match network input {net.input_shape}")
    record: dict = {}
    logits, maps = _walk(net, image[None], range(1, net.conv_count + 1), record)
    out = softmax(logits)[0]
    ensure_finite(out, "network output")
    pred = int(np.argmax(out))
    return ActivationTrace({k: m[0] for k, m in maps.items()},
                           {pos: kept[0] for pos, kept in record.items()
                            if isinstance(net.layers[pos], MaxPoolLayer)},
                           out, pred, float(out[pred]))


@dataclass
class BatchTrace:
    """Per-layer records of a batch of images.

    conv_acts maps each requested 1-based conv index to what the walk kept
    of that layer's [N, C, H, W] maps, recorded as in ActivationTrace: the
    maps themselves, or what the caller's reducer returned for them. output
    holds the [N, classes] float64 class probabilities.
    """

    conv_acts: dict
    output: np.ndarray


def _walk_chunks(net: NetworkSpec, x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """_walk's output over positions [start, stop) for the whole batch x,
    walked _CHUNK images at a time into one array."""
    out = np.empty((len(x),) + net.out_shapes[stop - 1], dtype=x.dtype)
    for i in range(0, len(x), _CHUNK):
        out[i:i + _CHUNK] = _walk(net, x[i:i + _CHUNK], start=start, stop=stop)[0]
    return out


def forward_batch(net: NetworkSpec, images, layers, reduce=None) -> BatchTrace:
    """Walk a batch of images, keeping the maps of the given conv layers only.

    images is an [N, C, H, W] array or a sequence of [C, H, W] images, N >= 1.
    The walk runs one segment per requested layer, in ascending order, each
    ending at that layer's map and walked _CHUNK images at a time, then the
    tail to the logits, in the same chunks. Each layer's [N, C, H, W] maps
    are freed once the next segment has read them, unless kept: without a
    reducer the record keeps them, and with one it keeps reduce(layer,
    maps), called once per layer, so the whole batch's maps of only one
    layer are alive at a time. Row i of the maps matches forward() on image
    i bit for bit, the probabilities up to float32 rounding in the dense
    layers, whose GEMMs see a whole chunk of rows at once.
    """
    for k in layers:
        net.conv_position(k)
    for i, image in enumerate(images):
        if tuple(np.shape(image)) != net.input_shape:
            raise DataFormatError(f"sample {i}: image shape {tuple(np.shape(image))} "
                                  f"does not match network input {net.input_shape}")
    x = np.asarray(images)
    if len(x) == 0:
        raise UsageError("the batch has no images")
    kept = {}
    start = 0
    for k in sorted(set(layers)):
        stop = net.conv_position(k) + 1
        if isinstance(net.layers[stop], ReluLayer):
            stop += 1
        x = _walk_chunks(net, x, start, stop)
        kept[k] = x if reduce is None else reduce(k, x)
        start = stop
    output = softmax(_walk_chunks(net, x, start, len(net.layers) - 1))
    finite = np.isfinite(output).all(axis=1)
    if not finite.all():
        raise NumericError(f"sample {int(np.argmin(finite))}: non-finite values in network output")
    return BatchTrace(kept, output)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    epochs: int
    lr: float
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr < 0 or not math.isfinite(self.lr):
            raise UsageError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise UsageError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass
class TrainResult:
    net: NetworkSpec
    checkpoints: list  # weight snapshot after each epoch
    losses: list       # mean minibatch loss of each epoch


def loss_gradients(net: NetworkSpec, xb: np.ndarray, yb: np.ndarray):
    """Cross-entropy loss and gradients for every conv/dense parameter.

    Returns (loss, grads) where grads maps layer-list position ->
    (dw, db). Does not modify the network.
    """
    n = len(xb)
    record: dict = {}
    logits, _ = _walk(net, xb, record=record)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - lse
    loss = -float(np.mean(logp[np.arange(n), yb], dtype=np.float64))
    grad = np.exp(logp)
    grad[np.arange(n), yb] -= 1.0
    grad /= n
    grads: dict = {}
    _walk_back(net, grad, len(net.layers) - 2, record, grads)
    return loss, grads


def train(net: NetworkSpec, images, labels, cfg: TrainConfig, rng: Rng) -> TrainResult:
    """Plain minibatch SGD with cross-entropy loss.

    Shuffles from a per-epoch child stream of rng, snapshots the full weight
    set after every epoch, and raises NumericError on divergence. The input
    network is trained in place and also returned. Accuracies are left to
    the callers that read them: evaluate_accuracy on a checkpoint.
    """
    x = np.stack([np.asarray(im, dtype=DTYPE) for im in images])
    y = np.asarray(labels, dtype=np.int64)
    if len(x) == 0:
        raise UsageError("training dataset is empty")
    if y.min() < 0 or y.max() >= net.num_classes:
        raise UsageError(f"labels outside 0..{net.num_classes - 1}")
    checkpoints = []
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = rng.split(epoch).permutation(len(x))
        losses = []
        for step, start in enumerate(range(0, len(x), cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_gradients(net, x[idx], y[idx])
            if not math.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch + 1}, step {step + 1}: loss={loss}")
            if cfg.lr != 0.0:
                for pos, (dw, db) in grads.items():
                    layer = net.layers[pos]
                    layer.w -= cfg.lr * dw
                    layer.b -= cfg.lr * db
            losses.append(loss)
        checkpoints.append(net.copy())
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    return TrainResult(net, checkpoints, epoch_losses)


def evaluate_accuracy(net: NetworkSpec, images, labels) -> float:
    """Share of images whose most probable class is their label."""
    if len(images) != len(labels):
        raise UsageError(f"{len(images)} images but {len(labels)} labels")
    output = forward_batch(net, np.asarray(images, dtype=DTYPE), ()).output
    return int(np.count_nonzero(np.argmax(output, axis=1) == np.asarray(labels))) / len(output)


# ---------------------------------------------------------------------------
# weight container + topology manifest

_KIND_TAG = {"conv": 1, "relu": 2, "maxpool": 3, "flatten": 4, "dense": 5, "output": 6}
_TAG_KIND = {v: k for k, v in _KIND_TAG.items()}
_MAGIC = b"NNWC"
_VERSION = 1


def _append_block(blob: bytearray, arr: np.ndarray) -> None:
    shape = arr.shape
    blob.append(len(shape))
    for extent in shape:
        blob += struct.pack("<I", extent)
    blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()


def save_weights(net: NetworkSpec, container_path, manifest_path) -> None:
    """Write the binary weight container and its topology manifest."""
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(net.layers))
    for layer in net.layers:
        blob.append(_KIND_TAG[layer.kind])
        if isinstance(layer, (ConvLayer, DenseLayer)):
            _append_block(blob, layer.w)
            _append_block(blob, layer.b)
        else:
            blob.append(0)  # rank-0 block: no extents, no data
    with open(container_path, "wb") as fh:
        fh.write(bytes(blob))
    with open(manifest_path, "w") as fh:
        fh.write(manifest_text(net))


def manifest_text(net: NetworkSpec) -> str:
    lines = ["format=nnwc-manifest", "version=1"]
    lines.append("input=" + ",".join(str(s) for s in net.input_shape))
    lines.append(f"layers={len(net.layers)}")
    for pos, layer in enumerate(net.layers):
        if isinstance(layer, ConvLayer):
            o, ci, kh, kw = layer.w.shape
            desc = f"conv out={o} in={ci} kh={kh} kw={kw} stride={layer.stride} pad={layer.pad}"
        elif isinstance(layer, MaxPoolLayer):
            desc = f"maxpool window={layer.window} stride={layer.stride}"
        elif isinstance(layer, DenseLayer):
            desc = f"dense out={layer.w.shape[0]} in={layer.w.shape[1]}"
        elif isinstance(layer, OutputLayer):
            desc = f"output classes={layer.classes} squash={layer.squash}"
        else:
            desc = layer.kind
        lines.append(f"layer.{pos}={desc}")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path
        self.context = "header"

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.data):
            raise DataFormatError(f"{self.path}: truncated while reading {self.context}")
        piece = self.data[self.off:self.off + count]
        self.off += count
        return piece

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def block(self) -> np.ndarray:
        rank = self.u8()
        shape = tuple(self.u32() for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        if rank == 0:
            return np.zeros((), dtype=DTYPE)
        raw = self.take(4 * count)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()


def _parse_manifest(path) -> tuple[tuple, list[dict]]:
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            pairs[key] = value
    if pairs.get("format") != "nnwc-manifest":
        raise DataFormatError(f"{path}: not a network manifest")
    if pairs.get("version") != "1":
        raise DataFormatError(f"{path}: unsupported manifest version {pairs.get('version')!r}")
    try:
        input_shape = tuple(int(s) for s in pairs["input"].split(","))
        count = int(pairs["layers"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad or missing input/layers declaration") from exc
    descs = []
    for i in range(count):
        key = f"layer.{i}"
        if key not in pairs:
            raise DataFormatError(f"{path}: missing {key}")
        tokens = pairs[key].split()
        desc = {"kind": tokens[0]}
        for token in tokens[1:]:
            if "=" not in token:
                raise DataFormatError(f"{path}: malformed token {token!r} in {key}")
            k, v = token.split("=", 1)
            desc[k] = v
        descs.append(desc)
    return input_shape, descs


def _desc_int(desc: dict, key: str, path, pos: int) -> int:
    try:
        return int(desc[key])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: layer {pos} ({desc['kind']}) needs integer {key}") from exc


def load_weights(container_path, manifest_path) -> NetworkSpec:
    """Load and cross-validate the container against its topology manifest."""
    input_shape, descs = _parse_manifest(manifest_path)
    with open(container_path, "rb") as fh:
        reader = _Reader(fh.read(), container_path)
    if reader.take(4) != _MAGIC:
        raise DataFormatError(f"{container_path}: bad magic, not a weight container")
    version = reader.u32()
    if version != _VERSION:
        raise DataFormatError(f"{container_path}: unsupported container version {version}")
    count = reader.u32()
    if count != len(descs):
        raise DataFormatError(f"{container_path}: {count} layers but manifest declares {len(descs)}")
    layers: list[Layer] = []
    for pos, desc in enumerate(descs):
        kind = desc["kind"]
        reader.context = f"layer {pos} ({kind})"
        tag = reader.u8()
        if _TAG_KIND.get(tag) != kind:
            raise DataFormatError(
                f"{container_path}: layer {pos} kind tag {tag} does not match manifest kind {kind!r}")
        if kind == "conv":
            w = reader.block()
            b = reader.block()
            expect = tuple(_desc_int(desc, k, manifest_path, pos) for k in ("out", "in", "kh", "kw"))
            if w.shape != expect or b.shape != (expect[0],):
                raise DataFormatError(
                    f"{container_path}: layer {pos} weight shape {w.shape} does not match manifest {expect}")
            layers.append(ConvLayer(w, b,
                                    stride=_desc_int(desc, "stride", manifest_path, pos),
                                    pad=_desc_int(desc, "pad", manifest_path, pos)))
        elif kind == "dense":
            w = reader.block()
            b = reader.block()
            expect = (_desc_int(desc, "out", manifest_path, pos), _desc_int(desc, "in", manifest_path, pos))
            if w.shape != expect or b.shape != (expect[0],):
                raise DataFormatError(
                    f"{container_path}: layer {pos} weight shape {w.shape} does not match manifest {expect}")
            layers.append(DenseLayer(w, b))
        else:
            rank = reader.u8()
            if rank != 0:
                raise DataFormatError(f"{container_path}: layer {pos} ({kind}) should carry no tensor data")
            if kind == "relu":
                layers.append(ReluLayer())
            elif kind == "flatten":
                layers.append(FlattenLayer())
            elif kind == "maxpool":
                layers.append(MaxPoolLayer(_desc_int(desc, "window", manifest_path, pos),
                                           _desc_int(desc, "stride", manifest_path, pos)))
            elif kind == "output":
                layers.append(OutputLayer(_desc_int(desc, "classes", manifest_path, pos),
                                          desc.get("squash", "softmax")))
            else:
                raise DataFormatError(f"{manifest_path}: layer {pos} has unknown kind {kind!r}")
    if reader.off != len(reader.data):
        raise DataFormatError(f"{container_path}: {len(reader.data) - reader.off} trailing bytes after last layer")
    return NetworkSpec(input_shape, layers)


# ---------------------------------------------------------------------------
# reference architectures

def _he_conv(rng: Rng, out_ch: int, in_ch: int, kh: int, kw: int) -> np.ndarray:
    std = math.sqrt(2.0 / (in_ch * kh * kw))
    return rng.normal(0.0, std, (out_ch, in_ch, kh, kw))


def _he_dense(rng: Rng, out_features: int, in_features: int) -> np.ndarray:
    std = math.sqrt(2.0 / in_features)
    return rng.normal(0.0, std, (out_features, in_features))


def reference_network(rng: Rng, classes: int = 2) -> NetworkSpec:
    """The 7-conv desk-scale architecture every experiment here runs on.

    input 3x32x32; conv(16)+relu x2, pool; conv(32)+relu x3, pool;
    conv(64)+relu x2, pool; flatten; dense 128; dense `classes`; softmax.
    """
    layers: list[Layer] = []
    in_ch = 3
    key = 0

    def add_conv(out_ch: int) -> None:
        nonlocal in_ch, key
        layers.append(ConvLayer(_he_conv(rng.split(key), out_ch, in_ch, 3, 3),
                                np.zeros(out_ch, dtype=DTYPE), stride=1, pad=1))
        layers.append(ReluLayer())
        in_ch = out_ch
        key += 1

    add_conv(16)
    add_conv(16)
    layers.append(MaxPoolLayer(2, 2))
    add_conv(32)
    add_conv(32)
    add_conv(32)
    layers.append(MaxPoolLayer(2, 2))
    add_conv(64)
    add_conv(64)
    layers.append(MaxPoolLayer(2, 2))
    layers.append(FlattenLayer())
    flat = 64 * 4 * 4
    layers.append(DenseLayer(_he_dense(rng.split(key), 128, flat), np.zeros(128, dtype=DTYPE)))
    layers.append(DenseLayer(_he_dense(rng.split(key + 1), classes, 128), np.zeros(classes, dtype=DTYPE)))
    layers.append(OutputLayer(classes))
    return NetworkSpec((3, 32, 32), layers)
