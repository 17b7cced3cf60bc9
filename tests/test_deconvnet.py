import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlens.deconvnet import (
    Patch,
    deconvolve_channels,
    extract_patch,
    extract_top_patches,
)
from patchlens.errors import DeadPathError, UsageError
from patchlens.importance import NeuronId, rank, score_neurons
from patchlens.network import (
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    NetworkSpec,
    OutputLayer,
    ReluLayer,
    conv_forward_cols,
    conv_input_grad,
    forward,
    maxpool_backward,
    maxpool_forward,
    reference_network,
)
from patchlens.tensor import DTYPE, Rng

from oracles import naive_maxpool, reference_deconvolve


def head(in_features, classes=2):
    return [FlattenLayer(),
            DenseLayer(np.zeros((classes, in_features), dtype=DTYPE), np.zeros(classes, dtype=DTYPE)),
            OutputLayer(classes)]


def identity_net(channels=2, side=4):
    w = np.zeros((channels, channels, 1, 1), dtype=DTYPE)
    for c in range(channels):
        w[c, c, 0, 0] = 1.0
    return NetworkSpec((channels, side, side), [
        ConvLayer(w, np.zeros(channels, dtype=DTYPE)), ReluLayer(),
        *head(channels * side * side),
    ])


# ---------------------------------------------------------------------------
# deconvolve

def test_identity_kernel_reconstruction():
    net = identity_net()
    img = Rng(41, 0).uniform(0, 1, (2, 4, 4)).astype(DTYPE)
    trace = forward(net, img)
    rec = deconvolve_channels(net, trace, 1, [1])[0]
    want = np.zeros_like(img)
    want[1] = trace.conv_acts[1][1]
    assert np.array_equal(rec, want)


def test_dead_channel_reconstructs_zero():
    net = identity_net()
    img = np.zeros((2, 4, 4), dtype=DTYPE)
    img[0] = 0.5  # channel 1 stays dark
    trace = forward(net, img)
    rec = deconvolve_channels(net, trace, 1, [1])[0]
    assert not rec.any()


def test_adjoint_identity_sweep():
    # <conv(x)|channel c, y> == <x, adjoint(y at c)> for random configs
    worst = 0.0
    for i in range(100):
        r = Rng(5000 + i, 0)
        ci = int(r.split(0).integers(1, 4))
        co = int(r.split(1).integers(1, 4))
        k = int(r.split(2).integers(1, 4))
        stride = int(r.split(3).integers(1, 3))
        pad = int(r.split(4).integers(0, 2))
        side = int(r.split(5).integers(k + 2, 11))
        w = (r.split(6).uniform(0, 1, (co, ci, k, k)) - 0.5).astype(DTYPE)
        layer = ConvLayer(w, np.zeros(co, dtype=DTYPE), stride=stride, pad=pad)
        x = (r.split(7).uniform(0, 1, (1, ci, side, side)) - 0.2).astype(DTYPE)
        out = conv_forward_cols(x, layer)[0]
        c = int(r.split(8).integers(0, co))
        y = np.zeros_like(out)
        y[:, c] = (r.split(9).uniform(0, 1, out.shape[2:]) - 0.5).astype(DTYPE)
        lhs = float(np.sum(out.astype(np.float64) * y))
        back = conv_input_grad(y, layer, x.shape)
        rhs = float(np.sum(x.astype(np.float64) * back))
        denom = max(abs(lhs), abs(rhs), 1e-6)
        worst = max(worst, abs(lhs - rhs) / denom)
    assert worst < 1e-4


def test_deconvolve_ignores_other_channels():
    net = identity_net()
    img = Rng(42, 0).uniform(0, 1, (2, 4, 4)).astype(DTYPE)
    trace = forward(net, img)
    rec = deconvolve_channels(net, trace, 1, [0])[0]
    tampered = forward(net, img)
    tampered.conv_acts[1] = tampered.conv_acts[1].copy()
    tampered.conv_acts[1][1] = 99.0  # garbage in the unused channel
    rec2 = deconvolve_channels(net, tampered, 1, [0])[0]
    assert rec.tobytes() == rec2.tobytes()


def test_deconvolve_requires_valid_neuron():
    net = identity_net()
    trace = forward(net, np.ones((2, 4, 4), dtype=DTYPE))
    with pytest.raises(UsageError):
        deconvolve_channels(net, trace, 5, [0])[0]
    with pytest.raises(UsageError):
        deconvolve_channels(net, trace, 1, [9])[0]


@pytest.mark.parametrize("k", [1, 7, 8, 11])
def test_batched_walk_matches_single_neuron(k):
    # 8 is network._CHUNK: 7 and 8 fill one stack, 11 spills into a second
    net = reference_network(Rng(49, 0))
    img = Rng(49, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    trace = forward(net, img)
    live = 0
    for layer in range(1, net.conv_count + 1):
        channels = Rng(49, 2 + layer).permutation(net.conv_out_channels(layer))[:k].tolist()
        batched = deconvolve_channels(net, trace, layer, channels)
        assert batched.shape == (k, 3, 32, 32)
        for row, ch in zip(batched, channels):
            single = deconvolve_channels(net, trace, layer, [ch])[0]
            assert row.tobytes() == single.tobytes()
            live += bool(row.any())
    assert live >= net.conv_count // 2


def test_batched_walk_requires_valid_channels():
    net = identity_net()
    trace = forward(net, np.ones((2, 4, 4), dtype=DTYPE))
    with pytest.raises(UsageError):
        deconvolve_channels(net, trace, 1, [0, 9])
    with pytest.raises(UsageError):
        deconvolve_channels(net, trace, 2, [0])


def test_deconvolve_matches_reference_loop():
    # the shared reverse walk against the deconvnet's own loop with a
    # rectifying relu; 11 channels cross network._CHUNK
    net = reference_network(Rng(52, 0))
    trace = forward(net, Rng(52, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE))
    for layer in (2, 4, 6):
        channels = Rng(52, 2 + layer).permutation(net.conv_out_channels(layer))[:11]
        got = deconvolve_channels(net, trace, layer, channels)
        assert got.any()
        assert np.array_equal(got, reference_deconvolve(net, trace, layer, channels))


def test_deconvolve_maps_back_through_each_conv_once(input_grad_layers):
    net = reference_network(Rng(53, 0))
    trace = forward(net, Rng(53, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE))
    for layer in range(1, net.conv_count + 1):
        input_grad_layers.clear()
        deconvolve_channels(net, trace, layer, range(8))
        assert input_grad_layers == [id(net.conv_layer(k)) for k in range(layer, 0, -1)]


def test_deconvolve_checks_switches_before_walking(input_grad_layers):
    net = reference_network(Rng(54, 0))
    trace = forward(net, Rng(54, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE))
    first_pool = min(trace.switches)
    del trace.switches[first_pool]
    with pytest.raises(UsageError, match=f"position {first_pool}"):
        deconvolve_channels(net, trace, net.conv_count, [0])
    assert input_grad_layers == []
    # the missing pool sits above conv layer 2, so its walk never reads it
    assert deconvolve_channels(net, trace, 2, [0]).shape == (1, 3, 32, 32)


# ---------------------------------------------------------------------------
# unpool: the reverse pass scatters through maxpool_backward

def test_pool_unpool_hand():
    x = np.array([[1, 2], [3, 4]], dtype=DTYPE).reshape(1, 1, 2, 2)
    layer = MaxPoolLayer(2, 2)
    pooled, switches = maxpool_forward(x, layer)
    up = maxpool_backward(pooled, switches, x.shape, layer)
    assert up.reshape(-1).tolist() == [0.0, 0.0, 0.0, 4.0]


def test_unpool_zero_input():
    x = Rng(43, 0).uniform(0, 1, (1, 1, 4, 4)).astype(DTYPE)
    layer = MaxPoolLayer(2, 2)
    pooled, switches = maxpool_forward(x, layer)
    up = maxpool_backward(np.zeros_like(pooled), switches, x.shape, layer)
    assert not up.any()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_unpool_support_and_values(seed):
    x = Rng(seed, 0).uniform(0, 1, (1, 2, 8, 8)).astype(DTYPE)
    layer = MaxPoolLayer(2, 2)
    pooled, switches = maxpool_forward(x, layer)
    up = maxpool_backward(pooled, switches, x.shape, layer)[0]
    assert np.count_nonzero(up) <= pooled[0].size
    nz = np.nonzero(up)
    for ch, r, c in zip(*nz):
        assert up[ch, r, c] in pooled[0][ch]
    # pool(unpool(pool(x))) == pool(x) exactly
    re_pooled, _ = maxpool_forward(up[None], layer)
    assert np.array_equal(re_pooled[0], pooled[0])


def test_batched_unpool_matches_per_item():
    # the reverse pass broadcasts one image's [C, h, w] switches over K rows
    layer = MaxPoolLayer(2, 2)
    x = Rng(50, 0).uniform(0, 1, (1, 3, 8, 8)).astype(DTYPE)
    _, switches = maxpool_forward(x, layer)
    stack = Rng(50, 1).uniform(-1, 1, (10, 3, 4, 4)).astype(DTYPE)
    up = maxpool_backward(stack, np.broadcast_to(switches, stack.shape), (10, 3, 8, 8), layer)
    assert up.shape == (10, 3, 8, 8)
    for k in range(10):
        assert up[k].tobytes() == maxpool_backward(stack[k:k + 1], switches, x.shape, layer)[0].tobytes()


def test_overlapping_pool_sums_a_cell_that_wins_two_windows():
    # conv(1x1 identity) -> relu -> 3x3/2 pool -> conv(1x1 identity) -> relu:
    # the reconstruction of a conv-2 channel is its pooled map scattered
    # back to the winning cells, where a cell that wins several windows
    # carries the sum of their values
    eye = np.eye(2, dtype=DTYPE).reshape(2, 2, 1, 1)
    net = NetworkSpec((2, 5, 5), [
        ConvLayer(eye.copy(), np.zeros(2, dtype=DTYPE)), ReluLayer(), MaxPoolLayer(3, 2),
        ConvLayer(eye.copy(), np.zeros(2, dtype=DTYPE)), ReluLayer(), *head(2 * 2 * 2),
    ])
    img = Rng(51, 0).uniform(0, 1, (2, 5, 5)).astype(DTYPE)
    img[1, 2, 1] = 2.0  # the largest cell of both windows over rows 0..2 and 2..4, cols 0..2
    trace = forward(net, img)
    pooled, argmax = naive_maxpool(img, 3, 2)
    recs = deconvolve_channels(net, trace, 2, [0, 1])
    for ch in range(2):
        want = np.zeros((2, 25), dtype=DTYPE)
        for value, cell in zip(pooled[ch].ravel(), argmax[ch].ravel()):
            want[ch, cell] += value
        assert np.array_equal(recs[ch], want.reshape(2, 5, 5))
    assert recs[1, 1, 2, 1] == 4.0


# ---------------------------------------------------------------------------
# extract_patch

def blank(shape=(3, 32, 32)):
    return np.zeros(shape, dtype=DTYPE)


def test_single_pixel_bbox():
    rec = blank()
    rec[1, 7, 3] = 0.5
    p = extract_patch(np.ones((3, 32, 32), dtype=DTYPE), rec, NeuronId(2, 0), eps=0.1)
    assert p.bbox == (7, 3, 1, 1)
    assert p.pixels.shape == (3, 1, 1)


def test_uniform_reconstruction_full_image():
    rec = np.full((3, 8, 8), 0.25, dtype=DTYPE)
    p = extract_patch(np.ones((3, 8, 8), dtype=DTYPE), rec, NeuronId(2, 0), eps=0.1)
    assert p.bbox == (0, 0, 8, 8)


def test_gaussian_bump_matches_scan_oracle():
    yy, xx = np.mgrid[0:32, 0:32]
    bump = np.exp(-((yy - 16.0) ** 2 + (xx - 16.0) ** 2) / (2 * 2.0 ** 2)).astype(DTYPE)
    rec = np.stack([bump, bump * 0.5, bump * 0.25])
    img = Rng(44, 0).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    p = extract_patch(img, rec, NeuronId(3, 1), eps=0.1)
    keep = bump >= 0.1 * bump.max()
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    assert p.bbox == (rows[0], cols[0], rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    t, l, h, w = p.bbox
    assert np.array_equal(p.pixels, img[:, t:t + h, l:l + w])


def test_dead_path_raises():
    with pytest.raises(DeadPathError):
        extract_patch(np.ones((3, 8, 8), dtype=DTYPE), blank((3, 8, 8)), NeuronId(2, 0), eps=0.1)


def test_eps_bounds_checked():
    rec = np.ones((3, 8, 8), dtype=DTYPE)
    img = np.ones((3, 8, 8), dtype=DTYPE)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(UsageError):
            extract_patch(img, rec, NeuronId(1, 0), eps=bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_bbox_shrinks_as_eps_grows(seed):
    rec = Rng(seed, 0).uniform(0, 1, (1, 12, 12)).astype(DTYPE) ** 4
    img = np.ones((1, 12, 12), dtype=DTYPE)
    boxes = []
    for eps in (0.05, 0.2, 0.5, 0.9):
        t, l, h, w = extract_patch(img, rec, NeuronId(1, 0), eps=eps).bbox
        boxes.append((t, l, t + h, l + w))
    for small, big in zip(boxes[1:], boxes[:-1]):
        assert small[0] >= big[0] and small[1] >= big[1]
        assert small[2] <= big[2] and small[3] <= big[3]


# ---------------------------------------------------------------------------
# extract_top_patches

def test_single_neuron_patch_fields():
    net = identity_net()
    img = Rng(45, 0).uniform(0, 1, (2, 4, 4)).astype(DTYPE) + 0.0
    trace = forward(net, img)
    scores = score_neurons(net, trace, None, range(1, 2), metrics=("act-sum",))
    rs = rank(scores["act-sum"], 1)
    ps = extract_top_patches(net, trace, rs, img)
    assert ps.metric == "act-sum"
    assert len(ps.patches) == 1
    p = ps.patches[0]
    assert p.metric == "act-sum"
    assert p.neuron.layer == 1


def test_identical_rankings_give_identical_patches():
    net = identity_net()
    img = Rng(46, 0).uniform(0, 1, (2, 4, 4)).astype(DTYPE)
    trace = forward(net, img)
    scores = score_neurons(net, trace, None, range(1, 2), metrics=("act-sum", "act-var"))
    ra = rank(scores["act-sum"], 2)
    rb = rank(scores["act-var"], 2)
    if ra.layers == {layer: picks for layer, picks in rb.layers.items()}:
        pa = extract_top_patches(net, trace, ra, img)
        pb = extract_top_patches(net, trace, rb, img)
        assert [p.bbox for p in pa.patches] == [p.bbox for p in pb.patches]
        assert all(x.pixels.tobytes() == y.pixels.tobytes()
                   for x, y in zip(pa.patches, pb.patches))


def test_reference_net_full_extraction():
    net = reference_network(Rng(47, 0))
    img = Rng(48, 0).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    trace = forward(net, img)
    scores = score_neurons(net, trace, None, range(2, 7), metrics=("act-sum",))
    rs = rank(scores["act-sum"], 5)
    ps = extract_top_patches(net, trace, rs, img)
    assert len(ps.patches) + len(ps.dead) == 25
    for p in ps.patches:
        t, l, h, w = p.bbox
        assert 0 <= t and 0 <= l and h >= 1 and w >= 1
        assert t + h <= 32 and l + w <= 32
        assert p.pixels.shape == (3, h, w)
