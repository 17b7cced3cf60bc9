import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlens import network
from patchlens.errors import DataFormatError, NumericError, UsageError
from patchlens.network import (
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    NetworkSpec,
    OutputLayer,
    ReluLayer,
    TrainConfig,
    conv_forward_cols,
    conv_input_grad,
    conv_out_extent,
    conv_param_grad,
    evaluate_accuracy,
    forward,
    forward_batch,
    load_weights,
    loss_gradients,
    maxpool_forward,
    maxpool_values,
    reference_network,
    save_weights,
    softmax,
    train,
)
from patchlens.tensor import DTYPE, Rng
from oracles import (col2im_conv_input_grad, naive_conv, naive_conv_input_grad,
                     naive_conv_param_grad, naive_maxpool, networks_equal, run_gradcheck)


def tiny_head(in_features, classes=2):
    """flatten -> zero dense -> softmax, to cap off single-layer test nets."""
    w = np.zeros((classes, in_features), dtype=DTYPE)
    b = np.zeros(classes, dtype=DTYPE)
    return [FlattenLayer(), DenseLayer(w, b), OutputLayer(classes)]


def random_small_net(seed=0):
    r = Rng(seed, 0)
    w1 = (r.split(0).uniform(0, 1, (4, 1, 3, 3)) - 0.5).astype(DTYPE)
    w2 = (r.split(1).uniform(0, 1, (2, 4 * 4 * 4)) - 0.5).astype(DTYPE) * 0.2
    return NetworkSpec((1, 8, 8), [
        ConvLayer(w1, np.zeros(4, dtype=DTYPE), stride=1, pad=1),
        ReluLayer(),
        MaxPoolLayer(2, 2),
        FlattenLayer(),
        DenseLayer(w2, np.zeros(2, dtype=DTYPE)),
        OutputLayer(2),
    ])


# ---------------------------------------------------------------------------
# forward

def test_identity_conv_records_input():
    w = np.ones((1, 1, 1, 1), dtype=DTYPE)
    net = NetworkSpec((1, 3, 3), [ConvLayer(w, np.zeros(1, dtype=DTYPE)),
                                  ReluLayer(), *tiny_head(9)])
    img = np.arange(9, dtype=DTYPE).reshape(1, 3, 3) / 9
    trace = forward(net, img)
    assert np.array_equal(trace.conv_acts[1], img)


def test_hand_conv_oracle():
    # dyadic values keep every product and sum exact in binary32
    img = (np.arange(1, 10, dtype=DTYPE) / 16).reshape(1, 3, 3)
    w = (np.array([1, 2, 3, 4], dtype=DTYPE) / 4).reshape(1, 1, 2, 2)
    net = NetworkSpec((1, 3, 3), [ConvLayer(w, np.zeros(1, dtype=DTYPE)),
                                  ReluLayer(), *tiny_head(4)])
    want = np.array([[37, 47], [67, 77]], dtype=DTYPE) / 64
    got = forward(net, img).conv_acts[1]
    assert np.array_equal(got, want.reshape(1, 2, 2))


def test_maxpool_value_and_switch():
    x = np.array([[1, 2], [3, 4]], dtype=DTYPE).reshape(1, 1, 2, 2)
    out, switches = maxpool_forward(x, MaxPoolLayer(2, 2))
    assert out.reshape(-1).tolist() == [4.0]
    assert switches.reshape(-1).tolist() == [3]  # flat (1,1) in the 2x2 plane


def test_maxpool_tie_first_row_major():
    x = np.full((1, 1, 2, 2), 7.0, dtype=DTYPE)
    out, switches = maxpool_forward(x, MaxPoolLayer(2, 2))
    assert out.reshape(-1).tolist() == [7.0]
    assert switches.reshape(-1).tolist() == [0]


def test_conv_matches_naive_oracle():
    r = Rng(5, 0)
    for stride, pad in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]:
        x = r.split(stride * 10 + pad).uniform(0, 1, (3, 11, 9)).astype(DTYPE)
        w = (r.split(stride * 10 + pad + 100).uniform(0, 1, (4, 3, 3, 3)) - 0.5).astype(DTYPE)
        b = (r.split(stride * 10 + pad + 200).uniform(0, 1, (4,)) - 0.5).astype(DTYPE)
        net = NetworkSpec((3, 11, 9), [
            ConvLayer(w, b, stride=stride, pad=pad), ReluLayer(),
            *tiny_head(4 * conv_out_extent(11, 3, stride, pad) * conv_out_extent(9, 3, stride, pad)),
        ])
        got = forward(net, x).conv_acts[1]
        want = np.maximum(naive_conv(x, w, b, stride, pad), 0)
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-5


def test_forward_rejects_wrong_shape():
    net = random_small_net()
    with pytest.raises(DataFormatError):
        forward(net, np.zeros((1, 4, 4), dtype=DTYPE))


def test_forward_rejects_nonfinite_result():
    big = np.full((2, 64), 3e38, dtype=DTYPE)
    net = NetworkSpec((1, 8, 8), [
        FlattenLayer(), DenseLayer(big, np.zeros(2, dtype=DTYPE)), OutputLayer(2),
    ])
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        forward(net, np.ones((1, 8, 8), dtype=DTYPE))


def test_output_is_probability_vector():
    net = random_small_net()
    img = Rng(6, 0).uniform(0, 1, (1, 8, 8)).astype(DTYPE)
    trace = forward(net, img)
    assert np.all(trace.output >= 0)
    assert abs(float(trace.output.sum()) - 1.0) < 1e-6
    assert trace.predicted_class == int(np.argmax(trace.output))


# ---------------------------------------------------------------------------
# forward_batch

def test_batch_of_one_equals_forward():
    net = random_small_net()
    img = Rng(7, 0).uniform(0, 1, (1, 8, 8)).astype(DTYPE)
    solo = forward(net, img)
    batch = forward_batch(net, [img], (1,))
    assert batch.output.shape == (1, 2)
    assert np.array_equal(batch.output[0], solo.output)
    assert np.array_equal(batch.conv_acts[1][0], solo.conv_acts[1])


def test_duplicated_image_identical_traces():
    net = random_small_net()
    img = Rng(8, 0).uniform(0, 1, (1, 8, 8)).astype(DTYPE)
    batch = forward_batch(net, [img] * 3, (1,))
    for i in (1, 2):
        assert np.array_equal(batch.output[i], batch.output[0])
        assert np.array_equal(batch.conv_acts[1][i], batch.conv_acts[1][0])


# N = 1, 7, 8 and 11 sit on either side of the walk's 8-image chunk edge
@pytest.mark.parametrize("n", [1, 7, 8, 11])
def test_batch_matches_per_image_forward(n):
    net = reference_network(Rng(21, 0))
    images = Rng(22, n).uniform(0, 1, (n, 3, 32, 32)).astype(DTYPE)
    batch = forward_batch(net, images, range(2, 7))
    assert sorted(batch.conv_acts) == [2, 3, 4, 5, 6]
    assert batch.output.shape == (n, 2)
    for i, image in enumerate(images):
        solo = forward(net, image)
        for k, maps in batch.conv_acts.items():
            assert maps.shape == (n,) + solo.conv_acts[k].shape
            assert np.array_equal(maps[i], solo.conv_acts[k])
        assert np.max(np.abs(batch.output[i] - solo.output)) <= 2.0 ** -22


def test_batch_error_names_sample():
    net = random_small_net()
    good = np.zeros((1, 8, 8), dtype=DTYPE)
    bad = np.zeros((1, 4, 4), dtype=DTYPE)
    with pytest.raises(DataFormatError, match="sample 1"):
        forward_batch(net, [good, bad], (1,))


def test_batch_nonfinite_output_names_sample():
    big = np.full((2, 64), 3e38, dtype=DTYPE)
    net = NetworkSpec((1, 8, 8), [
        FlattenLayer(), DenseLayer(big, np.zeros(2, dtype=DTYPE)), OutputLayer(2),
    ])
    images = np.zeros((10, 1, 8, 8), dtype=DTYPE)
    images[9] = 1.0  # in the second chunk
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="sample 9"):
        forward_batch(net, images, ())


def test_batch_rejects_layer_outside_network():
    net = random_small_net()
    with pytest.raises(UsageError):
        forward_batch(net, [np.zeros((1, 8, 8), dtype=DTYPE)], (2,))


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=80, deadline=None)
@given(st.integers(4, 20), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2))
def test_conv_extent_matches_enumeration(extent, kernel, stride, pad):
    if kernel > extent + 2 * pad:
        return
    count = sum(1 for i in range(extent + 2 * pad)
                if i % stride == 0 and i + kernel <= extent + 2 * pad)
    assert conv_out_extent(extent, kernel, stride, pad) == count


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 3))
def test_switch_points_at_pooled_max(seed, window, stride):
    x = Rng(seed, 0).uniform(0, 1, (2, 7, 7)).astype(DTYPE)
    out, switches = maxpool_forward(x[None], MaxPoolLayer(window, stride))
    out, switches = out[0], switches[0]
    flat = x.reshape(2, -1)
    for ch in range(out.shape[0]):
        picked = flat[ch][switches[ch].reshape(-1)]
        assert np.array_equal(picked, out[ch].reshape(-1))
    want, want_arg = naive_maxpool(x, window, stride)
    assert np.array_equal(out, want)
    assert np.array_equal(switches.astype(np.int64), want_arg)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 3), st.integers(1, 4))
def test_pool_kernels_match_naive_on_ties(seed, window, stride, levels):
    # a few integer levels with most cells clipped to 0, as after a relu:
    # ties in most windows, and all-zero windows among them
    x = np.maximum(np.floor(Rng(seed, 0).uniform(-levels, levels, (2, 3, 9, 8))), 0).astype(DTYPE)
    x[1, 2] = 0
    layer = MaxPoolLayer(window, stride)
    values = maxpool_values(x, layer)
    pooled, switches = maxpool_forward(x, layer)
    for n in range(2):
        want, want_arg = naive_maxpool(x[n], window, stride)
        assert np.array_equal(values[n], want)
        assert np.array_equal(pooled[n], want)
        assert np.array_equal(switches[n].astype(np.int64), want_arg)


@pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
def test_pool_nan_propagates_and_switches_stay_in_window(window, stride):
    x = Rng(31, 0).uniform(0, 1, (1, 2, 7, 7)).astype(DTYPE)
    x[0, 0, 1, 1] = np.nan
    x[0, 1] = np.nan  # every window of this plane is all NaN
    layer = MaxPoolLayer(window, stride)
    pooled, switches = maxpool_forward(x, layer)
    assert np.array_equal(maxpool_values(x, layer), pooled, equal_nan=True)
    assert np.isnan(pooled[0, 0, 0, 0]) and np.isnan(pooled[0, 1]).all()
    ho, wo = pooled.shape[2:]
    rows, cols = np.divmod(switches, 7)
    top = (np.arange(ho) * stride)[:, None]
    left = (np.arange(wo) * stride)[None, :]
    assert ((rows >= top) & (rows < top + window) & (cols >= left) & (cols < left + window)).all()


def test_nan_image_is_rejected():
    net = random_small_net()
    images = Rng(32, 0).uniform(0, 1, (3, 1, 8, 8)).astype(DTYPE)
    images[2, 0, 3, 3] = np.nan
    with pytest.raises(NumericError, match="sample 2"):
        forward_batch(net, images, (1,))
    with pytest.raises(NumericError):
        forward(net, images[2])


@pytest.fixture
def pool_switch_calls(monkeypatch):
    calls = []
    real = network.maxpool_forward

    def counting(x, layer):
        calls.append(len(x))
        return real(x, layer)

    monkeypatch.setattr(network, "maxpool_forward", counting)
    return calls


def test_only_walks_that_keep_switches_build_them(pool_switch_calls):
    net = reference_network(Rng(23, 0))
    images = Rng(24, 0).uniform(0, 1, (11, 3, 32, 32)).astype(DTYPE)
    forward_batch(net, images, range(1, 8))
    evaluate_accuracy(net, images, np.zeros(11, dtype=np.int64))
    assert pool_switch_calls == []
    forward(net, images[0])
    loss_gradients(net, images[:4], np.zeros(4, dtype=np.int64))
    assert pool_switch_calls == [1] * 3 + [4] * 3  # the reference net's 3 pools


def test_train_runs_no_extra_forwards(conv_calls):
    images = Rng(25, 0).uniform(0, 1, (10, 3, 32, 32)).astype(DTYPE)
    labels = np.arange(10) % 2
    train(reference_network(Rng(26, 0)), images, labels, TrainConfig(epochs=2, lr=0.01, batch_size=4),
          Rng(27, 0))
    # 2 epochs x 3 minibatches (4 + 4 + 2 images) x 7 convs, one forward each
    assert conv_calls == ([4] * 7 + [4] * 7 + [2] * 7) * 2


def _step_peak_and_patch_bytes():
    """tracemalloc peak of a 32-image reference-net training step, and the
    bytes of each conv's whole-batch [N, C*kh*kw, Ho*Wo] patch matrix."""
    net = reference_network(Rng(28, 0))
    xb = Rng(29, 0).uniform(0, 1, (32, 3, 32, 32)).astype(DTYPE)
    yb = np.arange(32) % 2
    patch_bytes = [len(xb) * xb.itemsize * math.prod(net.layers[pos].w.shape[1:])
                   * math.prod(net.out_shapes[pos][1:]) for pos in net.conv_positions]
    tracemalloc.start()
    try:
        loss_gradients(net, xb, yb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, patch_bytes


def test_training_step_holds_no_patch_matrices():
    # a step that kept every conv's patch matrix until backward would peak
    # above their sum alone (about 50.6 MiB here)
    peak, patch_bytes = _step_peak_and_patch_bytes()
    assert peak < sum(patch_bytes)


def test_training_step_builds_no_whole_batch_patch_matrix():
    # the largest conv's patch matrix over the whole batch is 18.0 MiB; the
    # kernels build patch matrices a chunk at a time and input gradients a
    # kernel tap at a time
    peak, patch_bytes = _step_peak_and_patch_bytes()
    assert peak < max(patch_bytes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 2), st.integers(0, 1), st.integers(3, 9), st.integers(3, 9))
def test_batched_conv_kernels_match_per_sample_loops(seed, c, o, kh, kw, stride, pad, h, w):
    if kh > h + 2 * pad or kw > w + 2 * pad:
        return
    r = Rng(seed, 0)
    x = r.split(0).uniform(-1, 1, (3, c, h, w))
    layer = ConvLayer(r.split(1).uniform(-1, 1, (o, c, kh, kw)), r.split(2).uniform(-1, 1, (o,)),
                      stride=stride, pad=pad)
    out = conv_forward_cols(x, layer)[0]
    assert np.array_equal(out, conv_forward_cols(x, layer)[0])
    dout = r.split(3).uniform(-1, 1, out.shape)
    dx = conv_input_grad(dout, layer, x.shape)
    dw, db = conv_param_grad(dout, x, layer)
    assert dx.shape == x.shape and dw.shape == layer.w.shape and db.shape == layer.b.shape
    want_dw, want_db = np.zeros(layer.w.shape), np.zeros(o)
    for n in range(3):
        assert np.allclose(out[n], naive_conv(x[n], layer.w, layer.b, stride, pad), rtol=0, atol=1e-12)
        want_dx = naive_conv_input_grad(dout[n], layer.w, x.shape[1:], stride, pad)
        assert np.allclose(dx[n], want_dx, rtol=0, atol=1e-12)
        sample_dw, sample_db = naive_conv_param_grad(dout[n], x[n], layer.w.shape, stride, pad)
        want_dw += sample_dw
        want_db += sample_db
    assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
    assert np.allclose(db, want_db, rtol=0, atol=1e-12)
    # In float32, as the program runs, the per-tap input gradient is the
    # column-matrix one bit for bit. Not for a one-cell output: numpy runs
    # that kernel's [kh*kw*C, O] @ [O, 1] product as a matrix-vector product,
    # which rounds differently from the per-tap matrix products.
    if out.shape[2] * out.shape[3] > 1:
        layer32 = ConvLayer(layer.w.astype(np.float32), layer.b.astype(np.float32), stride=stride, pad=pad)
        dout32 = dout.astype(np.float32)
        assert np.array_equal(conv_input_grad(dout32, layer32, x.shape),
                              col2im_conv_input_grad(dout32, layer32, x.shape))


def _reference_conv_shapes():
    """(layer, input shape, output shape) of each distinct conv of the
    reference net."""
    net = reference_network(Rng(31, 0))
    shapes = {}
    for pos in net.conv_positions:
        shapes.setdefault((net.layers[pos].w.shape, net.in_shapes[pos]),
                          (net.layers[pos], net.in_shapes[pos], net.out_shapes[pos]))
    return list(shapes.values())


@pytest.mark.parametrize("n", [1, 5, 8, 32])
def test_input_grad_matches_column_matrix_kernel(n):
    shapes = _reference_conv_shapes()
    assert len(shapes) == 6
    for k, (layer, in_shape, out_shape) in enumerate(shapes):
        dout = Rng(32, k).normal(0, 1, (n,) + out_shape).astype(DTYPE)
        x_shape = (n,) + in_shape
        assert np.array_equal(conv_input_grad(dout, layer, x_shape), col2im_conv_input_grad(dout, layer, x_shape))


@pytest.mark.parametrize("n", [11, 32])
def test_param_grad_matches_whole_batch_patch_matrix(n):
    # 11 images leave a last chunk of 3
    for k, (layer, in_shape, _) in enumerate(_reference_conv_shapes()):
        x = Rng(33, k).uniform(-1, 1, (n,) + in_shape).astype(DTYPE)
        out, cols = conv_forward_cols(x, layer)
        dout = Rng(34, k).normal(0, 1, out.shape).astype(DTYPE)
        dmat = dout.reshape(n, layer.w.shape[0], -1)
        dw, db = conv_param_grad(dout, x, layer)
        assert np.array_equal(dw, (cols @ dmat.transpose(0, 2, 1)).sum(axis=0).T.reshape(layer.w.shape))
        assert np.array_equal(db, dmat.sum(axis=(0, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_softmax_simplex_and_shift(seed):
    z = (Rng(seed, 0).uniform(0, 1, (6,)) * 20 - 10).astype(DTYPE)
    p = softmax(z)
    assert abs(float(p.sum()) - 1.0) < 1e-6
    assert np.all(p >= 0)
    q = softmax(z + 5.0)
    assert np.max(np.abs(p - q)) < 1e-6


# ---------------------------------------------------------------------------
# training

def separable_toy():
    r = Rng(21, 0)
    imgs, labels = [], []
    for i in range(10):
        img = (r.split(i).uniform(0, 1, (1, 8, 8)) * 0.1).astype(DTYPE)
        if i % 2:
            img[0, :4, :] += 0.8
        else:
            img[0, 4:, :] += 0.8
        imgs.append(np.clip(img, 0, 1))
        labels.append(i % 2)
    return np.stack(imgs), np.array(labels)


def test_lr_zero_leaves_weights():
    net = random_small_net(3)
    before = net.copy()
    xs, ys = separable_toy()
    result = train(net, xs, ys, TrainConfig(epochs=2, lr=0.0), Rng(0, 0))
    assert networks_equal(result.net, before)


def test_overfits_toy_set():
    xs, ys = separable_toy()
    net = random_small_net(4)
    result = train(net, xs, ys, TrainConfig(epochs=60, lr=0.1, batch_size=5), Rng(1, 0))
    assert evaluate_accuracy(result.net, xs, ys) == 1.0


def test_checkpoints_one_per_epoch():
    xs, ys = separable_toy()
    result = train(random_small_net(5), xs, ys, TrainConfig(epochs=3, lr=0.01), Rng(2, 0))
    assert len(result.checkpoints) == 3
    assert len(result.losses) == 3
    assert networks_equal(result.checkpoints[-1], result.net)


def test_training_is_deterministic():
    xs, ys = separable_toy()
    a = train(random_small_net(6), xs, ys, TrainConfig(epochs=2, lr=0.05), Rng(3, 0))
    b = train(random_small_net(6), xs, ys, TrainConfig(epochs=2, lr=0.05), Rng(3, 0))
    assert networks_equal(a.net, b.net)


def test_divergence_reports_epoch():
    # lr large enough to overflow binary32 weights in one step; the next
    # step then sees a non-finite loss
    xs, ys = separable_toy()
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch"):
        train(random_small_net(7), xs, ys,
              TrainConfig(epochs=1, lr=1e39, batch_size=5), Rng(4, 0))


def test_gradcheck_small():
    assert run_gradcheck(3) < 1e-2


def two_pool_net(window, stride, side, seed):
    """float64 conv-relu-pool-conv-relu-pool-dense net on [2, side, side]."""
    r = Rng(seed, 0)
    p1 = (side - window) // stride + 1
    p2 = (p1 - window) // stride + 1
    return NetworkSpec((2, side, side), [
        ConvLayer(r.split(0).uniform(-0.5, 0.5, (3, 2, 3, 3)), r.split(1).uniform(-0.1, 0.1, (3,)),
                  stride=1, pad=1),
        ReluLayer(), MaxPoolLayer(window, stride),
        ConvLayer(r.split(2).uniform(-0.5, 0.5, (4, 3, 3, 3)), r.split(3).uniform(-0.1, 0.1, (4,)),
                  stride=1, pad=1),
        ReluLayer(), MaxPoolLayer(window, stride),
        FlattenLayer(),
        DenseLayer(r.split(4).uniform(-0.5, 0.5, (3, 4 * p2 * p2)), r.split(5).uniform(-0.1, 0.1, (3,))),
        OutputLayer(3),
    ])


# 2x2/2 pools never overlap (plain assignment in maxpool_backward); 3x3/2
# pools share border cells (np.add.at)
@pytest.mark.parametrize("window,stride,side", [(2, 2, 8), (3, 2, 11)])
def test_gradcheck_through_two_pools(window, stride, side):
    net = two_pool_net(window, stride, side, seed=window)
    r = Rng(40 + window, 0)
    xb = r.split(0).uniform(0, 1, (3, 2, side, side))
    yb = np.array([0, 1, 2])
    _, grads = loss_gradients(net, xb, yb)
    assert sorted(grads) == [0, 3, 7]
    eps = 1e-6
    worst = 0.0
    for pos, (dw, db) in grads.items():
        layer = net.layers[pos]
        for arr, grad in ((layer.w, dw), (layer.b, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + eps
                lp, _ = loss_gradients(net, xb, yb)
                flat[idx] = keep - eps
                lm, _ = loss_gradients(net, xb, yb)
                flat[idx] = keep
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6))
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_bitwise(tmp_path):
    net = reference_network(Rng(10, 0))
    c, m = tmp_path / "net.nnwc", tmp_path / "net.manifest"
    save_weights(net, c, m)
    loaded = load_weights(c, m)
    assert networks_equal(net, loaded)


def test_corrupt_magic_rejected(tmp_path):
    net = random_small_net()
    c, m = tmp_path / "net.nnwc", tmp_path / "net.manifest"
    save_weights(net, c, m)
    blob = bytearray(c.read_bytes())
    blob[:4] = b"XXXX"
    c.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError):
        load_weights(c, m)


def test_truncation_names_layer(tmp_path):
    net = random_small_net()
    c, m = tmp_path / "net.nnwc", tmp_path / "net.manifest"
    save_weights(net, c, m)
    blob = c.read_bytes()
    c.write_bytes(blob[: int(len(blob) * 0.4)])
    with pytest.raises(DataFormatError, match="layer"):
        load_weights(c, m)


def test_manifest_shape_mismatch_rejected(tmp_path):
    net = random_small_net()
    c, m = tmp_path / "net.nnwc", tmp_path / "net.manifest"
    save_weights(net, c, m)
    text = m.read_text().replace("kh=3", "kh=5")
    m.write_text(text)
    with pytest.raises(DataFormatError):
        load_weights(c, m)


def test_reference_network_shape():
    net = reference_network(Rng(0, 0))
    assert net.input_shape == (3, 32, 32)
    assert len(net.conv_positions) == 7
    assert [net.conv_layer(i).w.shape[0] for i in range(1, 8)] == [16, 16, 32, 32, 32, 64, 64]
    img = np.zeros((3, 32, 32), dtype=DTYPE)
    trace = forward(net, img)
    assert trace.output.shape == (2,)
