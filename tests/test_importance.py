import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlens.errors import UsageError
from patchlens.importance import (
    METRICS,
    LayerScores,
    NeuronId,
    RankedSet,
    batch_reducer,
    jaccard,
    rank,
    score_act_sum,
    score_act_var,
    score_correlation,
    score_dump_text,
    score_neurons,
    score_precision,
    score_weight_sum,
    score_weight_var,
)
from patchlens.network import (
    ActivationTrace,
    BatchTrace,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    NetworkSpec,
    OutputLayer,
    ReluLayer,
)
from patchlens.pipeline import PipelineConfig
from patchlens.tensor import DTYPE, Rng, pearson_abs_columns
from oracles import fsum_total, naive_score_neurons, two_pass_variance


def fake_trace(acts_by_layer, out=(0.5, 0.5)):
    """Trace with given conv activations and output vector; no switches."""
    conv_acts = {layer: np.asarray(a, dtype=DTYPE) for layer, a in acts_by_layer.items()}
    out = np.asarray(out, dtype=DTYPE)
    return ActivationTrace(conv_acts, {}, out, int(np.argmax(out)), float(out.max()))


def fake_batch(maps, outs=None):
    """Layer-1 batch record of the given per-sample [C, H, W] maps and
    output vectors (0.5 each when not given)."""
    maps = np.asarray(maps, dtype=DTYPE)
    outs = np.full((len(maps), 2), 0.5) if outs is None else outs
    return BatchTrace({1: maps}, np.asarray(outs, dtype=DTYPE))


def two_conv_net(w2):
    """conv(2ch) -> conv(w2) so layer-1 neurons have a next-conv slice."""
    w1 = np.ones((2, 1, 1, 1), dtype=DTYPE)
    w2 = np.asarray(w2, dtype=DTYPE)
    out_ch, _, kh, kw = w2.shape
    flat = out_ch * (4 - kh + 1) * (4 - kw + 1)
    return NetworkSpec((1, 4, 4), [
        ConvLayer(w1, np.zeros(2, dtype=DTYPE)), ReluLayer(),
        ConvLayer(w2, np.zeros(out_ch, dtype=DTYPE)), ReluLayer(),
        FlattenLayer(),
        DenseLayer(np.zeros((2, flat), dtype=DTYPE), np.zeros(2, dtype=DTYPE)),
        OutputLayer(2),
    ])


# ---------------------------------------------------------------------------
# single-trace baselines

def test_act_sum_zero_map():
    t = fake_trace({1: np.zeros((1, 3, 3))})
    assert score_act_sum(t, 1).values[0] == 0.0


def test_act_sum_hand():
    t = fake_trace({1: [[[1, 2], [3, 4]]]})
    s = score_act_sum(t, 1)
    assert s.layer == 1 and s.metric == "act-sum"
    assert s.values.tolist() == [10.0]
    assert s.degenerate.tolist() == [False]


def test_act_sum_matches_oracle():
    m = Rng(31, 0).uniform(0, 1, (1, 5, 7)).astype(DTYPE)
    t = fake_trace({2: m})
    assert score_act_sum(t, 2).values[0] == pytest.approx(fsum_total(m), rel=1e-12)


def test_act_var_constant_map():
    t = fake_trace({1: np.full((1, 4, 4), 3.0)})
    assert score_act_var(t, 1).values[0] == 0.0


def test_act_var_hand():
    t = fake_trace({1: [[[0, 2], [0, 2]]]})
    assert score_act_var(t, 1).values[0] == 1.0


def test_act_var_matches_oracle():
    m = Rng(32, 0).uniform(0, 1, (1, 6, 6)).astype(DTYPE)
    t = fake_trace({1: m})
    assert abs(score_act_var(t, 1).values[0] - two_pass_variance(m)) < 1e-9


def test_bad_neuron_rejected():
    t = fake_trace({1: np.zeros((2, 3, 3))})
    for score in (score_act_sum, score_act_var):
        with pytest.raises(UsageError):
            score(t, 3)
    batch = fake_batch(np.zeros((2, 2, 3, 3)))
    with pytest.raises(UsageError):
        score_correlation(batch, 3, ref_class=1)
    with pytest.raises(UsageError):
        score_precision(batch, 3, 1e-3)
    net = two_conv_net(np.ones((2, 2, 1, 1)))
    for score in (score_weight_sum, score_weight_var):
        with pytest.raises(UsageError):
            score(net, 3)


# ---------------------------------------------------------------------------
# weight baselines

def test_weight_metrics_zero_next_layer():
    net = two_conv_net(np.zeros((3, 2, 2, 2)))
    assert score_weight_sum(net, 1).values[0] == 0.0
    assert score_weight_var(net, 1).values[0] == 0.0


def test_weight_metrics_ones_slice():
    w2 = np.zeros((2, 2, 1, 2), dtype=DTYPE)
    w2[:, 1, :, :] = 1.0  # channel 1's slice is four ones
    net = two_conv_net(w2)
    assert score_weight_sum(net, 1).values[1] == 4.0
    assert score_weight_var(net, 1).values[1] == 0.0


def test_weight_metrics_random_slice_oracle():
    w2 = (Rng(33, 0).uniform(0, 1, (3, 2, 3, 3)) - 0.5).astype(DTYPE)
    net = two_conv_net(w2)
    sl = w2[:, 0, :, :]
    assert score_weight_sum(net, 1).values[0] == pytest.approx(fsum_total(sl), rel=1e-9)
    assert abs(score_weight_var(net, 1).values[0] - two_pass_variance(sl)) < 1e-9


def test_weight_metrics_last_conv_degenerate():
    net = two_conv_net(np.ones((2, 2, 1, 1)))
    s = score_weight_sum(net, 2)
    assert s.degenerate[0] and s.values[0] == 0.0
    v = score_weight_var(net, 2)
    assert v.degenerate[1] and v.values[1] == 0.0


# ---------------------------------------------------------------------------
# correlation

def corr_batch(sums, outs):
    """One-cell batch with the given per-sample activation sums/outputs."""
    return fake_batch([[[[s]]] for s in sums], [(1 - o, o) for o in outs])


def test_correlation_dead_neuron_degenerate():
    batch = corr_batch([2.0] * 5, [0.1, 0.2, 0.3, 0.4, 0.5])
    s = score_correlation(batch, 1, ref_class=1)
    assert s.degenerate[0] and s.values[0] == 0.0


def test_correlation_affine_dependence():
    outs = [0.1, 0.3, 0.5, 0.7]
    sums = [2 * o + 3 for o in outs]
    batch = corr_batch(sums, outs)
    s = score_correlation(batch, 1, ref_class=1)
    assert s.values[0] == pytest.approx(1.0, abs=1e-9)


def test_correlation_matches_pearson_oracle():
    # batch records store binary32, so round the oracle's inputs the same way
    r = Rng(34, 0)
    sums = np.asarray(r.uniform(0, 1, (50,)), dtype=DTYPE).tolist()
    outs = np.asarray(r.split(1).uniform(0, 1, (50,)), dtype=DTYPE).tolist()
    batch = corr_batch(sums, outs)
    got = score_correlation(batch, 1, ref_class=1).values[0]
    assert got == pytest.approx(pearson_abs_columns(np.asarray(sums)[:, None], outs)[0], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       st.integers(-64, 64),
       st.sampled_from([0.25, 0.5, 2.0]))
def test_correlation_scale_invariances(a, b_num, c):
    # dyadic maps stay exact in binary32, so equality holds to 1e-9
    b = b_num / 64
    r = Rng(35, 0)
    sums = (np.floor(r.uniform(0, 1, (20,)) * 256) / 256).tolist()
    outs = (np.floor(r.split(1).uniform(0, 1, (20,)) * 256) / 256).tolist()
    base = score_correlation(corr_batch(sums, outs), 1, 1).values[0]
    mapped_s = score_correlation(corr_batch([a * s + b for s in sums], outs), 1, 1).values[0]
    assert abs(base - mapped_s) < 1e-9
    scaled_o = score_correlation(corr_batch(sums, [o * c for o in outs]), 1, 1).values[0]
    assert abs(base - scaled_o) < 1e-9


# ---------------------------------------------------------------------------
# precision

def test_precision_below_lambda_degenerate():
    batch = fake_batch([np.full((1, 2, 2), 1e-5), np.full((1, 2, 2), 2e-5)])
    s = score_precision(batch, 1, 1e-3)
    assert s.degenerate[0] and s.values[0] == 0.0


def test_precision_hand():
    batch = fake_batch([[[[0.5]]], [[[1.5]]]])
    s = score_precision(batch, 1, 1e-3)
    assert s.values[0] == pytest.approx(4.0, rel=1e-12)


def test_precision_matches_brute_force():
    r = Rng(36, 0)
    maps = [r.split(i).uniform(0, 1, (1, 3, 3)).astype(DTYPE) + 0.05 for i in range(50)]
    got = score_precision(fake_batch(maps), 1, 1e-3).values[0]
    stack = np.stack([m[0].astype(np.float64) for m in maps])
    recips = []
    for rr in range(3):
        for cc in range(3):
            v = two_pass_variance(stack[:, rr, cc])
            recips.append(1.0 / max(v, 1e-12))
    want = float(np.mean(recips))
    assert got == pytest.approx(want, rel=1e-6)


def test_precision_shift_invariant():
    r = Rng(37, 0)
    maps = [r.split(i).uniform(0, 1, (1, 2, 2)).astype(np.float64) + 0.1 for i in range(10)]
    base = score_precision(fake_batch(maps), 1, 1e-3).values[0]
    shifted = score_precision(fake_batch([m + 0.7 for m in maps]), 1, 1e-3).values[0]
    assert shifted == pytest.approx(base, rel=1e-6)


def test_precision_zero_variance_capped():
    batch = fake_batch([np.full((1, 2, 2), 0.5)] * 4)
    s = score_precision(batch, 1, 1e-3)
    assert s.values[0] == pytest.approx(1e12, rel=1e-9)
    assert not s.degenerate[0]


# ---------------------------------------------------------------------------
# ranking

def scores_from(values, metric="act-sum", layer=1, degenerate=()):
    """A layer's record as the scorers build it: degenerate channels read 0.0."""
    dead = np.isin(np.arange(len(values)), list(degenerate))
    return LayerScores(metric, layer, np.where(dead, 0.0, values), dead)


def test_rank_top_by_value():
    rs = rank([scores_from([0.1, 0.9, 0.5])], 2)
    assert rs.layers[1] == [NeuronId(1, 1), NeuronId(1, 2)]
    assert not rs.shortfalls


def test_rank_tie_prefers_low_channel():
    rs = rank([scores_from([0.7, 0.7, 0.7])], 2)
    assert rs.layers[1] == [NeuronId(1, 0), NeuronId(1, 1)]


def test_rank_matches_sort_oracle():
    vals = Rng(38, 0).uniform(0, 1, (64,)).tolist()
    rs = rank([scores_from(vals)], 5)
    order = sorted(range(64), key=lambda ch: (-vals[ch], ch))[:5]
    assert rs.layers[1] == [NeuronId(1, ch) for ch in order]


def test_rank_excludes_degenerate_and_records_shortfall():
    rs = rank([scores_from([0.9, 0.8, 0.7], degenerate=(0, 1))], 2)
    assert rs.layers[1] == [NeuronId(1, 2)]
    assert rs.shortfalls == {1: 1}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, -0.5, 3.0])
                          | st.floats(-1e6, 1e6, allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=40),
       st.integers(1, 8))
def test_rank_order_matches_sort_key(rows, n_top):
    # ties, +-0.0 and degenerate flags; ranking and dump both read this order
    rec = scores_from([v for v, _ in rows], degenerate=[c for c, (_, d) in enumerate(rows) if d])
    values, degenerate = rec.values.tolist(), rec.degenerate.tolist()
    want = sorted(range(len(rows)), key=lambda c: (degenerate[c], -values[c], c))
    assert rec.order().tolist() == want
    live = [NeuronId(1, c) for c in want if not degenerate[c]]
    assert rank([rec], n_top).layers[1] == live[:n_top]
    dumped = [int(line.split("\t")[1]) for line in score_dump_text([rec]).split("\n")[1:-1]]
    assert dumped == want


def test_rank_rejects_bad_top_count():
    for n_top in (0, -1):
        with pytest.raises(UsageError):
            rank([scores_from([0.9, 0.8])], n_top)


def test_rank_empty_layer_range_rejected():
    with pytest.raises(UsageError):
        PipelineConfig(layer_range=(3, 2))


# ---------------------------------------------------------------------------
# jaccard

def ranked(picks_by_layer, metric="act-sum", layer_range=(1, 2)):
    rs = RankedSet(metric, layer_range)
    for layer, chans in picks_by_layer.items():
        rs.layers[layer] = [NeuronId(layer, c) for c in chans]
    return rs


def test_jaccard_identical_sets():
    a = ranked({1: [1, 2, 3]})
    b = ranked({1: [1, 2, 3]})
    assert jaccard(a, b) == 1.0


def test_jaccard_disjoint():
    assert jaccard(ranked({1: [0, 1, 2, 3, 4]}), ranked({1: [5, 6, 7, 8, 9]})) == 0.0


def test_jaccard_hand():
    assert jaccard(ranked({1: [1, 2, 3]}), ranked({1: [2, 3, 4]})) == 0.5


def test_jaccard_empty_sets_equal():
    assert jaccard(ranked({}), ranked({})) == 1.0


def test_jaccard_range_mismatch_rejected():
    with pytest.raises(UsageError):
        jaccard(ranked({1: [0]}), ranked({1: [0]}, layer_range=(1, 3)))


def test_jaccard_layer_tagged():
    # same channel numbers on different layers must not collide
    a = ranked({1: [0, 1], 2: []})
    b = ranked({1: [], 2: [0, 1]})
    assert jaccard(a, b) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=6), st.sets(st.integers(0, 9), max_size=6))
def test_jaccard_axioms(xs, ys):
    a, b = ranked({1: sorted(xs)}), ranked({1: sorted(ys)})
    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(b, a)
    assert (j == 1.0) == (xs == ys)


# ---------------------------------------------------------------------------
# whole-net scoring

def test_score_neurons_covers_range_and_is_deterministic():
    from patchlens.network import forward, forward_batch
    from patchlens.perturbation import perturb_batch

    r = Rng(39, 0)
    w2 = (r.uniform(0, 1, (3, 2, 3, 3)) - 0.5).astype(DTYPE)
    net = two_conv_net(w2)
    img = r.split(1).uniform(0, 1, (1, 4, 4)).astype(DTYPE)
    original = forward(net, img)
    layers = range(1, 3)
    batch = forward_batch(net, perturb_batch(img, 8, 0.1, 0), layers)
    a = score_neurons(net, original, batch, layers)
    b = score_neurons(net, original, batch, layers)
    assert list(a) == list(b) == list(METRICS)
    for m in METRICS:
        # bitwise: every record's arrays compare byte for byte
        assert [(x.metric, x.layer, x.values.tobytes(), x.degenerate.tobytes()) for x in a[m]] == \
            [(y.metric, y.layer, y.values.tobytes(), y.degenerate.tobytes()) for y in b[m]]
        assert [(x.metric, x.layer) for x in a[m]] == [(m, 1), (m, 2)]
        assert sum(len(x.values) for x in a[m]) == 2 + 3


def test_score_neurons_range_checked():
    net = two_conv_net(np.ones((2, 2, 1, 1)))
    t = fake_trace({1: np.zeros((2, 4, 4)), 2: np.zeros((2, 4, 4))})
    batch = BatchTrace({1: np.zeros((2, 2, 4, 4)), 2: np.zeros((2, 2, 4, 4))}, np.full((2, 2), 0.5))
    with pytest.raises(UsageError):
        score_neurons(net, t, batch, range(1, 6))


def test_score_dump_layout():
    rows = [scores_from([0.3, 0.9], metric="act-sum"), scores_from([0.1, 0.2], metric="act-var")]
    text = score_dump_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "layer\tchannel\tmetric\tvalue\tdegenerate"
    assert len(lines) == 5
    # act-sum rows sort before act-var, higher value first within a layer
    assert lines[1].split("\t")[:4] == ["1", "1", "act-sum", "0.9"]
    assert lines[2].split("\t")[:4] == ["1", "0", "act-sum", "0.3"]


def test_score_neurons_matches_per_neuron_oracle():
    from patchlens.network import forward, forward_batch, reference_network
    from patchlens.perturbation import perturb_batch

    net = reference_network(Rng(40, 0))
    img = Rng(40, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    layers = range(1, 8)
    original = forward(net, img)
    batch = forward_batch(net, perturb_batch(img, 12, 0.1, 0), layers)
    got = [(m, rec.layer, ch, value, dead)
           for m, records in score_neurons(net, original, batch, layers, 1e-3).items()
           for rec in records
           for ch, (value, dead) in enumerate(zip(rec.values.tolist(), rec.degenerate.tolist()))]
    want = naive_score_neurons(net, original, batch, layers, 1e-3)
    assert [(m, layer, ch, dead) for m, layer, ch, _, dead in got] == \
        [row[:3] + (row[4],) for row in want]
    assert any(row[4] for row in got) and not all(row[4] for row in got)
    for s, row in zip(got, want):
        if s[0] == "act-out-corr":
            assert abs(s[3] - row[3]) <= 1e-12
        else:
            assert s[3] == row[3], (s, row)


@pytest.mark.parametrize("seed", [41, 42])
def test_streamed_batch_scores_match_kept_maps(seed):
    # the explain's walk keeps only what the batch metrics read of each
    # layer; both metrics must score it byte for byte as from kept maps
    from patchlens.network import forward, forward_batch, reference_network
    from patchlens.perturbation import perturb_batch

    net = reference_network(Rng(seed, 0))
    img = Rng(seed, 1).uniform(0, 1, (3, 32, 32)).astype(DTYPE)
    layers = range(1, 8)
    metrics = ("act-out-corr", "act-precision")
    original = forward(net, img)
    noisy = perturb_batch(img, 12, 0.1, 0)
    streamed = forward_batch(net, noisy, layers, batch_reducer(metrics))
    kept = forward_batch(net, noisy, layers)
    assert all(isinstance(r, dict) for r in streamed.conv_acts.values())
    got = score_neurons(net, original, streamed, layers, 1e-3, metrics)
    want = score_neurons(net, original, kept, layers, 1e-3, metrics)
    for m in metrics:
        assert [(x.metric, x.layer, x.values.tobytes(), x.degenerate.tobytes()) for x in got[m]] == \
            [(y.metric, y.layer, y.values.tobytes(), y.degenerate.tobytes()) for y in want[m]]


def test_batch_metric_not_reduced_is_rejected():
    from patchlens.network import forward_batch, reference_network

    net = reference_network(Rng(43, 0))
    images = Rng(43, 1).uniform(0, 1, (3, 3, 32, 32)).astype(DTYPE)
    batch = forward_batch(net, images, (2,), batch_reducer(("act-out-corr",)))
    assert score_correlation(batch, 2, ref_class=0).layer == 2
    with pytest.raises(UsageError, match="act-precision"):
        score_precision(batch, 2, 1e-3)
