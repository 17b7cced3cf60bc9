import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from patchlens.errors import NumericError
from patchlens.tensor import (
    DTYPE,
    Rng,
    ensure_finite,
    pearson_abs_columns,
    tensor_sum,
    variance,
)
from oracles import sorted_fsum, two_pass_pearson_abs, two_pass_variance


# ---------------------------------------------------------------------------
# Rng.normal: the perturbation noise draw

def test_zero_stddev_is_constant():
    t = Rng(0, 0).normal(1.0, 0.0, (2, 2))
    assert t.shape == (2, 2)
    assert t.dtype == DTYPE
    assert np.array_equal(t, np.ones((2, 2), dtype=DTYPE))


def test_same_stream_bit_identical():
    a = Rng(42, 0).normal(1.0, 0.1, (3, 5, 7))
    b = Rng(42, 0).normal(1.0, 0.1, (3, 5, 7))
    assert a.tobytes() == b.tobytes()


def test_distinct_streams_differ():
    a = Rng(42, 0).normal(1.0, 0.1, (4, 4))
    b = Rng(42, 1).normal(1.0, 0.1, (4, 4))
    assert not np.array_equal(a, b)


def test_sample_mean_converges():
    t = Rng(7, 0).normal(1.0, 0.1, (64, 64))
    assert abs(float(t.mean()) - 1.0) < 0.01


def test_negative_stddev_rejected():
    with pytest.raises(ValueError):
        Rng(0, 0).normal(0.0, -0.1, (2, 2))


def test_split_is_pure():
    r = Rng(3, 9)
    a = r.split(2)
    b = r.split(2)
    assert a.normal(0, 1, (8,)).tobytes() == b.normal(0, 1, (8,)).tobytes()
    assert not np.array_equal(r.split(0).normal(0, 1, (8,)), r.split(1).normal(0, 1, (8,)))


# ---------------------------------------------------------------------------
# sum

def test_sum_small():
    assert tensor_sum(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=DTYPE)) == 10.0


def test_sum_zeros():
    assert tensor_sum(np.zeros((5, 5), dtype=DTYPE)) == 0.0


def test_sum_against_sorted_accumulation():
    vals = Rng(11, 0).uniform(0, 1, (1000,))
    got = tensor_sum(vals.astype(DTYPE))
    want = sorted_fsum(vals.astype(DTYPE))
    assert abs(got - want) <= 1e-6 * abs(want)


# ---------------------------------------------------------------------------
# variance

def test_variance_constant_zero():
    assert variance(np.full((3, 3), 2.5, dtype=DTYPE)) == 0.0


def test_variance_hand():
    assert variance(np.array([0.0, 2.0], dtype=DTYPE)) == 1.0


def test_variance_two_pass_oracle():
    vals = (Rng(12, 0).uniform(0, 1, (256,)) * 3 - 1).astype(DTYPE)
    assert abs(variance(vals) - two_pass_variance(vals)) < 1e-9


def test_variance_empty_rejected():
    with pytest.raises(ValueError):
        variance(np.zeros((0,), dtype=DTYPE))


# ---------------------------------------------------------------------------
# pearson_abs_columns

def pearson(xs, ys) -> float:
    """|r| of one sequence pair: a one-column call, NaN when degenerate."""
    return float(pearson_abs_columns(np.ravel(xs)[:, None], ys)[0])


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_two_pass_oracle():
    r = Rng(13, 0)
    xs = r.uniform(0, 1, (50,))
    ys = r.split(1).uniform(0, 1, (50,))
    assert abs(pearson(xs, ys) - two_pass_pearson_abs(xs, ys)) < 1e-9


def test_pearson_zero_variance_degenerate():
    assert math.isnan(pearson([1.0, 1.0, 1.0], [1, 2, 3]))
    assert math.isnan(pearson([1, 2, 3], [5.0, 5.0, 5.0]))


def test_pearson_needs_two_points():
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])


# ---------------------------------------------------------------------------
# properties

finite_f = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@example([0.0, 0.0, 3.7694453920911457e-32], 1.0, 0.35)  # maps ys to a constant
@given(st.lists(finite_f, min_size=3, max_size=40),
       st.floats(min_value=-8, max_value=8).filter(lambda a: abs(a) > 1e-3),
       st.floats(min_value=-100, max_value=100))
def test_pearson_affine_invariant(ys, a, b):
    n = len(ys)
    xs = Rng(17, 0).uniform(0, 1, (n,))
    mapped_ys = [a * y + b for y in ys]
    # the map must keep ys's spread far above the float64 spacing of its
    # values, or rounding alone reshapes (or flattens) the mapped sequence
    assume(abs(a) * (max(ys) - min(ys)) > 1e-7 * max(abs(v) for v in mapped_ys))
    base = pearson(xs, ys)
    if math.isnan(base):
        return
    mapped = pearson(xs, mapped_ys)
    assert abs(base - mapped) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 6), st.sets(st.integers(0, 5)),
       st.booleans(), st.integers(0, 10_000))
def test_pearson_columns_match_scalar(n, k, constant, constant_y, seed):
    r = Rng(seed, 0)
    x = (r.uniform(0, 1, (n, k)) - 0.5) * 10
    for j in constant:
        if j < k:
            x[:, j] = x[0, j]
    y = np.full(n, 0.25) if constant_y else r.split(1).uniform(0, 1, (n,)).astype(DTYPE)
    got = pearson_abs_columns(x, y)
    assert got.shape == (k,)
    for j in range(k):
        want = pearson_abs_columns(x[:, j:j + 1], y)[0]
        if math.isnan(want):
            assert math.isnan(got[j])
        else:
            assert got[j] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_f, min_size=1, max_size=64),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_variance_shift_invariant(vals, c):
    t = np.array(vals, dtype=np.float64)
    v0 = variance(t)
    v1 = variance(t + c)
    assert abs(v0 - v1) <= 1e-6 * max(v0, 1.0)


def test_sum_variance_oracle_sweep():
    for i in range(100):
        r = Rng(100 + i, 0)
        n = int(r.integers(1, 400))
        t = ((r.uniform(0, 1, (n,)) - 0.3) * 5).astype(DTYPE)
        assert abs(tensor_sum(t) - sorted_fsum(t)) <= 1e-9 * max(abs(sorted_fsum(t)), 1.0)
        assert abs(variance(t) - two_pass_variance(t)) < 1e-9


# ---------------------------------------------------------------------------
# finiteness guard

def test_ensure_finite_passes_clean():
    ensure_finite(np.ones(3, dtype=DTYPE), "clean")


def test_ensure_finite_raises():
    bad = np.array([1.0, np.nan], dtype=DTYPE)
    with pytest.raises(NumericError):
        ensure_finite(bad, "output")
