"""Float32 tensor values, seeded random streams, and the shared statistics.

Tensors are plain numpy float32 arrays; every public operation here
accumulates in float64 regardless of storage precision. Random numbers come
from counter-based Philox streams so that one master seed plus a stream id
always reproduces the same values, on any platform, in any order of use.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

DTYPE = np.float32

# Children of stream s occupy s * 2**20 + 1 .. s * 2**20 + 2**20, so split()
# chains stay collision-free up to three levels for the stream ids used here.
_SPLIT_BASE = 1 << 20


class Rng:
    """One reproducible random stream, addressed by (seed, stream).

    Generator: numpy Philox4x64 keyed with (seed, stream), values drawn
    through numpy's Generator. Identical (seed, stream) pairs give bitwise
    identical sequences; distinct streams are statistically independent.
    An Rng is single-owner: share work across threads by deriving one
    stream per unit of work, never by sharing one instance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"

    def split(self, k: int) -> "Rng":
        """Child stream k of this stream (disjoint from other children)."""
        return Rng(self.seed, self.stream * _SPLIT_BASE + k + 1)

    def normal(self, mean: float, stddev: float, shape) -> np.ndarray:
        return self._gen.normal(mean, stddev, size=shape).astype(DTYPE)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def tensor_sum(t: np.ndarray, axis=None):
    """Sum over all cells, or an array of sums over the given axes,
    accumulated in float64."""
    total = np.sum(t, axis=axis, dtype=np.float64)
    return float(total) if axis is None else total


def variance(t: np.ndarray, axis=None):
    """Population variance (two-pass, float64 accumulation) over all cells,
    or an array of variances over the given axes.

    A per-index variance over contiguous trailing axes sums its cells in the
    same order as the variance of that index's slice alone.
    """
    a = np.asarray(t, dtype=np.float64)
    if a.size == 0:
        raise ValueError("variance of an empty tensor is undefined")
    if axis is None:
        a = a.ravel()
    dev = a - a.mean(axis=axis, keepdims=True)
    dev *= dev
    v = np.mean(dev, axis=axis)
    return float(v) if axis is None else v


def pearson_abs_columns(x, y) -> np.ndarray:
    """|Pearson r| between each column of x [N, K] and y [N], in [0, 1].

    A column is NaN when it or y is constant, which callers treat as
    degenerate. Each column's means and dot products are those of the
    column alone, so a column scores bit for bit as in a one-column call.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.ndim != 2 or xa.shape[0] != ya.size:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.size}")
    if ya.size < 2:
        raise ValueError("correlation needs at least two points")
    rows = np.ascontiguousarray(xa.T)  # one contiguous row per column
    dx = rows - rows.mean(axis=1, keepdims=True)
    dy = ya - ya.mean()
    sxx = np.vecdot(dx, dx)
    syy = float(np.dot(dy, dy))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(np.vecdot(dx, dy) / np.sqrt(sxx * syy))
    r[(sxx == 0.0) | (syy == 0.0)] = np.nan
    return np.minimum(r, 1.0)


def ensure_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {context}")
