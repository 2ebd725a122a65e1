"""Checks for the array kernels of the tensor engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import kernels


class TestNumpyReference:
    def test_im2col_small_case(self):
        # frozen by hand: rows are sliding windows, flattened time-major
        x = np.arange(8.0).reshape(4, 2)
        out = kernels.im2col(x, 2, np.arange(3))
        expected = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [2.0, 3.0, 4.0, 5.0],
                [4.0, 5.0, 6.0, 7.0],
            ]
        )
        np.testing.assert_array_equal(out, expected)

    def test_col2im_small_case(self):
        g = np.ones((3, 4))
        out = kernels.col2im(g, 2, np.arange(3), 4)
        # interior rows receive two overlapping windows
        expected = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(out, expected)

    def test_rows_max_values_and_ties(self):
        x = np.array([[1.0, 5.0], [4.0, 5.0], [4.0, 2.0]])
        vals, idx = kernels.rows_max(x)
        np.testing.assert_array_equal(vals, [4.0, 5.0])
        np.testing.assert_array_equal(idx, [1, 0])  # ties go to the lowest row

    def test_scatter_add_rows_accumulates_duplicates(self):
        rows = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
        ids = np.array([1, 1, 0], dtype=np.int64)
        out = kernels.scatter_add_rows(4, ids, rows)
        expected = np.array([[100.0, 200.0], [11.0, 22.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(out, expected)


@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_im2col_round_trip_identity(width, c, seed):
    """col2im(im2col(x)) multiplies each row by its window coverage count."""
    rng = np.random.default_rng(seed)
    length = width + int(rng.integers(0, 6))
    x = rng.normal(size=(length, c))
    starts = np.arange(length - width + 1)
    folded = kernels.col2im(kernels.im2col(x, width, starts), width, starts, length)
    coverage = np.array([min(t, length - width, width - 1, length - 1 - t) + 1 for t in range(length)])
    np.testing.assert_allclose(folded, x * coverage[:, None], rtol=1e-12)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_im2col_col2im_with_starts_adjoint(width, c, seed):
    """<im2col(x, w, s), y> == <x, col2im(y, w, s, rows)> for strictly increasing s,
    the windows the encoder takes at each sentence's rows."""
    rng = np.random.default_rng(seed)
    rows = width + int(rng.integers(0, 8))
    starts = np.flatnonzero(rng.random(rows - width + 1) < 0.6)
    x = rng.normal(size=(rows, c))
    y = rng.normal(size=(starts.size, width * c))
    lhs = np.sum(kernels.im2col(x, width, starts) * y)
    rhs = np.sum(x * kernels.col2im(y, width, starts, rows))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
