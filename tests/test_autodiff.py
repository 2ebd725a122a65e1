"""Gradient checks for the tensor engine.

Every differentiable primitive is exercised against central finite
differences (the oracle lives in conftest). Second-order behavior is
checked the same way: finite differences of a gradient-derived scalar.
"""

import dis
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import autodiff as ad
from relexpl.autodiff import GraphError, ShapeMismatchError, Tensor

from conftest import check_grads, numeric_grad, rel_err
from test_acceptance import _blockwise_distinct, _op_cases


def _squared(f):
    """t -> sum(f(t) * f(t)), applying f twice so both paths reach t."""
    return lambda t: ad.reduce_sum(ad.mul(f(t), f(t)))


class TestElementwise:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            check_grads(lambda x, y: ad.reduce_sum(ad.mul(ad.add(x, y), ad.sub(x, y))), [a, b])

    def test_sigmoid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=7)
            check_grads(lambda t: ad.reduce_sum(ad.sigmoid(t)), [x])

    def test_sigmoid_extreme_values_stable(self):
        y = ad.sigmoid(Tensor([-800.0, 800.0, 0.0]))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 1.0, 0.5], atol=1e-12)

    def test_relu_abs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            # keep points away from the kink, finite differences break there
            x = rng.normal(size=9)
            x[np.abs(x) < 0.05] += 0.1
            check_grads(lambda t: ad.reduce_sum(ad.relu(t)), [x])
            check_grads(lambda t: ad.reduce_sum(ad.absolute(t)), [x])

    def test_log_reciprocal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.5, 2.0, size=6)
            check_grads(lambda t: ad.reduce_sum(ad.log(t)), [x])
            check_grads(lambda t: ad.reduce_sum(ad.reciprocal(t)), [x])

    def test_clamp_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
        (g,) = ad.grad(ad.reduce_sum(ad.clamp(x, 0.0, 1.0)), [x])
        np.testing.assert_array_equal(g.data, [0.0, 1.0, 0.0])

    def test_scale_cadd_cmul(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=(3, 2))
        for _ in range(10):
            x = rng.normal(size=(3, 2))
            # constant operands: a python float, or an array that gets no gradient
            check_grads(lambda t: ad.reduce_sum(ad.mul(t, 2.5)), [x])
            check_grads(lambda t: ad.reduce_sum(ad.add(t, -1.25)), [x])
            check_grads(lambda t: ad.reduce_sum(ad.sub(-1.25, t)), [x])
            check_grads(lambda t: ad.reduce_sum(ad.mul(t, c)), [x])


class TestLinAlg:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            check_grads(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), [a, b])

    def test_matvec_outer_dot(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            v = rng.normal(size=3)
            u = rng.normal(size=4)
            check_grads(lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [m, v])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.reshape(a, (4, 1)), b)), [u, v])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(a, b)), [v, v + 1.0])

    def test_constant_operands_get_no_vjp(self):
        x = Tensor(np.ones(2), requires_grad=True)
        g = Tensor(np.ones(2))
        for op in (ad.add, ad.sub, ad.mul):
            for out, const_at in ((op(x, 2.0), 1), (op(2.0, x), 0)):
                contribs = out._vjp(g)
                assert contribs[const_at] is None, op.__name__
                assert contribs[1 - const_at] is not None, op.__name__

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeMismatchError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert exc.value.kernel == "matmul"
        assert exc.value.shape_a == (2, 3)
        assert exc.value.shape_b == (4, 2)


class TestBroadcast:
    def test_row_and_col_broadcasts(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            v = rng.normal(size=3)
            w = rng.normal(size=4)
            s = rng.normal()
            check_grads(lambda a, b: ad.reduce_sum(ad.add(a, b)), [m, v])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.sub(a, b), a)), [m, v])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.mul(a, b), a)), [m, v])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.mul(a, ad.reshape(b, (4, 1))), a)),
                        [m, w])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.add(a, b), a)), [m, np.asarray(s)])
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.sub(a, b), a)), [m, np.asarray(s)])
            # both operands broadcast: (4, 1) against (3,)
            check_grads(lambda a, b: ad.reduce_sum(ad.mul(ad.mul(ad.reshape(a, (4, 1)), b), m)),
                        [w, v])

    def test_repeat_row_bfill(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=3)
        s = np.asarray(rng.normal())
        check_grads(_squared(lambda t: ad.broadcast_to(t, (5, 3))), [v])
        check_grads(_squared(lambda t: ad.broadcast_to(t, (2, 3))), [s])


class TestReductionsAndMax:
    def test_sum_axis(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t, 0), np.arange(3.0))), [m])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t, 1), np.arange(4.0))), [m])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t, -1), np.arange(4.0))), [m])

    def test_vec_max_and_rows_max(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = rng.normal(size=7)
            m = rng.normal(size=(5, 4))
            check_grads(lambda t: ad.take(t, int(np.argmax(t.data))), [v])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.rows_max(t), ad.rows_max(t))), [m])

    def test_rows_max_tie_goes_to_lowest_row(self):
        m = Tensor(np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 5.0]]), requires_grad=True)
        (g,) = ad.grad(ad.reduce_sum(ad.rows_max(m)), [m])
        np.testing.assert_array_equal(g.data, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_softmax_1d_and_2d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=6)
            m = rng.normal(size=(5, 3))
            w = rng.normal(size=6)
            c = rng.normal(size=(5, 3))
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t), w)), [v])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=0), Tensor(c))), [m])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        m = ad.softmax(Tensor(rng.normal(size=(6, 4)) * 10.0), axis=0)
        np.testing.assert_allclose(m.data.sum(axis=0), np.ones(4), atol=1e-12)


class TestStructure:
    def test_slice_pad_concat_1d(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = rng.normal(size=8)
            u = rng.normal(size=3)
            check_grads(_squared(lambda t: ad.take(t, slice(2, 6))), [v])
            check_grads(_squared(lambda t: ad.put(t, slice(2, 5), (6,))), [u])
            check_grads(
                lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b]), ad.concat([a, b]))),
                [v, u],
            )

    def test_cols_rows_structure(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = rng.normal(size=(4, 6))
            n = rng.normal(size=(4, 2))
            check_grads(
                lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1),
                                               ad.concat([a, b], axis=1))),
                [m, n],
            )
            cols, inner = (slice(None), slice(1, 4)), (slice(None), slice(1, 3))
            check_grads(_squared(lambda t: ad.take(t, cols)), [m])
            check_grads(_squared(lambda t: ad.put(t, inner, (4, 5))), [n])
            check_grads(_squared(lambda t: ad.put(t, slice(2, 6), (7, 6))), [m])
            check_grads(_squared(lambda t: ad.take(t, slice(1, 3))), [m])

    def test_stack_row_pick(self):
        rng = np.random.default_rng(15)

        def stack(x, y):
            return ad.concat([ad.reshape(x, (1, 5)), ad.reshape(y, (1, 5))])

        for _ in range(10):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            m = rng.normal(size=(3, 5))
            check_grads(lambda x, y: ad.reduce_sum(ad.mul(stack(x, y), stack(y, x))), [a, b])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.take(t, 1), ad.take(t, 2))), [m])
            check_grads(lambda t: ad.mul(ad.take(t, 3), ad.take(t, 0)), [a])
            check_grads(_squared(lambda t: ad.put(t, 1, (4, 5))), [a])
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.put(ad.take(t, 0), 2, (6,)),
                                                    ad.put(t, slice(1, 6), (6,)))), [a])

    def test_transpose(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(3, 4))
        c = rng.normal(size=(4, 3))
        check_grads(lambda t: ad.reduce_sum(ad.mul(ad.transpose(t), Tensor(c))), [m])


class TestGatherConv:
    def test_gather_scatter_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            table = rng.normal(size=(6, 4))
            ids = rng.integers(0, 6, size=9)
            c = rng.normal(size=(9, 4))
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.take(t, ids), Tensor(c))), [table])
            m = rng.normal(size=(9, 4))
            check_grads(
                lambda t: ad.reduce_sum(ad.mul(ad.put(t, ids, (6, 4)), ad.put(t, ids, (6, 4)))),
                [m],
            )

    def test_gather_rows_out_of_range(self):
        with pytest.raises(IndexError):
            ad.take(Tensor(np.zeros((3, 2))), np.array([0, 3]))

    def test_im2col_col2im_grads(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            m = rng.normal(size=(7, 3))
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.im2col(t, 3), ad.im2col(t, 3))), [m])
            n = rng.normal(size=(5, 6))
            check_grads(lambda t: ad.reduce_sum(ad.mul(ad.col2im(t, 2), ad.col2im(t, 2))), [n])

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_im2col_col2im_adjoint(self, width, c, seed):
        """<im2col(x), y> == <x, col2im(y)> for all x, y: the pair is mutually adjoint."""
        rng = np.random.default_rng(seed)
        length = width + int(rng.integers(0, 5))
        x = rng.normal(size=(length, c))
        y = rng.normal(size=(length - width + 1, width * c))
        lhs = np.sum(ad.im2col(Tensor(x), width).data * y)
        rhs = np.sum(x * ad.col2im(Tensor(y), width).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @given(st.sampled_from(["int", "slice", "slices", "rows", "colwise"]),
           st.integers(1, 5), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_take_put_adjoint(self, kind, n, d, seed):
        """<take(x, i), y> == <x, put(y, i, x.shape)> for every index kind."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        index = {
            "int": int(rng.integers(n)),
            "slice": slice(int(rng.integers(n)), n),
            "slices": (slice(0, int(rng.integers(1, n + 1))), slice(int(rng.integers(d)), d)),
            "rows": rng.integers(0, n, size=n + 3),  # more ids than rows: repeats
            "colwise": (rng.integers(0, n, size=d), np.arange(d)),
        }[kind]
        y = rng.normal(size=x[index].shape)
        lhs = np.sum(ad.take(Tensor(x), index).data * y)
        rhs = np.sum(x * ad.put(Tensor(y), index, x.shape).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(st.sampled_from([((3,), (4, 3)), ((), (2, 3)), ((4, 1), (4, 3)), ((1, 3), (2, 4, 3))]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_to_sum_to_adjoint(self, shapes, seed):
        """<broadcast_to(x, s), y> == <x, sum_to(y, x.shape)>."""
        src, dst = shapes
        rng = np.random.default_rng(seed)
        x = rng.normal(size=src)
        y = rng.normal(size=dst)
        lhs = np.sum(ad.broadcast_to(Tensor(x), dst).data * y)
        rhs = np.sum(x * ad.sum_to(Tensor(y), src).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_take_rejects_negative_ids(self):
        table = Tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="negative"):
            ad.take(table, np.array([0, -1]))
        with pytest.raises(IndexError, match="negative"):
            ad.take(table, (np.array([-2, 0]), np.arange(2)))

    def test_broadcast_mismatch_names_op(self):
        with pytest.raises(ShapeMismatchError) as exc:
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        assert exc.value.kernel == "add"
        assert (exc.value.shape_a, exc.value.shape_b) == ((2, 3), (2,))
        assert "add" in str(exc.value)

    def test_conv1d_matches_direct_convolution(self):
        """Oracle: per-position windowed dot products computed with plain loops."""
        rng = np.random.default_rng(19)
        length, c_in, c_out, width = 9, 3, 4, 3
        x = rng.normal(size=(length, c_in))
        filt = rng.normal(size=(width * c_in, c_out))
        bias = rng.normal(size=c_out)
        out = ad.conv1d(Tensor(x), Tensor(filt), Tensor(bias)).data

        before = (width - 1) // 2
        xp = np.zeros((length + width - 1, c_in))
        xp[before:before + length] = x
        expected = np.zeros((length, c_out))
        for t in range(length):
            window = xp[t:t + width].ravel()
            expected[t] = window @ filt + bias
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_conv1d_grads(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = rng.normal(size=(6, 2))
            filt = rng.normal(size=(3 * 2, 3))
            bias = rng.normal(size=3)
            check_grads(
                lambda a, w, b: ad.reduce_sum(ad.relu(ad.conv1d(a, w, b))),
                [x, filt, bias],
            )

    def test_conv1d_even_width_padding(self):
        # width 2: pad 0 before, 1 after; output length equals input length
        x = Tensor(np.arange(8.0).reshape(4, 2))
        filt = Tensor(np.ones((4, 1)))
        out = ad.conv1d(x, filt)
        assert out.shape == (4, 1)


def _check_second_order(build, arrays, tol=1e-3):
    """FD-check the gradient of z = sum_i <grad_i build, C_i>, a scalar made
    of first-order gradients, so every VJP is itself differentiated."""
    rng = np.random.default_rng(len(arrays))
    dirs = [rng.normal(size=np.shape(a)) for a in arrays]

    def z_of(tensors):
        grads = ad.grad(build(*tensors), tensors)
        return ad.reduce_sum(ad.concat([ad.reshape(ad.mul(g, Tensor(c)), (-1,))
                                     for g, c in zip(grads, dirs)]))

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    engine = ad.grad(z_of(tensors), tensors)
    numeric = numeric_grad(
        lambda *arrs: float(z_of([Tensor(a, requires_grad=True) for a in arrs]).data), arrays)
    for e, n in zip(engine, numeric):
        assert rel_err(e.data, n) < tol, f"second-order mismatch: {rel_err(e.data, n):.3e}"


class TestSegmentOps:
    """The bag encoder's ops: segment_max, segment_matmul, im2col/col2im at starts."""

    SIZES = (2, 1, 3)

    def _blocks(self, seed, d=3):
        return _blockwise_distinct(np.random.default_rng(seed), self.SIZES, d)

    def test_segment_max_is_rows_max_per_block(self):
        m = self._blocks(0)
        got = ad.segment_max(Tensor(m), self.SIZES).data
        want = [ad.rows_max(Tensor(m[lo:lo + n])).data
                for lo, n in zip((0, 2, 3), self.SIZES)]
        np.testing.assert_array_equal(got, want)

    def test_segment_max_tie_goes_to_lowest_row_of_the_block(self):
        m = Tensor(np.array([[1.0, 5.0], [2.0, 2.0], [2.0, 5.0], [0.0, 5.0]]),
                   requires_grad=True)
        (g,) = ad.grad(ad.reduce_sum(ad.segment_max(m, (1, 3))), [m])
        np.testing.assert_array_equal(g.data, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_segment_matmul_equals_per_block_matmul_bitwise(self):
        rng = np.random.default_rng(1)
        for rows, k in ((6, 4), (620, 1550)):
            sizes = (rows // 3, rows - rows // 3 - 1, 1)
            a = rng.normal(size=(rows, k))
            b = rng.normal(size=(k, 64))
            got = ad.segment_matmul(Tensor(a), Tensor(b), sizes).data
            lo = 0
            for n in sizes:
                np.testing.assert_array_equal(got[lo:lo + n], np.ascontiguousarray(a[lo:lo + n]) @ b)
                lo += n

    def test_first_and_second_order_match_finite_differences(self):
        rng = np.random.default_rng(2)
        starts = np.array([1, 2, 5])
        for seed in range(3):
            m = self._blocks(seed)
            a = rng.normal(size=(6, 4))
            b = rng.normal(size=(4, 3))
            x = rng.normal(size=(9, 2))
            cols = rng.normal(size=(3, 3 * 2))
            cases = [
                (_squared(lambda t: ad.segment_max(t, self.SIZES)), [m]),
                (lambda p, q: ad.reduce_sum(ad.mul(ad.segment_matmul(p, q, self.SIZES),
                                                ad.segment_matmul(p, q, self.SIZES))), [a, b]),
                (_squared(lambda t: ad.im2col(t, 3, starts)), [x]),
                (_squared(lambda t: ad.col2im(t, 3, starts, 9)), [cols]),
            ]
            for build, arrays in cases:
                check_grads(build, arrays)
                _check_second_order(build, arrays)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_im2col_col2im_with_starts_adjoint(self, width, c, seed):
        """<im2col(x, w, s), y> == <x, col2im(y, w, s, rows)> for strictly increasing s."""
        rng = np.random.default_rng(seed)
        rows = width + int(rng.integers(0, 8))
        starts = np.flatnonzero(rng.random(rows - width + 1) < 0.6)
        x = rng.normal(size=(rows, c))
        y = rng.normal(size=(starts.size, width * c))
        lhs = np.sum(ad.im2col(Tensor(x), width, starts).data * y)
        rhs = np.sum(x * ad.col2im(Tensor(y), width, starts, rows).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_segment_vjps_are_adjoint(self, sizes, seed):
        """Both ops are linear in each operand (segment_max for fixed winners),
        so <op(x), y> equals <x, VJP(y)> for every operand."""
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        a = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        y = rng.normal(size=(n, 2))
        out = ad.segment_matmul(a, b, sizes)
        ga, gb = ad.grad(ad.reduce_sum(ad.mul(out, Tensor(y))), [a, b])
        lhs = np.sum(out.data * y)
        np.testing.assert_allclose(np.sum(a.data * ga.data), lhs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.sum(b.data * gb.data), lhs, rtol=1e-12, atol=1e-12)
        y = rng.normal(size=(len(sizes), 3))
        out = ad.segment_max(a, sizes)
        (ga,) = ad.grad(ad.reduce_sum(ad.mul(out, Tensor(y))), [a])
        np.testing.assert_allclose(np.sum(a.data * ga.data), np.sum(out.data * y),
                                   rtol=1e-12, atol=1e-12)

    def test_bad_blocks_and_starts_raise(self):
        m = Tensor(np.zeros((4, 2)))
        for sizes in ((), (2, 1), (4, 0), (1, 1, 1, 2)):
            with pytest.raises(ShapeMismatchError, match="segment_max"):
                ad.segment_max(m, sizes)
        with pytest.raises(ShapeMismatchError, match="segment_matmul"):
            ad.segment_matmul(m, Tensor(np.zeros((2, 3))), (3,))
        for starts in ([0, 0], [2, 1], [-1, 1], [0, 3], [[0, 1]]):
            with pytest.raises(ShapeMismatchError, match="im2col"):
                ad.im2col(m, 2, np.array(starts))
        for starts, rows in (([0, 3], 4), ([0, 1], None)):
            with pytest.raises(ShapeMismatchError, match="col2im"):
                ad.col2im(Tensor(np.zeros((2, 4))), 2, np.array(starts), rows)


class TestSecondOrder:
    def test_grad_of_gradient_scalar(self):
        """d/dx of (dy/dx . c) for y = sum(sigmoid(x)^2), against finite differences."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            x0 = rng.normal(size=5)
            c = rng.normal(size=5)

            def inner_grad(xarr):
                x = Tensor(xarr, requires_grad=True)
                s = ad.sigmoid(x)
                y = ad.reduce_sum(ad.mul(s, s))
                (g,) = ad.grad(y, [x])
                return g

            x = Tensor(x0, requires_grad=True)
            s = ad.sigmoid(x)
            y = ad.reduce_sum(ad.mul(s, s))
            (g,) = ad.grad(y, [x])
            z = ad.reduce_sum(ad.mul(g, c))
            (engine_hvp,) = ad.grad(z, [x])

            (numeric_hvp,) = numeric_grad(
                lambda xa: float(np.sum(inner_grad(xa).data * c)), [x0], h=1e-5
            )
            assert rel_err(engine_hvp.data, numeric_hvp) < 1e-3

    def test_grad_through_matmul_chain(self):
        """Second order through a small linear+softmax chain."""
        rng = np.random.default_rng(22)
        for _ in range(5):
            w0 = rng.normal(size=(4, 3))
            x0 = rng.normal(size=3)
            c = rng.normal(size=3)

            def gx_scalar(warr):
                w = Tensor(warr)
                x = Tensor(x0, requires_grad=True)
                o = ad.reduce_sum(ad.mul(ad.softmax(ad.matmul(w, x)), np.arange(4.0)))
                (gx,) = ad.grad(o, [x])
                return float(np.sum(gx.data * c))

            w = Tensor(w0, requires_grad=True)
            x = Tensor(x0, requires_grad=True)
            o = ad.reduce_sum(ad.mul(ad.softmax(ad.matmul(w, x)), np.arange(4.0)))
            (gx,) = ad.grad(o, [x])
            z = ad.reduce_sum(ad.mul(gx, c))
            (gw,) = ad.grad(z, [w])
            (numeric,) = numeric_grad(gx_scalar, [w0], h=1e-5)
            assert rel_err(gw.data, numeric) < 1e-3


class TestBackwardSemantics:
    def test_backward_requires_scalar_root(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            ad.backward(ad.mul(a, a), [a])

    def test_targets_must_require_grad(self):
        # add, sub and mul give no gradient to an operand that requires none
        a = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(GraphError, match="require grad"):
            ad.grad(ad.reduce_sum(ad.mul(a, a)), [a])

    def test_backward_walks_the_graph_once(self, monkeypatch):
        calls = []
        topo = ad._topo_order

        def spy(root):
            calls.append(root)
            return topo(root)

        monkeypatch.setattr(ad, "_topo_order", spy)
        root, leaves = _gi_margin_case(3)
        kept = ad.grad(root, leaves, create_graph=True)
        calls.clear()
        got = ad.backward(root, leaves)
        assert calls == [root]
        for g, k in zip(got, kept):
            np.testing.assert_array_equal(g, k.data)

    def test_grad_is_functional_and_repeatable(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        root = ad.reduce_sum(ad.mul(a, a))
        (g1,) = ad.grad(root, [a])
        (g2,) = ad.grad(root, [a])
        (g3,) = ad.backward(root, [a])
        np.testing.assert_array_equal(g1.data, g2.data)
        np.testing.assert_array_equal(g3, g1.data)
        np.testing.assert_array_equal(a.data, [2.0, 3.0])  # nothing is written

    def test_grad_unused_target_returns_zeros(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([5.0]), requires_grad=True)
        (gb,) = ad.grad(ad.reduce_sum(ad.mul(a, a)), [b])
        np.testing.assert_array_equal(gb.data, [0.0])

    def test_grad_of_interior_node(self):
        """Gradients w.r.t. non-leaf nodes work; needed for attribution scores."""
        x = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        h = ad.mul(x, x)        # interior
        y = ad.reduce_sum(ad.mul(h, h))
        (gh,) = ad.grad(y, [h])
        np.testing.assert_allclose(gh.data, 2.0 * (x.data ** 2), rtol=1e-12)

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = ad.mul(x, 2.0)
        y = ad.reduce_sum(ad.add(ad.mul(a, x), ad.mul(x, a)))  # 4 x^2
        (g,) = ad.grad(y, [x])
        np.testing.assert_allclose(g.data, [24.0], rtol=1e-12)


def _gi_margin_root(X, Q, w, gamma=0.5):
    """The distractor loss's shape: a margin on gradient-x-input of the last row.

    Softmax pooling, sigmoid and log put the self-referencing and the
    reciprocal VJPs on the second-order path.
    """
    n, d = X.shape
    alphas = ad.softmax(ad.matmul(X, Q))
    rep = ad.reduce_sum(ad.mul(X, ad.reshape(alphas, (n, 1))), 0)
    o = ad.reduce_sum(ad.mul(ad.log(ad.add(ad.sigmoid(rep), 1.0)), w))
    (gX,) = ad.grad(o, [X])
    gi = ad.reduce_sum(ad.mul(gX, X), 1)
    last = ad.take(gi, n - 1)
    base = ad.take(gi, slice(0, n - 1))
    hinge = ad.relu(ad.add(ad.sub(last, ad.take(base, int(np.argmax(base.data)))), gamma))
    return ad.add(hinge, ad.absolute(last))


def _gi_margin_case(seed):
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((4, 3), (3,), (3,))]
    return _gi_margin_root(*leaves), leaves


class TestCreateGraphFalse:
    """grad(create_graph=False) runs the same VJPs unrecorded: equal values, no graph."""

    def test_equals_create_graph_over_every_op(self):
        for seed in range(3):
            for name, build, arrays in _op_cases(np.random.default_rng(seed)):
                tensors = [Tensor(a, requires_grad=True) for a in arrays]
                root = build(*tensors)
                kept = ad.grad(root, tensors, create_graph=True)
                bare = ad.grad(root, tensors, create_graph=False)
                for k, b in zip(kept, bare):
                    np.testing.assert_array_equal(b.data, k.data, err_msg=name)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_create_graph_on_second_order_root(self, seed):
        root, leaves = _gi_margin_case(seed)
        kept = ad.grad(root, leaves, create_graph=True)
        bare = ad.grad(root, leaves, create_graph=False)
        for k, b in zip(kept, bare):
            np.testing.assert_array_equal(b.data, k.data)
        assert any(np.abs(b.data).max() > 0 for b in bare)

    def test_backward_equals_create_graph(self):
        root, leaves = _gi_margin_case(9)
        kept = ad.grad(root, leaves, create_graph=True)
        got = ad.backward(root, leaves)
        for g, k in zip(got, kept):
            assert isinstance(g, np.ndarray)
            np.testing.assert_array_equal(g, k.data)

    def test_returned_tensors_have_no_parents(self):
        root, leaves = _gi_margin_case(1)
        for g in ad.grad(root, leaves, create_graph=False):
            assert g._parents == () and g._vjp is None and not g.requires_grad
        # with create_graph the same gradients are graph nodes
        assert all(g._parents for g in ad.grad(root, leaves, create_graph=True))

    @pytest.mark.parametrize("run", [
        lambda root, leaves: ad.grad(root, leaves, create_graph=False),
        lambda root, leaves: ad.backward(root, leaves),
    ], ids=["grad", "backward"])
    def test_no_node_records_parents_while_it_runs(self, monkeypatch, run):
        root, leaves = _gi_margin_case(2)
        made = []
        node = ad._node

        def spy(data, parents, vjp, op):
            out = node(data, parents, vjp, op)
            made.append(out)
            return out

        monkeypatch.setattr(ad, "_node", spy)
        run(root, leaves)
        assert made, "the backward pass made no nodes"
        assert all(t._parents == () and t._vjp is None for t in made)

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_recording_restored_when_a_vjp_raises(self, create_graph):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def vjp(g):
            raise RuntimeError("vjp failed")

        root = ad.reduce_sum(ad._node(x.data * 2.0, (x,), vjp, "faulty"))
        with pytest.raises(RuntimeError, match="vjp failed"):
            ad.grad(root, [x], create_graph=create_graph)
        assert ad._recording is True
        assert ad.mul(x, x)._parents == (x, x)


@given(
    st.integers(2, 6),
    st.integers(1, 4),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=25, deadline=None)
def test_property_linear_ops_additivity(n, d, seed):
    """Linearity: f(x + y) == f(x) + f(y) for the structural primitives."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, d))
    for f in (
        lambda m: ad.put(Tensor(m), slice(1, n + 1), (n + 3, d)).data,
        lambda m: ad.im2col(Tensor(np.vstack([m, m])), 2).data,
        lambda m: ad.reduce_sum(Tensor(m), 0).data,
        lambda m: ad.transpose(Tensor(m)).data,
    ):
        np.testing.assert_allclose(f(x + y), f(x) + f(y), atol=1e-10)


def _engine_names(code) -> set[str]:
    """The names read as ad.<name> in code and in the code nested in it."""
    names = set()
    ins = list(dis.get_instructions(code))
    for load, attr in zip(ins, ins[1:]):
        if (load.opname == "LOAD_GLOBAL" and load.argval == "ad"
                and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")):
            names.add(attr.argval)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _engine_names(const)
    return names


def test_engine_surface_is_small_and_every_op_is_fd_checked():
    public = sorted(name for name, fn in vars(ad).items()
                    if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                    and not name.startswith("_"))
    assert len(public) <= 27, public
    used = set()
    for _, build, _ in _op_cases(np.random.default_rng(0)):
        used |= _engine_names(build.__code__)
    unchecked = [name for name in public if name not in used and name not in ("grad", "backward")]
    assert unchecked == [], f"no case of _op_cases uses {unchecked}"
