"""Gradient checks for the tensor engine.

Every differentiable primitive is exercised against central finite
differences (the oracle lives in conftest).
"""

import dis
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import autodiff as ad
from relexpl import kernels
from relexpl.autodiff import GraphError, ShapeMismatchError, Tensor

from conftest import check_grads, conv1d, numeric_grad, rel_err
from test_acceptance import _op_cases
import oracle_engine as oe


def _squared(f):
    """t -> sum(f(t) * f(t)), applying f twice so both paths reach t."""
    return lambda t: oe.reduce_sum(oe.mul(f(t), f(t)))


class TestElementwise:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            check_grads(lambda x, y: oe.reduce_sum(oe.mul(ad.add(x, y), oe.sub(x, y))), [a, b])

    def test_sigmoid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=7)
            check_grads(lambda t: oe.reduce_sum(ad.sigmoid(t)), [x])

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
            check_grads(lambda t: oe.reduce_sum(oe.relu(t)), [x])
            check_grads(lambda t: oe.reduce_sum(oe.absolute(t)), [x])

    def test_log(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.5, 2.0, size=6)
            check_grads(lambda t: oe.reduce_sum(oe.log(t)), [x])

    def test_clamp_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
        (g,) = ad.grad(oe.reduce_sum(oe.clamp(x, 0.0, 1.0)), [x])
        np.testing.assert_array_equal(g.data, [0.0, 1.0, 0.0])

    def test_scale_cadd_cmul(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=(3, 2))
        for _ in range(10):
            x = rng.normal(size=(3, 2))
            # constant operands: a python float, or an array that gets no gradient
            check_grads(lambda t: oe.reduce_sum(oe.mul(t, 2.5)), [x])
            check_grads(lambda t: oe.reduce_sum(ad.add(t, -1.25)), [x])
            check_grads(lambda t: oe.reduce_sum(oe.sub(-1.25, t)), [x])
            check_grads(lambda t: oe.reduce_sum(oe.mul(t, c)), [x])


class TestLinAlg:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            check_grads(lambda x, y: oe.reduce_sum(ad.matmul(x, y)), [a, b])

    def test_matvec_outer_dot(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            v = rng.normal(size=3)
            u = rng.normal(size=4)
            check_grads(lambda a, b: oe.reduce_sum(ad.matmul(a, b)), [m, v])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.reshape(a, (4, 1)), b)), [u, v])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(a, b)), [v, v + 1.0])

    def test_constant_operands_get_no_vjp(self):
        x = Tensor(np.ones(2), requires_grad=True)
        g = np.ones(2)
        for op in (ad.add, oe.sub, oe.mul):
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
            check_grads(lambda a, b: oe.reduce_sum(ad.add(a, b)), [m, v])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.sub(a, b), a)), [m, v])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.mul(a, b), a)), [m, v])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.mul(a, oe.reshape(b, (4, 1))), a)),
                        [m, w])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(ad.add(a, b), a)), [m, np.asarray(s)])
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.sub(a, b), a)), [m, np.asarray(s)])
            # both operands broadcast: (4, 1) against (3,)
            check_grads(lambda a, b: oe.reduce_sum(oe.mul(oe.mul(oe.reshape(a, (4, 1)), b), m)),
                        [w, v])

    def test_repeat_row_bfill(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=3)
        s = np.asarray(rng.normal())
        check_grads(_squared(lambda t: oe.broadcast_to(t, (5, 3))), [v])
        check_grads(_squared(lambda t: oe.broadcast_to(t, (2, 3))), [s])


class TestReductionsAndMax:
    def test_sum_axis(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.reduce_sum(t, 0), np.arange(3.0))), [m])
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.reduce_sum(t, 1), np.arange(4.0))), [m])
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.reduce_sum(t, -1), np.arange(4.0))), [m])

    def test_vec_max_and_rows_max(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = rng.normal(size=7)
            m = rng.normal(size=(5, 4))
            check_grads(lambda t: ad.take(t, int(np.argmax(t.data))), [v])
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.rows_max(t), oe.rows_max(t))), [m])

    def test_rows_max_tie_goes_to_lowest_row(self):
        m = Tensor(np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 5.0]]), requires_grad=True)
        (g,) = ad.grad(oe.reduce_sum(oe.rows_max(m)), [m])
        np.testing.assert_array_equal(g.data, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_softmax_1d_and_2d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=6)
            m = rng.normal(size=(5, 3))
            w = rng.normal(size=6)
            c = rng.normal(size=(5, 3))
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.softmax(t), w)), [v])
            check_grads(lambda t: oe.reduce_sum(oe.mul(oe.softmax(t), Tensor(c))), [m])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        m = oe.softmax(Tensor(rng.normal(size=(6, 4)) * 10.0))
        np.testing.assert_allclose(m.data.sum(axis=0), np.ones(4), atol=1e-12)


class TestStructure:
    def test_slice_pad_concat_1d(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = rng.normal(size=8)
            u = rng.normal(size=3)
            check_grads(_squared(lambda t: ad.take(t, slice(2, 6))), [v])
            check_grads(
                lambda a, b: oe.reduce_sum(oe.mul(oe.concat([a, b]), oe.concat([a, b]))),
                [v, u],
            )

    def test_cols_rows_structure(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = rng.normal(size=(4, 6))
            n = rng.normal(size=(4, 2))
            check_grads(
                lambda a, b: oe.reduce_sum(oe.mul(oe.concat([a, b], axis=1),
                                               oe.concat([a, b], axis=1))),
                [m, n],
            )
            cols = (slice(None), slice(1, 4))
            check_grads(_squared(lambda t: ad.take(t, cols)), [m])
            check_grads(_squared(lambda t: ad.take(t, slice(1, 3))), [m])

    def test_stack_row_pick(self):
        rng = np.random.default_rng(15)

        def stack(x, y):
            return oe.concat([oe.reshape(x, (1, 5)), oe.reshape(y, (1, 5))])

        for _ in range(10):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            m = rng.normal(size=(3, 5))
            check_grads(lambda x, y: oe.reduce_sum(oe.mul(stack(x, y), stack(y, x))), [a, b])
            check_grads(lambda t: oe.reduce_sum(oe.mul(ad.take(t, 1), ad.take(t, 2))), [m])
            check_grads(lambda t: oe.mul(ad.take(t, 3), ad.take(t, 0)), [a])

    def test_transpose(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(3, 4))
        c = rng.normal(size=(4, 3))
        check_grads(lambda t: oe.reduce_sum(oe.mul(oe.transpose(t), Tensor(c))), [m])


class TestGatherConv:
    def test_gather_scatter_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            table = rng.normal(size=(6, 4))
            ids = rng.integers(0, 6, size=9)
            c = rng.normal(size=(9, 4))
            check_grads(lambda t: oe.reduce_sum(oe.mul(ad.take(t, ids), Tensor(c))), [table])

    def test_gather_rows_out_of_range(self):
        with pytest.raises(IndexError):
            ad.take(Tensor(np.zeros((3, 2))), np.array([0, 3]))

    def test_im2col_col2im_grads(self):
        """col2im(y) is the gradient of <im2col(x), y> in x, and im2col(y) that of
        <col2im(m), y> in m: each kernel is the other's VJP."""
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = rng.normal(size=(7, 3))
            y = rng.normal(size=(5, 9))
            s = np.arange(5)
            (fd,) = numeric_grad(lambda a: float(np.sum(kernels.im2col(a, 3, s) * y)), [x])
            assert rel_err(kernels.col2im(y, 3, s, 7), fd) < 1e-8
            m = rng.normal(size=(5, 6))
            y = rng.normal(size=(6, 3))
            (fd,) = numeric_grad(lambda a: float(np.sum(kernels.col2im(a, 2, s, 6) * y)), [m])
            assert rel_err(kernels.im2col(y, 2, s), fd) < 1e-8

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_im2col_col2im_adjoint(self, width, c, seed):
        """<im2col(x), y> == <x, col2im(y)> for all x, y: the pair is mutually adjoint."""
        rng = np.random.default_rng(seed)
        length = width + int(rng.integers(0, 5))
        x = rng.normal(size=(length, c))
        starts = np.arange(length - width + 1)
        y = rng.normal(size=(starts.size, width * c))
        lhs = np.sum(kernels.im2col(x, width, starts) * y)
        rhs = np.sum(x * kernels.col2im(y, width, starts, length))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @given(st.sampled_from(["int", "slice", "slices", "rows", "colwise"]),
           st.integers(1, 5), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_take_put_adjoint(self, kind, n, d, seed):
        """<take(x, i), y> == <x, _put(y, i, x.shape)> for every index kind: _put
        is take's VJP."""
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
        rhs = np.sum(x * ad._put(y, index, x.shape))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(st.sampled_from([((3,), (4, 3)), ((), (2, 3)), ((4, 1), (4, 3)), ((1, 3), (2, 4, 3))]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_to_sum_to_adjoint(self, shapes, seed):
        """<broadcast_to(x, s), y> == <x, _sum_to(y, x.shape)>: _sum_to is
        broadcast_to's VJP."""
        src, dst = shapes
        rng = np.random.default_rng(seed)
        x = rng.normal(size=src)
        y = rng.normal(size=dst)
        lhs = np.sum(oe.broadcast_to(Tensor(x), dst).data * y)
        rhs = np.sum(x * ad._sum_to(y, src))
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
        out = conv1d(Tensor(x), Tensor(filt), Tensor(bias)).data

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
                lambda a, w, b: oe.reduce_sum(oe.relu(conv1d(a, w, b))),
                [x, filt, bias],
            )

    def test_conv1d_even_width_padding(self):
        # width 2: pad 0 before, 1 after; output length equals input length
        x = Tensor(np.arange(8.0).reshape(4, 2))
        filt = Tensor(np.ones((4, 1)))
        out = conv1d(x, filt)
        assert out.shape == (4, 1)


class TestBackwardSemantics:
    def test_backward_requires_scalar_root(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            ad.backward(oe.mul(a, a), [a])

    def test_targets_must_require_grad(self):
        # add, sub and mul give no gradient to an operand that requires none
        a = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(GraphError, match="require grad"):
            ad.grad(oe.reduce_sum(oe.mul(a, a)), [a])

    def test_backward_walks_the_graph_once(self, monkeypatch):
        calls = []
        topo = ad._topo_order

        def spy(root):
            calls.append(root)
            return topo(root)

        monkeypatch.setattr(ad, "_topo_order", spy)
        root, leaves = _pooling_case(3)
        kept = ad.grad(root, leaves)
        calls.clear()
        got = ad.backward(root, leaves)
        assert calls == [root]
        for g, k in zip(got, kept):
            np.testing.assert_array_equal(g, k.data)

    def test_grad_is_functional_and_repeatable(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        root = oe.reduce_sum(oe.mul(a, a))
        (g1,) = ad.grad(root, [a])
        (g2,) = ad.grad(root, [a])
        (g3,) = ad.backward(root, [a])
        np.testing.assert_array_equal(g1.data, g2.data)
        np.testing.assert_array_equal(g3, g1.data)
        np.testing.assert_array_equal(a.data, [2.0, 3.0])  # nothing is written

    def test_grad_unused_target_returns_zeros(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([5.0]), requires_grad=True)
        (gb,) = ad.grad(oe.reduce_sum(oe.mul(a, a)), [b])
        np.testing.assert_array_equal(gb.data, [0.0])

    def test_grad_of_interior_node(self):
        """Gradients w.r.t. non-leaf nodes work; needed for attribution scores."""
        x = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        h = oe.mul(x, x)        # interior
        y = oe.reduce_sum(oe.mul(h, h))
        (gh,) = ad.grad(y, [h])
        np.testing.assert_allclose(gh.data, 2.0 * (x.data ** 2), rtol=1e-12)

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = oe.mul(x, 2.0)
        y = oe.reduce_sum(ad.add(oe.mul(a, x), oe.mul(x, a)))  # 4 x^2
        (g,) = ad.grad(y, [x])
        np.testing.assert_allclose(g.data, [24.0], rtol=1e-12)


class TestCreateGraphFalse:
    """The backward pass is never recorded: it makes no node, and grad returns bare tensors."""

    def test_returned_tensors_have_no_parents(self):
        root, leaves = _pooling_case(1)
        got = ad.grad(root, leaves)
        assert any(np.abs(g.data).max() > 0 for g in got)
        for g in got:
            assert g._parents == () and g._vjp is None and not g.requires_grad
        for g in ad.backward(root, leaves):
            assert isinstance(g, np.ndarray)

    @pytest.mark.parametrize("run", [ad.grad, ad.backward], ids=["grad", "backward"])
    def test_no_node_records_parents_while_it_runs(self, monkeypatch, run):
        root, leaves = _pooling_case(2)
        made = []
        node = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: made.append(args[3]) or node(*args))
        run(root, leaves)
        assert made == []


def _pooling_case(seed):
    """A scalar root over softmax pooling, sigmoid and log, with its three leaves."""
    rng = np.random.default_rng(seed)
    X, Q, w = leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                        for shape in ((4, 3), (3,), (3,))]
    alphas = oe.softmax(ad.matmul(X, Q))
    rep = oe.reduce_sum(oe.mul(X, oe.reshape(alphas, (4, 1))), 0)
    return oe.reduce_sum(oe.mul(oe.log(ad.add(ad.sigmoid(rep), 1.0)), w)), leaves


class TestFirstOrder:
    """first_order: a node from a caller's own numpy forward and VJP."""

    @staticmethod
    def _scaled_sum(a, b):
        """sum(a * b) as one first_order node over a (2, 3) a and a (3,) b."""
        return ad.first_order(np.sum(a.data * b.data), (a, b),
                              lambda g: (g * b.data * np.ones(a.shape), g * a.data.sum(axis=0)),
                              "scaled_sum")

    def test_first_order_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a0, b0 = rng.normal(size=(2, 3)), rng.normal(size=3)
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        root = oe.mul(ad.sigmoid(self._scaled_sum(a, b)), 2.0)
        got = ad.grad(root, [a, b])
        fd = numeric_grad(lambda x, y: float(2.0 / (1.0 + np.exp(-np.sum(x * y)))), [a0, b0])
        for g, n in zip(got, fd):
            assert g._parents == () and rel_err(g.data, n) < 1e-8

    def test_requires_grad_follows_the_parents(self):
        assert not self._scaled_sum(Tensor(np.ones((2, 3))), Tensor(np.ones(3))).requires_grad
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.arange(3.0))
        node = self._scaled_sum(a, b)
        assert node.requires_grad
        (g,) = ad.grad(node, [a])
        np.testing.assert_array_equal(g.data, np.broadcast_to(np.arange(3.0), (2, 3)))


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
        lambda m: ad._put(m, slice(1, n + 1), (n + 3, d)),
        lambda m: kernels.im2col(np.vstack([m, m]), 2, np.arange(2 * n - 1)),
        lambda m: oe.reduce_sum(Tensor(m), 0).data,
        lambda m: oe.transpose(Tensor(m)).data,
    ):
        np.testing.assert_allclose(f(x + y), f(x) + f(y), atol=1e-10)


def _engine_names(code, alias="ad") -> set[str]:
    """The names read as <alias>.<name> in code and in the code nested in it."""
    names = set()
    ins = list(dis.get_instructions(code))
    for load, attr in zip(ins, ins[1:]):
        if (load.opname == "LOAD_GLOBAL" and load.argval == alias
                and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")):
            names.add(attr.argval)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _engine_names(const, alias)
    return names


def _public_functions(module) -> list[str]:
    return sorted(name for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and fn.__module__ == module.__name__
                  and not name.startswith("_"))


# the oracle engine's compositions of the bag head, the losses and the
# distractor term, which test_models, test_explain and test_distractor
# check against the coarse nodes, not op cases
ORACLE_COMPOSITIONS = ("bag_logits", "head", "fuse", "clamped_bce", "bce_loss", "relevance_loss",
                       "logit_direction", "distractor_loss", "combined_loss")


def test_engine_surface_is_small_and_every_op_is_fd_checked():
    public = _public_functions(ad)
    assert len(public) <= 7, public
    used, used_oracle = set(), set()
    for _, build, _ in _op_cases(np.random.default_rng(0)):
        used |= _engine_names(build.__code__)
        used_oracle |= _engine_names(build.__code__, "oe")
    # first_order runs its caller's VJP, not one of its own; TestFirstOrder covers it
    unchecked = [name for name in public
                 if name not in used and name not in ("grad", "backward", "first_order")]
    assert unchecked == [], f"no case of _op_cases uses {unchecked}"
    unchecked = [name for name in _public_functions(oe)
                 if name not in used_oracle and name not in ORACLE_COMPOSITIONS]
    assert unchecked == [], f"no case of _op_cases uses the oracle op {unchecked}"
