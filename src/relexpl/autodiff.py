"""Minimal reverse-mode tensor engine.

Every operation records its inputs and a VJP rule; the VJP rules are built
out of the same operations, so gradients can themselves be differentiable
graphs. That property is load-bearing: the distractor training loss
backpropagates through gradient-x-input values, which requires
second-order derivatives.

grad(root, wrt, create_graph=True) returns such differentiable gradients.
With create_graph=False the VJPs run with recording off: every op still
computes the same numpy result, but its output is a bare tensor with no
parents and no VJP, so no graph of the backward pass is built or kept.
backward() always works that way, since nothing differentiates the
gradients it accumulates into .grad.

Design notes:
  * float64 everywhere; gradient checking demands the precision.
  * add, sub and mul broadcast like numpy. Their VJPs sum the incoming
    gradient back to each operand's shape with sum_to, the adjoint of
    broadcast_to; sum_to returns a tensor of the right shape unchanged, so
    same-shape arithmetic adds no node to the backward graph.
  * take(a, index) copies a.data[index] for an int, a slice, a tuple of
    them or an int array; int arrays are range-checked, and negative ids
    raise IndexError instead of wrapping. Its adjoint put(v, index, shape)
    writes v into zeros of that shape and sums the rows an int array
    repeats. All indexing in the engine (slices, zero padding, single rows
    and elements, embedding lookups and their scatters) is one of the two.
  * Max-style ops (rows_max, vec_max) break ties toward the lowest index
    and treat the winner selection as constant during differentiation.
  * sigmoid, softmax and reciprocal differentiate through their own
    output; their VJPs hold it by weak reference (a VJP only runs while its
    node is alive), so a graph holds no reference cycle and is freed as
    soon as its root is dropped, without the cyclic garbage collector.
  * Recording is one module-level flag that _node reads; grad sets it
    for the duration of its VJP calls and restores it in a finally, so a
    VJP that raises leaves recording as it was.
  * A graph is "consumed" by backward(); call it twice on the same root
    and you get a GraphError. The functional grad() helper does not
    consume anything and may be called repeatedly.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

from . import kernels


class ShapeMismatchError(ValueError):
    """Raised when an operation's input shapes do not conform."""

    def __init__(self, kernel: str, shape_a, shape_b):
        self.kernel = kernel
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)
        super().__init__(f"{kernel}: incompatible shapes {self.shape_a} and {self.shape_b}")


class GraphError(RuntimeError):
    """Raised for invalid graph use (non-scalar root, reused graph)."""


class Tensor:
    """Dense float64 array participating in a differentiable graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op", "_backward_used",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op = "leaf"
        self._backward_used = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        backward(self)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape})"


# False while grad(create_graph=False) runs its VJPs: _node then records nothing
_recording = True


def _node(data, parents, vjp, op: str) -> Tensor:
    out = Tensor(data)
    out._op = op
    if not _recording:
        return out
    out._parents = tuple(parents)
    out._vjp = vjp
    for p in parents:  # a loop: no generator per node
        if p.requires_grad:
            out.requires_grad = True
            break
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise ops, broadcasting like numpy
# ---------------------------------------------------------------------------

def _broadcast(ufunc, op: str, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _node(_broadcast(np.add, "add", a, b), (a, b),
                 lambda g: (sum_to(g, sa), sum_to(g, sb)), "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _node(_broadcast(np.subtract, "sub", a, b), (a, b),
                 lambda g: (sum_to(g, sa), neg(sum_to(g, sb))), "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(_broadcast(np.multiply, "mul", a, b), (a, b),
                 lambda g: (sum_to(mul(g, b), a.shape), sum_to(mul(g, a), b.shape)), "mul")


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (scale(g, c),), "scale")


def neg(a) -> Tensor:
    return scale(a, -1.0)


def cadd(a, c: float) -> Tensor:
    """Add a python-float constant elementwise."""
    a = _as_tensor(a)
    return _node(a.data + float(c), (a,), lambda g: (g,), "cadd")


def cmul(a, const: np.ndarray) -> Tensor:
    """Multiply by a constant array (same shape); the constant is not differentiated."""
    a = _as_tensor(a)
    const = np.asarray(const, dtype=np.float64)
    if const.shape != a.shape:
        raise ShapeMismatchError("cmul", a.shape, const.shape)
    return _node(a.data * const, (a,), lambda g: (cmul(g, const),), "cmul")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = (a.data > 0.0).astype(np.float64)
    return _node(a.data * mask, (a,), lambda g: (cmul(g, mask),), "relu")


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)
    return _node(np.abs(a.data), (a,), lambda g: (cmul(g, sign),), "absolute")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where lo <= x <= hi."""
    a = _as_tensor(a)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(np.float64)
    return _node(np.clip(a.data, lo, hi), (a,), lambda g: (cmul(g, mask),), "clamp")


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    node = _node(out, (a,), None, "sigmoid")
    ref = weakref.ref(node)

    def vjp(g):
        y = ref()
        d = mul(y, cadd(neg(y), 1.0))  # y * (1 - y), kept in-graph
        return (mul(g, d),)

    node._vjp = vjp
    return node


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (mul(g, reciprocal(a)),), "log")


def reciprocal(a) -> Tensor:
    a = _as_tensor(a)
    node = _node(1.0 / a.data, (a,), None, "reciprocal")
    if _recording:  # log's VJP builds this op; unrecorded, it keeps no VJP
        ref = weakref.ref(node)
        node._vjp = lambda g: (neg(mul(g, mul(ref(), ref()))),)
    return node


# ---------------------------------------------------------------------------
# shape: broadcasting and its adjoint, reshaping
# ---------------------------------------------------------------------------

def broadcast_to(a, shape) -> Tensor:
    """Copy a out to `shape` by numpy's broadcasting rules."""
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeMismatchError("broadcast_to", a.shape, shape) from None
    return _node(out, (a,), lambda g: (sum_to(g, a.shape),), "broadcast_to")


def sum_to(a, shape) -> Tensor:
    """Sum a down to `shape`, the adjoint of broadcast_to; a itself if it has that shape."""
    a = _as_tensor(a)
    shape = tuple(shape)
    if a.shape == shape:
        return a
    lead = a.ndim - len(shape)
    if lead < 0 or any(s not in (1, n) for s, n in zip(shape, a.shape[lead:])):
        raise ShapeMismatchError("sum_to", a.shape, shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and a.shape[lead + i] != 1)
    out = a.data.sum(axis=axes, keepdims=True).reshape(shape)
    return _node(out, (a,), lambda g: (broadcast_to(g, a.shape),), "sum_to")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    src = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", src, tuple(shape)) from None
    return _node(out, (a,), lambda g: (reshape(g, src),), "reshape")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatchError("transpose", a.shape, ("m", "n"))
    return _node(np.ascontiguousarray(a.data.T), (a,), lambda g: (transpose(g),), "transpose")


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    return _node(
        a.data @ b.data,
        (a, b),
        lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g)),
        "matmul",
    )


def matvec(m, v) -> Tensor:
    m, v = _as_tensor(m), _as_tensor(v)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeMismatchError("matvec", m.shape, v.shape)
    return _node(
        m.data @ v.data,
        (m, v),
        lambda g: (outer(g, v), matvec(transpose(m), g)),
        "matvec",
    )


def outer(u, v) -> Tensor:
    u, v = _as_tensor(u), _as_tensor(v)
    if u.ndim != 1 or v.ndim != 1:
        raise ShapeMismatchError("outer", u.shape, v.shape)
    return _node(
        np.outer(u.data, v.data),
        (u, v),
        lambda g: (matvec(g, v), matvec(transpose(g), u)),
        "outer",
    )


def dot(u, v) -> Tensor:
    return sum_all(mul(u, v))


# ---------------------------------------------------------------------------
# reductions and softmax
# ---------------------------------------------------------------------------

def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    return _node(np.sum(a.data), (a,), lambda g: (broadcast_to(g, shape),), "sum_all")


def sum_axis(m, axis: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatchError("sum_axis", m.shape, (axis,))
    if axis == 0:
        return sum_to(m, m.shape[1:])
    ones = Tensor(np.ones(m.shape[1]))  # the VJP tiles g (r,) into columns
    return _node(m.data.sum(axis=1), (m,), lambda g: (outer(g, ones),), "sum_axis1")


def l1norm(a) -> Tensor:
    return sum_all(absolute(a))


def vec_max(v) -> Tensor:
    """Max of a nonempty 1-d vector; tie -> lowest index, index constant under grad."""
    v = _as_tensor(v)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ShapeMismatchError("vec_max", v.shape, ("n>=1",))
    return take(v, int(np.argmax(v.data)))


def rows_max(m) -> Tensor:
    """Columnwise max over rows of a nonempty (n, d): the pooling / bag-max kernel."""
    m = _as_tensor(m)
    if m.ndim != 2 or m.shape[0] == 0:
        raise ShapeMismatchError("rows_max", m.shape, ("n>=1", "d"))
    vals, idx = kernels.rows_max(np.ascontiguousarray(m.data))
    index = (idx, np.arange(m.shape[1]))
    shape = m.shape
    return _node(vals, (m,), lambda g: (put(g, index, shape),), "rows_max")


def softmax(a, axis: int = 0) -> Tensor:
    """Softmax along the sentence axis: 1-d vectors, or axis 0 of a 2-d matrix."""
    a = _as_tensor(a)
    if a.size == 0:
        raise ShapeMismatchError("softmax", a.shape, ("n>=1",))
    if a.ndim == 1:
        z = a.data - a.data.max()
        e = np.exp(z)
        node = _node(e / e.sum(), (a,), None, "softmax")
        reduce = sum_all
    elif a.ndim == 2 and axis == 0:
        z = a.data - a.data.max(axis=0, keepdims=True)
        e = np.exp(z)
        node = _node(e / e.sum(axis=0, keepdims=True), (a,), None, "softmax")
        reduce = lambda t: sum_axis(t, 0)  # noqa: E731
    else:
        raise ShapeMismatchError("softmax", a.shape, (axis,))
    ref = weakref.ref(node)

    def vjp(g):
        y = ref()
        return (mul(y, sub(g, reduce(mul(g, y)))),)

    node._vjp = vjp
    return node


# ---------------------------------------------------------------------------
# selection: take and its adjoint put, concatenation, stacking
# ---------------------------------------------------------------------------

def take(a, index) -> Tensor:
    """Copy of a.data[index]; the index is an int, a slice, an int array or a tuple of them."""
    a = _as_tensor(a)
    for part in index if isinstance(index, tuple) else (index,):
        # a negative id would wrap around; numpy itself rejects ids past the end
        if isinstance(part, np.ndarray) and part.size and part.min() < 0:
            raise IndexError(f"take: negative id {part.min()} in index")
    out = a.data[index]
    if not isinstance(index, np.ndarray):
        out = out.copy()  # a basic index gives a view; own the data
    shape = a.shape
    return _node(out, (a,), lambda g: (put(g, index, shape),), "take")


def put(v, index, shape) -> Tensor:
    """Zeros of `shape` holding v at index, the adjoint of take.

    Rows an int array repeats are summed (kernels.scatter_add_rows); a
    tuple holding int arrays accumulates in index order as well. The ids
    are not checked again: they come from take or from the engine itself.
    """
    v = _as_tensor(v)
    shape = tuple(shape)
    if isinstance(index, np.ndarray):
        if v.shape != index.shape + shape[1:]:
            raise ShapeMismatchError("put", v.shape, shape)
        rows = np.ascontiguousarray(v.data.reshape(index.size, math.prod(shape[1:])))
        out = kernels.scatter_add_rows(shape[0], index.reshape(-1), rows).reshape(shape)
    else:
        out = np.zeros(shape)
        if out[index].shape != v.shape:
            raise ShapeMismatchError("put", v.shape, shape)
        if isinstance(index, tuple) and any(isinstance(p, np.ndarray) for p in index):
            np.add.at(out, index, v.data)
        else:
            out[index] = v.data
    return _node(out, (v,), lambda g: (take(g, index),), "put")


def concat(parts, axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", (axis,), tuple(p.shape for p in parts)) from None
    lead = (slice(None),) * (axis % out.ndim)
    bounds = list(itertools.accumulate((p.shape[len(lead)] for p in parts), initial=0))
    index = [lead + (slice(lo, hi),) for lo, hi in zip(bounds, bounds[1:])]
    return _node(out, parts, lambda g: tuple(take(g, i) for i in index), "concat")


def stack_rows(rows) -> Tensor:
    rows = [_as_tensor(r) for r in rows]
    width = rows[0].shape[0]
    for r in rows:
        if r.ndim != 1 or r.shape[0] != width:
            raise ShapeMismatchError("stack_rows", rows[0].shape, r.shape)
    n = len(rows)
    return _node(np.stack([r.data for r in rows]), rows,
                 lambda g: tuple(take(g, i) for i in range(n)), "stack_rows")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def im2col(m, width: int) -> Tensor:
    """Unfold (Lp, c) into (Lp-width+1, width*c) convolution rows."""
    m = _as_tensor(m)
    if m.ndim != 2 or width < 1 or m.shape[0] < width:
        raise ShapeMismatchError("im2col", m.shape, (width,))
    out = kernels.im2col(np.ascontiguousarray(m.data), width)
    return _node(out, (m,), lambda g: (col2im(g, width),), "im2col")


def col2im(m, width: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2 or m.shape[1] % width != 0:
        raise ShapeMismatchError("col2im", m.shape, (width,))
    out = kernels.col2im(np.ascontiguousarray(m.data), width)
    return _node(out, (m,), lambda g: (im2col(g, width),), "col2im")


def conv1d(x, filters, bias=None) -> Tensor:
    """Same-length 1-d convolution over the token axis.

    x: (L, c_in); filters: (width*c_in, c_out); zero padding keeps the
    output length at L. Returns (L, c_out).
    """
    x, filters = _as_tensor(x), _as_tensor(filters)
    if x.ndim != 2 or filters.ndim != 2 or filters.shape[0] % x.shape[1] != 0:
        raise ShapeMismatchError("conv1d", x.shape, filters.shape)
    length, c_in = x.shape
    width = filters.shape[0] // c_in
    before = (width - 1) // 2
    padded = put(x, slice(before, before + length), (length + width - 1, c_in))
    out = matmul(im2col(padded, width), filters)
    if bias is not None:
        out = add(out, bias)
    return out


# ---------------------------------------------------------------------------
# backward machinery
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(root: Tensor, wrt, allow_unused: bool = True,
         create_graph: bool = True) -> list[Tensor]:
    """Gradients of a scalar root w.r.t. each tensor in wrt.

    With create_graph (the default) the returned tensors are graph nodes,
    so expressions built from them (gradient-x-input, saliency-style
    penalties) can be backpropagated in turn. With create_graph=False the
    VJPs run unrecorded and return bare tensors holding the same values,
    bit for bit, at the cost of a first-order pass only. Tensors that do
    not participate in the graph get zeros.
    """
    global _recording
    if root.size != 1:
        raise GraphError(f"grad root must be scalar, got shape {root.shape}")
    wrt = list(wrt)
    order = _topo_order(root)
    in_graph = {id(n) for n in order}
    target_ids = {id(t) for t in wrt}

    needed: dict[int, bool] = {}
    for node in order:
        needed[id(node)] = id(node) in target_ids or any(needed[id(p)] for p in node._parents)

    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    was_recording = _recording
    _recording = bool(create_graph)
    try:
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None or node._vjp is None:
                continue
            if not any(needed[id(p)] for p in node._parents):
                continue
            contribs = node._vjp(g)
            for p, c in zip(node._parents, contribs):
                if c is None or not needed[id(p)]:
                    continue
                prev = grads.get(id(p))
                grads[id(p)] = c if prev is None else add(prev, c)
    finally:
        _recording = was_recording

    out = []
    for t in wrt:
        g = grads.get(id(t))
        if g is None:
            if id(t) not in in_graph and not allow_unused:
                raise GraphError("grad target does not participate in the graph")
            g = Tensor(np.zeros_like(t.data))
        out.append(g)
    return out


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into .grad for every requires_grad leaf.

    root must be scalar; a graph can be consumed only once. The gradients
    are taken with create_graph=False: backward builds no graph.
    """
    if root.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if root._backward_used:
        raise GraphError("backward already called on this graph; rebuild the forward pass first")
    root._backward_used = True
    order = _topo_order(root)
    leaves = [n for n in order if not n._parents and n.requires_grad]
    for leaf, g in zip(leaves, grad(root, leaves, create_graph=False)):
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        leaf.grad += g.data
