"""Minimal reverse-mode tensor engine, differentiable once.

Every operation records its inputs and a VJP rule written in numpy: the
rule maps the output gradient, an array, to one array (or None) per
input. Gradients are therefore first-order, and taking one makes no graph
node. Training needs no more: the distractor loss's gradient-x-input is a
closed form with its derivative written out (explain.gi_vector), so no
gradient of a gradient is taken.

The library records few nodes. first_order makes a node from a caller's
own numpy forward and VJP: the sentence encoder, the bag head
(models.RelationModel._head_node), the two losses, the closed-form
gradient-x-input, the distractor loss and the combined objective are one
node each. The generic ops are those the library still composes: add and
sigmoid, matmul and take (directsup's sigmoid weights, the objective's
sum, and the rows of an encoding stack). The test suite keeps further ops
(sub, mul, relu, absolute, clamp, log, reshape, softmax, concat, ...) as
its oracle engine, built on first_order, and checks each coarse node
against the same computation in those ops.
Gradients are functional: grad(root, wrt) returns d(root)/d(t) for each t
in wrt as bare tensors, and backward(root, wrt) the same as plain arrays,
the form an optimizer step reads. Neither changes a tensor.

Design notes:
  * float64 everywhere; gradient checking demands the precision.
  * add broadcasts like numpy, and a python float or a numpy array
    operand is a constant Tensor. Its VJP sums the incoming gradient back
    to each operand's shape (_sum_to, the adjoint of broadcasting) and
    returns None for an operand that does not require grad: no constant
    gets a gradient computed.
  * matmul takes a 2-d left operand and a 2-d or 1-d right one, as numpy's
    @ does; the adjoint of a matrix-vector product's matrix is the
    broadcasting product of g as a column with the vector. VJPs transpose
    into contiguous copies: on a view BLAS takes another path, and the
    gradient's bits would change.
  * take(a, index) copies a.data[index] for an int, a slice, a tuple of
    them or an int array; int arrays are range-checked, and negative ids
    raise IndexError instead of wrapping. Its VJP writes the gradient into
    zeros of a's shape (_put), summing the rows an int array repeats. All
    indexing in the engine (slices, single rows and elements, embedding
    lookups) is take.
  * A VJP closes over arrays, never over its own node, so a graph holds no
    reference cycle and is freed as soon as its root is dropped.
  * _sigmoid_np is sigmoid's forward on arrays, for the callers that need
    the same sigmoid outside a graph.
"""

from __future__ import annotations

import math

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
    """Raised for invalid graph use (a non-scalar root, a target that requires no grad)."""


class Tensor:
    """Dense float64 array participating in a differentiable graph."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape})"


def _node(data, parents, vjp, op: str) -> Tensor:
    out = Tensor(data)
    out._op = op
    out._parents = tuple(parents)
    out._vjp = vjp
    for p in parents:  # a loop: no generator per node
        if p.requires_grad:
            out.requires_grad = True
            break
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def first_order(data, parents, vjp, op: str) -> Tensor:
    """A node over parents from a caller's own numpy forward and VJP.

    vjp maps the output gradient, an array, to one array (or None) per
    parent, as every op's VJP does.
    """
    # a function of its own, not an alias: a tracer that wraps the public
    # functions and patches _node then counts each node once
    return _node(data, parents, vjp, op)


# ---------------------------------------------------------------------------
# elementwise ops, broadcasting like numpy
# ---------------------------------------------------------------------------

def _broadcast(ufunc, op: str, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, the adjoint of broadcasting; g itself if it has that shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return _node(_broadcast(np.add, "add", a, b), (a, b),
                 lambda g: (_sum_to(g, sa) if ra else None, _sum_to(g, sb) if rb else None),
                 "add")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """The logistic function on an array, without overflow for large |x|:
    1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, so that the
    exponent is never positive."""
    ex = np.exp(-np.abs(x))
    d = 1.0 + ex
    return np.where(x >= 0, 1.0 / d, ex / d)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _sigmoid_np(a.data)
    return _node(y, (a,), lambda g: (g * (y * (1.0 - y)),), "sigmoid")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """a @ b for a 2-d a and a 2-d or 1-d b."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    rows = (a.shape[0], 1)  # for a 1-d b, d(a @ b)/da is the outer product of g and b
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g.reshape(rows) * b.data if b.ndim == 1
                            else g @ np.ascontiguousarray(b.data.T),
                            np.ascontiguousarray(a.data.T) @ g), "matmul")


# ---------------------------------------------------------------------------
# selection: take and its adjoint
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
    return _node(out, (a,), lambda g: (_put(g, index, shape),), "take")


def _put(v: np.ndarray, index, shape: tuple) -> np.ndarray:
    """Zeros of `shape` holding v at index, the adjoint of take.

    Rows an int array repeats are summed (kernels.scatter_add_rows); a
    tuple holding int arrays accumulates in index order as well.
    """
    if isinstance(index, np.ndarray):
        rows = np.ascontiguousarray(v.reshape(index.size, math.prod(shape[1:])))
        return kernels.scatter_add_rows(shape[0], index.reshape(-1), rows).reshape(shape)
    out = np.zeros(shape)
    if isinstance(index, tuple) and any(isinstance(p, np.ndarray) for p in index):
        np.add.at(out, index, v)
    else:
        out[index] = v
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


def grad(root: Tensor, wrt) -> list[Tensor]:
    """Gradients of a scalar root w.r.t. each tensor in wrt, which must require grad.

    Each gradient is a bare tensor, with no parents and no VJP. Tensors
    that do not participate in the graph get zeros. No tensor is changed.
    """
    if root.size != 1:
        raise GraphError(f"grad root must be scalar, got shape {root.shape}")
    wrt = list(wrt)
    if not all(t.requires_grad for t in wrt):
        raise GraphError("grad target does not require grad")  # add would skip it
    order = _topo_order(root)
    target_ids = {id(t) for t in wrt}
    needed: set[int] = set()  # nodes on a path to a target
    feeds: set[int] = set()   # nodes with a needed parent: the VJPs that run
    for node in order:
        key = id(node)
        for p in node._parents:
            if id(p) in needed:
                feeds.add(key)
                needed.add(key)
                break
        if key in target_ids:
            needed.add(key)

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        key = id(node)
        g = grads.get(key) if key in feeds else None
        if g is None:
            continue
        for p, c in zip(node._parents, node._vjp(g)):
            if c is None or id(p) not in needed:
                continue
            prev = grads.get(id(p))
            grads[id(p)] = c if prev is None else prev + c
    return [Tensor(grads[id(t)] if id(t) in grads else np.zeros_like(t.data)) for t in wrt]


def backward(root: Tensor, wrt) -> list[np.ndarray]:
    """d(root)/d(t) for each t in wrt as plain arrays, the form an optimizer step reads."""
    return [g.data for g in grad(root, wrt)]
