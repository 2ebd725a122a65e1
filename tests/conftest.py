"""Shared test helpers: finite-difference oracles against the tensor engine,
conv1d, the per-sentence convolution the encoder is checked against,
predict_k, one relation's prediction from a fresh forward pass, and the
two oracles of the closed-form gradient×input: engine_gi for its values
and recorded_gi for its VJP."""

import numpy as np

from relexpl import autodiff as ad
from relexpl import kernels
from relexpl.autodiff import Tensor, _sigmoid_np, grad
from relexpl.explain import encoding_gradient
from relexpl.models import KIND_DIRECTSUP

import oracle_engine as oe


def numeric_grad(f, arrays, h=1e-5):
    """Central finite differences of scalar f(*arrays) w.r.t. each array.

    f receives plain numpy arrays and must return a python float. This is
    the independent oracle: it never touches the autodiff machinery.
    """
    arrays = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = a[ix]
            a[ix] = orig + h
            fp = f(*arrays)
            a[ix] = orig - h
            fm = f(*arrays)
            a[ix] = orig
            g[ix] = (fp - fm) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-12)
    return np.linalg.norm((a - b).ravel()) / denom


def check_param_grads(forward, params, h=1e-5, tol=1e-4):
    """FD-check gradients of a scalar forward() w.r.t. live parameter tensors.

    forward rebuilds the graph on each call and reads the params' current
    .data, so central differences can perturb them in place.
    """
    targets = list(params.values())
    engine = [g.data.copy() for g in grad(forward(), targets)]
    for p, eng in zip(targets, engine):
        num = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p.data[ix]
            p.data[ix] = orig + h
            fp = float(forward().data)
            p.data[ix] = orig - h
            fm = float(forward().data)
            p.data[ix] = orig
            num[ix] = (fp - fm) / (2.0 * h)
            it.iternext()
        assert rel_err(eng, num) < tol, (
            f"param gradient mismatch: rel err {rel_err(eng, num):.3e}"
        )


def check_grads(build, arrays, h=1e-5, tol=1e-4):
    """Compare engine gradients of build(*tensors) against finite differences.

    build maps Tensor inputs to a scalar Tensor. Asserts relative error
    below tol for every input.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    root = build(*tensors)
    engine = [g.data for g in grad(root, tensors)]

    def f(*arrs):
        return float(build(*[Tensor(a) for a in arrs]).data)

    numeric = numeric_grad(f, arrays, h=h)
    for e, n in zip(engine, numeric):
        assert rel_err(e, n) < tol, f"gradient mismatch: rel err {rel_err(e, n):.3e}"


def conv1d(x, filters, bias=None):
    """Same-length 1-d convolution over the token axis, built from engine ops.

    x: (L, c_in); filters: (width*c_in, c_out); (width - 1) // 2 zero rows
    before x and the rest after keep the output length at L. Window t is
    the padded rows t .. t+width-1, flattened time-major, as one row of
    the GEMM. Returns (L, c_out). The encoder must equal it bit for bit on
    each sentence, and its gradients are checked like any engine graph.
    """
    length, c_in = x.shape
    width = filters.shape[0] // c_in
    before = (width - 1) // 2
    padded = oe.concat([np.zeros((before, c_in)), x, np.zeros((width - 1 - before, c_in))])
    windows = np.arange(length)[:, None] + np.arange(width)  # (L, width) padded rows
    out = ad.matmul(oe.reshape(ad.take(padded, windows), (length, width * c_in)), filters)
    return out if bias is None else ad.add(out, bias)


def predict_k(model, bag, k):
    """(probability, logit) of relation k for the bag, from one fresh forward pass."""
    fwd = model.forward_bag(bag)
    return float(_sigmoid_np(fwd.logits.data)[k]), float(fwd.logits.data[k])


def engine_gi(fwd, k):
    """Per-sentence gradient×input of o_k on a forward, as an (N,) array: the
    engine's gradient of the logit times the encodings, row by row."""
    return (encoding_gradient(fwd, k).data * fwd.X.data).sum(axis=1)


def recorded_gi(model, X, k, entity_i, entity_j):
    """explain.gi_vector's closed form written in engine ops, as an (N,) tensor.

    Its values are gi_vector's, and its gradient is the one the engine
    derives from its ops, so it is an oracle for gi_vector's hand-written
    VJP. Its logit direction is the oracle engine's recorded one
    (oracle_engine.logit_direction), over take, mul and matmul. The
    max-pool winners and the fusion mask are constants here too.
    """
    p = model.params
    x = X.data
    if model.cfg.kind == KIND_DIRECTSUP:
        xw = ad.matmul(X, p["rel.w"])
        a = ad.sigmoid(ad.add(xw, p["rel.b"]))
        rep, winners = kernels.rows_max(x * a.data.reshape(-1, 1))
        mask = np.zeros(x.shape)
        mask[winners, np.arange(x.shape[1])] = 1.0
        u = oe.logit_direction(model, rep, k, entity_i, entity_j)
        t = ad.matmul(oe.mul(X, mask), u)
        h = ad.add(oe.mul(oe.sub(1.0, a), xw), 1.0)
        return oe.mul(oe.mul(a, t), h)
    q = oe.mul(ad.take(p["att.query"], k), p["att.diag"])
    z = ad.matmul(X, q)
    a = oe.softmax(z)
    u = oe.logit_direction(model, a.data @ x, k, entity_i, entity_j)
    s = ad.matmul(X, u)
    c = oe.sub(s, oe.reduce_sum(oe.mul(a, s)))
    return oe.mul(a, ad.add(s, oe.mul(c, z)))
