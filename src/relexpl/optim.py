"""Adam optimizer over named parameter dicts, plus checkpoint save/load.

A checkpoint is one JSON object written with sorted keys (format 2)::

    {"extra": {...},
     "format": 2,
     "params": {name: {"data": b64, "sha256": hex, "shape": [...]}, ...}}

``data`` is base64 of the tensor's C-order little-endian float64 bytes
and ``sha256`` the hex digest of those bytes, so a parameter reloads
bit-exactly and corruption is caught. Format 1 stored ``data`` as a flat
list of floats; it is still read, never written.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os

import numpy as np

from .autodiff import Tensor

CHECKPOINT_FORMAT = 2


class Adam:
    """Adam with bias correction over a dict of named parameter tensors.

    Parameter order is fixed by sorted name so state updates are
    reproducible regardless of dict construction order.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0.0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}
        # per-parameter scratch, so that a step allocates no arrays
        self._buf = {name: (np.empty_like(p.data), np.empty_like(p.data))
                     for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        """Apply one update from grads, one gradient array per parameter name.

        The gradients are only read. The update is m <- b1 m + (1 - b1) g,
        v <- b2 v + (1 - b2) g g and
        p <- p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
        computed in place with the same operations in the same order.
        """
        for name, p in self.params.items():  # checked before any state changes
            if name not in grads:
                raise ValueError(f"parameter {name!r} has no gradient")
            if grads[name].shape != p.data.shape:
                raise ValueError(f"parameter {name!r}: gradient of shape {grads[name].shape}, "
                                 f"expected {p.data.shape}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            a, b = self._buf[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            self.params[name].data -= a


def save_checkpoint(path: str, params: dict[str, Tensor], extra: dict | None = None):
    """Write parameters as one sorted-key JSON object in format 2.

    The file is ``{"format": 2, "params": {...}, "extra": {...}}``; each
    ``params`` entry is ``{"shape": [...], "sha256": hex, "data": b64}``,
    where ``data`` is base64 of the tensor's C-order little-endian float64
    bytes and ``sha256`` the hex digest of those bytes. ``extra`` is
    omitted when empty. Exact and byte-stable; written to ``path + ".tmp"``
    and then renamed over ``path``. A non-finite parameter raises
    ValueError before anything is written, as `load_checkpoint` would
    refuse the file.
    """
    entries = {}
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise ValueError(f"parameter {name!r} holds non-finite values")
        raw = np.asarray(p.data, dtype="<f8").tobytes(order="C")
        entries[name] = {
            "shape": list(p.data.shape),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "data": base64.b64encode(raw).decode("ascii"),
        }
    payload = {"format": CHECKPOINT_FORMAT, "params": entries}
    if extra:
        payload["extra"] = extra
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _field(entry: dict, key: str, kind: type, name: str):
    value = entry.get(key)
    if not isinstance(value, kind):
        raise ValueError(f"parameter {name!r}: {key!r} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _shape(entry: dict, name: str) -> tuple[int, ...]:
    shape = _field(entry, "shape", list, name)
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"parameter {name!r}: shape {shape} is not a list of sizes")
    return tuple(shape)


def _decode_v1(entry: dict, name: str) -> np.ndarray:
    shape = _shape(entry, name)
    data = _field(entry, "data", list, name)
    try:
        flat = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameter {name!r}: data is not a list of numbers") from exc
    if flat.ndim != 1 or flat.size != math.prod(shape):
        raise ValueError(f"parameter {name!r}: data of shape {list(flat.shape)} does not fit "
                         f"shape {list(shape)}")
    return flat.reshape(shape)


def _decode_v2(entry: dict, name: str) -> np.ndarray:
    shape = _shape(entry, name)
    digest = _field(entry, "sha256", str, name)
    try:
        raw = base64.b64decode(_field(entry, "data", str, name), validate=True)
    except ValueError as exc:
        raise ValueError(f"parameter {name!r}: data is not valid base64 ({exc})") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"parameter {name!r}: {len(raw)} bytes do not fit shape "
                         f"{list(shape)} of float64")
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ValueError(f"parameter {name!r}: sha256 mismatch, checkpoint data is corrupt")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


_DECODERS = {1: _decode_v1, 2: _decode_v2}


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back as plain float64 arrays plus the extra dict.

    Reads format 2 (see `save_checkpoint`) and format 1, where ``data`` is
    the flat list of floats. Any structural fault, a digest mismatch or a
    non-finite value raises ValueError naming the cause and the parameter.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    fmt = payload.get("format")
    decode = _DECODERS.get(fmt) if type(fmt) is int else None
    if decode is None:
        raise ValueError(f"unsupported checkpoint format {fmt!r}, expected 1 or 2")
    params = payload.get("params")
    if not isinstance(params, dict):
        raise ValueError("checkpoint 'params' must be a JSON object")
    extra = payload.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError("checkpoint 'extra' must be a JSON object")
    arrays = {}
    for name, entry in params.items():
        if not isinstance(entry, dict):
            raise ValueError(f"parameter {name!r}: entry must be a JSON object")
        a = decode(entry, name)
        if not np.isfinite(a).all():
            raise ValueError(f"parameter {name!r} holds non-finite values")
        arrays[name] = a
    return arrays, extra


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]):
    """Copy loaded arrays into an existing parameter dict, shape-checked."""
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {unexpected}")
    for name, p in params.items():
        a = arrays[name]
        if a.shape != p.data.shape:
            raise ValueError(f"parameter {name!r}: checkpoint shape {a.shape} != model {p.data.shape}")
        p.data[...] = a
