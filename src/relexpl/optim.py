"""Adam optimizer over named parameter dicts, plus checkpoint save/load.

Adam keeps one flat state (see `Adam`): a step is a few numpy calls per
block of BLOCK entries, not fourteen per parameter, and its results are
bit for bit those of the per-parameter form, since each entry goes
through the same operations in the same order.

A checkpoint (format 3) is a pair of files: a JSON header at the given
path, say ``run/checkpoint.json``, and a data file beside it with the
same stem and the suffix ``.bin`` (``run/checkpoint.bin``). The data file
holds each tensor's C-order little-endian float64 bytes, back to back in
sorted-name order. The header is one sorted-key JSON object::

    {"extra": {...},
     "format": 3,
     "params": {name: {"offset": int, "sha256": hex, "shape": [...]}, ...}}

``offset`` is where the tensor's bytes start in the data file and
``sha256`` their hex digest, so a parameter reloads bit-exactly and a
damaged or mismatched data file is caught. The header does not name the
data file, so equal tensors give equal header bytes wherever they are
saved. Copy or move a checkpoint as both files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from . import jsonio
from .autodiff import Tensor
from .encoder import checked_array

CHECKPOINT_FORMAT = 3


# entries of the flat state one pass covers: a block's m, v, scratch,
# gradient and parameter entries (125 KiB each) stay in L2 through a step.
# The two scratch arrays stay under glibc's default 128 KiB mmap threshold,
# so they come from the heap; at 128 KiB each was mapped on its own, and
# unmapping them moved the allocator's thresholds so that later commands of
# one process page-faulted more
BLOCK = 16000


class Adam:
    """Adam with bias correction over a dict of named parameter tensors.

    The state is flat: m and v hold every parameter's entries back to back
    in sorted-name order, allocated once, beside two scratch arrays of at
    most BLOCK entries. A step runs over that order in blocks of BLOCK
    entries; a block may cover the tail of one parameter, several whole
    ones and the head of another.
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
        # each parameter's entries lie in the flat state at [start, stop), in sorted-name order
        spans, at = [], 0
        for name in sorted(params):
            if not params[name].data.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
            spans.append((name, at, at + params[name].data.size))
            at += params[name].data.size
        self._m, self._v = np.zeros(at), np.zeros(at)
        a, b = np.empty(min(at, BLOCK)), np.empty(min(at, BLOCK))
        # per block [lo, hi): its views of m, v, a and b, and for each parameter
        # it overlaps, (name, the slice of the flattened parameter, its view of a)
        self._blocks = []
        for lo in range(0, at, BLOCK):
            hi = min(lo + BLOCK, at)
            parts = [(name, slice(max(lo, start) - start, min(hi, stop) - start),
                      a[max(lo, start) - lo:min(hi, stop) - lo])
                     for name, start, stop in spans if max(lo, start) < min(hi, stop)]
            self._blocks.append((self._m[lo:hi], self._v[lo:hi], a[:hi - lo], b[:hi - lo], parts))

    def step(self, grads: dict[str, np.ndarray]):
        """Apply one update from grads, one gradient array per parameter name.

        The gradients are only read. The update is m <- b1 m + (1 - b1) g,
        v <- b2 v + (1 - b2) g g and
        p <- p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
        computed in place, block by block, with the same operations in the
        same order for every entry. A block within one parameter reads its
        gradient in place; a block over several copies their gradient
        entries into its second scratch array, which the update then
        reuses. A step whose gradients are missing or misshapen changes
        nothing.
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
        params = self.params
        for m, v, a, b, parts in self._blocks:
            g = [grads[name].reshape(-1)[part] for name, part, _ in parts]
            g = g[0] if len(g) == 1 else np.concatenate(g, out=b)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=b)  # g, if a copy in b, is read for the last time above
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            for name, part, a_part in parts:
                view = params[name].data.reshape(-1)[part]
                view -= a_part


def data_path(path: str) -> str:
    """The data file of the checkpoint whose header is at path: its stem plus ``.bin``."""
    data = os.path.splitext(path)[0] + ".bin"
    if data == path:
        raise ValueError(f"checkpoint header {path} would be its own data file; "
                         "name it with another suffix, such as .json")
    return data


def _replace(path: str, chunks):
    """Write the byte chunks to path + ".tmp", then rename it over path."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"parameter {name!r} holds non-finite values")
    return a


def save_checkpoint(path: str, params: dict[str, Tensor], extra: dict | None = None):
    """Write parameters as a format-3 checkpoint: the header at path, the data beside it.

    The data file (`data_path`) gets each tensor's C-order little-endian
    float64 bytes in sorted-name order; the header gets ``{"extra": extra
    or {}, "format": 3, "params": {name: {"offset", "sha256", "shape"}}}``
    as sorted-key JSON. So the same tensors and extra give the same bytes
    in both files, and they reload bit-exactly.

    A non-finite parameter raises ValueError before any file is written,
    as `load_checkpoint` would refuse it. The data file is written to a
    temporary name and renamed into place first, then the header the same
    way. The header is the commit point: it pins every tensor's bytes by
    sha256, so a save cut off between the two renames leaves a header that
    refuses the data beside it instead of loading it.
    """
    names = sorted(params)
    blobs = [np.asarray(_finite(params[name].data, name), dtype="<f8", order="C")
             for name in names]
    entries = {}
    offset = 0
    for name, a in zip(names, blobs):
        entries[name] = {"offset": offset, "sha256": hashlib.sha256(a).hexdigest(),
                         "shape": list(a.shape)}
        offset += a.nbytes
    header = json.dumps({"extra": extra or {}, "format": CHECKPOINT_FORMAT, "params": entries},
                        sort_keys=True)
    _replace(data_path(path), blobs)
    _replace(path, [header.encode("ascii"), b"\n"])


def _read_v3(path: str, params: dict) -> dict[str, np.ndarray]:
    """The tensors a format-3 header lists, read from its data file in one read().

    The arrays are disjoint, writable views of the one buffer read.
    """
    layout = []  # (name, shape, start, stop, sha256) in sorted-name order
    end = 0
    for name in sorted(params):
        entry = jsonio.check_fields(params[name], f"parameter {name!r} entry", {
            "offset": jsonio.INT, "sha256": jsonio.STR, "shape": jsonio.LIST}, exact=True)
        shape = tuple(entry["shape"])
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"parameter {name!r}: shape {entry['shape']} is not a list of sizes")
        if entry["offset"] != end:
            raise ValueError(f"parameter {name!r}: offset {entry['offset']}, expected {end}: "
                             "tensors lie back to back in sorted-name order from byte 0")
        layout.append((name, shape, end, end + 8 * math.prod(shape), entry["sha256"]))
        end = layout[-1][3]
    data = data_path(path)
    with open(data, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < end:
            name, shape, start, stop, _ = next(t for t in layout if t[3] > size)
            raise ValueError(f"parameter {name!r}: shape {list(shape)} needs bytes {start} to "
                             f"{stop} of {data}, which has {size}")
        if size > end:
            last = f"parameter {layout[-1][0]!r}: the last tensor" if layout else "the layout"
            raise ValueError(f"{last} ends at byte {end}, but {data} has {size} bytes")
        buf = np.empty(end // 8, dtype="<f8")
        if fh.readinto(buf) != end:
            raise ValueError(f"{data} changed while it was read")
    arrays = {}
    for name, shape, start, stop, digest in layout:
        flat = buf[start // 8:stop // 8]
        if hashlib.sha256(flat).hexdigest() != digest:
            raise ValueError(f"parameter {name!r}: sha256 mismatch, checkpoint data is corrupt")
        arrays[name] = _finite(flat.reshape(shape), name)
    return arrays


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back as plain float64 arrays plus the extra dict.

    A format-3 header (see `save_checkpoint`) must hold exactly the fields
    written: its offsets must be the running sum, in sorted-name order, of
    the tensor sizes, and the data file, read in one read(), exactly as
    long as that sum; each tensor's bytes must match their sha256. Any
    other format, 1 and 2 included, raises "unsupported checkpoint
    format". A structural fault, a digest mismatch or a non-finite value
    raises ValueError naming the cause and the parameter; a missing data
    file raises FileNotFoundError naming the file.
    """
    header = jsonio.read_object(path)
    fmt = header.get("format")
    if not (type(fmt) is int and fmt == CHECKPOINT_FORMAT):
        raise ValueError(f"unsupported checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT}")
    jsonio.check_fields(header, "checkpoint header", {
        "extra": jsonio.OBJECT, "format": jsonio.INT, "params": jsonio.OBJECT}, exact=True)
    return _read_v3(path, header["params"]), header["extra"]


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]):
    """Copy loaded arrays into an existing parameter dict, name- and shape-checked."""
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {unexpected}")
    for name, p in params.items():
        p.data[...] = checked_array(arrays, name, p.data.shape)
