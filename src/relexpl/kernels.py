"""Array kernels of the tensor engine, in numpy.

All kernels take and return float64 arrays and are deterministic: the
accumulation order of every loop is fixed.
"""

import numpy as np

USING_NUMBA = False  # one numpy route; the constant stays for tools that report the route


def im2col(xpad: np.ndarray, width: int) -> np.ndarray:
    """Unfold a padded (Lp, c) sequence into (Lp-width+1, width*c) rows.

    Column block dt of the output holds xpad shifted by dt, so row t is the
    concatenation xpad[t], xpad[t+1], ..., xpad[t+width-1].
    """
    lp, c = xpad.shape
    l = lp - width + 1
    out = np.empty((l, width * c), dtype=np.float64)
    for dt in range(width):
        out[:, dt * c:(dt + 1) * c] = xpad[dt:dt + l]
    return out


def col2im(g: np.ndarray, width: int) -> np.ndarray:
    """Adjoint of im2col: fold (L, width*c) back into (L+width-1, c), summing overlaps."""
    l, wc = g.shape
    c = wc // width
    out = np.zeros((l + width - 1, c), dtype=np.float64)
    for dt in range(width):
        out[dt:dt + l] += g[:, dt * c:(dt + 1) * c]
    return out


def rows_max(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise max over the rows of (N, d): values (d,) and argmax rows (d,).

    Ties resolve to the lowest row index.
    """
    idx = np.argmax(x, axis=0)
    vals = x[idx, np.arange(x.shape[1])]
    return np.ascontiguousarray(vals, dtype=np.float64), idx.astype(np.int64)


def scatter_add_rows(n_rows: int, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Accumulate rows (m, d) into a zero (n_rows, d) table at positions ids (m,), in order."""
    out = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
    np.add.at(out, ids, rows)
    return out
