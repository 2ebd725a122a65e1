"""Array kernels, in numpy, of the sentence encoder and the tensor engine.

The encoder's node calls im2col and rows_max in its forward and col2im
and scatter_add_rows in its VJP; the directsup bag head (models._max_pool)
and explain.gi_vector find the max-pool winners with rows_max, and the
VJP of the engine's take calls scatter_add_rows. Callers look the kernels up
through this module (kernels.im2col, not an imported name), so a tool
that replaces a module attribute sees every call.

All kernels take and return float64 arrays and are deterministic: the
accumulation order of every loop is fixed.
"""

import numpy as np

USING_NUMBA = False  # one numpy route; the constant stays for tools that report the route


def im2col(xpad: np.ndarray, width: int, starts: np.ndarray) -> np.ndarray:
    """Unfold the windows of a padded (Lp, c) sequence that start at rows starts.

    Row r is the concatenation xpad[t], xpad[t+1], ..., xpad[t+width-1] for
    t = starts[r]. Each window is a contiguous run of xpad's C-order memory,
    so a row is one copy out of a strided view of all windows.
    """
    lp, c = xpad.shape
    windows = np.ndarray((lp - width + 1, width * c), dtype=np.float64, buffer=xpad,
                         strides=xpad.strides)
    return windows[starts]


def col2im(g: np.ndarray, width: int, starts: np.ndarray, rows: int) -> np.ndarray:
    """Adjoint of im2col: fold (n, width*c) windows at the distinct starts back
    into (rows, c), summing overlaps.

    The rows of g are first spread over the grid of all rows - width + 1
    windows, the others holding zeros, and the grid is folded; a zero term
    leaves every sum as it is.
    """
    grid = np.zeros((rows - width + 1, g.shape[1]), dtype=np.float64)
    grid[starts] = g
    n, wc = grid.shape
    c = wc // width
    out = np.zeros((rows, c), dtype=np.float64)
    for dt in range(width):
        out[dt:dt + n] += grid[:, dt * c:(dt + 1) * c]
    return out


def rows_max(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise max over the rows of (N, d): values (d,) and argmax rows (d,).

    Ties resolve to the lowest row index.
    """
    idx = np.argmax(x, axis=0)
    vals = x[idx, np.arange(x.shape[1])]
    return np.ascontiguousarray(vals, dtype=np.float64), idx.astype(np.int64)


def scatter_add_rows(n_rows: int, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Accumulate rows (m, d) into a zero (n_rows, d) table at positions ids (m,), in order.

    Strictly increasing ids name each row once, so one buffered += adds the
    same 0 + row as np.add.at, without its per-element loop.
    """
    out = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
    if ids.size < 2 or np.all(ids[1:] > ids[:-1]):
        out[ids] += rows
    else:
        np.add.at(out, ids, rows)
    return out
