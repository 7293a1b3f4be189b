"""The numpy plumbing of the temporal scorer's training: a deterministic
row scatter-add, the backtracking full-batch descent loop, and the exact
encoding of checkpoint arrays. The checkpoint header is in _checkpoint.
"""
from __future__ import annotations

import base64
import math

import numpy as np

from .errors import DataError


def scatter_rows(n: int, idx, rows: np.ndarray) -> np.ndarray:
    """(n, dim) array whose row j is the sum of rows[i] over idx[i] == j.

    Row i lands in the flattened cells idx[i]*dim + d, and bincount adds
    the weights of each bin in input order, starting from zero, so the
    result is bit-identical to np.add.at on a zero target; and since
    x + 0.0 == x, a row of zeros changes no sum."""
    dim = rows.shape[1]
    cells = np.asarray(idx, dtype=np.intp)[:, None] * dim + np.arange(dim)
    return np.bincount(cells.reshape(-1), weights=rows.reshape(-1),
                       minlength=n * dim).reshape(n, dim)


def descend(params, forward, backward, learning_rate: float, epochs: int,
            project=None):
    """Full-batch gradient descent with backtracking.

    Each epoch takes one gradient and tries up to 20 steps along it,
    halving the step after every step that would raise the loss; an
    accepted step grows the step by 1.1, capped at learning_rate. A
    candidate is passed through project (if given) before its loss is
    taken. The recorded per-epoch loss is therefore nonincreasing.

    params is a tuple of arrays. forward(params) -> (loss, cache) takes
    the loss and keeps what the gradient needs; backward(params, cache)
    -> one array per parameter. The cache of the accepted candidate
    serves the next epoch's gradient, so every candidate costs one
    forward pass. At most one cache is alive at a time: a cache is
    dropped once backward has consumed it, and a rejected candidate's
    before the next forward. After an epoch whose 20 steps were all
    rejected, the next epoch runs forward(params) again for its cache;
    forward is deterministic, so that changes no step. Returns the final
    params and the per-epoch loss history."""
    lr = learning_rate
    prev, cache = forward(params)
    history = []
    for _ in range(epochs):
        if cache is None:
            _, cache = forward(params)
        g = backward(params, cache)
        cache = None
        for _attempt in range(20):
            cand = tuple(p - lr * gp for p, gp in zip(params, g))
            if project is not None:
                cand = project(cand)
            cand_loss, cache = forward(cand)
            if cand_loss <= prev:
                params, prev = cand, cand_loss
                lr = min(lr * 1.1, learning_rate)
                break
            cache = None
            lr *= 0.5
        history.append(prev)
    return params, history


def encode_array(arr: np.ndarray) -> str:
    """arr as base64 of its little-endian float64 bytes in row-major
    order: exact, and far cheaper to write and read than a list of float
    reprs."""
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def decode_array(payload: dict, key: str, shape: tuple[int, ...],
                 kind: str) -> np.ndarray:
    """The writable float64 array of the given shape that encode_array
    wrote to payload[key]. A missing key, text that is not base64, a
    byte count other than 8 per cell of shape, or a non-finite value
    raises DataError naming the key; kind names the checkpoint."""
    where = f"{kind} checkpoint: {key}"
    try:
        raw = base64.b64decode(payload[key], validate=True)
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{where} is not a base64 float64 array") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise DataError(f"{where} has {len(raw)} bytes, expected {expected} "
                        f"for shape {shape}")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{where} holds non-finite values")
    return arr
