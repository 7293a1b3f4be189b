"""Plumbing shared by the two embedding trainers (`temporal`, `variants`):
a deterministic row scatter-add, the backtracking full-batch descent
loop, and the checkpoint header.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import DataError


def scatter_rows(n: int, idx, rows: np.ndarray) -> np.ndarray:
    """(n, dim) array whose row j is the sum of rows[i] over idx[i] == j.

    One bincount over the flattened cells idx*dim + d. bincount adds the
    weights of each bin in input order, starting from zero, so the result
    is bit-identical to np.add.at on a zero target."""
    dim = rows.shape[1]
    idx = np.asarray(idx, dtype=np.intp)
    cells = (idx[:, None] * dim + np.arange(dim)).reshape(-1)
    return np.bincount(cells, weights=rows.reshape(-1),
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
    forward pass. Returns the final params and the per-epoch loss
    history."""
    lr = learning_rate
    prev, cache = forward(params)
    history = []
    for _ in range(epochs):
        g = backward(params, cache)
        for _attempt in range(20):
            cand = tuple(p - lr * gp for p, gp in zip(params, g))
            if project is not None:
                cand = project(cand)
            cand_loss, cand_cache = forward(cand)
            if cand_loss <= prev:
                params, prev, cache = cand, cand_loss, cand_cache
                lr = min(lr * 1.1, learning_rate)
                break
            lr *= 0.5
        history.append(prev)
    return params, history


def write_checkpoint(stream, fmt: str, version: int, body: dict) -> None:
    """body plus the format/version header, as one sorted-key JSON line."""
    # json.dumps runs the C encoder; json.dump to a stream does not
    stream.write(json.dumps({"format": fmt, "version": version, **body},
                            sort_keys=True))
    stream.write("\n")


def read_checkpoint(source, fmt: str, version: int, kind: str) -> dict:
    """Payload of a checkpoint file path or text stream, after checking
    its header; kind names the checkpoint in the error message."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.load(source)
    except json.JSONDecodeError as exc:
        raise DataError(f"{kind} checkpoint is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        payload = {}
    if payload.get("format") != fmt:
        raise DataError(f"not a {kind} checkpoint: {payload.get('format')!r}")
    if payload.get("version") != version:
        raise DataError(f"unsupported checkpoint version {payload.get('version')!r}")
    return payload
