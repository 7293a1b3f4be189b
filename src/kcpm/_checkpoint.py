"""The checkpoint header and payload checks shared by the temporal
scorer and the variant profile. No numpy: loading a variant profile must
not pay its import.
"""
from __future__ import annotations

import json

from .errors import DataError


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


def checkpoint_list(payload: dict, key: str, valid, kind: str) -> list:
    """payload[key] if it is a list whose every item passes valid; else
    DataError naming the key; kind names the checkpoint."""
    items = payload.get(key)
    if not isinstance(items, list) or not all(map(valid, items)):
        raise DataError(f"{kind} checkpoint: {key} is malformed")
    return items


def is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(x) in (int, float)
