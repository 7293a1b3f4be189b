"""Run manifests: enough provenance to verify that two runs were the
same experiment (config hash, input digests, seed, versions) without
anything time- or path-dependent, so identical runs produce identical
manifest bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

from .config import _SECTIONS


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# the input paths; the output directory is dropped before this is read
_PATH_KEYS = _SECTIONS["paths"]


def build_manifest(command: str, config: dict, inputs: dict[str, str],
                   seed: int) -> dict:
    """inputs maps each input option given (log, kg, ...) to its path;
    the manifest keeps one digest per option."""
    from . import __version__

    # drop the output directory and keep only basenames of input paths:
    # locations are run-dependent, the digests below pin the contents
    recorded = {}
    for k, v in sorted(config.items()):
        if k == "out":
            continue
        if k in _PATH_KEYS and isinstance(v, str):
            v = os.path.basename(v)
        recorded[k] = v
    blob = json.dumps(recorded, sort_keys=True).encode("utf-8")
    return {
        "format": "kcpm-manifest",
        "version": 2,
        "command": command,
        "config": recorded,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "inputs": {name: _sha256_file(path)
                   for name, path in sorted(inputs.items())},
        "seed": seed,
        "versions": {
            "kcpm": __version__,
            "python": sys.version.split()[0],
        },
    }


def write_manifest(path: str, command: str, config: dict,
                   inputs: dict[str, str], seed: int) -> None:
    manifest = build_manifest(command, config, inputs, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
