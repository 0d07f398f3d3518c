"""Checkpointing: a one-line UTF-8 JSON manifest followed by the raw
little-endian float64 payload: each store's parameter vector
(`ParamStore.vector`), in manifest order. The manifest lists every store's
parameter names and shapes in layout order, so it fixes where each
parameter lies. Round-trips are bit-exact."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ..nn import ParamStore

FORMAT = "openteam-checkpoint-v1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(stores: dict, path, config_hash: str = "", global_step: int = 0):
    """`stores` maps store name -> ParamStore. The file is written beside
    `path`, flushed to disk and only then renamed over it, so `path` holds
    either the previous checkpoint or the whole new one, also after a
    failed save or a crash."""
    manifest = {
        "format": FORMAT,
        "config_hash": config_hash,
        "global_step": int(global_step),
        "stores": {
            name: [[pname, list(shape)] for pname, shape in store.shapes().items()]
            for name, store in stores.items()
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":")).encode("utf-8") + b"\n")
        for store in stores.values():
            fh.write(store.vector.astype("<f8", copy=False))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (stores, manifest); rejects corrupt manifests and payloads
    whose length does not match the manifest exactly. Each store's vector
    is read straight into an array of its own, so a load holds no second
    copy of the payload."""
    with open(path, "rb") as fh:
        header = fh.readline()
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
        if manifest.get("format") != FORMAT:
            raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')!r}")

        lengths = [sum(math.prod(s) for _, s in e) for e in manifest["stores"].values()]
        if size != 8 * sum(lengths):
            raise CheckpointError(
                f"payload length {size} does not match manifest ({8 * sum(lengths)} bytes)"
            )

        stores = {}
        for (name, entries), length in zip(manifest["stores"].items(), lengths):
            vector = np.empty(length, dtype="<f8")
            if fh.readinto(vector) != vector.nbytes:
                raise CheckpointError(f"payload of {path} ended early at store {name}")
            stores[name] = ParamStore.from_vector(dict(entries), vector)
    return stores, manifest


def shape_diff(expected: dict, found: dict):
    """Human-readable differences between two {name: shape} maps."""
    problems = []
    for name, shape in expected.items():
        if name not in found:
            problems.append(f"missing {name} {tuple(shape)}")
        elif tuple(found[name]) != tuple(shape):
            problems.append(f"{name}: expected {tuple(shape)}, found {tuple(found[name])}")
    for name in found:
        if name not in expected:
            problems.append(f"unexpected {name} {tuple(found[name])}")
    return problems
