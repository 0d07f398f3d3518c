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
        lengths = _store_lengths(manifest)
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


def _store_lengths(manifest) -> list:
    """Each store's parameter count, from a manifest checked to be a JSON
    object of the supported format, with an integer global step (when given)
    and stores that each list distinct [name, shape] entries with shapes of
    non-negative integers."""
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt checkpoint manifest: a JSON {type(manifest).__name__}")
    if manifest.get("format") != FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')!r}")
    if type(manifest.get("global_step", 0)) is not int:
        raise CheckpointError(f"corrupt checkpoint manifest: global step {manifest['global_step']!r}")
    stores = manifest.get("stores")
    if not isinstance(stores, dict):
        raise CheckpointError(f"corrupt checkpoint manifest: stores is {stores!r}, not an object")
    lengths = []
    for name, entries in stores.items():
        if not isinstance(entries, list):
            raise CheckpointError(f"corrupt checkpoint manifest: store {name!r} lists {entries!r}")
        for entry in entries:
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(type(d) is int and d >= 0 for d in entry[1])
            ):
                raise CheckpointError(
                    f"corrupt checkpoint manifest: store {name!r} entry {entry!r}"
                    " is not [name, shape of non-negative integers]"
                )
        if len({pname for pname, _ in entries}) < len(entries):
            raise CheckpointError(f"corrupt checkpoint manifest: store {name!r} repeats a name")
        lengths.append(sum(math.prod(shape) for _, shape in entries))
    return lengths


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
