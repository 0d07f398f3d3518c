"""Checkpointing: a one-line UTF-8 JSON manifest followed by the raw
little-endian float64 parameter payload, concatenated in manifest order.
Round-trips are bit-exact."""

from __future__ import annotations

import json
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
            name: [[pname, list(t.data.shape)] for pname, t in store.items()]
            for name, store in stores.items()
        },
    }
    chunks = []
    for store in stores.values():
        for _, t in store.items():
            chunks.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(b"".join(chunks))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (stores, manifest); rejects corrupt manifests and payloads
    whose length does not match the manifest exactly. Each parameter is
    read straight into an array of its own, so a load holds no second copy
    of the payload."""
    with open(path, "rb") as fh:
        header = fh.readline()
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
        if manifest.get("format") != FORMAT:
            raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')!r}")

        expected = 0
        for entries in manifest["stores"].values():
            for _, shape in entries:
                expected += int(np.prod(shape, dtype=np.int64)) * 8
        if size != expected:
            raise CheckpointError(
                f"payload length {size} does not match manifest ({expected} bytes)"
            )

        stores = {}
        for name, entries in manifest["stores"].items():
            values = {}
            for pname, shape in entries:
                values[pname] = np.empty(shape, dtype="<f8")
                if fh.readinto(values[pname]) != values[pname].nbytes:
                    raise CheckpointError(f"payload of {path} ended early at {name}.{pname}")
            stores[name] = ParamStore(values)
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
