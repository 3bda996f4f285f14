"""Atomic, bit-exact model checkpoints.

A checkpoint is a single ``.npz`` holding every parameter array in float64
plus a JSON metadata blob: the format version, the model kind, and whatever
the caller passes (for the forecaster: architecture, normalization stats and
the chosen dropout rate).  Neither training config, optimizer state nor RNG
state is stored, so a checkpoint serves inference, not resumed training.
Writes go to a temporary file in the target directory followed by
``os.replace``, so a crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

FORMAT_VERSION = 1
_META_KEY = "__meta_json__"
_ARRAY_PREFIX = "arr::"


class CheckpointError(RuntimeError):
    """Raised for unreadable, mismatched, or wrong-kind checkpoints."""


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]):
    """Atomically write arrays + metadata; returns the path."""
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "meta": meta}
    meta_json = json.dumps(payload, sort_keys=True)
    named = {_META_KEY: np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8)}
    for name, arr in arrays.items():
        named[_ARRAY_PREFIX + name] = np.asarray(arr)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **named)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_checkpoint(path, expected_kind: str | None = None):
    """Read back (meta, arrays); verifies format version and kind."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as data:
            if _META_KEY not in data:
                raise CheckpointError(f"{path}: not a recognized checkpoint (no metadata)")
            payload = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
            arrays = {
                name[len(_ARRAY_PREFIX):]: np.array(data[name])
                for name in data.files
                if name.startswith(_ARRAY_PREFIX)
            }
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if payload.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {payload.get('format_version')} "
            f"(this build reads {FORMAT_VERSION})"
        )
    if expected_kind is not None and payload.get("kind") != expected_kind:
        raise CheckpointError(
            f"{path}: holds a {payload.get('kind')!r} model, expected {expected_kind!r}"
        )
    return payload["meta"], arrays


def params_to_arrays(params) -> dict[str, np.ndarray]:
    out = {}
    for p in params:
        if p.name in out:
            raise ValueError(f"duplicate parameter name {p.name}")
        out[p.name] = p.value.copy()
    return out


def load_params_from_arrays(params, arrays: dict[str, np.ndarray]):
    for p in params:
        if p.name not in arrays:
            raise CheckpointError(f"checkpoint missing parameter {p.name}")
        stored = np.asarray(arrays[p.name], dtype=float)
        if stored.shape != p.value.shape:
            raise CheckpointError(
                f"parameter {p.name}: checkpoint shape {stored.shape} != model "
                f"shape {p.value.shape}"
            )
        p.value[...] = stored
