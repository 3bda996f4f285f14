"""Atomic artifact writes and bit-exact model checkpoints.

Every artifact the package writes (checkpoints, dataset CSVs, reports and
JSON) goes through :func:`atomic_write`: the bytes go to a temporary file in
the target directory, and only a block that finishes moves it over the
target with ``os.replace``, so a crash or an error never leaves a
half-written file behind and never damages the previous one.

A checkpoint is a single ``.npz`` holding every parameter array in float64
plus a JSON metadata blob: the format version, the model kind, and whatever
the caller passes (for the forecaster: architecture, normalization stats and
the chosen dropout rate).  Neither training config, optimizer state nor RNG
state is stored, so a checkpoint serves inference, not resumed training.  A
file that cannot be read back as one (missing, truncated, corrupt, or of
another kind or version) is a :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from contextlib import contextmanager

import numpy as np

FORMAT_VERSION = 1
_META_KEY = "__meta_json__"
_ARRAY_PREFIX = "arr::"


class CheckpointError(RuntimeError):
    """Raised for unreadable, mismatched, or wrong-kind checkpoints."""


class OutputError(RuntimeError):
    """Raised when :func:`atomic_write` cannot write an artifact."""


def _umask() -> int:
    mask = os.umask(0)  # the only way to read it is to set it
    os.umask(mask)
    return mask


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` (creating its directory) and
    yield it; when the block finishes it replaces ``path`` with the mode a
    plain :func:`open` would give (0666 less the umask), and on any
    exception it is deleted and ``path`` is left as it was.  An ``OSError``
    on the way (a file where a directory should be, a directory in the way,
    no permission, a full disk) is one :class:`OutputError`.  ``mode`` and
    ``open_kwargs`` are those of :func:`open`."""
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp's 0600 would outlive the replace
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc}") from exc
        raise


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]):
    """Atomically write arrays + metadata; returns the path."""
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "meta": meta}
    meta_json = json.dumps(payload, sort_keys=True)
    named = {_META_KEY: np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8)}
    for name, arr in arrays.items():
        named[_ARRAY_PREFIX + name] = np.asarray(arr)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **named)
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
    # a damaged zip also fails as a bad archive or CRC, a short read, or a
    # member whose header names another compression method or encryption
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError,
            NotImplementedError, RuntimeError) as exc:
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
