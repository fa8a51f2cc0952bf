"""Bit-exact parameter checkpoints (npz: arrays + Adam moments + step)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ShapeError
from .optim import AdamState

FORMAT_VERSION = 1


def _entries(arrays: list[np.ndarray], adam: AdamState) -> dict:
    """The arrays and moments by checkpoint key: ``p{i}``, ``m{i}``, ``v{i}``.
    An optimizer state without one moment pair per array raises ``ShapeError``."""
    if not len(adam.m) == len(adam.v) == len(arrays):
        raise ShapeError(f"optimizer state holds {len(adam.m)}/{len(adam.v)} moments, expected {len(arrays)}")
    entries = {}
    for i, (a, m, v) in enumerate(zip(arrays, adam.m, adam.v)):
        entries[f"p{i}"], entries[f"m{i}"], entries[f"v{i}"] = a, m, v
    return entries


def save_arrays(path, arrays: list[np.ndarray], adam: AdamState) -> None:
    """Write ``arrays``, ``adam``'s moments and step to ``path``. A state that
    does not fit ``arrays`` raises ``ShapeError`` before the file is opened."""
    payload = {"version": np.int64(FORMAT_VERSION), "count": np.int64(len(arrays)), "step": np.int64(adam.step)}
    payload.update(_entries(arrays, adam))
    with open(path, "wb") as f:  # np.savez would append ".npz" to a path without it
        np.savez(f, **payload)


def load_arrays(path, arrays: list[np.ndarray], adam: AdamState) -> None:
    """Load a checkpoint into existing arrays/state, in place.

    Every stored array is read once and every shape and dtype checked before
    anything is copied, so a checkpoint that does not fit raises
    ``ShapeError`` and leaves the arrays, moments and step unchanged; a
    float64 checkpoint is never rounded into float32 arrays.
    """
    path = Path(path)
    targets = _entries(arrays, adam)
    with np.load(path) as data:
        missing = [key for key in ["version", "count", *targets, "step"] if key not in data]
        if missing:
            raise ShapeError(f"checkpoint {path} lacks {', '.join(missing)}")
        if int(data["version"]) != FORMAT_VERSION:
            raise ShapeError(f"unsupported checkpoint version in {path}")
        if int(data["count"]) != len(arrays):
            raise ShapeError(f"checkpoint {path} holds {int(data['count'])} arrays, expected {len(arrays)}")
        step = int(data["step"])
        stored = {key: data[key] for key in targets}
    for key, a in targets.items():
        if stored[key].shape != a.shape or stored[key].dtype != a.dtype:
            raise ShapeError(f"stored {key} is {stored[key].dtype} {stored[key].shape}, expected {a.dtype} {a.shape}")
    for key, a in targets.items():
        a[:] = stored[key]
    adam.step = step
