"""Bit-exact parameter checkpoints (npz: arrays + Adam moments + step)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ShapeError
from .optim import AdamState

FORMAT_VERSION = 1


def save_arrays(path, arrays: list[np.ndarray], adam: AdamState) -> None:
    payload = {"version": np.int64(FORMAT_VERSION), "count": np.int64(len(arrays))}
    for i, a in enumerate(arrays):
        payload[f"p{i}"] = a
    payload["step"] = np.int64(adam.step)
    for i, (m, v) in enumerate(zip(adam.m, adam.v)):
        payload[f"m{i}"] = m
        payload[f"v{i}"] = v
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
    with np.load(path) as data:
        if int(data["version"]) != FORMAT_VERSION:
            raise ShapeError(f"unsupported checkpoint version in {path}")
        if int(data["count"]) != len(arrays):
            raise ShapeError(f"checkpoint {path} holds {int(data['count'])} arrays, expected {len(arrays)}")
        if "step" not in data:
            raise ShapeError(f"checkpoint {path} has no optimizer state")
        if len(adam.m) != len(arrays):
            raise ShapeError(f"optimizer state holds {len(adam.m)} moments, expected {len(arrays)}")
        step = int(data["step"])
        targets = {f"p{i}": a for i, a in enumerate(arrays)}
        for i in range(len(arrays)):
            targets[f"m{i}"], targets[f"v{i}"] = adam.m[i], adam.v[i]
        stored = {key: data[key] for key in targets}
    for key, a in targets.items():
        if stored[key].shape != a.shape or stored[key].dtype != a.dtype:
            raise ShapeError(f"stored {key} is {stored[key].dtype} {stored[key].shape}, expected {a.dtype} {a.shape}")
    for key, a in targets.items():
        a[:] = stored[key]
    adam.step = step
