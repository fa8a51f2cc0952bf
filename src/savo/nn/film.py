"""Feature-wise affine modulation of a layer's activations by a conditioning vector."""

from __future__ import annotations

import numpy as np

from .core import Mlp, ShapeError


class FilmGenerator:
    """Produces per-feature scale/shift from a conditioning vector.

    The generator is a one-hidden-layer MLP (hidden width equals the
    modulated width) emitting ``2 * width`` values, split into a raw scale
    and a shift. The scale is parameterized as ``1 + raw`` and the output
    layer is zero-initialized, so a fresh generator is exactly the identity
    modulation.
    """

    def __init__(self, net: Mlp, width: int):
        if net.out_dim != 2 * width:
            raise ShapeError("generator must emit 2 * width outputs")
        self.net = net
        self.width = width

    @classmethod
    def create(cls, cond_dim: int, width: int, rng: np.random.Generator) -> "FilmGenerator":
        net = Mlp.create([cond_dim, width, 2 * width], ["relu", "linear"], rng)
        net.layers[-1].weight[:] = 0.0
        net.layers[-1].bias[:] = 0.0
        return cls(net, width)

    def arrays(self) -> list[np.ndarray]:
        return self.net.arrays()

    def _modulation(self, cond: np.ndarray, layer_tapes: list | None):
        """The one forward body: (gamma, beta, generator tape) for ``cond``."""
        raw, net_tape = self.net._forward(cond, layer_tapes)
        return 1.0 + raw[..., : self.width], raw[..., self.width :], net_tape

    def scale_shift(self, cond: np.ndarray):
        return self._modulation(cond, None)[:2]

    def modulate_tape(self, features: np.ndarray, cond: np.ndarray):
        """``gamma * features + beta`` with (gamma, beta) generated from ``cond``.

        Raises ``ShapeError`` before any pass unless ``features`` is
        ``(..., width)`` with the batch shape of ``cond``: a broadcast would
        give ``backward`` a ``d_features`` of the wrong shape."""
        features = np.asarray(features, dtype=self.net.dtype)
        if features.shape[-1] != self.width:
            raise ShapeError(f"features have width {features.shape[-1]}, generator modulates {self.width}")
        if features.shape[:-1] != np.shape(cond)[:-1]:
            raise ShapeError(f"features batch {features.shape[:-1]} != conditioning batch {np.shape(cond)[:-1]}")
        gamma, beta, net_tape = self._modulation(cond, [])
        return gamma * features + beta, (features, gamma, net_tape)

    def backward(self, tape, dout: np.ndarray):
        """Returns (d_features, d_cond, grads), in the generator's dtype."""
        features, gamma, net_tape = tape
        dout = np.asarray(dout, dtype=self.net.dtype)
        dfeat = dout * gamma
        draw = np.empty(dout.shape[:-1] + (2 * self.width,), dtype=self.net.dtype)
        np.multiply(dout, features, out=draw[..., : self.width])
        draw[..., self.width :] = dout
        dcond, grads = self.net.backward(net_tape, draw)
        return dfeat, dcond, grads
