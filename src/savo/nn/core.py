"""Dense networks with hand-written forward/backward passes.

Everything is float64. Networks are plain containers of weight arrays;
forward passes are pure, backward passes consume a tape recorded by the
matching forward call. No autodiff: the architectures used by the agent
(MLP, FiLM-modulated MLP, deep-set summarizer) each carry their own
analytic backward, checked against central finite differences in the
test suite.

One body per module: Mlp, DeepSetSummarizer and FilmGenerator each compute
their forward pass in one private method. Their public entry points differ
only in whether that body records a tape, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Inputs or parameter shapes do not line up."""


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def relu_prime(z: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return (z > 0.0).astype(np.float64)


_ACTS = {
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (relu, relu_prime),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


@dataclass
class DenseLayer:
    """One dense layer; weight is stored (fan_in, fan_out) for row-batched inputs."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ShapeError("dense layer weight/bias shapes inconsistent")


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Mlp:
    """Fully-connected stack with per-layer activation tags."""

    def __init__(self, layers: list[DenseLayer]):
        self.layers = layers

    @classmethod
    def create(
        cls,
        sizes: list[int],
        activations: list[str],
        rng: np.random.Generator,
        init_noise: float = 0.0,
    ) -> "Mlp":
        """Xavier-uniform weights, zero biases.

        ``init_noise`` adds ``init_noise * N(0, 1)`` to the weights after the
        Xavier draw, used to diversify otherwise-identical actor stacks.
        """
        if len(activations) != len(sizes) - 1:
            raise ShapeError("need one activation per layer")
        layers = []
        for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
            w = xavier_uniform(fan_in, fan_out, rng)
            if init_noise > 0.0:
                w = w + init_noise * rng.standard_normal(w.shape)
            layers.append(DenseLayer(w, np.zeros(fan_out), act))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def arrays(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def _forward(self, x: np.ndarray, layer_tapes: list | None):
        """The one forward body; returns the output and the tape for :meth:`backward`,
        whose (layer input, pre-activation) list is ``layer_tapes`` if not None."""
        x, single = _as_batch(x)
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        h = x
        for layer in self.layers:
            z = h @ layer.weight + layer.bias
            if layer_tapes is not None:
                layer_tapes.append((h, z))
            h = _ACTS[layer.activation][0](z)
        return (h[0] if single else h), (layer_tapes, single)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x, None)[0]

    def forward_tape(self, x: np.ndarray):
        """Forward pass recording (layer input, pre-activation) per layer."""
        return self._forward(x, [])

    def backward(self, tape, dy: np.ndarray, with_params: bool = True):
        """Backpropagate an upstream gradient through the recorded pass.

        Returns ``(dx, grads)`` where ``grads`` matches :meth:`arrays` order;
        ``grads`` is ``None`` when ``with_params`` is false (input-gradient
        only, used for action gradients through critics).
        """
        layer_tapes, single = tape
        dy = np.asarray(dy, dtype=np.float64)
        if dy.ndim == 1 and not single:
            # scalar-output nets may hand back a (B,) upstream
            dy = dy[:, None]
        if single:
            dy = np.atleast_1d(dy)[None, :]
        grads: list[np.ndarray] | None = [] if with_params else None
        dh = dy
        for layer, (h_in, z) in zip(reversed(self.layers), reversed(layer_tapes)):
            dz = dh * _ACTS[layer.activation][1](z)
            if with_params:
                grads.insert(0, dz.sum(axis=0))  # bias
                grads.insert(0, h_in.T @ dz)  # weight
            dh = dz @ layer.weight.T
        return (dh[0] if single else dh), grads
