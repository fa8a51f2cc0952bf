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

Tape layout: ``Mlp.forward_tape`` returns ``(layer_tapes, single)``, where
``layer_tapes`` holds one ``(input, output)`` pair per layer, the output
taken after the activation, and ``single`` says that a 1-D input was lifted
to a batch of one. No pre-activation is kept: each layer's activation is
applied in place to its fresh ``h @ W + b``, and backward takes the
derivative from the output (relu: ``out > 0``; tanh: ``1 - out * out``;
linear: 1). These give the same floating-point values as the derivatives
taken from the pre-activation, bit for bit; the tests keep those formulas
as oracles. Since backward reads the stored output, a taped forward returns
it read-only.
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


_ACTIVATIONS = ("linear", "relu", "tanh")


@dataclass
class DenseLayer:
    """One dense layer; weight is stored (fan_in, fan_out) for row-batched inputs."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
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
    ) -> "Mlp":
        """Xavier-uniform weights, zero biases."""
        if len(activations) != len(sizes) - 1:
            raise ShapeError("need one activation per layer")
        layers = []
        for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
            w = xavier_uniform(fan_in, fan_out, rng)
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
        whose (layer input, layer output) list is ``layer_tapes`` if not None."""
        x, single = _as_batch(x)
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        h = x
        for layer in self.layers:
            z = h @ layer.weight
            z += layer.bias
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            elif layer.activation == "tanh":
                np.tanh(z, out=z)
            if layer_tapes is not None:
                layer_tapes.append((h, z))
            h = z
        if layer_tapes is not None:
            h.flags.writeable = False  # backward reads it
        return (h[0] if single else h), (layer_tapes, single)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x, None)[0]

    def forward_tape(self, x: np.ndarray):
        """Forward pass recording (layer input, layer output) per layer; the
        returned output is read-only."""
        return self._forward(x, [])

    def backward(self, tape, dy: np.ndarray, with_params: bool = True):
        """Backpropagate an upstream gradient through the recorded pass.

        ``dy`` has the shape of the taped output; a one-output net also takes
        it without the output axis, (B,) or (). Returns ``(dx, grads)`` where
        ``grads`` matches :meth:`arrays` order; ``grads`` is ``None`` when
        ``with_params`` is false (input-gradient only, used for action
        gradients through critics). ``dy`` is never written to.
        """
        layer_tapes, single = tape
        taped = layer_tapes[-1][1].shape
        want = taped[1:] if single else taped
        dy = np.asarray(dy, dtype=np.float64)
        if dy.shape != want:
            if taped[-1] != 1 or dy.shape != want[:-1]:
                raise ShapeError(f"upstream gradient shape {dy.shape} != output shape {want}")
            dy = dy[..., None]
        # dh is the caller's dy on the first pass and a fresh matmul result after it
        dh, fresh = (dy[None] if single else dy), False
        grads: list[np.ndarray] | None = [] if with_params else None
        for layer, (h_in, out) in zip(reversed(self.layers), reversed(layer_tapes)):
            if layer.activation == "relu":
                dz = np.multiply(dh, out > 0.0, out=dh) if fresh else dh * (out > 0.0)
            elif layer.activation == "tanh":
                dz = np.multiply(out, out)
                np.subtract(1.0, dz, out=dz)
                dz *= dh
            else:
                dz = dh
            if with_params:
                grads.append(dz.sum(axis=0))  # bias
                grads.append(h_in.T @ dz)  # weight
            dh, fresh = dz @ layer.weight.T, True
        if with_params:
            grads.reverse()
        return (dh[0] if single else dh), grads
