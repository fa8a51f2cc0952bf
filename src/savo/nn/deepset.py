"""Permutation-invariant set summaries: per-element MLP, mean pool, output MLP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mlp, ShapeError


@dataclass
class SetSummary:
    vector: np.ndarray


class DeepSetSummarizer:
    """phi-MLP per element, mean pooling, rho-MLP on the pooled vector.

    phi and rho are both two-layer ReLU MLPs. Every set holds at least one
    element: an empty set raises ``ShapeError``.
    """

    def __init__(self, phi: Mlp, rho: Mlp):
        if phi.out_dim != rho.in_dim:
            raise ShapeError("phi output dim must match rho input dim")
        self.phi = phi
        self.rho = rho

    @classmethod
    def create(
        cls, element_dim: int, width: int, summary_dim: int, rng: np.random.Generator
    ) -> "DeepSetSummarizer":
        phi = Mlp.create([element_dim, width, width], ["relu", "relu"], rng)
        rho = Mlp.create([width, summary_dim, summary_dim], ["relu", "relu"], rng)
        return cls(phi, rho)

    @property
    def element_dim(self) -> int:
        return self.phi.in_dim

    @property
    def summary_dim(self) -> int:
        return self.rho.out_dim

    def arrays(self) -> list[np.ndarray]:
        return self.phi.arrays() + self.rho.arrays()

    def _pool(self, elements: np.ndarray, phi_tapes: list | None, rho_tapes: list | None):
        """The one forward body: phi per element, mean over each row's set,
        rho. Records the phi and rho layers into the given lists, if any."""
        b, m, p = elements.shape
        if m == 0:
            raise ShapeError("a set needs at least one element")
        h, phi_tape = self.phi._forward(elements.reshape(b * m, p), phi_tapes)
        out, rho_tape = self.rho._forward(h.reshape(b, m, -1).mean(axis=1), rho_tapes)
        return out, (b, m, phi_tape, rho_tape)

    def summarize(self, elements) -> SetSummary:
        """Summarize one set of equal-length vectors.

        Elements are put in a canonical (lexicographic) order before pooling
        so the output is bitwise identical under input permutation.
        """
        mat = np.asarray(elements, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.element_dim:
            raise ShapeError(f"elements must be vectors of length {self.element_dim}")
        mat = mat[np.lexsort(mat.T[::-1])]
        return SetSummary(self._pool(mat[None], None, None)[0][0])

    # --- batched paths used inside the agent (element order is the stored
    # candidate order; only used with a fixed element count per row) ---

    def forward_batch(self, elements: np.ndarray) -> np.ndarray:
        return self._pool(elements, None, None)[0]

    def forward_batch_tape(self, elements: np.ndarray):
        return self._pool(elements, [], [])

    def backward_batch(self, tape, dout: np.ndarray):
        """Returns (d_elements, grads); grads match :meth:`arrays` order."""
        b, m, phi_tape, rho_tape = tape
        dpooled, rho_grads = self.rho.backward(rho_tape, dout)
        dh = np.repeat(dpooled / m, m, axis=0)
        delems, phi_grads = self.phi.backward(phi_tape, dh)
        return delems.reshape(b, m, self.element_dim), phi_grads + rho_grads
