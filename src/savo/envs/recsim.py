"""Toy sequential recommender: pick one of N items, user clicks by a softmax
over the user-item dot product, and preferences drift toward clicked items."""

from __future__ import annotations

import numpy as np

from ..actions import ActionTable
from ..checks import checked_int
from .base import Env

USER_STEP = 0.05  # share of the gap to a clicked item that the user moves
HORIZON = 20


def recsim_action_table(n_items: int, n_categories: int) -> ActionTable:
    """Item embeddings drawn from seed 0 as a Gaussian mixture with one
    component per category (centres uniform in [-1, 1]^C, standard deviation
    0.3; the component is the item's category), normalized onto the unit
    sphere so all user-item dot products are bounded by 1. Raises
    ``ValueError`` unless both are integers, with at least one item and one
    category."""
    if checked_int(n_items, "n_items") < 1:
        raise ValueError("need at least one item")
    if checked_int(n_categories, "n_categories") < 1:
        raise ValueError("need at least one category")
    rng = np.random.default_rng(0)
    c = n_categories
    centers = rng.uniform(-1.0, 1.0, size=(c, c))
    category = rng.integers(0, c, size=n_items)
    reps = centers[category] + 0.3 * rng.standard_normal((n_items, c))
    return ActionTable(reps=reps / np.linalg.norm(reps, axis=1, keepdims=True))


class RecsimEnv(Env):
    def __init__(self, n_items: int = 1000, n_categories: int = 20, seed: int = 0):
        super().__init__(seed, HORIZON, recsim_action_table(n_items, n_categories), n_categories)
        self._user = np.zeros(self.observation_dim)

    def _reset(self) -> np.ndarray:
        u = self._rng.standard_normal(self.observation_dim)
        self._user = u / np.linalg.norm(u)
        return self._user.copy()

    def _click_probability(self, rep: np.ndarray) -> float:
        e_score = np.exp(float(self._user @ rep))
        return e_score / (e_score + 1.0)  # the skip option scores 0, and exp(0) = 1

    def _step(self, item_id: int):
        e_item = self.action_table.reps[item_id]
        p_click = self._click_probability(e_item)
        clicked = self._rng.random() < p_click
        reward = 1.0 if clicked else 0.0
        if clicked:
            affinity = float(self._user @ e_item)
            delta = USER_STEP * (e_item - self._user)
            toward = self._rng.random() < (affinity + 1.0) / 2.0
            self._user = self._user + delta if toward else self._user - delta
            norm = np.linalg.norm(self._user)
            if norm > 1.0:
                self._user = self._user / norm
        return self._user.copy(), reward, False, {"clicked": clicked}
