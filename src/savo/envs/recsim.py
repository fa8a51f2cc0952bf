"""Toy sequential recommender: pick one of N items, user clicks by a softmax
over the user-item dot product, and preferences drift toward clicked items."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..actions import ActionTable, gmm_sample_table
from .base import Env, checked_id


@dataclass
class RecsimConfig:
    n_items: int = 1000
    n_categories: int = 20
    user_step: float = 0.05
    skip_score: float = 0.0
    horizon: int = 20
    table_seed: int = 0

    def __post_init__(self):
        if self.n_items < 1:
            raise ValueError("need at least one item")


def recsim_action_table(config: RecsimConfig) -> ActionTable:
    """Item embeddings drawn from a category GMM, normalized onto the unit
    sphere so all user-item dot products are bounded by 1."""
    raw = gmm_sample_table(
        seed=config.table_seed,
        n_actions=config.n_items,
        centers=config.n_categories,
        dim=config.n_categories,
        center_scale=1.0,
        component_std=0.3,
    )
    reps = raw.reps / np.linalg.norm(raw.reps, axis=1, keepdims=True)
    return ActionTable(reps=reps, categories=raw.categories)


class RecsimEnv(Env):
    discrete = True

    def __init__(self, config: RecsimConfig | None = None, seed: int = 0):
        self.config = config or RecsimConfig()
        self.action_table = recsim_action_table(self.config)
        self.horizon = self.config.horizon
        self.observation_dim = self.config.n_categories
        self._rng = np.random.default_rng(seed)
        self._user = np.zeros(self.observation_dim)
        self._t = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        u = self._rng.standard_normal(self.observation_dim)
        self._user = u / np.linalg.norm(u)
        self._t = 0
        return self._user.copy()

    def click_probability(self, item_id: int) -> float:
        score = float(self._user @ self.action_table.reps[item_id])
        e_item = np.exp(score)
        return e_item / (e_item + np.exp(self.config.skip_score))

    def step(self, item_id: int):
        item_id = checked_id(item_id, len(self.action_table))
        self._t += 1
        e_item = self.action_table.reps[item_id]
        p_click = self.click_probability(item_id)
        clicked = self._rng.random() < p_click
        reward = 1.0 if clicked else 0.0
        if clicked:
            affinity = float(self._user @ e_item)
            delta = self.config.user_step * (e_item - self._user)
            toward = self._rng.random() < (affinity + 1.0) / 2.0
            self._user = self._user + delta if toward else self._user - delta
            norm = np.linalg.norm(self._user)
            if norm > 1.0:
                self._user = self._user / norm
        done = self._t >= self.horizon
        return self._user.copy(), reward, done, {"clicked": clicked}
