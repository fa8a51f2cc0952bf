from .base import Env, EpisodeDoneError
from .bandit import BanditEnv, BanditLandscape, canonical_adversarial, random_landscape
from .mining import MiningConfig, MiningEnv, make_tool_map, mining_action_table
from .pendulum import (
    CANONICAL_RESTRICTION,
    CartPoleEnv,
    RestrictionSpec,
    check_valid,
    sample_restriction,
)
from .recsim import RecsimConfig, RecsimEnv, recsim_action_table


def make_env(env_id: str, seed: int = 0, **params) -> Env:
    """Build an environment from its id plus typed keyword parameters."""
    if env_id == "pendulum":
        return CartPoleEnv(seed=seed, **params)
    if env_id == "mining":
        return MiningEnv(config=MiningConfig(**params), seed=seed)
    if env_id == "recsim":
        return RecsimEnv(config=RecsimConfig(**params), seed=seed)
    if env_id == "bandit":
        return BanditEnv(seed=seed, **params)
    raise ValueError(f"unknown env id {env_id!r}")


__all__ = [
    "BanditEnv",
    "BanditLandscape",
    "CANONICAL_RESTRICTION",
    "CartPoleEnv",
    "Env",
    "EpisodeDoneError",
    "MiningConfig",
    "MiningEnv",
    "RecsimConfig",
    "RecsimEnv",
    "RestrictionSpec",
    "canonical_adversarial",
    "check_valid",
    "make_env",
    "make_tool_map",
    "mining_action_table",
    "random_landscape",
    "recsim_action_table",
    "sample_restriction",
]
