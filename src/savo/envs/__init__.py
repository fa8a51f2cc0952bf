from .base import Env, EpisodeDoneError
from .bandit import BanditEnv, BanditLandscape, canonical_adversarial, random_landscape
from .mining import MiningEnv, make_tool_map, mining_action_table
from .pendulum import CANONICAL_RESTRICTION, CartPoleEnv, RestrictionSpec, check_valid
from .recsim import RecsimEnv, recsim_action_table


_ENVS = {"bandit": BanditEnv, "pendulum": CartPoleEnv, "mining": MiningEnv, "recsim": RecsimEnv}


def make_env(env_id: str, seed: int = 0, **params) -> Env:
    """Build an environment from its id plus its class's keyword parameters."""
    if env_id not in _ENVS:
        raise ValueError(f"unknown env id {env_id!r}")
    return _ENVS[env_id](seed=seed, **params)


__all__ = [
    "BanditEnv",
    "BanditLandscape",
    "CANONICAL_RESTRICTION",
    "CartPoleEnv",
    "Env",
    "EpisodeDoneError",
    "MiningEnv",
    "RecsimEnv",
    "RestrictionSpec",
    "canonical_adversarial",
    "check_valid",
    "make_env",
    "make_tool_map",
    "mining_action_table",
    "random_landscape",
    "recsim_action_table",
]
