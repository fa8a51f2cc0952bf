from .core import DenseLayer, Mlp, ShapeError, xavier_uniform
from .deepset import DeepSetSummarizer, SetSummary
from .film import FilmGenerator
from .optim import AdamState, NonFiniteGradientError, adam_step, polyak_update
from .checkpoint import load_arrays, save_arrays

__all__ = [
    "AdamState",
    "DeepSetSummarizer",
    "DenseLayer",
    "FilmGenerator",
    "Mlp",
    "NonFiniteGradientError",
    "SetSummary",
    "ShapeError",
    "adam_step",
    "load_arrays",
    "polyak_update",
    "save_arrays",
    "xavier_uniform",
]
