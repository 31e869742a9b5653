"""Tensor autodiff, gradient verification, and optimization."""

from .tensor import Tensor
from . import ops
from .optim import AdamState, ParamSet, adam_step, clip_global_norm, uniform_fan_in

__all__ = [
    "Tensor",
    "ops",
    "AdamState",
    "ParamSet",
    "adam_step",
    "clip_global_norm",
    "uniform_fan_in",
]
