"""Dual-path BiLSTM separation network."""

from .config import ModelConfig, parse_preset
from .model import TasTasModel, dual_path_block, init_params, stage_forward

__all__ = [
    "ModelConfig",
    "parse_preset",
    "TasTasModel",
    "dual_path_block",
    "init_params",
    "stage_forward",
]
