"""Dual-path BiLSTM separation network."""

from .config import ModelConfig, parse_preset
from .model import TasTasModel, decode, dual_path_block, encode, estimate_masks, init_params, stage_forward

__all__ = [
    "ModelConfig",
    "parse_preset",
    "TasTasModel",
    "decode",
    "dual_path_block",
    "encode",
    "estimate_masks",
    "init_params",
    "stage_forward",
]
