"""Speaker identity network: the model, embedding extraction and its checkpoints.

It is trained by the "idnet" phase of `tastas.pipeline.train`.
"""

from .model import IdNet, IdNetConfig, load_idnet, save_idnet

__all__ = [
    "IdNet",
    "IdNetConfig",
    "load_idnet",
    "save_idnet",
]
