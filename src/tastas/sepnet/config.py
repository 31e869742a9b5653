"""Separator configuration and named presets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Full multi-stage model description.

    Every stage shares these widths and differs only in its block count
    (`stage_blocks`) and its input streams. The encoder stride and the chunk
    hop are derived, not set: half the kernel and half a chunk.
    """

    stage_blocks: tuple[int, ...] = (6,)
    num_filters: int = 64
    kernel_len: int = 16
    chunk_len: int = 50
    hidden_size: int = 64
    num_speakers: int = 2
    use_id_loss: bool = False  # set by the finetune phase alone: its model is TasTas(I, ...)

    def __post_init__(self):
        if not self.stage_blocks:
            raise ConfigError("model needs at least one stage")
        if len(self.stage_blocks) >= 3:
            warnings.warn(
                "three or more refinement stages cost proportionally more but have "
                "not shown gains over two stages",
                stacklevel=2,
            )
        for blocks in self.stage_blocks:
            if blocks < 1:
                raise ConfigError(f"stage block count must be >= 1, got {blocks}")
        for name in ("num_filters", "hidden_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.stride < 1 or self.kernel_len % self.stride:
            raise ConfigError(f"kernel_len must be even or 3 (its half is the stride), got {self.kernel_len}")
        if self.chunk_len < 2 or self.chunk_len % 2:
            raise ConfigError(f"chunk_len must be even and >= 2 (its half is the chunk hop), got {self.chunk_len}")
        if self.num_speakers < 2:
            raise ConfigError(f"num_speakers must be >= 2, got {self.num_speakers}")

    @property
    def num_stages(self) -> int:
        return len(self.stage_blocks)

    @property
    def stride(self) -> int:
        """Encoder hop: half the encoder kernel."""
        return self.kernel_len // 2

    @property
    def chunk_hop(self) -> int:
        """Dual-path chunk hop: half a chunk (DPRNN's 50% overlap)."""
        return self.chunk_len // 2

    def input_streams(self, stage_index: int) -> int:
        """Waveforms entering a stage's encoder: mixture alone, or estimates + mixture."""
        return 1 if stage_index == 0 else self.num_speakers + 1

    def describe(self) -> str:
        inner = ", ".join(str(b) for b in self.stage_blocks)
        return f"TasTas({'I, ' if self.use_id_loss else ''}{inner})"


def parse_preset(name: str, **overrides) -> ModelConfig:
    """Parse a preset like 'tastas-6', 'tastas-6-6', 'tastas-8-9'.

    The numbers are per-stage dual-path block counts; a preset never sets
    `use_id_loss`. Width overrides (num_filters, hidden_size, ...) pass
    through as keyword arguments.
    """
    parts = name.strip().lower().split("-")
    if parts[0] != "tastas" or len(parts) < 2:
        raise ConfigError(f"unknown model preset '{name}'")
    try:
        blocks = tuple(int(p) for p in parts[1:])
    except ValueError as exc:
        raise ConfigError(f"preset '{name}' has non-numeric stage sizes") from exc
    return ModelConfig(stage_blocks=blocks, **overrides)
