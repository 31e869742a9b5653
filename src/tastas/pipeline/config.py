"""Training configuration: dataclass plus flat key=value config files."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ConfigError
from ..sepnet.config import ModelConfig, parse_preset

PHASES = ("idnet", "sep", "finetune")


@dataclass
class TrainConfig:
    phase: str = "sep"
    epochs_max: int = 100
    batch_size: int = 1
    initial_lr: float = 0.001
    decay_factor: float = 0.98
    decay_every_epochs: int = 2
    patience: int = 2
    max_restarts: int = 3
    id_weight: float = 0.1
    seed: int = 0
    train_manifest: str = ""
    dev_manifest: str = ""
    model: str = "tastas-6-6"  # preset: the block count of each stage
    num_filters: int = ModelConfig.num_filters
    kernel_len: int = ModelConfig.kernel_len
    chunk_len: int = ModelConfig.chunk_len
    hidden_size: int = ModelConfig.hidden_size
    sep_ckpt: str = ""
    idnet_ckpt: str = ""
    out_dir: str = "runs"

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ConfigError(f"phase must be one of {PHASES}, got '{self.phase}'")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size not in (1, 2, 3):
            raise ConfigError(f"batch_size must be 1, 2, or 3, got {self.batch_size}")
        if self.phase == "finetune" and not self.idnet_ckpt:
            raise ConfigError("finetune phase requires idnet_ckpt (a frozen speaker network)")
        if self.phase == "finetune" and not self.sep_ckpt:
            raise ConfigError("finetune phase requires sep_ckpt (the separator to fine-tune)")
        # a config that cannot train fails here, before any corpus is read
        for name in ("initial_lr", "decay_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0 <= self.id_weight < math.inf:
            raise ConfigError(f"id_weight must be finite and >= 0, got {self.id_weight}")
        for name, least in (("epochs_max", 1), ("decay_every_epochs", 1), ("patience", 1), ("max_restarts", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.phase == "sep":
            self.model_config()  # a bad preset or width fails here, before any corpus is read

    def model_config(self) -> ModelConfig:
        """The preset, with the widths of every ModelConfig field this config shares."""
        widths = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if hasattr(self, f.name)}
        return parse_preset(self.model, **widths)

    def learning_rate(self, restarts: int, epoch_in_restart: int) -> float:
        """Restart k starts at initial_lr / 2^k and decays by decay_factor every
        decay_every_epochs epochs, counted from the restart."""
        base = self.initial_lr / (2.0**restarts)
        return base * self.decay_factor ** (epoch_in_restart // self.decay_every_epochs)


# what a finetune run takes from its sep_ckpt instead of its config
ARCHITECTURE_KEYS = ("model", *(f.name for f in fields(ModelConfig) if hasattr(TrainConfig, f.name)))


def load_train_config(path, overrides: dict | None = None) -> TrainConfig:
    """Parse `key=value` lines (UTF-8, '#' comments); every field is addressable,
    but a finetune config may not set the architecture its checkpoint fixes."""
    types = {f.name: type(f.default) for f in fields(TrainConfig)}  # int, float or str
    values: dict = {}
    linenos: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{stripped}'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = types[key](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
        linenos[key] = lineno
    if overrides:
        values.update(overrides)
    if values.get("phase") == "finetune":
        for key in ARCHITECTURE_KEYS:
            if key in linenos:
                raise ConfigError(
                    f"{path}:{linenos[key]}: '{key}' does not apply to finetune, "
                    "which takes the architecture from sep_ckpt"
                )
    return TrainConfig(**values)
