"""Speaker-identity network.

A differentiable spectral front end (windowed DFT, log magnitude) feeds a
small stack of 3x3 conv + pool layers, global average pooling, a linear
embedding layer, and a linear classifier head. After training the network
is frozen; the embedding (the layer before the head) is the speaker
identity vector used by the consistency loss, and gradients then flow only
into the waveform being embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio.stft import DEFAULT_HOP, DEFAULT_WINDOW_LEN, hann_window
from ..audio.wavio import DEFAULT_SAMPLE_RATE, Waveform
from ..checkpoint import load_network, save_network
from ..errors import ConfigError, DataError
from ..numerics import ops
from ..numerics.optim import ParamSet, uniform_fan_in
from ..numerics.tensor import Tensor, no_grad


@dataclass(frozen=True)
class IdNetConfig:
    num_speakers: int
    segment_s: float = 0.5
    window_len: int = DEFAULT_WINDOW_LEN
    hop: int = DEFAULT_HOP
    conv_channels: tuple[int, ...] = (16, 32, 64, 64)
    embedding_dim: int = 128
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        # a checkpoint header sets these, so a front end that cannot run fails here
        if self.num_speakers < 2:
            raise ConfigError(f"speaker classifier needs >= 2 classes, got {self.num_speakers}")
        for name, least in (("window_len", 2), ("hop", 1), ("embedding_dim", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not all(channels >= 1 for channels in self.conv_channels):
            raise ConfigError(f"conv_channels must all be >= 1, got {self.conv_channels}")
        if self.segment_len < self.window_len:
            raise ConfigError(
                f"segment of {self.segment_len} samples yields under two frames for window {self.window_len}"
            )
        # the spectrum image must keep a row and a column through every block's 2x2 pool
        blocks = len(self.conv_channels)
        least = 2**blocks
        bins = self.window_len // 2 + 1
        frames = (self.segment_len + 2 * (self.window_len // 2) - self.window_len) // self.hop + 1
        if bins < least:
            raise ConfigError(
                f"window_len must give >= {least} bins for {blocks} pooling blocks, {self.window_len} gives {bins}"
            )
        if frames < least:
            raise ConfigError(
                f"hop must give >= {least} frames of the {self.segment_len}-sample segment for {blocks} pooling "
                f"blocks with window {self.window_len}, {self.hop} gives {frames}"
            )

    @property
    def segment_len(self) -> int:
        return int(round(self.segment_s * self.sample_rate_hz))


def init_idnet_params(config: IdNetConfig, seed: int, dtype=np.float32) -> ParamSet:
    rng = np.random.default_rng(seed)
    params = ParamSet()
    in_ch = 1
    for i, out_ch in enumerate(config.conv_channels):
        params.add(f"conv{i}.weight", uniform_fan_in(rng, (out_ch, in_ch, 3, 3), in_ch * 9, dtype))
        params.add(f"conv{i}.prelu", Tensor(np.full((1,), 0.25, dtype=dtype)))
        in_ch = out_ch
    params.add("embed.weight", uniform_fan_in(rng, (config.embedding_dim, in_ch), in_ch, dtype))
    params.add("embed.bias", Tensor(np.zeros(config.embedding_dim, dtype=dtype)))
    params.add("head.weight", uniform_fan_in(rng, (config.num_speakers, config.embedding_dim), config.embedding_dim, dtype))
    params.add("head.bias", Tensor(np.zeros(config.num_speakers, dtype=dtype)))
    return params


class IdNet:
    """Config + parameters + frozen flag."""

    def __init__(self, config: IdNetConfig, params: ParamSet, frozen: bool = False):
        self.config = config
        self.params = params
        self.frozen = frozen
        self._window = hann_window(config.window_len)
        if frozen:
            self.freeze()

    @staticmethod
    def initialize(config: IdNetConfig, seed: int) -> "IdNet":
        return IdNet(config, init_idnet_params(config, seed))

    def freeze(self) -> "IdNet":
        self.frozen = True
        for _, tensor in self.params.items():
            tensor.requires_grad = False
        return self

    def forward(self, segment: Tensor) -> tuple[Tensor, Tensor]:
        """(logits, embedding) for one segment of at most segment_len samples; a short one is zero-padded."""
        n = self.config.segment_len
        if segment.ndim != 1 or segment.shape[0] == 0:
            raise DataError(f"segment must be a non-empty 1-D signal, got shape {segment.shape}")
        if segment.shape[0] > n:
            raise DataError(f"segment of {segment.shape[0]} samples exceeds the {n}-sample window")
        x = ops.log_spectrum(segment, self._window, self.config.hop, n)  # (1, bins, frames)
        for i in range(len(self.config.conv_channels)):
            x = ops.conv_block(x, self.params[f"conv{i}.weight"], self.params[f"conv{i}.prelu"])
        pooled = ops.tmean(x, axis=(1, 2))  # (C,)
        embedding = ops.add(ops.linear(self.params["embed.weight"], pooled), self.params["embed.bias"])
        logits = ops.add(ops.linear(self.params["head.weight"], embedding), self.params["head.bias"])
        return logits, embedding

    # -- embedding extraction -------------------------------------------------

    def embed_segments_graph(self, wave: Tensor) -> Tensor:
        """Mean embedding over non-overlapping segments; differentiable in the wave."""
        seg_len = self.config.segment_len
        n = wave.shape[0]
        count = max(1, -(-n // seg_len))
        total = None
        for i in range(count):
            piece = ops.getitem(wave, (slice(i * seg_len, min(n, (i + 1) * seg_len)),))
            _, emb = self.forward(piece)
            total = emb if total is None else ops.add(total, emb)
        return ops.mul(total, ops.const(1.0 / count, dtype=wave.dtype))

    def embed_utterance(self, wave: Waveform) -> np.ndarray:
        """Float64 embedding of a whole utterance; no graph is recorded."""
        rate = self.config.sample_rate_hz
        if wave.sample_rate_hz != rate:
            raise DataError(f"the wave is at {wave.sample_rate_hz} Hz, the speaker network at {rate} Hz")
        with no_grad():
            emb = self.embed_segments_graph(Tensor(np.asarray(wave.samples, dtype=np.float32)))
        values = np.asarray(emb.data, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise DataError("embedding contains non-finite values")
        return values

    def classify_segment(self, segment_samples: np.ndarray) -> int:
        with no_grad():
            logits, _ = self.forward(Tensor(np.asarray(segment_samples, dtype=np.float32)))
        return int(np.argmax(logits.data))


def save_idnet(path, net: IdNet, extras: dict | None = None) -> None:
    save_network(path, "idnet", net.config, net.params, extras or {}, header={"frozen": net.frozen})


def load_idnet(path) -> IdNet:
    config, params, header, _ = load_network(path, "idnet", IdNetConfig)
    return IdNet(config, params, frozen=bool(header.get("frozen", True)))
