"""The multi-stage dual-path BiLSTM separator.

Stage layout per forward pass:

    encode      each input waveform -> shared conv1d + PReLU, concatenated
                on the feature axis (stage one sees the mixture alone,
                later stages see [est_1 .. est_S, mixture])
    masks       global layer norm -> 1x1 conv bottleneck -> chunking ->
                dual-path blocks -> merge -> 1x1 conv -> softmax over speakers
    decode      per speaker: mask * the mixture's own encoder channels ->
                linear frame map -> overlap-add back to waveform length

Masks multiply only the mixture slice of the representation (the last
waveform fed to encode), so every stage has the same masking semantics.
Encoder and decoder carry no bias, which keeps zero input giving zero
output and makes the masks act purely multiplicatively.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..numerics import ops
from ..numerics.optim import ParamSet, uniform_fan_in
from ..numerics.tensor import Tensor, no_grad
from .config import ModelConfig


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ParamSet:
    """Fresh parameters; draw order is fixed so a seed pins every value.

    Weights are uniform(-k, k) with k = 1/sqrt(fan_in); LSTM forget-gate
    biases start at 1, everything else at zero; norms start as identity.
    """
    rng = np.random.default_rng(seed)
    params = ParamSet()
    n, hidden, kernel = config.num_filters, config.hidden_size, config.kernel_len
    for s, num_blocks in enumerate(config.stage_blocks):
        width = config.input_streams(s) * n
        prefix = f"stage{s}"
        params.add(f"{prefix}.encoder.weight", uniform_fan_in(rng, (n, 1, kernel), kernel, dtype))
        params.add(f"{prefix}.encoder.prelu", Tensor(np.full((1,), 0.25, dtype=dtype)))
        params.add(f"{prefix}.separator.input_norm.gain", Tensor(np.ones((width, 1), dtype=dtype)))
        params.add(f"{prefix}.separator.input_norm.bias", Tensor(np.zeros((width, 1), dtype=dtype)))
        params.add(f"{prefix}.separator.bottleneck.weight", uniform_fan_in(rng, (n, width), width, dtype))
        for b in range(num_blocks):
            for path in ("intra", "inter"):
                base = f"{prefix}.block{b}.{path}"
                for direction in ("f", "b"):
                    params.add(f"{base}.w_ih_{direction}", uniform_fan_in(rng, (4 * hidden, n), n, dtype))
                    params.add(f"{base}.w_hh_{direction}", uniform_fan_in(rng, (4 * hidden, hidden), hidden, dtype))
                    bias = np.zeros(4 * hidden, dtype=dtype)
                    bias[hidden : 2 * hidden] = 1.0
                    params.add(f"{base}.b_{direction}", Tensor(bias))
                params.add(f"{base}.proj.weight", uniform_fan_in(rng, (n, 2 * hidden), 2 * hidden, dtype))
                params.add(f"{base}.norm.gain", Tensor(np.ones((n, 1, 1), dtype=dtype)))
                params.add(f"{base}.norm.bias", Tensor(np.zeros((n, 1, 1), dtype=dtype)))
        params.add(f"{prefix}.separator.mask.weight", uniform_fan_in(rng, (config.num_speakers * n, n), n, dtype))
        params.add(f"{prefix}.decoder.weight", uniform_fan_in(rng, (kernel, n), n, dtype))
    return params


def encode(params: ParamSet, config: ModelConfig, stage_index: int, waves: list[Tensor]) -> Tensor:
    """Shared conv front end over each input waveform; outputs concatenated."""
    expected = config.input_streams(stage_index)
    if len(waves) != expected:
        raise ConfigError(f"stage {stage_index} expects {expected} waveforms, got {len(waves)}")
    weight = params[f"stage{stage_index}.encoder.weight"]
    slope = params[f"stage{stage_index}.encoder.prelu"]
    feats = []
    for wave in waves:
        if wave.ndim != 1:
            raise ConfigError(f"encode expects 1-D waveforms, got {wave.shape}")
        framed = ops.conv1d(ops.reshape(wave, (1, wave.shape[0])), weight, config.stride)
        feats.append(ops.prelu(framed, slope))
    return feats[0] if len(feats) == 1 else ops.concat(feats, axis=0)


def dual_path_block(params: ParamSet, base: str, chunks: Tensor) -> Tensor:
    """One intra-chunk + inter-chunk pass, each a BiLSTM, projection, norm and residual.

    BiLSTM and projection are one ``bilstm_layer`` node, which keeps only its
    activated gates: its backward re-forms the cell states c(t) and the hidden
    states h(t) from them.
    """

    def half(path: str, seq_batch_first: Tensor) -> Tensor:
        return ops.bilstm_layer(
            seq_batch_first,
            *(params[f"{base}.{path}.{name}"] for name in ("w_ih_f", "w_hh_f", "b_f", "w_ih_b", "w_hh_b", "b_b")),
            params[f"{base}.{path}.proj.weight"],
        )  # (F, batch, steps)

    # intra: recur over positions within each chunk
    intra_in = ops.transpose(chunks, (2, 1, 0))  # (C, K, F)
    intra = half("intra", intra_in)  # (F, C, K)
    intra = ops.transpose(intra, (0, 2, 1))  # (F, K, C)
    chunks = ops.layer_norm(
        intra, (0, 1), params[f"{base}.intra.norm.gain"], params[f"{base}.intra.norm.bias"], residual=chunks
    )

    # inter: recur across chunks at each intra position
    inter_in = ops.transpose(chunks, (1, 2, 0))  # (K, C, F)
    inter = half("inter", inter_in)  # (F, K, C)
    return ops.layer_norm(
        inter, (0, 2), params[f"{base}.inter.norm.gain"], params[f"{base}.inter.norm.bias"], residual=chunks
    )


def estimate_masks(params: ParamSet, config: ModelConfig, stage_index: int, rep: Tensor) -> Tensor:
    """Mask head: norm, bottleneck, chunked dual-path stack, merge, softmax.

    Returns (S, N, T); the softmax runs across the speaker axis so masks
    sum to one at every (feature, frame) bin.
    """
    width, frames = rep.shape
    prefix = f"stage{stage_index}"
    y = ops.layer_norm(
        rep, (0, 1), params[f"{prefix}.separator.input_norm.gain"], params[f"{prefix}.separator.input_norm.bias"]
    )
    y = ops.linear(params[f"{prefix}.separator.bottleneck.weight"], y)  # (N, T)
    chunks, pad = ops.segment_chunks(y, config.chunk_len, config.chunk_hop)
    for b in range(config.stage_blocks[stage_index]):
        chunks = dual_path_block(params, f"{prefix}.block{b}", chunks)
    merged = ops.merge_chunks(chunks, config.chunk_hop, frames, pad)
    logits = ops.linear(params[f"{prefix}.separator.mask.weight"], merged)  # (S*N, T)
    logits = ops.reshape(logits, (config.num_speakers, config.num_filters, frames))
    return ops.softmax(logits, axis=0)


def decode(params: ParamSet, config: ModelConfig, stage_index: int, rep: Tensor, mask: Tensor, out_len: int) -> Tensor:
    """Apply one speaker's mask to the mixture's encoder channels and resynthesize."""
    width = rep.shape[0]
    n = config.num_filters
    mixture_rep = ops.getitem(rep, (slice(width - n, width), slice(None)))
    masked = ops.mul(mask, mixture_rep)
    frames = ops.linear(params[f"stage{stage_index}.decoder.weight"], masked)  # (L, T)
    return ops.overlap_add(frames, config.stride, out_len)


def stage_forward(
    params: ParamSet,
    config: ModelConfig,
    stage_index: int,
    mixture: Tensor,
    prev_estimates: list[Tensor] | None,
) -> list[Tensor]:
    if (prev_estimates is None) != (stage_index == 0):
        raise ConfigError("previous estimates must be given exactly for stages after the first")
    waves = [mixture] if prev_estimates is None else [*prev_estimates, mixture]
    rep = encode(params, config, stage_index, waves)
    masks = estimate_masks(params, config, stage_index, rep)
    out_len = mixture.shape[0]
    return [
        decode(params, config, stage_index, rep, ops.getitem(masks, (s,)), out_len)
        for s in range(config.num_speakers)
    ]


class TasTasModel:
    """Parameters plus config; one instance is one trainable separator."""

    def __init__(self, config: ModelConfig, params: ParamSet, dtype=np.float32):
        self.config = config
        self.params = params
        self.dtype = np.dtype(dtype)

    @staticmethod
    def initialize(config: ModelConfig, seed: int, dtype=np.float32) -> "TasTasModel":
        return TasTasModel(config, init_params(config, seed, dtype=np.dtype(dtype)), dtype=dtype)

    def forward(self, mixture_samples: np.ndarray) -> list[list[Tensor]]:
        """All stage outputs (each a list of S waveform tensors), first to last."""
        mixture = Tensor(np.asarray(mixture_samples).astype(self.dtype, copy=False))
        outputs: list[list[Tensor]] = []
        prev: list[Tensor] | None = None
        for s in range(self.config.num_stages):
            estimates = stage_forward(self.params, self.config, s, mixture, prev)
            outputs.append(estimates)
            prev = estimates
        return outputs

    def separate(self, mixture_samples: np.ndarray) -> list[np.ndarray]:
        """Final-stage estimates as plain arrays; no graph is recorded."""
        with no_grad():
            return [np.asarray(t.data, dtype=np.float64) for t in self.forward(mixture_samples)[-1]]
