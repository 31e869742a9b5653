"""The multi-stage dual-path BiLSTM separator.

Stage layout per forward pass, one graph node per line:

    encode        each input waveform -> shared conv1d + PReLU, stacked on
                  the feature axis into rep (stage one sees the mixture
                  alone, later stages see [est_1 .. est_S, mixture])
    mask_input    global layer norm of rep -> 1x1 conv bottleneck ->
                  zero pad -> overlapping chunks
    bilstm_layer  two per dual-path block: within each chunk, then across
                  the chunks
    mask_decode   merge the chunks -> 1x1 conv -> softmax over speakers ->
                  per speaker: mask * the mixture's own channels of rep ->
                  linear frame map -> overlap-add back to waveform length

then one getitem per speaker splits mask_decode's (S, L) waves. Each
fused node keeps only what its backward cannot re-form (see ``ops``).
Masks multiply only the mixture slice of the representation (the last
waveform fed to encode), so every stage has the same masking semantics.
Encoder and decoder carry no bias, which keeps zero input giving zero
output and makes the masks act purely multiplicatively.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError
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


def dual_path_block(params: ParamSet, base: str, chunks: Tensor) -> Tensor:
    """One intra-chunk + inter-chunk pass over (F, K, C) chunks.

    Each half, a BiLSTM along its axis, projection, layer norm and residual,
    is one ``bilstm_layer`` node, which keeps only its activated gates and the
    norm's per-slice statistics: its backward re-forms the cell states c(t),
    the hidden states h(t) and the projection output from them.
    """
    names = ("w_ih_f", "w_hh_f", "b_f", "w_ih_b", "w_hh_b", "b_b", "proj.weight", "norm.gain", "norm.bias")
    for axis, path in ((1, "intra"), (2, "inter")):  # within each chunk, then across the chunks
        chunks = ops.bilstm_layer(chunks, axis, *(params[f"{base}.{path}.{name}"] for name in names))
    return chunks


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
    expected = config.input_streams(stage_index)
    if len(waves) != expected:
        raise ConfigError(f"stage {stage_index} expects {expected} waveforms, got {len(waves)}")
    prefix = f"stage{stage_index}"
    rep = ops.encode(waves, params[f"{prefix}.encoder.weight"], params[f"{prefix}.encoder.prelu"], config.stride)
    chunks = ops.mask_input(
        rep,
        params[f"{prefix}.separator.input_norm.gain"],
        params[f"{prefix}.separator.input_norm.bias"],
        params[f"{prefix}.separator.bottleneck.weight"],
        config.chunk_len,
        config.chunk_hop,
    )
    for b in range(config.stage_blocks[stage_index]):
        chunks = dual_path_block(params, f"{prefix}.block{b}", chunks)
    estimates = ops.mask_decode(
        chunks,
        params[f"{prefix}.separator.mask.weight"],
        rep,
        params[f"{prefix}.decoder.weight"],
        config.chunk_hop,
        config.stride,
        mixture.shape[0],
    )
    return [ops.getitem(estimates, (s,)) for s in range(config.num_speakers)]


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
        if mixture.ndim != 1:
            raise DataError(f"mixture must be 1-D, got shape {mixture.shape}")
        kernel = self.config.kernel_len
        if mixture.shape[0] < kernel:
            raise DataError(f"mixture of {mixture.shape[0]} samples is shorter than the encoder kernel ({kernel})")
        bad = np.flatnonzero(~np.isfinite(mixture.data))
        if bad.size:
            raise DataError(f"mixture sample {bad[0]} is not finite ({mixture.data[bad[0]]})")
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
