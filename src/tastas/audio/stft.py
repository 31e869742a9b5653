"""Short-time Fourier analysis and weighted overlap-add resynthesis.

``stft`` is ``numerics.ops.stft_ri`` run on a tensor that records no graph,
with its real and imaginary planes packed as complex bins for the mask
oracle and feature plots. ``istft`` sums the windowed inverse frames with
the same overlap-add that adjoins ``stft_ri``'s framing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..numerics.ops import _overlap_add, stft_ri
from ..numerics.tensor import Tensor
from .wavio import Waveform

DEFAULT_WINDOW_LEN = 512
DEFAULT_HOP = 128
_COVERAGE_FLOOR = 1e-8


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann window (satisfies constant-overlap-add at hop = len/2^k)."""
    n = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT bins (frequency x frames) plus everything needed to invert."""

    bins: np.ndarray
    window_len: int
    hop: int
    window: np.ndarray
    original_len: int
    sample_rate_hz: int

    def __post_init__(self):
        if self.bins.shape[0] != self.window_len // 2 + 1:
            raise ConfigError(
                f"spectrogram has {self.bins.shape[0]} bins, window {self.window_len} implies {self.window_len // 2 + 1}"
            )

    @property
    def frames(self) -> int:
        return self.bins.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)


def _validate_config(window_len: int, hop: int) -> None:
    if window_len < 2 or window_len & (window_len - 1):
        raise ConfigError(f"window_len must be a power of two, got {window_len}")
    if hop < 1 or window_len % hop:
        raise ConfigError(f"hop {hop} must divide window_len {window_len}")
    if hop == window_len:
        raise ConfigError("hop equal to window_len leaves no overlap to reconstruct from")


def _ola_window_sq(window: np.ndarray, hop: int, frames: int, padded_len: int) -> np.ndarray:
    return _overlap_add(np.broadcast_to(window * window, (frames, len(window))), hop, padded_len)


def stft(
    x: Waveform,
    window_len: int = DEFAULT_WINDOW_LEN,
    hop: int = DEFAULT_HOP,
) -> Spectrogram:
    """Hann-windowed STFT with reflect padding of window_len/2 on both ends."""
    _validate_config(window_len, hop)
    pad = window_len // 2
    n = len(x)
    if n <= pad:
        raise DataError(f"signal of {n} samples is too short for window {window_len}")
    window = hann_window(window_len)
    ri = stft_ri(Tensor(x.samples), window, hop).data
    # set the planes, not real + 1j*imag, which would turn a -0.0 real part into +0.0
    spec = np.empty(ri.shape[1:], dtype=np.complex128)
    spec.real, spec.imag = ri
    # reject configurations whose synthesis coverage would vanish somewhere
    cov = _ola_window_sq(window, hop, spec.shape[1], n + 2 * pad)
    if cov[pad : pad + n].min() < _COVERAGE_FLOOR:
        raise ConfigError(
            f"window/hop ({window_len}/{hop}) does not cover the signal for reconstruction"
        )
    return Spectrogram(
        bins=spec,
        window_len=window_len,
        hop=hop,
        window=window,
        original_len=n,
        sample_rate_hz=x.sample_rate_hz,
    )


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add inverse; exact for the analysis configurations above."""
    frames = spec.frames
    window_len, hop = spec.window_len, spec.hop
    pad = window_len // 2
    padded_len = (frames - 1) * hop + window_len
    segs = np.fft.irfft(spec.bins.T, n=window_len, axis=1) * spec.window
    acc = _overlap_add(segs, hop, padded_len)
    cov = _ola_window_sq(spec.window, hop, frames, padded_len)
    region = slice(pad, pad + spec.original_len)
    out = acc[region] / cov[region]
    return Waveform(out, sample_rate_hz=spec.sample_rate_hz)
