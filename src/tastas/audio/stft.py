"""Short-time Fourier analysis and weighted overlap-add resynthesis.

One configuration serves the mask oracle: a periodic Hann window of
DEFAULT_WINDOW_LEN samples every DEFAULT_HOP samples, with reflect padding
of half a window on both ends. ``stft`` is ``numerics.ops._spectrum``, the
DFT the speaker network's ``log_spectrum`` front end also runs, with the
bins along the first axis. ``istft`` sums the windowed inverse frames with
the same overlap-add that adjoins that framing and divides by the summed
squared window, which this hop keeps away from zero at every sample.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..numerics.ops import _overlap_add, _spectrum

DEFAULT_WINDOW_LEN = 512
DEFAULT_HOP = 128


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann window (satisfies constant-overlap-add at hop = len/2^k)."""
    n = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)


def stft(samples: np.ndarray) -> np.ndarray:
    """Complex (bins, frames) STFT of a 1-D signal longer than half a window."""
    n = len(samples)
    if n <= DEFAULT_WINDOW_LEN // 2:
        raise DataError(f"signal of {n} samples is too short for window {DEFAULT_WINDOW_LEN}")
    return _spectrum(np.asarray(samples, dtype=np.float64), hann_window(DEFAULT_WINDOW_LEN), DEFAULT_HOP).T


def istft(bins: np.ndarray, length: int) -> np.ndarray:
    """Weighted overlap-add inverse of ``stft`` for a signal of ``length`` samples."""
    window = hann_window(DEFAULT_WINDOW_LEN)
    padded_len = (bins.shape[1] - 1) * DEFAULT_HOP + DEFAULT_WINDOW_LEN
    segs = np.fft.irfft(bins.T, n=DEFAULT_WINDOW_LEN, axis=1) * window
    acc = _overlap_add(segs, DEFAULT_HOP, padded_len)
    cov = _overlap_add(np.broadcast_to(window * window, segs.shape), DEFAULT_HOP, padded_len)
    region = slice(DEFAULT_WINDOW_LEN // 2, DEFAULT_WINDOW_LEN // 2 + length)
    return acc[region] / cov[region]
