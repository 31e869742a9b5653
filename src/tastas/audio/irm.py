"""Ideal-ratio-mask oracle separation.

The mask of source s at each time-frequency bin is its magnitude share of
all source magnitudes; bins where every source is silent get the uniform
share. Masks are applied to the mixture spectrogram (mixture phase kept)
and inverted back to waveforms. This marks the ceiling of magnitude
masking and serves as the reference row in evaluation tables.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .stft import istft, stft
from .wavio import Waveform


def irm_masks(refs: list[Waveform]) -> list[np.ndarray]:
    """Per-source ratio masks; non-negative and summing to one at every bin."""
    if len(refs) < 2:
        raise DataError("ratio masks need at least two reference sources")
    mags = [np.abs(stft(r.samples)) for r in refs]
    total = np.sum(mags, axis=0)
    silent = total <= 0.0
    safe_total = np.where(silent, 1.0, total)
    uniform = 1.0 / len(refs)
    return [np.where(silent, uniform, m / safe_total) for m in mags]


def irm_separate(mixture: Waveform, refs: list[Waveform]) -> list[Waveform]:
    """Oracle separation of the mixture using reference-derived ratio masks."""
    for r in refs:
        if len(r) != len(mixture):
            raise DataError(f"reference length {len(r)} != mixture length {len(mixture)}")
    mix_bins = stft(mixture.samples)
    return [
        Waveform(istft(mix_bins * mask, len(mixture)), sample_rate_hz=mixture.sample_rate_hz)
        for mask in irm_masks(refs)
    ]
