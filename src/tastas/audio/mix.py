"""Two-source mixture construction at a requested SNR."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .wavio import SILENCE_POWER, Waveform


def mix_at_snr(a: Waveform, b: Waveform, snr_db: float) -> tuple[Waveform, Waveform, Waveform]:
    """Scale b against a so the pair sits at snr_db, then add.

    Returns (mixture, a_used, b_scaled); the two returned sources sum to the
    mixture exactly, so they are usable directly as training targets.
    """
    if len(a) != len(b):
        raise DataError(f"source lengths differ: {len(a)} vs {len(b)}")
    if a.sample_rate_hz != b.sample_rate_hz:
        raise DataError(f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}")
    power_a, power_b = a.power(), b.power()
    if power_a <= SILENCE_POWER or power_b <= SILENCE_POWER:
        raise DataError("cannot set an SNR against a silent source")
    gain = float(np.sqrt(power_a / (power_b * 10.0 ** (snr_db / 10.0))))
    b_scaled = Waveform(b.samples * gain, sample_rate_hz=b.sample_rate_hz)
    mixture = Waveform(a.samples + b_scaled.samples, sample_rate_hz=a.sample_rate_hz)
    return mixture, a, b_scaled


def measure_snr_db(a: Waveform, b: Waveform) -> float:
    """SNR of a (signal) against b (interference), in dB."""
    power_b = b.power()
    if power_b <= 0:
        raise DataError("interference is silent, SNR undefined")
    return float(10.0 * np.log10(a.power() / power_b))
