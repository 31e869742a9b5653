"""Audio I/O, spectral analysis, mixing, and toy sources."""

from .wavio import DEFAULT_SAMPLE_RATE, Waveform, wav_read, wav_write
from .stft import DEFAULT_HOP, DEFAULT_WINDOW_LEN, Spectrogram, hann_window, istft, stft
from .mix import measure_snr_db, mix_at_snr
from .synth import check_speaker, f0_band, synth_speaker_source
from .irm import irm_masks, irm_separate

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "Waveform",
    "wav_read",
    "wav_write",
    "DEFAULT_HOP",
    "DEFAULT_WINDOW_LEN",
    "Spectrogram",
    "hann_window",
    "istft",
    "stft",
    "mix_at_snr",
    "measure_snr_db",
    "check_speaker",
    "f0_band",
    "synth_speaker_source",
    "irm_masks",
    "irm_separate",
]
