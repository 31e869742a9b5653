"""Waveform container and 16-bit PCM mono WAV I/O."""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import AudioIOError, DataError

DEFAULT_SAMPLE_RATE = 8000
PCM_SCALE = 32767.0
SILENCE_POWER = 1e-10  # a mean power at or below this counts as silent


@dataclass(frozen=True)
class Waveform:
    """A 1-D sampled signal; the I/O currency of the whole pipeline."""

    samples: np.ndarray
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DataError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    def power(self) -> float:
        return float(np.mean(self.samples**2))


def wav_write(path, wave_out: Waveform) -> None:
    """Write 16-bit PCM mono; samples are clamped to [-1, 1] first."""
    clipped = np.clip(wave_out.samples, -1.0, 1.0)
    ints = np.round(clipped * PCM_SCALE).astype(np.int16)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wave_out.sample_rate_hz)
        fh.writeframes(ints.tobytes())


def wav_read(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF/WAVE file."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            if channels != 1:
                raise AudioIOError(f"{path}: expected mono, file has {channels} channels")
            if fh.getsampwidth() != 2:
                raise AudioIOError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            if fh.getcomptype() != "NONE":
                raise AudioIOError(f"{path}: unsupported compression '{fh.getcomptype()}'")
            n = fh.getnframes()
            if n == 0:
                raise AudioIOError(f"{path}: file holds zero frames")
            raw = fh.readframes(n)
            rate = fh.getframerate()
    except wave.Error as exc:
        raise AudioIOError(f"{path}: not a readable WAV file ({exc})") from exc
    except EOFError as exc:
        raise AudioIOError(f"{path}: truncated WAV file") from exc
    if len(raw) != 2 * n:
        raise AudioIOError(f"{path}: truncated data chunk ({len(raw)} bytes for {n} frames)")
    ints = np.frombuffer(raw, dtype="<i2")
    return Waveform(ints.astype(np.float64) / PCM_SCALE, sample_rate_hz=rate)
