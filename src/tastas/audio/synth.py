"""Deterministic toy speaker sources.

Each speaker is a harmonic voice with a private fundamental band and a
fixed formant-like spectral envelope; utterance-level randomness (exact
pitch, vibrato, tremolo, breath noise) comes from the seed. Identity is
carried by the envelope and pitch band, which is what the speaker
classifier has to pick up.

The harmonic stack sum_k a_k sin(k phi + theta_k) is evaluated as the
imaginary part of the polynomial sum_k c_k w^k, with c_k = a_k e^{i theta_k}
and w = e^{i phi}, by Horner's rule: one complex multiply-add per harmonic
over a length-n buffer, so memory stays O(n) where the direct sum needs a
K x n table. Since |w| = 1 the rounding grows only linearly in K: on the
first eight speakers it agrees with the direct sum to 4e-12 at 4 s and
6e-11 at 60 s, far below the 16-bit PCM step (3e-5) the corpora are
written at. The benchmark's seed-0 corpora come out byte-identical.

Every harmonic must lie below 0.45 of the sample rate. A speaker whose f0
band, at maximum vibrato, reaches that ceiling has no harmonic left and
would be silent: ``check_speaker`` rejects it with a ``DataError`` naming
the speaker id and the sample rate.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError
from .wavio import DEFAULT_SAMPLE_RATE, Waveform

_PEAK = 0.35
_MAX_HARMONICS = 48
_MAX_VIBRATO = 0.03
_HARMONIC_CEILING = 0.45  # of the sample rate
_TIMBRE_TAG = 7919
_UTTERANCE_TAG = 104729


def f0_band(speaker_id: int) -> tuple[float, float]:
    """Fundamental-frequency band of one speaker; bands never overlap."""
    lo = 80.0 + 30.0 * speaker_id
    return lo, lo + 20.0


def _max_harmonics(f0_peak_hz: float, sample_rate_hz: int) -> int:
    """How many harmonics of a fundamental that peaks at f0_peak_hz stay below the ceiling."""
    return min(_MAX_HARMONICS, int(_HARMONIC_CEILING * sample_rate_hz / f0_peak_hz))


def check_speaker(speaker_id: int, sample_rate_hz: int = DEFAULT_SAMPLE_RATE) -> None:
    """Raise ``DataError`` unless the speaker id has a voice at this sample rate."""
    if speaker_id < 0:
        raise DataError(f"speaker_id must be non-negative, got {speaker_id}")
    top = f0_band(speaker_id)[1] * (1.0 + _MAX_VIBRATO)
    if _max_harmonics(top, sample_rate_hz) < 1:
        raise DataError(
            f"speaker {speaker_id} has no harmonic below {_HARMONIC_CEILING} of the {sample_rate_hz} Hz sample rate: "
            f"its f0 band reaches {top:.0f} Hz at maximum vibrato"
        )


def _speaker_timbre(speaker_id: int) -> dict:
    """Formant-like resonances on per-speaker grids.

    Grid slots (the second and third permuted by factors coprime with 8)
    guarantee that any two of the first eight speakers differ in every
    resonance, so the spectral envelope alone identifies the speaker.
    """
    rng = np.random.default_rng([_TIMBRE_TAG, speaker_id])
    slot = speaker_id % 8
    return {
        "formants": np.array(
            [
                320.0 + 65.0 * slot + rng.uniform(-12.0, 12.0),
                950.0 + 140.0 * ((slot * 3) % 8) + rng.uniform(-25.0, 25.0),
                2150.0 + 170.0 * ((slot * 5) % 8) + rng.uniform(-30.0, 30.0),
            ]
        ),
        "bandwidths": rng.uniform(45.0, 80.0, size=3),
        "rolloff": rng.uniform(0.9, 1.5),
        "breath": rng.uniform(0.004, 0.012),
    }


def _formant_envelope(freqs: np.ndarray, timbre: dict) -> np.ndarray:
    env = np.full_like(freqs, 0.02)
    for center, bw in zip(timbre["formants"], timbre["bandwidths"]):
        env += 1.0 / (1.0 + ((freqs - center) / bw) ** 2)
    return env


def _harmonic_stack(amps: np.ndarray, harmonic_phases: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sum_k amps[k-1] * sin(k * phase + harmonic_phases[k-1]) for k = 1..K, by Horner's rule in e^{i phase}."""
    coeffs = amps * np.exp(1j * harmonic_phases)
    w = np.exp(1j * phase)
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= w
        acc += c
    acc *= w
    return acc.imag.copy()


def check_duration(duration_s: float) -> None:
    """Raise ``DataError`` unless duration_s is a finite number of seconds, at least 0.5."""
    if not (math.isfinite(duration_s) and duration_s >= 0.5):
        raise DataError(f"duration must be a finite number of seconds, at least 0.5, got {duration_s}")


def synth_speaker_source(
    speaker_id: int,
    duration_s: float,
    seed: int,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
) -> Waveform:
    """One utterance of the given toy speaker; bit-identical per (id, seed)."""
    check_speaker(speaker_id, sample_rate_hz)
    check_duration(duration_s)
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    timbre = _speaker_timbre(speaker_id)
    rng = np.random.default_rng([_UTTERANCE_TAG, speaker_id, seed])

    lo, hi = f0_band(speaker_id)
    f0 = rng.uniform(lo, hi)
    vib_depth = rng.uniform(0.005, _MAX_VIBRATO)
    vib_rate = rng.uniform(3.0, 7.0)
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    trem_depth = rng.uniform(0.1, 0.35)
    trem_rate = rng.uniform(1.5, 4.0)
    trem_phase = rng.uniform(0.0, 2.0 * np.pi)

    inst_freq = f0 * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t + vib_phase))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate_hz

    k_max = _max_harmonics(f0 * (1.0 + vib_depth), sample_rate_hz)
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, size=k_max)
    amps = np.arange(1, k_max + 1, dtype=np.float64) ** (-timbre["rolloff"])
    voiced = _harmonic_stack(amps, harmonic_phases, phase)

    # shape the harmonic stack with the speaker's formant envelope
    spectrum = np.fft.rfft(voiced)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    env = _formant_envelope(freqs, timbre)
    voiced = np.fft.irfft(spectrum * env, n=n)

    noise = rng.standard_normal(n)
    noise = np.fft.irfft(np.fft.rfft(noise) * env, n=n)
    noise *= timbre["breath"] * (np.std(voiced) / (np.std(noise) + 1e-12))

    tremolo = 1.0 + trem_depth * np.sin(2.0 * np.pi * trem_rate * t + trem_phase)
    out = (voiced + noise) * tremolo

    fade = min(int(0.01 * sample_rate_hz), n // 4)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        out[:fade] *= ramp
        out[-fade:] *= ramp[::-1]

    peak = np.max(np.abs(out))
    if peak > 0:
        out *= _PEAK / peak
    return Waveform(out, sample_rate_hz=sample_rate_hz)
