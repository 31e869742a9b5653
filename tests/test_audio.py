import wave as wave_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tastas.audio import (
    DEFAULT_WINDOW_LEN,
    Waveform,
    check_speaker,
    f0_band,
    hann_window,
    irm_masks,
    irm_separate,
    istft,
    measure_snr_db,
    mix_at_snr,
    stft,
    synth_speaker_source,
    wav_read,
    wav_write,
)
from tastas.audio import synth
from tastas.errors import AudioIOError, DataError


# -- WAV I/O --------------------------------------------------------------------


def test_wav_round_trip_within_quantization(tmp_path):
    t = np.arange(8000) / 8000.0
    x = Waveform(0.8 * np.sin(2 * np.pi * 440 * t))
    path = tmp_path / "sine.wav"
    wav_write(path, x)
    back = wav_read(path)
    assert back.sample_rate_hz == 8000
    assert np.abs(back.samples - x.samples).max() <= 2.0**-15


def test_wav_write_clamps(tmp_path):
    x = Waveform(np.array([1.5, -1.5, 0.0]))
    path = tmp_path / "clip.wav"
    wav_write(path, x)
    back = wav_read(path)
    assert back.samples.max() <= 1.0
    assert back.samples.min() >= -1.0


def test_zero_length_file_errors(tmp_path):
    path = tmp_path / "empty.wav"
    with wave_module.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(8000)
    with pytest.raises(AudioIOError, match="zero frames"):
        wav_read(path)


def test_stereo_file_errors_with_channel_count(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave_module.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(np.zeros(64, dtype=np.int16).tobytes())
    with pytest.raises(AudioIOError, match="2 channels"):
        wav_read(path)


def test_garbage_file_errors(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"RIFFxxxxWAVE" + b"\x00" * 10)
    with pytest.raises(AudioIOError):
        wav_read(path)


# -- STFT -------------------------------------------------------------------------


def test_stft_istft_reconstruction_noise():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, 8000)
    rec = istft(stft(x), len(x))
    assert np.abs(rec - x).max() < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=300, max_value=4000))
def test_stft_round_trip_any_length(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, n)
    rec = istft(stft(x), n)
    assert np.abs(rec - x).max() < 1e-6


def test_stft_dc_response_closed_form():
    c = 0.3
    bins = stft(np.full(4096, c))
    expected = c * hann_window(DEFAULT_WINDOW_LEN).sum()
    assert np.abs(np.abs(bins[0]) - expected).max() < 1e-9


def test_stft_sine_energy_concentrates_at_bin():
    sr = 8000
    bin_index = 32  # exact bin center: f = 32 * sr / 512 = 500 Hz
    freq = bin_index * sr / DEFAULT_WINDOW_LEN
    t = np.arange(sr) / sr
    mag2 = np.abs(stft(0.5 * np.sin(2 * np.pi * freq * t))) ** 2
    # interior frames only: edge frames see the reflect-padded ramp
    interior = mag2[:, 4:-4]
    window_energy = interior[bin_index - 1 : bin_index + 2].sum(axis=0)
    assert np.all(window_energy >= 0.99 * interior.sum(axis=0))


def _numpy_stft_bins(samples: np.ndarray, window_len: int = 512, hop: int = 128) -> np.ndarray:
    """Reflect-padded Hann STFT written out in numpy with ``np.pad``, the reference
    for ``stft``, which runs the speaker front end's ``_spectrum``."""
    xp = np.pad(samples, window_len // 2, mode="reflect")
    framed = np.lib.stride_tricks.sliding_window_view(xp, window_len)[::hop] * hann_window(window_len)
    return np.fft.rfft(framed, axis=1).T


def _numpy_istft(bins: np.ndarray, original_len: int, window_len: int = 512, hop: int = 128) -> np.ndarray:
    """Weighted overlap-add, one frame at a time."""
    window = hann_window(window_len)
    frames = bins.shape[1]
    padded = (frames - 1) * hop + window_len
    segs = np.fft.irfft(bins.T, n=window_len, axis=1) * window
    acc, cov = np.zeros(padded), np.zeros(padded)
    for t in range(frames):
        acc[t * hop : t * hop + window_len] += segs[t]
        cov[t * hop : t * hop + window_len] += window * window
    region = slice(window_len // 2, window_len // 2 + original_len)
    return acc[region] / cov[region]


def _signed_zero_sources(seconds: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seconds)
    sources = [rng.uniform(-0.5, 0.5, seconds * 8000) for _ in range(2)]
    for s in sources:
        s[1000:2000] = -0.0  # frames of negative zeros give bins with a -0.0 real part
    return sources


@pytest.mark.parametrize("seconds", [1, 4, 10])
def test_stft_istft_irm_bytes_match_numpy_reference(seconds):
    a, b = _signed_zero_sources(seconds)
    mix = a + b
    expected = _numpy_stft_bins(mix)
    assert np.signbit(expected.real[expected.real == 0]).any()
    bins = stft(mix)
    # bytes, not values: the sign of zero counts
    assert bins.tobytes() == np.ascontiguousarray(expected).tobytes()
    if seconds == 10:
        assert bins.shape[1] > DEFAULT_WINDOW_LEN  # istft sums offset by offset here
    assert istft(bins, len(mix)).tobytes() == _numpy_istft(expected, len(mix)).tobytes()

    mags = [np.abs(_numpy_stft_bins(s)) for s in (a, b)]
    total = mags[0] + mags[1]
    silent = total <= 0.0
    masks = [np.where(silent, 0.5, m / np.where(silent, 1.0, total)) for m in mags]
    outs = irm_separate(Waveform(mix), [Waveform(a), Waveform(b)])
    for out, mask in zip(outs, masks):
        assert out.samples.tobytes() == _numpy_istft(expected * mask, len(mix)).tobytes()


def test_istft_zero_spectrogram_is_silence():
    bins = stft(np.ones(2000))
    assert np.abs(istft(np.zeros_like(bins), 2000)).max() == 0.0


def test_istft_linearity():
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.5, 0.5, 3000)
    b = rng.uniform(-0.5, 0.5, 3000)
    sa, sb = stft(a), stft(b)
    lhs = istft(sa + sb, 3000)
    rhs = istft(sa, 3000) + istft(sb, 3000)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_stft_rejects_too_short_signal():
    with pytest.raises(DataError, match="too short"):
        stft(np.ones(DEFAULT_WINDOW_LEN // 2))


# -- mixing -----------------------------------------------------------------------


def _unit_power_wave(seed, n=4000):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return Waveform(x / np.sqrt(np.mean(x**2)) * 0.1)


def test_mix_equal_power_at_zero_snr():
    a, b = _unit_power_wave(0), _unit_power_wave(1)
    mixture, a_used, b_scaled = mix_at_snr(a, b, 0.0)
    gain = b_scaled.samples[0] / b.samples[0]
    assert gain == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(mixture.samples, a_used.samples + b_scaled.samples)


def test_mix_20db_gain_is_one_tenth():
    a, b = _unit_power_wave(2), _unit_power_wave(3)
    _, _, b_scaled = mix_at_snr(a, b, 20.0)
    gain = b_scaled.samples[0] / b.samples[0]
    assert gain == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("snr", [0.0, 1.7, 3.3, 5.0])
def test_mix_measured_snr_matches_requested(snr):
    a, b = _unit_power_wave(4), _unit_power_wave(5)
    _, a_used, b_scaled = mix_at_snr(a, b, snr)
    assert measure_snr_db(a_used, b_scaled) == pytest.approx(snr, abs=1e-9)


def test_mix_rejects_silent_source():
    a = _unit_power_wave(6)
    silent = Waveform(np.zeros(len(a)))
    with pytest.raises(DataError):
        mix_at_snr(a, silent, 0.0)
    with pytest.raises(DataError):
        mix_at_snr(silent, a, 0.0)


def test_mix_rejects_length_mismatch():
    with pytest.raises(DataError):
        mix_at_snr(_unit_power_wave(7, 4000), _unit_power_wave(8, 3999), 0.0)


# -- toy speakers -------------------------------------------------------------------


def test_synth_deterministic_per_id_and_seed():
    a = synth_speaker_source(3, 0.8, seed=9)
    b = synth_speaker_source(3, 0.8, seed=9)
    assert np.array_equal(a.samples, b.samples)
    c = synth_speaker_source(3, 0.8, seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_f0_bands_disjoint_across_ids():
    bands = [f0_band(i) for i in range(10)]
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        assert hi1 < lo2


def test_synth_rejects_bad_args():
    with pytest.raises(DataError):
        synth_speaker_source(-1, 1.0, 0)
    with pytest.raises(DataError):
        synth_speaker_source(0, 0.2, 0)


def test_speaker_without_a_harmonic_below_the_ceiling_is_a_data_error():
    # at 8 kHz speaker 113's band tops out at 3502 Hz with maximum vibrato, 114's at 3626 Hz
    check_speaker(113)
    for speaker_id in (114, 116):
        with pytest.raises(DataError, match=rf"speaker {speaker_id} .*8000 Hz"):
            synth_speaker_source(speaker_id, 1.0, 0)
    with pytest.raises(DataError, match="speaker 56 .*4000 Hz"):
        synth_speaker_source(56, 1.0, 0, sample_rate_hz=4000)


def test_corpus_with_a_voiceless_speaker_writes_nothing(tmp_path):
    from tastas.pipeline.data import synth_mixture_corpus

    with pytest.raises(DataError, match="speaker 119 "):
        synth_mixture_corpus(tmp_path, "train", 40, 120, 0.5, 0.0, 5.0, seed=0)
    assert list(tmp_path.iterdir()) == []


def _direct_harmonic_stack(amps, harmonic_phases, phase):
    """The reference sum: one sine per harmonic over a (K, n) table."""
    k = np.arange(1, len(amps) + 1)
    return (amps[:, None] * np.sin(np.outer(k, phase) + harmonic_phases[:, None])).sum(axis=0)


def test_horner_harmonic_stack_matches_the_direct_sum(monkeypatch):
    horner = synth._harmonic_stack
    calls = []

    def recording(amps, harmonic_phases, phase):
        calls.append((amps, harmonic_phases, phase))
        return horner(amps, harmonic_phases, phase)

    monkeypatch.setattr(synth, "_harmonic_stack", recording)
    for duration_s in (0.5, 4.0):
        for speaker_id in range(8):
            synth_speaker_source(speaker_id, duration_s, seed=speaker_id)
    assert len(calls) == 16
    for amps, harmonic_phases, phase in calls:
        got = horner(amps, harmonic_phases, phase)
        np.testing.assert_allclose(got, _direct_harmonic_stack(amps, harmonic_phases, phase), rtol=0, atol=1e-9)


def test_horner_corpus_pcm_equals_the_direct_sum_corpus(tmp_path, monkeypatch):
    from tastas.pipeline.data import synth_mixture_corpus

    def build(root):
        # the benchmark's seed-0 corpora: 6 train and 2 dev mixtures of 1 s, 8 test of 4 s
        for split, count, duration_s in (("train", 6, 1.0), ("dev", 2, 1.0), ("test", 8, 4.0)):
            synth_mixture_corpus(root, split, count, 8, duration_s, 0.0, 5.0, seed=0)
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.wav"))}

    horner = build(tmp_path / "horner")
    monkeypatch.setattr(synth, "_harmonic_stack", _direct_harmonic_stack)
    direct = build(tmp_path / "direct")
    assert len(horner) == 48
    assert horner == direct


def test_long_source_memory_is_linear_in_length():
    import tracemalloc

    tracemalloc.start()
    try:
        synth_speaker_source(0, 60.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 480000-sample output is 3.7 MiB; a (48, n) sine table alone would be 176 MiB
    assert peak < 64 * 2**20


def test_synth_waveform_sane():
    w = synth_speaker_source(5, 1.0, seed=1)
    assert len(w) == 8000
    assert np.max(np.abs(w.samples)) <= 0.36
    assert w.power() > 1e-4


# -- ratio-mask oracle ----------------------------------------------------------------


def _toy_pair(seed):
    a = synth_speaker_source(0, 1.0, seed=seed)
    b = synth_speaker_source(4, 1.0, seed=seed + 1)
    return mix_at_snr(a, b, 2.0)


def test_irm_masks_sum_to_one():
    _, a_used, b_scaled = _toy_pair(10)
    masks = irm_masks([a_used, b_scaled])
    total = masks[0] + masks[1]
    assert np.abs(total - 1.0).max() < 1e-9
    assert all(np.all(m >= 0) for m in masks)


def test_irm_single_source_limit():
    _, a_used, _ = _toy_pair(11)
    eps = Waveform(np.full(len(a_used), 1e-9))
    outs = irm_separate(Waveform(a_used.samples + eps.samples), [a_used, eps])
    err = np.abs(outs[0].samples - a_used.samples).max()
    assert err < 1e-4


def test_irm_rejects_length_mismatch():
    mixture, a_used, b_scaled = _toy_pair(12)
    short = Waveform(a_used.samples[:-10])
    with pytest.raises(DataError):
        irm_separate(mixture, [short, b_scaled])
