"""Dataset manifests and synthetic corpus generation.

Manifest lines are tab-separated:

    mix_path  src1_path  src2_path  snr_db  speaker_id1  speaker_id2

Sources are quantized to 16-bit before the mixture is formed from the
quantized integers, so every mixture WAV equals the sample-exact sum of
its source WAVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..audio.mix import mix_at_snr
from ..audio.synth import check_duration, check_speaker, synth_speaker_source
from ..audio.wavio import DEFAULT_SAMPLE_RATE, PCM_SCALE, Waveform, wav_read, wav_write
from ..errors import DataError


@dataclass(frozen=True)
class ManifestRecord:
    mix_path: str
    src_paths: tuple[str, str]
    snr_db: float
    speaker_ids: tuple[int, int]

    @property
    def utt_id(self) -> str:
        return Path(self.mix_path).stem


def write_manifest(path, records: list[ManifestRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{r.mix_path}\t{r.src_paths[0]}\t{r.src_paths[1]}\t{float(r.snr_db)!r}\t{r.speaker_ids[0]}\t{r.speaker_ids[1]}"
        for r in records
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_manifest(path) -> list[ManifestRecord]:
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 tab-separated fields, got {len(parts)}")
        try:
            snr_db, speaker_ids = float(parts[3]), (int(parts[4]), int(parts[5]))
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: snr_db must be a number and speaker ids integers, got {parts[3:]}"
            ) from None
        records.append(
            ManifestRecord(mix_path=parts[0], src_paths=(parts[1], parts[2]), snr_db=snr_db, speaker_ids=speaker_ids)
        )
    return records


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(np.clip(x, -1.0, 1.0) * PCM_SCALE).astype(np.int64)


def synth_mixture_corpus(
    out_dir,
    split: str,
    num_mixtures: int,
    num_speakers: int,
    duration_s: float,
    snr_lo: float,
    snr_hi: float,
    seed: int,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
) -> list[ManifestRecord]:
    """One split of mixtures; the seed plus split name pins every sample.

    Utterance seeds are drawn from split-disjoint ranges so dev and test
    material never reuses training utterances.
    """
    if num_speakers < 2:
        raise DataError(f"need at least 2 speakers to form mixtures, got {num_speakers}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if num_mixtures < 0:
        raise DataError(f"the {split} split needs a mixture count >= 0, got {num_mixtures}")
    for name, bound in (("snr_lo", snr_lo), ("snr_hi", snr_hi)):
        if not math.isfinite(bound):
            raise DataError(f"{name} must be a finite number of dB, got {bound}")
    if snr_lo > snr_hi:
        raise DataError(f"empty SNR range: snr_lo {snr_lo} > snr_hi {snr_hi}")
    check_duration(duration_s)
    check_speaker(num_speakers - 1, sample_rate_hz)  # before any file is written
    out_dir = Path(out_dir)
    wav_dir = out_dir / split
    split_offset = {"train": 0, "dev": 1, "test": 2}.get(split)
    if split_offset is None:
        raise DataError(f"unknown split '{split}'")
    rng = np.random.default_rng([seed, split_offset])
    seed_base = 1_000_000 * (split_offset + 1)
    records = []
    for i in range(num_mixtures):
        spk_a, spk_b = rng.choice(num_speakers, size=2, replace=False)
        snr = float(rng.uniform(snr_lo, snr_hi))
        a = synth_speaker_source(int(spk_a), duration_s, seed=seed_base + 2 * i, sample_rate_hz=sample_rate_hz)
        b = synth_speaker_source(int(spk_b), duration_s, seed=seed_base + 2 * i + 1, sample_rate_hz=sample_rate_hz)
        _, a_used, b_scaled = mix_at_snr(a, b, snr)
        ia, ib = _quantize(a_used.samples), _quantize(b_scaled.samples)
        imix = ia + ib
        if np.abs(imix).max() > PCM_SCALE:
            raise DataError("mixture clipped; lower the source level")
        name = f"{split}_{i:05d}"
        paths = {
            "mix": wav_dir / f"{name}_mix.wav",
            "s1": wav_dir / f"{name}_s1.wav",
            "s2": wav_dir / f"{name}_s2.wav",
        }
        wav_write(paths["s1"], Waveform(ia / PCM_SCALE, sample_rate_hz))
        wav_write(paths["s2"], Waveform(ib / PCM_SCALE, sample_rate_hz))
        wav_write(paths["mix"], Waveform(imix / PCM_SCALE, sample_rate_hz))
        records.append(
            ManifestRecord(
                mix_path=str(paths["mix"]),
                src_paths=(str(paths["s1"]), str(paths["s2"])),
                snr_db=snr,
                speaker_ids=(int(spk_a), int(spk_b)),
            )
        )
    write_manifest(out_dir / f"{split}.tsv", records)
    return records


@dataclass(frozen=True)
class LoadedExample:
    utt_id: str
    mixture: np.ndarray
    targets: list[np.ndarray]
    sample_rate_hz: int


def load_example(record: ManifestRecord) -> LoadedExample:
    mix = wav_read(record.mix_path)
    sources = [wav_read(p) for p in record.src_paths]
    for path, s in zip(record.src_paths, sources):
        if s.sample_rate_hz != mix.sample_rate_hz:
            raise DataError(
                f"{record.utt_id}: source {path} is at {s.sample_rate_hz} Hz, the mixture at {mix.sample_rate_hz} Hz"
            )
        if len(s) != len(mix):
            raise DataError(f"{record.utt_id}: source length {len(s)} != mixture length {len(mix)}")
    return LoadedExample(
        utt_id=record.utt_id,
        mixture=mix.samples,
        targets=[s.samples for s in sources],
        sample_rate_hz=mix.sample_rate_hz,
    )


def load_examples(records: list[ManifestRecord]) -> list[LoadedExample]:
    return [load_example(r) for r in records]


def idnet_corpus_from_manifest(records: list[ManifestRecord]) -> list[tuple[Waveform, int]]:
    """Labeled source utterances for speaker-classifier training."""
    corpus = []
    for r in records:
        for path, speaker in zip(r.src_paths, r.speaker_ids):
            corpus.append((wav_read(path), speaker))
    return corpus

