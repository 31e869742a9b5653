"""Speaker classifier training: cross-entropy on fixed-length segments,
then freeze, keeping the best held-out parameters."""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from ..audio.wavio import Waveform
from ..checkpoint import blas_threads, config_from_header, load_container, save_container
from ..errors import CheckpointError, DataError
from ..numerics import ops
from ..numerics.optim import GRAD_CLIP, AdamState, ParamSet, adam_step, clip_global_norm
from ..numerics.tensor import Tensor
from .model import IdNet, IdNetConfig, slice_segments

MIN_SEGMENTS_PER_SPEAKER = 20


@dataclass
class IdNetTrainReport:
    """Per-epoch lists, one entry per epoch run.

    Beside the loss and held-out accuracy: the epoch's wall seconds, train
    segments per second of its training pass, the mean and max global
    gradient norm before clipping, and the fraction of optimizer steps that
    clipping scaled down.
    """

    epochs_run: int = 0
    train_loss: list[float] = field(default_factory=list)
    holdout_accuracy: list[float] = field(default_factory=list)
    best_accuracy: float = 0.0
    epoch_s: list[float] = field(default_factory=list)
    examples_per_s: list[float] = field(default_factory=list)
    grad_norm_mean: list[float] = field(default_factory=list)
    grad_norm_max: list[float] = field(default_factory=list)
    clip_rate: list[float] = field(default_factory=list)

    HEADER = "epoch\ttrain_loss\tholdout_accuracy\tepoch_s\texamples_per_s\tgrad_norm_mean\tgrad_norm_max\tclip_rate"

    def rows(self) -> list[str]:
        """idnet_report.tsv rows, one per epoch."""
        return [
            f"{e + 1}\t{self.train_loss[e]:.6f}\t{self.holdout_accuracy[e]:.4f}\t{self.epoch_s[e]:.3f}"
            f"\t{self.examples_per_s[e]:.4f}\t{self.grad_norm_mean[e]:.6f}\t{self.grad_norm_max[e]:.6f}"
            f"\t{self.clip_rate[e]:.4f}"
            for e in range(self.epochs_run)
        ]


def _segment_corpus(utterances, config: IdNetConfig):
    segments: list[tuple[np.ndarray, int]] = []
    labels_seen = set()
    for wave, label in utterances:
        if not 0 <= label < config.num_speakers:
            raise DataError(f"label {label} outside [0, {config.num_speakers})")
        labels_seen.add(label)
        for piece in slice_segments(np.asarray(wave.samples), config.segment_len):
            segments.append((piece.astype(np.float32), label))
    if len(labels_seen) < 2:
        raise DataError(f"need utterances from >= 2 speakers, got {len(labels_seen)}")
    counts = np.zeros(config.num_speakers, dtype=int)
    for _, label in segments:
        counts[label] += 1
    for label in range(config.num_speakers):
        if counts[label] == 0:
            raise DataError(f"speaker class {label} has zero segments")
        if counts[label] < MIN_SEGMENTS_PER_SPEAKER:
            warnings.warn(
                f"speaker class {label} has only {counts[label]} segments; "
                f"at least {MIN_SEGMENTS_PER_SPEAKER} recommended",
                stacklevel=3,
            )
    return segments


def _holdout_split(segments, rng: np.random.Generator, fraction: float):
    by_class: dict[int, list[int]] = {}
    for idx, (_, label) in enumerate(segments):
        by_class.setdefault(label, []).append(idx)
    train_idx, hold_idx = [], []
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        rng.shuffle(indices)
        n_hold = max(1, int(round(fraction * len(indices))))
        hold_idx.extend(indices[:n_hold].tolist())
        train_idx.extend(indices[n_hold:].tolist())
    return sorted(train_idx), sorted(hold_idx)


def _accuracy(net: IdNet, segments, indices) -> float:
    hits = 0
    for i in indices:
        samples, label = segments[i]
        if net.classify_segment(samples) == label:
            hits += 1
    return hits / len(indices)


def train_idnet(
    utterances: list[tuple[Waveform, int]],
    config: IdNetConfig,
    seed: int = 0,
    epochs_max: int = 30,
    lr: float = 1e-3,
    batch_size: int = 8,
    holdout_fraction: float = 0.2,
    target_accuracy: float = 0.98,
) -> tuple[IdNet, IdNetTrainReport]:
    """Train on sliced segments, stop once held-out accuracy is good, freeze."""
    segments = _segment_corpus(utterances, config)
    rng = np.random.default_rng(seed)
    train_idx, hold_idx = _holdout_split(segments, rng, holdout_fraction)

    net = IdNet.initialize(config, seed=seed)
    state = AdamState.for_params(net.params)
    report = IdNetTrainReport()
    best_params = net.params.copy()

    order = np.array(train_idx)
    for epoch in range(epochs_max):
        epoch_start = time.perf_counter()
        rng.shuffle(order)
        epoch_loss = 0.0
        grad_norms = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            net.params.zero_grads()
            scale = 1.0 / len(batch)
            for i in batch:
                samples, label = segments[i]
                logits, _ = net.forward(Tensor(samples))
                nll = ops.neg(ops.getitem(ops.log_softmax(logits, axis=0), (label,)))
                loss = ops.mul(nll, ops.const(scale, dtype=logits.dtype))
                loss.backward()
                epoch_loss += float(nll.data)
            grads, norm = clip_global_norm(net.params.grads(), GRAD_CLIP)
            grad_norms.append(norm)
            net.params, state = adam_step(net.params, grads, state, lr)
        train_s = time.perf_counter() - epoch_start
        report.train_loss.append(epoch_loss / len(order))
        accuracy = _accuracy(net, segments, hold_idx)
        report.holdout_accuracy.append(accuracy)
        report.epoch_s.append(time.perf_counter() - epoch_start)
        report.examples_per_s.append(len(order) / train_s)
        report.grad_norm_mean.append(float(np.mean(grad_norms)))
        report.grad_norm_max.append(float(np.max(grad_norms)))
        report.clip_rate.append(float(np.mean([n > GRAD_CLIP for n in grad_norms])))
        report.epochs_run = epoch + 1
        if accuracy > report.best_accuracy:
            report.best_accuracy = accuracy
            best_params = net.params.copy()
        if accuracy >= target_accuracy:
            break

    net.params = best_params
    net.freeze()
    return net, report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_idnet(path, net: IdNet, extras: dict | None = None) -> None:
    header = {
        "model": asdict(net.config),
        "extras": {**(extras or {}), "blas_threads": blas_threads()},
        "frozen": net.frozen,
    }
    blobs = {f"param.{name}": tensor.data for name, tensor in net.params.items()}
    save_container(path, "idnet", header, blobs)


def load_idnet(path) -> IdNet:
    kind, header, blobs = load_container(path)
    if kind != "idnet":
        raise CheckpointError(f"{path}: container holds '{kind}', expected 'idnet'")
    config = config_from_header(IdNetConfig, header.get("model"), path)
    params = ParamSet()
    for name, arr in blobs.items():
        if name.startswith("param."):
            params.add(name[len("param.") :], Tensor(arr))
    if len(params) == 0:
        raise CheckpointError(f"{path}: no parameters in container")
    net = IdNet(config, params, frozen=bool(header.get("frozen", True)))
    return net
