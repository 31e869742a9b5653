"""Three-phase training orchestration.

Phase "idnet" trains and freezes the speaker classifier. Phase "sep"
minimizes the stage-averaged permutation-invariant SI-SDR loss alone.
Phase "finetune" starts from a separation checkpoint and adds the
identity-consistency term (frozen classifier, final-stage assignment).

`SepTrainer.run()` holds the restart controller. It watches the
development loss: after `patience` consecutive epochs worse than the best
seen, training reloads best.ckpt and begins again at half the learning
rate (`TrainConfig.learning_rate`); once `max_restarts` reloads are spent,
the next trigger stops the run.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .. import objectives
from ..audio.wavio import Waveform
from ..checkpoint import check_header_value, load_network, save_network
from ..errors import CheckpointError, ConfigError, DataError
from ..idnet.model import IdNet, IdNetConfig, load_idnet, save_idnet
from ..numerics import ops
from ..numerics.optim import GRAD_CLIP, AdamState, ParamSet, adam_step, clip_global_norm
from ..numerics.tensor import Tensor, no_grad
from ..sepnet.config import ModelConfig
from ..sepnet.model import TasTasModel
from .config import TrainConfig
from .data import LoadedExample, idnet_corpus_from_manifest, load_examples, read_manifest

# ---------------------------------------------------------------------------
# the training pass both networks share, and the reports it feeds
# ---------------------------------------------------------------------------


@dataclass
class EpochTelemetry:
    """The columns both training reports carry: the epoch's wall seconds, train
    examples per second of its training pass, the mean and max global gradient
    norm before clipping, and the fraction of optimizer steps that clipping
    scaled down."""

    epoch_s: float
    examples_per_s: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_rate: float

    HEADER = "epoch_s\texamples_per_s\tgrad_norm_mean\tgrad_norm_max\tclip_rate"

    def columns(self) -> str:
        return (
            f"{self.epoch_s:.3f}\t{self.examples_per_s:.4f}\t{self.grad_norm_mean:.6f}"
            f"\t{self.grad_norm_max:.6f}\t{self.clip_rate:.4f}"
        )


@dataclass
class TrainPass:
    """One epoch's minibatch pass: its start, its seconds, each example's loss
    and each optimizer step's gradient norm before clipping."""

    start: float
    seconds: float
    losses: list[float]
    grad_norms: list[float]

    def mean_loss(self) -> float:
        return float(np.mean(self.losses))

    def telemetry(self) -> EpochTelemetry:
        """The epoch's telemetry, its wall seconds counted from the pass's start to now."""
        return EpochTelemetry(
            epoch_s=time.perf_counter() - self.start,
            examples_per_s=len(self.losses) / self.seconds,
            grad_norm_mean=float(np.mean(self.grad_norms)),
            grad_norm_max=float(np.max(self.grad_norms)),
            clip_rate=float(np.mean([n > GRAD_CLIP for n in self.grad_norms])),
        )


def train_pass(params: ParamSet, adam: AdamState, lr: float, order, batch_size: int, example_loss) -> TrainPass:
    """One pass over the examples `order` names, in minibatches of `batch_size`.

    Per minibatch: backpropagate each example's scalar loss
    `example_loss(i)` with seed 1/len(batch) into the gradients of `params`,
    clip their global norm at GRAD_CLIP and take one Adam step at `lr`, which
    updates `params` and `adam` in place. The step's gradients are dropped as
    soon as it has taken them, so none is alive while the next minibatch's
    losses are computed.
    """
    start = time.perf_counter()
    losses, grad_norms = [], []
    params.zero_grads()
    for first in range(0, len(order), batch_size):
        batch = order[first : first + batch_size]
        scale = 1.0 / len(batch)
        for i in batch:
            loss = example_loss(i)
            losses.append(float(loss.data))
            loss.backward(seed=np.asarray(scale, dtype=loss.dtype))
        grads, norm = clip_global_norm(params.grads(), GRAD_CLIP)
        grad_norms.append(norm)
        adam_step(params, grads, adam, lr)
        del grads
        params.zero_grads()
    return TrainPass(start, time.perf_counter() - start, losses, grad_norms)


@dataclass
class EpochReport:
    """One row of train_report.tsv. After the telemetry comes the mean
    identity-consistency term over the training examples (before id_weight;
    0 outside finetune)."""

    epoch: int
    lr: float
    train_loss: float
    dev_loss: float
    dev_si_sdri: float
    restarts: int
    telemetry: EpochTelemetry
    id_loss: float

    HEADER = "epoch\tlr\ttrain_loss\tdev_loss\tdev_si_sdri\trestarts\t" + EpochTelemetry.HEADER + "\tid_loss"

    def row(self) -> str:
        return (
            f"{self.epoch}\t{self.lr:.8f}\t{self.train_loss:.6f}\t{self.dev_loss:.6f}"
            f"\t{self.dev_si_sdri:.4f}\t{self.restarts}\t{self.telemetry.columns()}\t{self.id_loss:.6f}"
        )

    @classmethod
    def parse(cls, line: str) -> "EpochReport":
        v = line.split("\t")
        expected = len(cls.HEADER.split("\t"))
        if len(v) != expected:
            raise ValueError(f"{len(v)} columns, expected {expected}")
        telemetry = EpochTelemetry(*map(float, v[6:11]))
        return cls(int(v[0]), float(v[1]), float(v[2]), float(v[3]), float(v[4]), int(v[5]), telemetry, float(v[11]))


@dataclass
class IdNetEpoch:
    """One row of idnet_report.tsv: the mean training cross-entropy and the
    held-out accuracy, then the telemetry."""

    epoch: int
    train_loss: float
    holdout_accuracy: float
    telemetry: EpochTelemetry

    HEADER = "epoch\ttrain_loss\tholdout_accuracy\t" + EpochTelemetry.HEADER

    def row(self) -> str:
        return f"{self.epoch}\t{self.train_loss:.6f}\t{self.holdout_accuracy:.4f}\t{self.telemetry.columns()}"


def write_report(path, header: str, rows: list[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # renamed into place, so a run killed mid-write leaves the previous report for its resume
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(header + "\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    os.replace(tmp, path)


def read_report(path) -> list[EpochReport]:
    """Rows of a train_report.tsv; none if the file is absent or has another header."""
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != EpochReport.HEADER:
        return []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(EpochReport.parse(line))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed report row: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# separation checkpoints (full trainer state)
# ---------------------------------------------------------------------------


# the optimizer's header keys and their types
ADAM_HEADER = {"step": int, "beta1": float, "beta2": float, "eps": float}


def save_sep_checkpoint(path, model: TasTasModel, adam: AdamState, extras: dict) -> None:
    blobs = {f"adam.m.{name}": m for name, m in adam.m.items()}
    blobs.update((f"adam.v.{name}", v) for name, v in adam.v.items())
    adam_header = {key: getattr(adam, key) for key in ADAM_HEADER}
    save_network(path, "sepnet", model.config, model.params, extras, header={"adam": adam_header}, blobs=blobs)


def load_sep_model(path) -> TasTasModel:
    """The separator of a checkpoint, for inference: its optimizer state is never read."""
    config, params, _, _ = load_network(path, "sepnet", ModelConfig, weights_only=True)
    return TasTasModel(config, params)


def load_sep_checkpoint(path) -> tuple[TasTasModel, AdamState, dict]:
    config, params, header, blobs = load_network(path, "sepnet", ModelConfig)
    meta = header.get("adam")
    meta = meta if isinstance(meta, dict) else {}
    moments = [f"adam.{m}.{name}" for m in ("m", "v") for name in params.names()]
    missing = [f"adam.{key}" for key in ADAM_HEADER if key not in meta] + [b for b in moments if b not in blobs]
    if missing:
        raise CheckpointError(f"{path}: incomplete optimizer state (missing {', '.join(missing)})")
    for key, field_type in ADAM_HEADER.items():
        check_header_value(path, f"adam.{key}", meta[key], field_type)
    adam = AdamState(
        step=int(meta["step"]),
        m={name: blobs[f"adam.m.{name}"] for name in params.names()},
        v={name: blobs[f"adam.v.{name}"] for name in params.names()},
        beta1=float(meta["beta1"]),
        beta2=float(meta["beta2"]),
        eps=float(meta["eps"]),
    )
    return TasTasModel(config, params), adam, header.get("extras", {})


# ---------------------------------------------------------------------------
# the separation trainer
# ---------------------------------------------------------------------------


# the extras keys a resume reads; a checkpoint saved without them holds weights only
TRAINER_STATE = ("phase", "restart_halvings", "epoch", "epoch_in_restart", "best_dev_loss", "worse_streak", "rng_state")


def _rng_state_to_json(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state)


def _rng_from_json(state_json: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(state_json)
    return rng


class SepTrainer:
    """Deterministic single-thread trainer for the sep and finetune phases."""

    def __init__(self, config: TrainConfig, resume_from: str | None = None):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.train_set = load_examples(read_manifest(config.train_manifest))
        self.dev_set = load_examples(read_manifest(config.dev_manifest))
        if not self.train_set or not self.dev_set:
            raise ConfigError("empty train or dev manifest")

        self.idnet: IdNet | None = None
        self._target_embeddings: list[list[np.ndarray]] | None = None
        if config.phase == "finetune":
            self.idnet = load_idnet(config.idnet_ckpt)
            if not self.idnet.frozen:
                raise ConfigError(f"{config.idnet_ckpt}: speaker network is not frozen")

        if resume_from:
            self.model, self.adam, extras = load_sep_checkpoint(resume_from)
            missing = [key for key in TRAINER_STATE if key not in extras]
            if missing:
                raise CheckpointError(f"{resume_from}: no trainer state to resume from (missing {', '.join(missing)})")
            if extras["phase"] != config.phase:
                raise CheckpointError(f"{resume_from}: a {extras['phase']} checkpoint cannot resume {config.phase}")
            for key in ("restart_halvings", "epoch", "epoch_in_restart", "worse_streak"):
                if int(extras[key]) < 0:
                    raise CheckpointError(f"{resume_from}: {key} must be >= 0, got {extras[key]}")
            self.restarts = int(extras["restart_halvings"])
            self.epoch = int(extras["epoch"])
            self.epoch_in_restart = int(extras["epoch_in_restart"])
            self.best_dev_loss = float(extras["best_dev_loss"])
            self.worse_streak = int(extras["worse_streak"])
            self.rng = _rng_from_json(extras["rng_state"])
            if np.isfinite(self.best_dev_loss):
                self._carry_best_checkpoint(resume_from)
        else:
            if config.phase == "finetune":
                self.model, self.adam, _ = load_sep_checkpoint(config.sep_ckpt)
                # the identity loss is what makes the fine-tuned model TasTas(I, ...)
                self.model.config = replace(self.model.config, use_id_loss=True)
            else:
                self.model = TasTasModel.initialize(config.model_config(), seed=config.seed)
                self.adam = AdamState.for_params(self.model.params)
            self.restarts = 0
            self.epoch = 0
            self.epoch_in_restart = 0
            self.best_dev_loss = float("inf")
            self.worse_streak = 0
            self.rng = np.random.default_rng(config.seed)

        if self.idnet is not None:
            rate = self.idnet.config.sample_rate_hz
            for ex in self.train_set + self.dev_set:
                if ex.sample_rate_hz != rate:
                    raise DataError(f"{ex.utt_id} is at {ex.sample_rate_hz} Hz, the speaker network at {rate} Hz")
            self._target_embeddings = self._embed_targets(self.train_set)
            self._dev_target_embeddings = self._embed_targets(self.dev_set)

    def _embed_targets(self, examples: list[LoadedExample]) -> list[list[np.ndarray]]:
        """Speaker-network embedding of every reference source, per example, as eval embeds it."""
        return [[self.idnet.embed_utterance(Waveform(t, ex.sample_rate_hz)) for t in ex.targets] for ex in examples]

    # -- loss of one example ------------------------------------------------

    def _example_loss(self, example: LoadedExample, target_embeddings=None):
        outs = self.model.forward(example.mixture)
        loss, breakdown = objectives.multi_stage_loss_graph(outs, example.targets)
        id_term = 0.0
        if self.idnet is not None and target_embeddings is not None:
            final_perm = breakdown.per_stage_perms[-1].perm
            est_embeddings = [self.idnet.embed_segments_graph(est) for est in outs[-1]]
            id_graph = objectives.id_loss_graph(est_embeddings, target_embeddings, final_perm)
            loss = ops.add(
                loss, ops.mul(id_graph, ops.const(self.config.id_weight, dtype=loss.dtype))
            )
            id_term = float(id_graph.data)
        return loss, breakdown, id_term

    def _dev_metrics(self) -> tuple[float, float]:
        losses, sisdris = [], []
        for i, ex in enumerate(self.dev_set):
            embeddings = self._dev_target_embeddings[i] if self.idnet is not None else None
            with no_grad():
                loss, breakdown, _ = self._example_loss(ex, embeddings)
            losses.append(float(loss.data))
            sisdris.append(objectives.si_sdri(ex.mixture, ex.targets, breakdown.per_stage_perms[-1]))
        return float(np.mean(losses)), float(np.mean(sisdris))

    # -- checkpointing --------------------------------------------------------

    def _extras(self) -> dict:
        return {
            "phase": self.config.phase,
            "epoch": self.epoch,
            "epoch_in_restart": self.epoch_in_restart,
            "restart_halvings": self.restarts,
            "best_dev_loss": self.best_dev_loss,
            "worse_streak": self.worse_streak,
            "rng_state": _rng_state_to_json(self.rng),
            "id_weight": self.config.id_weight,
        }

    def _save(self, name: str) -> Path:
        path = self.out_dir / name
        save_sep_checkpoint(path, self.model, self.adam, self._extras())
        return path

    def _carry_best_checkpoint(self, resume_from: str) -> None:
        """A restart reloads out_dir/best.ckpt, so a resume that carries a best
        dev loss over needs that file, saved at that loss, before any epoch
        runs. A resume into another directory brings it over from beside the
        resumed checkpoint.

        An improving epoch saves best.ckpt before last.ckpt, so a run stopped
        between the two saves leaves a best.ckpt that the epoch after the
        resumed one saved. That file is taken as it is: the resumed run
        repeats that epoch and saves best.ckpt again before any restart can
        reload it."""
        path = self.out_dir / "best.ckpt"
        source = path if path.exists() else Path(resume_from).with_name("best.ckpt")
        if not source.exists():
            raise CheckpointError(
                f"{path}: missing, and no {source.name} beside {resume_from}, "
                f"which carries best_dev_loss {self.best_dev_loss} over"
            )
        model, adam, extras = load_sep_checkpoint(source)
        if extras.get("best_dev_loss") != self.best_dev_loss and not self._saved_by_next_epoch(extras):
            raise CheckpointError(
                f"{source}: records best_dev_loss {extras.get('best_dev_loss')}, "
                f"but {resume_from} carries {self.best_dev_loss}"
            )
        if source != path:
            save_sep_checkpoint(path, model, adam, extras)

    def _saved_by_next_epoch(self, extras: dict) -> bool:
        """Whether a checkpoint's trainer state is the one this trainer's next
        epoch reaches: one epoch on, with the generator one epoch's draw on."""
        rng = _rng_from_json(_rng_state_to_json(self.rng))
        self._epoch_order(rng)
        return extras.get("epoch") == self.epoch + 1 and extras.get("rng_state") == _rng_state_to_json(rng)

    def _epoch_order(self, rng: np.random.Generator) -> np.ndarray:
        """The order an epoch visits the training examples in, drawn from `rng`."""
        return rng.permutation(len(self.train_set))

    def _reload_best(self) -> None:
        self.model, self.adam, extras = load_sep_checkpoint(self.out_dir / "best.ckpt")
        self.rng = _rng_from_json(extras["rng_state"])

    # -- main loop -----------------------------------------------------------

    def run(self) -> tuple[Path, list[EpochReport]]:
        """Train to epochs_max (or a stop); returns last.ckpt and this call's report rows.

        train_report.tsv is rewritten after every epoch. It keeps the rows
        already in it for epochs up to the one this call starts from, so a
        run resumed into its own directory reports every epoch.
        """
        report_path = self.out_dir / "train_report.tsv"
        earlier = [r for r in read_report(report_path) if r.epoch <= self.epoch]
        reports: list[EpochReport] = []
        while self.epoch < self.config.epochs_max:
            lr = self.config.learning_rate(self.restarts, self.epoch_in_restart)
            order = self._epoch_order(self.rng)
            id_terms = []

            def example_loss(idx):
                embeddings = self._target_embeddings[idx] if self.idnet is not None else None
                loss, _, id_term = self._example_loss(self.train_set[idx], embeddings)
                id_terms.append(id_term)
                return loss

            done = train_pass(self.model.params, self.adam, lr, order, self.config.batch_size, example_loss)
            dev_loss, dev_si_sdri = self._dev_metrics()
            self.epoch += 1
            self.epoch_in_restart += 1

            if dev_loss < self.best_dev_loss:
                self.best_dev_loss = dev_loss
                self.worse_streak = 0
                self._save("best.ckpt")
            else:
                self.worse_streak += 1

            reports.append(
                EpochReport(
                    epoch=self.epoch,
                    lr=lr,
                    train_loss=done.mean_loss(),
                    dev_loss=dev_loss,
                    dev_si_sdri=dev_si_sdri,
                    restarts=self.restarts,
                    telemetry=done.telemetry(),
                    id_loss=float(np.mean(id_terms)),
                )
            )

            # `patience` worse epochs restart from best.ckpt at half the LR, or stop once the restarts are spent
            stop = False
            if self.worse_streak >= self.config.patience:
                stop = self.restarts >= self.config.max_restarts
                if not stop:
                    self._reload_best()
                    self.restarts += 1
                    self.epoch_in_restart = self.worse_streak = 0
            # saved after the restart is applied, so a resume continues exactly
            self._save("last.ckpt")
            write_report(report_path, EpochReport.HEADER, [r.row() for r in earlier + reports])
            if stop:
                break

        if not reports:
            # no epoch ran (say, resuming a finished run): last.ckpt still names the state
            self._save("last.ckpt")
            write_report(report_path, EpochReport.HEADER, [r.row() for r in earlier])
        return self.out_dir / "last.ckpt", reports


# ---------------------------------------------------------------------------
# the speaker network
# ---------------------------------------------------------------------------


IDNET_LR = 1e-3
IDNET_BATCH_SIZE = 8
IDNET_HOLDOUT_FRACTION = 0.2
# training stops at the first epoch whose held-out accuracy reaches this
IDNET_TARGET_ACCURACY = 0.98
MIN_SEGMENTS_PER_SPEAKER = 20


def _segment_corpus(utterances: list[tuple[Waveform, int]], config: IdNetConfig):
    segments: list[tuple[np.ndarray, int]] = []
    labels_seen = set()
    for index, (wave, label) in enumerate(utterances):
        if not 0 <= label < config.num_speakers:
            raise DataError(f"label {label} outside [0, {config.num_speakers})")
        if wave.sample_rate_hz != config.sample_rate_hz:
            raise DataError(
                f"utterance {index} (speaker {label}) is at {wave.sample_rate_hz} Hz, "
                f"the speaker network at {config.sample_rate_hz} Hz"
            )
        if len(wave) == 0:
            raise DataError(f"utterance {index} (speaker {label}) is empty")
        labels_seen.add(label)
        # a piece every segment_len samples, unpadded: IdNet.forward zero-pads a short last one
        samples = np.asarray(wave.samples, dtype=np.float32)
        segments += [(samples[i : i + config.segment_len], label) for i in range(0, len(wave), config.segment_len)]
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


def _holdout_split(segments, rng: np.random.Generator):
    """Train and held-out segment indices; each speaker holds out at least one."""
    by_class: dict[int, list[int]] = {}
    for idx, (_, label) in enumerate(segments):
        by_class.setdefault(label, []).append(idx)
    train_idx, hold_idx = [], []
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        rng.shuffle(indices)
        n_hold = max(1, int(round(IDNET_HOLDOUT_FRACTION * len(indices))))
        hold_idx.extend(indices[:n_hold].tolist())
        train_idx.extend(indices[n_hold:].tolist())
    if not train_idx:
        raise DataError(
            f"the holdout split leaves no training segment: all {len(hold_idx)} of {len(segments)} segments "
            "are held out, at least one per speaker; a speaker needs 2 or more segments to train on"
        )
    return sorted(train_idx), sorted(hold_idx)


def _accuracy(net: IdNet, segments, indices) -> float:
    hits = 0
    for i in indices:
        samples, label = segments[i]
        if net.classify_segment(samples) == label:
            hits += 1
    return hits / len(indices)


def train_idnet(
    utterances: list[tuple[Waveform, int]], config: IdNetConfig, seed: int = 0, epochs_max: int = 30
) -> tuple[IdNet, list[IdNetEpoch]]:
    """Train the speaker classifier on sliced segments until the held-out
    accuracy reaches IDNET_TARGET_ACCURACY; returns it frozen at its best
    held-out epoch, with one report row per epoch run."""
    segments = _segment_corpus(utterances, config)
    rng = np.random.default_rng(seed)
    train_idx, hold_idx = _holdout_split(segments, rng)

    net = IdNet.initialize(config, seed=seed)
    adam = AdamState.for_params(net.params)
    best_accuracy, best_params = 0.0, net.params.copy()

    def example_loss(i):
        samples, label = segments[i]
        logits, _ = net.forward(Tensor(samples))
        return ops.neg(ops.getitem(ops.log_softmax(logits, axis=0), (label,)))

    rows: list[IdNetEpoch] = []
    order = np.array(train_idx)
    for epoch in range(1, epochs_max + 1):
        rng.shuffle(order)
        done = train_pass(net.params, adam, IDNET_LR, order, IDNET_BATCH_SIZE, example_loss)
        accuracy = _accuracy(net, segments, hold_idx)
        rows.append(IdNetEpoch(epoch, done.mean_loss(), accuracy, done.telemetry()))
        if accuracy > best_accuracy:
            best_accuracy, best_params = accuracy, net.params.copy()
        if accuracy >= IDNET_TARGET_ACCURACY:
            break

    net.params = best_params
    net.freeze()
    return net, rows


# ---------------------------------------------------------------------------
# phase dispatch
# ---------------------------------------------------------------------------


def run_phase(config: TrainConfig, resume_from: str | None = None) -> tuple[Path, list]:
    """Run one training phase to completion; returns (checkpoint path, report rows)."""
    if config.phase == "idnet":
        return _run_idnet_phase(config)
    trainer = SepTrainer(config, resume_from=resume_from)
    return trainer.run()


def _run_idnet_phase(config: TrainConfig) -> tuple[Path, list]:
    records = read_manifest(config.train_manifest)
    corpus = idnet_corpus_from_manifest(records)
    # speaker ids index the classes, so every id from 0 to the largest needs one
    net_config = IdNetConfig(num_speakers=1 + max((speaker for _, speaker in corpus), default=-1))
    net, rows = train_idnet(corpus, net_config, seed=config.seed, epochs_max=config.epochs_max)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "idnet.ckpt"
    best_accuracy = max((r.holdout_accuracy for r in rows), default=0.0)
    save_idnet(path, net, extras={"best_accuracy": best_accuracy, "epochs": len(rows)})
    write_report(out_dir / "idnet_report.tsv", IdNetEpoch.HEADER, [r.row() for r in rows])
    return path, rows
