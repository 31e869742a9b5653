"""Three-phase training orchestration.

Phase "idnet" trains and freezes the speaker classifier. Phase "sep"
minimizes the stage-averaged permutation-invariant SI-SDR loss alone.
Phase "finetune" starts from a separation checkpoint and adds the
identity-consistency term (frozen classifier, final-stage assignment).

The restart controller watches the development loss: after `patience`
consecutive epochs worse than the best seen, training reloads the best
checkpoint and begins again with the initial learning rate halved;
after `max_restarts` such reloads the next trigger stops the run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .. import objectives
from ..checkpoint import blas_threads, config_from_header, load_container, save_container
from ..errors import CheckpointError, ConfigError, DataError
from ..idnet.model import IdNet, IdNetConfig
from ..idnet.train import load_idnet, save_idnet, train_idnet
from ..numerics import ops
from ..numerics.optim import GRAD_CLIP, AdamState, LrPolicy, ParamSet, adam_step, clip_global_norm, lr_for_epoch
from ..numerics.tensor import Tensor, no_grad
from ..sepnet.config import ModelConfig
from ..sepnet.model import TasTasModel
from .config import TrainConfig
from .data import LoadedExample, idnet_corpus_from_manifest, load_examples, read_manifest

CONTINUE = "continue"
RESTART = "restart_with_halved_lr"
STOP = "stop"


def restart_decision(worse_streak: int, patience: int, restarts_done: int, max_restarts: int) -> str:
    """Controller action given how many consecutive epochs were worse than best."""
    if worse_streak < patience:
        return CONTINUE
    return STOP if restarts_done >= max_restarts else RESTART


@dataclass
class EpochReport:
    """One row of train_report.tsv.

    The telemetry after `restarts`: the epoch's wall seconds, train examples
    per second of its training pass, the mean and max global gradient norm
    before clipping, the fraction of optimizer steps that clipping scaled
    down, and the mean identity-consistency term over the training examples
    (before id_weight; 0 outside finetune).
    """

    epoch: int
    lr: float
    train_loss: float
    dev_loss: float
    dev_si_sdri: float
    restarts: int
    epoch_s: float
    examples_per_s: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_rate: float
    id_loss: float

    HEADER = (
        "epoch\tlr\ttrain_loss\tdev_loss\tdev_si_sdri\trestarts"
        "\tepoch_s\texamples_per_s\tgrad_norm_mean\tgrad_norm_max\tclip_rate\tid_loss"
    )

    def row(self) -> str:
        return (
            f"{self.epoch}\t{self.lr:.8f}\t{self.train_loss:.6f}\t{self.dev_loss:.6f}"
            f"\t{self.dev_si_sdri:.4f}\t{self.restarts}"
            f"\t{self.epoch_s:.3f}\t{self.examples_per_s:.4f}\t{self.grad_norm_mean:.6f}"
            f"\t{self.grad_norm_max:.6f}\t{self.clip_rate:.4f}\t{self.id_loss:.6f}"
        )

    @classmethod
    def parse(cls, line: str) -> "EpochReport":
        values = line.split("\t")
        # the field types are the strings "int" and "float" under postponed annotations
        return cls(*(int(v) if f.type == "int" else float(v) for f, v in zip(fields(cls), values, strict=True)))


def write_report(path, rows: list[EpochReport]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # renamed into place, so a run killed mid-write leaves the previous report for its resume
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(EpochReport.HEADER + "\n" + "".join(r.row() + "\n" for r in rows), encoding="utf-8")
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


def save_sep_checkpoint(path, model: TasTasModel, adam: AdamState, extras: dict) -> None:
    header = {
        "model": asdict(model.config),
        "adam": {"step": adam.step, "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps},
        "extras": {**extras, "blas_threads": blas_threads()},
    }
    blobs: dict[str, np.ndarray] = {}
    for name, tensor in model.params.items():
        blobs[f"param.{name}"] = tensor.data
    for name, m in adam.m.items():
        blobs[f"adam.m.{name}"] = m
    for name, v in adam.v.items():
        blobs[f"adam.v.{name}"] = v
    save_container(path, "sepnet", header, blobs)


def load_sep_checkpoint(path) -> tuple[TasTasModel, AdamState, dict]:
    kind, header, blobs = load_container(path)
    if kind != "sepnet":
        raise CheckpointError(f"{path}: container holds '{kind}', expected 'sepnet'")
    config = config_from_header(ModelConfig, header.get("model"), path)
    params = ParamSet()
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for name, arr in blobs.items():
        if name.startswith("param."):
            params.add(name[len("param.") :], Tensor(arr))
        elif name.startswith("adam.m."):
            adam_m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v.") :]] = arr
    if len(params) == 0:
        raise CheckpointError(f"{path}: no parameters in container")
    meta = header.get("adam", {})
    adam = AdamState(
        step=int(meta.get("step", 0)),
        m=adam_m or {n: np.zeros_like(t.data) for n, t in params.items()},
        v=adam_v or {n: np.zeros_like(t.data) for n, t in params.items()},
        beta1=float(meta.get("beta1", 0.9)),
        beta2=float(meta.get("beta2", 0.999)),
        eps=float(meta.get("eps", 1e-8)),
    )
    model = TasTasModel(config, params, dtype=np.float32)
    return model, adam, header.get("extras", {})


# ---------------------------------------------------------------------------
# the separation trainer
# ---------------------------------------------------------------------------


# the extras keys a resume reads; a checkpoint saved without them holds weights only
TRAINER_STATE = ("restart_halvings", "epoch", "epoch_in_restart", "best_dev_loss", "worse_streak", "rng_state")


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
            restart_halvings = int(extras["restart_halvings"])
            self.epoch = int(extras["epoch"])
            self.epoch_in_restart = int(extras["epoch_in_restart"])
            self.best_dev_loss = float(extras["best_dev_loss"])
            self.worse_streak = int(extras["worse_streak"])
            self.rng = _rng_from_json(extras["rng_state"])
        else:
            if config.phase == "finetune":
                self.model, self.adam, _ = load_sep_checkpoint(config.sep_ckpt)
                # the identity loss is what makes the fine-tuned model TasTas(I, ...)
                self.model.config = replace(self.model.config, use_id_loss=True)
            else:
                self.model = TasTasModel.initialize(config.model_config(), seed=config.seed, dtype=np.float32)
                self.adam = AdamState.for_params(self.model.params)
            restart_halvings = 0
            self.epoch = 0
            self.epoch_in_restart = 0
            self.best_dev_loss = float("inf")
            self.worse_streak = 0
            self.rng = np.random.default_rng(config.seed)
        self.policy = LrPolicy(
            initial_lr=config.initial_lr,
            decay_factor=config.decay_factor,
            decay_every_epochs=config.decay_every_epochs,
            restart_halvings=restart_halvings,
        )

        if self.idnet is not None:
            self._target_embeddings = self._embed_targets(self.train_set)
            self._dev_target_embeddings = self._embed_targets(self.dev_set)

    def _embed_targets(self, examples: list[LoadedExample]) -> list[list[np.ndarray]]:
        """Speaker-network embedding of every reference source, per example."""
        with no_grad():
            return [
                [
                    np.asarray(self.idnet.embed_segments_graph(Tensor(t.astype(np.float32))).data, dtype=np.float32)
                    for t in ex.targets
                ]
                for ex in examples
            ]

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
        return outs, loss, breakdown, id_term

    def _dev_metrics(self) -> tuple[float, float]:
        losses, sisdris = [], []
        for i, ex in enumerate(self.dev_set):
            embeddings = self._dev_target_embeddings[i] if self.idnet is not None else None
            with no_grad():
                _, loss, breakdown, _ = self._example_loss(ex, embeddings)
            losses.append(float(loss.data))
            sisdris.append(objectives.si_sdri(ex.mixture, ex.targets, breakdown.per_stage_perms[-1]))
        return float(np.mean(losses)), float(np.mean(sisdris))

    # -- checkpointing --------------------------------------------------------

    def _extras(self) -> dict:
        return {
            "phase": self.config.phase,
            "epoch": self.epoch,
            "epoch_in_restart": self.epoch_in_restart,
            "restart_halvings": self.policy.restart_halvings,
            "best_dev_loss": self.best_dev_loss,
            "worse_streak": self.worse_streak,
            "rng_state": _rng_state_to_json(self.rng),
            "id_weight": self.config.id_weight,
        }

    def _save(self, name: str) -> Path:
        path = self.out_dir / name
        save_sep_checkpoint(path, self.model, self.adam, self._extras())
        return path

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
            epoch_start = time.perf_counter()
            lr = lr_for_epoch(self.policy, self.epoch_in_restart)
            order = self.rng.permutation(len(self.train_set))
            train_losses, id_terms, grad_norms = [], [], []
            for start in range(0, len(order), self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                self.model.params.zero_grads()
                scale = 1.0 / len(batch)
                for idx in batch:
                    ex = self.train_set[idx]
                    embeddings = self._target_embeddings[idx] if self.idnet is not None else None
                    _, loss, _, id_term = self._example_loss(ex, embeddings)
                    train_losses.append(float(loss.data))
                    id_terms.append(id_term)
                    loss.backward(seed=np.asarray(scale, dtype=loss.dtype))
                grads, norm = clip_global_norm(self.model.params.grads(), GRAD_CLIP)
                grad_norms.append(norm)
                self.model.params, self.adam = adam_step(self.model.params, grads, self.adam, lr)
            train_s = time.perf_counter() - epoch_start

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
                    train_loss=float(np.mean(train_losses)),
                    dev_loss=dev_loss,
                    dev_si_sdri=dev_si_sdri,
                    restarts=self.policy.restart_halvings,
                    epoch_s=time.perf_counter() - epoch_start,
                    examples_per_s=len(order) / train_s,
                    grad_norm_mean=float(np.mean(grad_norms)),
                    grad_norm_max=float(np.max(grad_norms)),
                    clip_rate=float(np.mean([n > GRAD_CLIP for n in grad_norms])),
                    id_loss=float(np.mean(id_terms)),
                )
            )

            action = restart_decision(
                self.worse_streak, self.config.patience, self.policy.restart_halvings, self.config.max_restarts
            )
            if action == RESTART:
                self._reload_best()
                self.policy = self.policy.halved()
                self.epoch_in_restart = 0
                self.worse_streak = 0
            # saved after the restart is applied, so a resume continues exactly
            self._save("last.ckpt")
            write_report(report_path, earlier + reports)
            if action == STOP:
                break

        if not reports:
            # no epoch ran (say, resuming a finished run): last.ckpt still names the state
            self._save("last.ckpt")
            write_report(report_path, earlier)
        return self.out_dir / "last.ckpt", reports


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
    net_config = IdNetConfig(
        # speaker ids index the classes, so every id from 0 to the largest needs one
        num_speakers=1 + max((speaker for _, speaker in corpus), default=-1),
        segment_s=config.idnet_segment_s,
        embedding_dim=config.idnet_embedding_dim,
    )
    net, report = train_idnet(
        corpus,
        net_config,
        seed=config.seed,
        epochs_max=config.epochs_max,
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "idnet.ckpt"
    save_idnet(path, net, extras={"best_accuracy": report.best_accuracy, "epochs": report.epochs_run})
    rows = report.rows()
    (out_dir / "idnet_report.tsv").write_text(
        report.HEADER + "\n" + "".join(r + "\n" for r in rows),
        encoding="utf-8",
    )
    return path, rows
