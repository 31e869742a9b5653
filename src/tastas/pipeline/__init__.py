"""Training phases, checkpoint lifecycle, dataset synthesis, evaluation."""

from .config import TrainConfig, load_train_config
from .data import (
    LoadedExample,
    ManifestRecord,
    idnet_corpus_from_manifest,
    load_example,
    load_examples,
    read_manifest,
    synth_mixture_corpus,
    write_manifest,
)
from .evaluate import EvalSummary, evaluate, write_eval_table
from .train import (
    CONTINUE,
    RESTART,
    STOP,
    EpochReport,
    SepTrainer,
    load_sep_checkpoint,
    load_sep_model,
    restart_decision,
    run_phase,
    save_sep_checkpoint,
    train_idnet,
    write_report,
)

__all__ = [
    "TrainConfig",
    "load_train_config",
    "LoadedExample",
    "ManifestRecord",
    "idnet_corpus_from_manifest",
    "load_example",
    "load_examples",
    "read_manifest",
    "synth_mixture_corpus",
    "write_manifest",
    "EvalSummary",
    "evaluate",
    "write_eval_table",
    "CONTINUE",
    "RESTART",
    "STOP",
    "EpochReport",
    "SepTrainer",
    "load_sep_checkpoint",
    "load_sep_model",
    "restart_decision",
    "run_phase",
    "save_sep_checkpoint",
    "train_idnet",
    "write_report",
]
