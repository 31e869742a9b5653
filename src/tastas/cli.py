"""Command-line entry point.

Commands: synth-data, train-idnet, train-sep, finetune, separate, eval,
grad-check. Exit codes: 0 success, 1 usage error, 2 runtime error.

A training run reproduces bit for bit from its seed only at a fixed BLAS
thread count: OpenBLAS splits the weight-gradient products across its
threads, which changes their rounding. Set OPENBLAS_NUM_THREADS (or
OMP_NUM_THREADS) to pin it; every checkpoint records the setting under the
"blas_threads" key of its extras.

Pinning BLAS to one thread (OPENBLAS_NUM_THREADS=1) also lets `separate`
and `eval` use a second core: each BiLSTM half then runs its right-to-left
direction on a forked helper process, with the same output bytes.
Unpinned, they do not. TASTAS_THREADS sets how many threads `eval` scores
utterances on (unset, 0 or 1: serial, with the helper); its rows do not
depend on it, and its worker threads never use the helper. A value that
is not a non-negative integer exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, TasTasError
from .pipeline.config import TrainConfig, load_train_config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _train_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A training command. Each flag's dest is the TrainConfig field it sets;
    a flag left out is absent from the namespace, so the config file or the
    field's default holds."""
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default="", help="key=value file of TrainConfig fields; flags override it")
    p.add_argument("--train-manifest")
    p.add_argument("--out-dir")
    p.add_argument("--epochs-max", type=int)
    p.add_argument("--seed", type=int)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tastas", description="Multi-stage dual-path BiLSTM speech separation")
    parser.add_argument("--version", action="version", version=f"tastas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate a toy mixture corpus with manifests")
    p.add_argument("--speakers", type=int, default=8)
    p.add_argument("--utts-per", type=int, default=25, help="source utterances per speaker (train split)")
    p.add_argument("--dur", type=float, default=1.0, help="utterance duration, seconds")
    p.add_argument("--snr-lo", type=float, default=0.0)
    p.add_argument("--snr-hi", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train-mixes", type=int, default=0, help="override mixture count for the train split")
    p.add_argument("--dev-mixes", type=int, default=0)
    p.add_argument("--test-mixes", type=int, default=0)

    _train_parser(sub, "train-idnet", "train and freeze the speaker classifier (a class per manifest speaker id)")

    for name, phase in (("train-sep", "sep"), ("finetune", "finetune")):
        p = _train_parser(sub, name, f"run the {phase} training phase")
        p.add_argument("--dev-manifest")
        p.add_argument("--batch-size", type=int)
        p.add_argument("--initial-lr", type=float)
        p.add_argument("--resume", default="")
        if phase == "sep":
            p.add_argument("--model", help="preset such as tastas-6, tastas-6-6, tastas-8-9")
            p.add_argument("--num-filters", type=int)
            p.add_argument("--hidden-size", type=int)
            p.add_argument("--chunk-len", type=int)
        else:  # the architecture comes from --sep-ckpt
            p.add_argument("--sep-ckpt")
            p.add_argument("--idnet-ckpt")
            p.add_argument("--id-weight", type=float)

    p = sub.add_parser("separate", help="separate one mixture WAV with a trained model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a test manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-irm", action="store_true", help="skip the oracle mask reference row")
    p.add_argument("--idnet-ckpt", default="", help="include identity-loss column using this frozen network")

    p = sub.add_parser("grad-check", help="finite-difference verification of all primitives")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-model", action="store_true", help="primitives only, skip the end-to-end model check")
    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_synth_data(args) -> int:
    from .audio.synth import check_speaker
    from .pipeline.data import synth_mixture_corpus

    out = Path(args.out)
    if args.speakers < 2:
        print("error: --speakers must be at least 2", file=sys.stderr)
        return 1
    try:
        check_speaker(args.speakers - 1)
    except TasTasError as exc:
        print(f"error: --speakers {args.speakers}: {exc}", file=sys.stderr)
        return 1
    per_split = {
        "train": args.train_mixes or (args.speakers * args.utts_per) // 2,
        "dev": args.dev_mixes or max(2, (args.speakers * args.utts_per) // 16),
        "test": args.test_mixes or max(2, (args.speakers * args.utts_per) // 8),
    }
    for split, count in per_split.items():  # every count, before the first split is written
        if count < 0:
            raise DataError(f"the {split} split needs a mixture count >= 0, got {count}")
    for split, count in per_split.items():
        records = synth_mixture_corpus(
            out,
            split,
            num_mixtures=count,
            num_speakers=args.speakers,
            duration_s=args.dur,
            snr_lo=args.snr_lo,
            snr_hi=args.snr_hi,
            seed=args.seed,
        )
        print(f"{split}: {len(records)} mixtures -> {out / (split + '.tsv')}")
    return 0


def _load_config(args, phase: str) -> TrainConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)}
    overrides["phase"] = phase
    if args.config:
        return load_train_config(args.config, overrides)
    return TrainConfig(**overrides)


def _cmd_train(args, phase: str) -> int:
    from .pipeline.train import run_phase

    config = _load_config(args, phase)
    ckpt, rows = run_phase(config, resume_from=getattr(args, "resume", "") or None)
    print(f"{phase} phase complete: checkpoint at {ckpt} ({len(rows)} report rows)")
    return 0


def _cmd_separate(args) -> int:
    from .audio.wavio import Waveform, wav_read, wav_write
    from .pipeline.train import load_sep_model

    model = load_sep_model(args.ckpt)
    mixture = wav_read(args.input)
    estimates = model.separate(mixture.samples)
    out_dir = Path(args.out)
    for i, est in enumerate(estimates, start=1):
        path = out_dir / f"est{i}.wav"
        wav_write(path, Waveform(np.clip(est, -1.0, 1.0), mixture.sample_rate_hz))
        print(path)
    return 0


def _cmd_eval(args) -> int:
    from .idnet import load_idnet
    from .pipeline.data import read_manifest
    from .pipeline.evaluate import evaluate, write_eval_table
    from .pipeline.train import load_sep_model

    model = load_sep_model(args.ckpt)
    records = read_manifest(args.manifest)
    idnet = load_idnet(args.idnet_ckpt) if args.idnet_ckpt else None
    summary = evaluate(model, records, include_irm=not args.no_irm, idnet=idnet)
    write_eval_table(args.out, summary, model.config.describe())
    print(f"wrote {args.out}: mean SI-SDRi {summary.mean_si_sdri():+.2f} dB over {len(records)} utterances")
    return 0


def _cmd_grad_check(args) -> int:
    from .numerics.gradcheck import run_suite
    from .verify import tiny_model_check

    reports = run_suite(trials=args.trials, tolerance=args.tol, seed=args.seed)
    for report in reports:
        print(report.line())
    ok = all(report.passed for report in reports)
    if not args.skip_model:
        report = tiny_model_check(tolerance=max(args.tol, 1e-3), seed=args.seed)
        print(report.line())
        ok = ok and report.passed
    print("gradient suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth-data":
            return _cmd_synth_data(args)
        if args.command == "train-idnet":
            return _cmd_train(args, "idnet")
        if args.command == "train-sep":
            return _cmd_train(args, "sep")
        if args.command == "finetune":
            return _cmd_train(args, "finetune")
        if args.command == "separate":
            return _cmd_separate(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "grad-check":
            return _cmd_grad_check(args)
        return 1
    except TasTasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
