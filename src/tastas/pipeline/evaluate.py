"""Checkpoint evaluation over a test manifest.

Produces one tab-separated record per utterance plus mean/median summary
rows, including an oracle row from the ideal ratio mask when references
are available. Perceptual metric columns exist for table compatibility
but are marked unsupported.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import objectives
from ..audio.irm import irm_separate
from ..audio.wavio import Waveform
from ..errors import TasTasError
from ..idnet.model import IdNet
from ..numerics.sibling import usable_cpus
from ..sepnet.model import TasTasModel
from .data import LoadedExample, ManifestRecord, load_example

UNSUPPORTED = "unsupported"
REPORT_HEADER = "utt_id\tsi_sdri\tsdri\tperm\tid_loss\tpesq\testoi"


@dataclass
class UtteranceResult:
    utt_id: str
    si_sdri: float | None
    sdri: float | None
    perm: tuple[int, ...] | None
    id_loss: float | None
    error: str = ""

    def row(self) -> str:
        if self.error:
            return f"{self.utt_id}\tERROR\t{self.error}"
        id_part = f"{self.id_loss:.6f}" if self.id_loss is not None else "-"
        perm_part = ",".join(str(p) for p in self.perm)
        return (
            f"{self.utt_id}\t{self.si_sdri:.4f}\t{self.sdri:.4f}\t{perm_part}\t{id_part}"
            f"\t{UNSUPPORTED}\t{UNSUPPORTED}"
        )


@dataclass
class EvalSummary:
    results: list[UtteranceResult]
    irm_results: list[UtteranceResult]

    @staticmethod
    def _stat(results: list[UtteranceResult], metric: str, reduce) -> float:
        """`reduce` (np.mean or np.median) of one metric over the rows without an error; nan if none."""
        vals = [getattr(r, metric) for r in results if not r.error]
        return float(reduce(vals)) if vals else float("nan")

    def mean_si_sdri(self) -> float:
        return self._stat(self.results, "si_sdri", np.mean)

    def table(self, model_name: str) -> str:
        stat = self._stat
        lines = [REPORT_HEADER]
        lines += [r.row() for r in self.results]
        lines.append("")
        lines.append("summary\tsi_sdri\tsdri\tpesq\testoi")
        lines.append(
            f"{model_name} (mean)\t{self.mean_si_sdri():.4f}\t{stat(self.results, 'sdri', np.mean):.4f}"
            f"\t{UNSUPPORTED}\t{UNSUPPORTED}"
        )
        lines.append(
            f"{model_name} (median)\t{stat(self.results, 'si_sdri', np.median):.4f}\t-\t{UNSUPPORTED}\t{UNSUPPORTED}"
        )
        if self.irm_results:
            lines.append(
                f"irm-oracle (mean)\t{stat(self.irm_results, 'si_sdri', np.mean):.4f}"
                f"\t{stat(self.irm_results, 'sdri', np.mean):.4f}\t{UNSUPPORTED}\t{UNSUPPORTED}"
            )
        return "\n".join(lines) + "\n"


def _error_row(utt_id: str, exc: Exception) -> UtteranceResult:
    return UtteranceResult(utt_id, None, None, None, None, error=str(exc))


def _score(example: LoadedExample, separate, idnet: IdNet | None = None) -> UtteranceResult:
    """PIT-aligned SI-SDRi and SDRi of `separate()`'s estimates, plus the identity
    loss when a speaker network is given; a failure becomes an error row."""
    try:
        estimates = separate()
        _, perm_result = objectives.pit_loss(example.targets, estimates)
        perm = perm_result.perm
        id_val = None
        if idnet is not None:
            rate = example.sample_rate_hz
            est_emb = [idnet.embed_utterance(Waveform(e, rate)) for e in estimates]
            ref_emb = [idnet.embed_utterance(Waveform(t, rate)) for t in example.targets]
            id_val = objectives.id_loss(est_emb, ref_emb, perm)
        return UtteranceResult(
            utt_id=example.utt_id,
            si_sdri=objectives.si_sdri(example.mixture, example.targets, perm_result),
            sdri=objectives.sdri(example.mixture, example.targets, estimates, perm),
            perm=perm,
            id_loss=id_val,
        )
    except (TasTasError, OSError) as exc:
        return _error_row(example.utt_id, exc)


def _irm_estimates(example: LoadedExample) -> list[np.ndarray]:
    rate = example.sample_rate_hz
    refs = [Waveform(t, rate) for t in example.targets]
    return [w.samples for w in irm_separate(Waveform(example.mixture, rate), refs)]


def _eval_record(
    model: TasTasModel, record: ManifestRecord, include_irm: bool, idnet: IdNet | None
) -> list[UtteranceResult]:
    """The model's row, then the oracle's if asked for, from one read of the record."""
    try:
        example = load_example(record)
    except (TasTasError, OSError) as exc:
        return [_error_row(record.utt_id, exc) for _ in range(2 if include_irm else 1)]
    scored = [_score(example, lambda: model.separate(example.mixture), idnet)]
    if include_irm:
        scored.append(_score(example, lambda: _irm_estimates(example)))
    return scored


def evaluate(
    model: TasTasModel,
    records: list[ManifestRecord],
    include_irm: bool = True,
    idnet: IdNet | None = None,
) -> EvalSummary:
    """Deterministic metrics over a manifest; bad utterances become error rows.
    Records are scored on `usable_cpus()` threads, at most one per record."""
    workers = min(len(records), usable_cpus())

    def eval_record(record: ManifestRecord) -> list[UtteranceResult]:
        return _eval_record(model, record, include_irm, idnet)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(eval_record, records))
    else:
        rows = [eval_record(r) for r in records]
    return EvalSummary(results=[r[0] for r in rows], irm_results=[r[1] for r in rows if include_irm])


def write_eval_table(path, summary: EvalSummary, model_name: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(summary.table(model_name), encoding="utf-8")
