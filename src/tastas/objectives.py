"""Separation objectives and evaluation metrics.

Each quantity has one definition. `si_sdr_graph` is SI-SDR differentiable
in the estimate: it mean-subtracts both signals, projects the target onto
the estimate to absorb scale, and regularizes the error power with 1e-12
of the projected power, which caps perfect reconstructions near 120 dB
instead of dividing by zero. `si_sdr` is it run on a float64 copy of the
estimate without a graph. The exhaustive PIT search scores every
estimate-target pair with `si_sdr`; `pit_loss_graph` then records
`si_sdr_graph` for the n winning pairs alone, and `si_sdri` reads the
search's matched mean. The identity loss likewise has one definition,
`id_loss_graph`; `id_loss` is it run in float64 without a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .audio.wavio import SILENCE_POWER
from .errors import ConfigError, DataError
from .numerics import ops
from .numerics.tensor import Tensor, no_grad

_EPS_FRACTION = 1e-12
_LOG10_SCALE = 10.0 / math.log(10.0)
MAX_SPEAKERS_EXHAUSTIVE = 4


def si_sdr_graph(target, estimate: Tensor) -> Tensor:
    """Differentiable SI-SDR; gradient flows into the estimate only."""
    t = np.asarray(target, dtype=np.float64)
    if estimate.ndim != 1 or t.shape != estimate.shape:
        raise DataError(f"length mismatch: target {t.shape} vs estimate {estimate.shape}")
    t = t - t.mean()
    tt = float(t @ t)
    if tt / max(len(t), 1) <= SILENCE_POWER:
        raise DataError("silent target: SI-SDR undefined")
    t_const = ops.const(t, dtype=estimate.dtype)
    s = ops.sub(estimate, ops.tmean(estimate))
    scale = ops.mul(ops.tsum(ops.mul(t_const, s)), ops.const(1.0 / tt, dtype=estimate.dtype))
    projected_power = ops.mul(ops.mul(scale, scale), ops.const(tt, dtype=estimate.dtype))
    if float(projected_power.data) == 0.0:
        raise DataError("estimate has no projection onto the target: SI-SDR undefined")
    err = ops.sub(ops.mul(scale, t_const), s)
    err_power = ops.tsum(ops.mul(err, err))
    denom = ops.add(err_power, ops.mul(ops.const(_EPS_FRACTION, dtype=estimate.dtype), projected_power))
    return ops.mul(ops.log(ops.div(projected_power, denom)), ops.const(_LOG10_SCALE, dtype=estimate.dtype))


def si_sdr(target, estimate) -> float:
    """`si_sdr_graph` on a float64 copy of the estimate, recording no graph; in dB."""
    with no_grad():
        return float(si_sdr_graph(target, Tensor(estimate, dtype=np.float64)).data)


def snr_sdr(target, estimate) -> float:
    """Plain (scale-dependent) SDR: target power over error power, in dB."""
    t = np.asarray(target, dtype=np.float64)
    s = np.asarray(estimate, dtype=np.float64)
    if t.shape != s.shape:
        raise DataError(f"length mismatch: target {t.shape} vs estimate {s.shape}")
    tt = float(t @ t)
    if tt / max(len(t), 1) <= SILENCE_POWER:
        raise DataError("silent target: SDR undefined")
    err = t - s
    err_power = float(err @ err)
    return _LOG10_SCALE * math.log(tt / (err_power + _EPS_FRACTION * tt))


@dataclass(frozen=True)
class PermutationResult:
    """Best estimate-to-target assignment found by the exhaustive search."""

    perm: tuple[int, ...]
    mean_si_sdr: float


def pit_permutation(targets, estimates) -> PermutationResult:
    """Assignment maximizing mean pairwise SI-SDR (exhaustive, utterance level).

    Scores are `si_sdr` values in float64; on a tie the permutation that
    `itertools.permutations` yields first wins.
    """
    n = len(targets)
    if len(estimates) != n:
        raise DataError(f"cardinality mismatch: {n} targets vs {len(estimates)} estimates")
    if n > MAX_SPEAKERS_EXHAUSTIVE:
        raise ConfigError(f"exhaustive assignment search supports at most {MAX_SPEAKERS_EXHAUSTIVE} speakers")
    values = np.array([[si_sdr(t, e) for t in targets] for e in estimates])
    best_perm, best_mean = None, -np.inf
    for perm in permutations(range(n)):
        mean = float(np.mean([values[i, perm[i]] for i in range(n)]))
        if mean > best_mean:
            best_perm, best_mean = perm, mean
    return PermutationResult(perm=best_perm, mean_si_sdr=best_mean)


def pit_loss(targets, estimates) -> tuple[float, PermutationResult]:
    """Negative of the best mean pairwise SI-SDR, recording no graph."""
    result = pit_permutation(targets, estimates)
    return -result.mean_si_sdr, result


def _mean(terms: list[Tensor]) -> Tensor:
    """The mean of scalar loss tensors: added left to right, then scaled by 1/n."""
    total = terms[0]
    for term in terms[1:]:
        total = ops.add(total, term)
    return ops.mul(total, ops.const(1.0 / len(terms), dtype=total.dtype))


def pit_loss_graph(targets, estimates: list[Tensor]) -> tuple[Tensor, PermutationResult]:
    """Differentiable PIT loss: the permutation is chosen on the estimates'
    values, then only the n winning pairs are recorded."""
    result = pit_permutation(targets, [e.data for e in estimates])
    pairs = [si_sdr_graph(targets[result.perm[i]], estimate) for i, estimate in enumerate(estimates)]
    return ops.neg(_mean(pairs)), result


@dataclass(frozen=True)
class LossBreakdown:
    """Per-stage PIT losses and assignments; the loss tensor is their mean."""

    per_stage_neg_si_sdr: np.ndarray
    per_stage_perms: tuple[PermutationResult, ...]


def multi_stage_loss_graph(stage_outputs: list[list[Tensor]], targets) -> tuple[Tensor, LossBreakdown]:
    """Differentiable multi-stage PIT loss (identity term added by the caller)."""
    if not stage_outputs:
        raise DataError("no stage outputs")
    loss_tensors, losses, perms = [], [], []
    for estimates in stage_outputs:
        loss, perm = pit_loss_graph(targets, estimates)
        loss_tensors.append(loss)
        losses.append(float(loss.data))
        perms.append(perm)
    breakdown = LossBreakdown(per_stage_neg_si_sdr=np.array(losses), per_stage_perms=tuple(perms))
    return _mean(loss_tensors), breakdown


def id_loss_graph(sep_embeddings: list[Tensor], ref_embeddings, perm) -> Tensor:
    """Differentiable identity loss: mean over speakers of the mean squared
    distance to the matched reference embedding; references are constants."""
    if len(sep_embeddings) != len(ref_embeddings):
        raise DataError("embedding set sizes differ")
    mses = []
    for i, emb in enumerate(sep_embeddings):
        ref = np.asarray(ref_embeddings[perm[i]])
        if ref.shape != emb.shape:
            raise DataError(f"embedding dims differ: {emb.shape} vs {ref.shape}")
        diff = ops.sub(emb, ops.const(ref, dtype=emb.dtype))
        mses.append(ops.tmean(ops.mul(diff, diff)))
    return _mean(mses)


def id_loss(sep_embeddings, ref_embeddings, perm) -> float:
    """`id_loss_graph` on float64 copies of the embeddings, recording no graph."""
    with no_grad():
        sep = [Tensor(e, dtype=np.float64) for e in sep_embeddings]
        return float(id_loss_graph(sep, ref_embeddings, perm).data)


def si_sdri(mixture, targets, matched: PermutationResult) -> float:
    """SI-SDR improvement: the PIT search's matched mean SI-SDR minus the
    unprocessed mixture's mean SI-SDR against the same targets."""
    baseline = float(np.mean([si_sdr(t, mixture) for t in targets]))
    return matched.mean_si_sdr - baseline


def sdri(mixture, targets, estimates, perm) -> float:
    """Same improvement using the plain SNR-style SDR."""
    matched = float(np.mean([snr_sdr(targets[perm[i]], estimates[i]) for i in range(len(estimates))]))
    baseline = float(np.mean([snr_sdr(t, mixture) for t in targets]))
    return matched - baseline
