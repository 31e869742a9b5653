"""Separation objectives and evaluation metrics.

Each quantity is computed once. The numpy `si_sdr` scores every
estimate-target pair for the exhaustive PIT search, which runs on values
only; `pit_loss_graph` then records `si_sdr_graph`, the same math
differentiable in the estimate, for the n winning pairs alone, and
`si_sdri` reads the search's matched mean. Both SI-SDR versions
mean-subtract first, project the target onto the estimate to absorb scale,
and regularize the error power with 1e-12 of the projected power, which
caps perfect reconstructions near 120 dB instead of dividing by zero. The
identity loss has one definition, `id_loss_graph`; `id_loss` is it run in
float64 without a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConfigError, DataError
from .numerics import ops
from .numerics.tensor import Tensor, no_grad

_SILENCE_POWER = 1e-10
_EPS_FRACTION = 1e-12
_LOG10_SCALE = 10.0 / math.log(10.0)
MAX_SPEAKERS_EXHAUSTIVE = 4


def _as_samples(x) -> np.ndarray:
    samples = getattr(x, "samples", x)
    return np.asarray(samples, dtype=np.float64)


def si_sdr(target, estimate) -> float:
    """Scale-invariant SDR of the estimate against the target, in dB; a DataError where undefined."""
    t = _as_samples(target)
    s = _as_samples(estimate)
    if t.shape != s.shape:
        raise DataError(f"length mismatch: target {t.shape} vs estimate {s.shape}")
    t = t - t.mean()
    s = s - s.mean()
    tt = float(t @ t)
    if tt / max(len(t), 1) <= _SILENCE_POWER:
        raise DataError("silent target: SI-SDR undefined")
    scale = float(t @ s) / tt
    projected_power = scale * scale * tt
    if projected_power == 0.0:
        raise DataError("estimate has no projection onto the target: SI-SDR undefined")
    err = scale * t - s
    err_power = float(err @ err)
    return _LOG10_SCALE * math.log(projected_power / (err_power + _EPS_FRACTION * projected_power))


def si_sdr_graph(target, estimate: Tensor) -> Tensor:
    """Differentiable SI-SDR; gradient flows into the estimate only."""
    t = _as_samples(target)
    if estimate.ndim != 1 or t.shape != estimate.shape:
        raise DataError(f"length mismatch: target {t.shape} vs estimate {estimate.shape}")
    t = t - t.mean()
    tt = float(t @ t)
    if tt / max(len(t), 1) <= _SILENCE_POWER:
        raise DataError("silent target: SI-SDR undefined")
    t_const = ops.const(t, dtype=estimate.dtype)
    s = ops.sub(estimate, ops.tmean(estimate))
    scale = ops.mul(ops.tsum(ops.mul(t_const, s)), ops.const(1.0 / tt, dtype=estimate.dtype))
    projected_power = ops.mul(ops.mul(scale, scale), ops.const(tt, dtype=estimate.dtype))
    err = ops.sub(ops.mul(scale, t_const), s)
    err_power = ops.tsum(ops.mul(err, err))
    denom = ops.add(err_power, ops.mul(ops.const(_EPS_FRACTION, dtype=estimate.dtype), projected_power))
    return ops.mul(ops.log(ops.div(projected_power, denom)), ops.const(_LOG10_SCALE, dtype=estimate.dtype))


def snr_sdr(target, estimate) -> float:
    """Plain (scale-dependent) SDR: target power over error power, in dB."""
    t = _as_samples(target)
    s = _as_samples(estimate)
    if t.shape != s.shape:
        raise DataError(f"length mismatch: target {t.shape} vs estimate {s.shape}")
    tt = float(t @ t)
    if tt / max(len(t), 1) <= _SILENCE_POWER:
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

    Scores are numpy values in float64; on a tie the permutation that
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
    """Negative of the best mean pairwise SI-SDR (numpy path)."""
    result = pit_permutation(targets, estimates)
    return -result.mean_si_sdr, result


def pit_loss_graph(targets, estimates: list[Tensor]) -> tuple[Tensor, PermutationResult]:
    """Differentiable PIT loss: the permutation is chosen on the estimates'
    values, then only the n winning pairs are recorded."""
    result = pit_permutation(targets, [e.data for e in estimates])
    total = None
    for i, estimate in enumerate(estimates):
        pair = si_sdr_graph(targets[result.perm[i]], estimate)
        total = pair if total is None else ops.add(total, pair)
    loss = ops.neg(ops.mul(total, ops.const(1.0 / len(estimates), dtype=total.dtype)))
    return loss, result


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
    total = loss_tensors[0]
    for extra in loss_tensors[1:]:
        total = ops.add(total, extra)
    total = ops.mul(total, ops.const(1.0 / len(loss_tensors), dtype=total.dtype))
    breakdown = LossBreakdown(per_stage_neg_si_sdr=np.array(losses), per_stage_perms=tuple(perms))
    return total, breakdown


def id_loss_graph(sep_embeddings: list[Tensor], ref_embeddings, perm) -> Tensor:
    """Differentiable identity loss: mean over speakers of the mean squared
    distance to the matched reference embedding; references are constants."""
    if len(sep_embeddings) != len(ref_embeddings):
        raise DataError("embedding set sizes differ")
    n = len(sep_embeddings)
    total = None
    for i, emb in enumerate(sep_embeddings):
        ref = np.asarray(ref_embeddings[perm[i]])
        if ref.shape != emb.shape:
            raise DataError(f"embedding dims differ: {emb.shape} vs {ref.shape}")
        diff = ops.sub(emb, ops.const(ref, dtype=emb.dtype))
        mse = ops.tmean(ops.mul(diff, diff))
        total = mse if total is None else ops.add(total, mse)
    return ops.mul(total, ops.const(1.0 / n, dtype=total.dtype))


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
