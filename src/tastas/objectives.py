"""Separation objectives and evaluation metrics.

SI-SDR comes in two flavors with identical math: a numpy version for
metrics and a graph version that is differentiable in the estimate. Both
mean-subtract first, project the target onto the estimate to absorb scale,
and regularize the error power with 1e-12 of the projected power, which
caps perfect reconstructions near 120 dB instead of dividing by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConfigError, DataError
from .numerics import ops
from .numerics.tensor import Tensor

_SILENCE_POWER = 1e-10
_EPS_FRACTION = 1e-12
_LOG10_SCALE = 10.0 / math.log(10.0)
MAX_SPEAKERS_EXHAUSTIVE = 4


def _as_samples(x) -> np.ndarray:
    samples = getattr(x, "samples", x)
    return np.asarray(samples, dtype=np.float64)


def si_sdr(target, estimate) -> float:
    """Scale-invariant SDR of the estimate against the target, in dB."""
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
    per_pair_si_sdr: np.ndarray
    mean_si_sdr: float


def _pair_matrix_values(targets, estimates) -> np.ndarray:
    n = len(targets)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = si_sdr(targets[j], estimates[i])
    return m


def _best_perm(value_matrix: np.ndarray) -> tuple[tuple[int, ...], float]:
    n = value_matrix.shape[0]
    best_perm, best_mean = None, -np.inf
    for perm in permutations(range(n)):
        mean = float(np.mean([value_matrix[i, perm[i]] for i in range(n)]))
        if mean > best_mean:
            best_perm, best_mean = perm, mean
    return best_perm, best_mean


def pit_permutation(targets, estimates) -> PermutationResult:
    """Assignment maximizing mean pairwise SI-SDR (exhaustive, utterance level)."""
    if len(targets) != len(estimates):
        raise DataError(f"cardinality mismatch: {len(targets)} targets vs {len(estimates)} estimates")
    if len(targets) > MAX_SPEAKERS_EXHAUSTIVE:
        raise ConfigError(f"exhaustive assignment search supports at most {MAX_SPEAKERS_EXHAUSTIVE} speakers")
    values = _pair_matrix_values(targets, estimates)
    perm, mean = _best_perm(values)
    per_pair = np.array([values[i, perm[i]] for i in range(len(targets))])
    return PermutationResult(perm=perm, per_pair_si_sdr=per_pair, mean_si_sdr=mean)


def pit_loss(targets, estimates) -> tuple[float, PermutationResult]:
    """Negative of the best mean pairwise SI-SDR (numpy path)."""
    result = pit_permutation(targets, estimates)
    return -result.mean_si_sdr, result


def pit_loss_graph(targets, estimates: list[Tensor]) -> tuple[Tensor, PermutationResult]:
    """Differentiable PIT loss; the permutation is chosen on values, the loss
    tensor is built only from the winning pairs."""
    if len(targets) != len(estimates):
        raise DataError(f"cardinality mismatch: {len(targets)} targets vs {len(estimates)} estimates")
    if len(targets) > MAX_SPEAKERS_EXHAUSTIVE:
        raise ConfigError(f"exhaustive assignment search supports at most {MAX_SPEAKERS_EXHAUSTIVE} speakers")
    n = len(targets)
    pair: dict[tuple[int, int], Tensor] = {}
    values = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            pair[(i, j)] = si_sdr_graph(targets[j], estimates[i])
            values[i, j] = float(pair[(i, j)].data)
    perm, mean = _best_perm(values)
    chosen = [pair[(i, perm[i])] for i in range(n)]
    total = chosen[0]
    for extra in chosen[1:]:
        total = ops.add(total, extra)
    loss = ops.neg(ops.mul(total, ops.const(1.0 / n, dtype=estimates[0].dtype)))
    per_pair = np.array([values[i, perm[i]] for i in range(n)])
    return loss, PermutationResult(perm=perm, per_pair_si_sdr=per_pair, mean_si_sdr=mean)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-stage PIT losses and assignments; total is their mean."""

    per_stage_neg_si_sdr: np.ndarray
    per_stage_perms: tuple[PermutationResult, ...]

    @property
    def total(self) -> float:
        return float(np.mean(self.per_stage_neg_si_sdr))


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


def id_loss(sep_embeddings, ref_embeddings, perm) -> float:
    """Mean over speakers of the mean squared embedding distance."""
    if len(sep_embeddings) != len(ref_embeddings):
        raise DataError("embedding set sizes differ")
    total = 0.0
    for i, emb in enumerate(sep_embeddings):
        a = np.asarray(getattr(emb, "values", emb), dtype=np.float64)
        b = np.asarray(getattr(ref_embeddings[perm[i]], "values", ref_embeddings[perm[i]]), dtype=np.float64)
        if a.shape != b.shape:
            raise DataError(f"embedding dims differ: {a.shape} vs {b.shape}")
        total += float(np.mean((a - b) ** 2))
    return total / len(sep_embeddings)


def id_loss_graph(sep_embeddings: list[Tensor], ref_embeddings, perm) -> Tensor:
    """Differentiable identity loss; references are constants."""
    if len(sep_embeddings) != len(ref_embeddings):
        raise DataError("embedding set sizes differ")
    n = len(sep_embeddings)
    total = None
    for i, emb in enumerate(sep_embeddings):
        ref = np.asarray(getattr(ref_embeddings[perm[i]], "values", ref_embeddings[perm[i]]))
        if ref.shape != emb.shape:
            raise DataError(f"embedding dims differ: {emb.shape} vs {ref.shape}")
        diff = ops.sub(emb, ops.const(ref, dtype=emb.dtype))
        mse = ops.tmean(ops.mul(diff, diff))
        total = mse if total is None else ops.add(total, mse)
    return ops.mul(total, ops.const(1.0 / n, dtype=total.dtype))


def si_sdri(mixture, targets, estimates, perm) -> float:
    """Mean SI-SDR of matched pairs minus the unprocessed-mixture baseline."""
    matched = float(np.mean([si_sdr(targets[perm[i]], estimates[i]) for i in range(len(estimates))]))
    baseline = float(np.mean([si_sdr(t, mixture) for t in targets]))
    return matched - baseline


def sdri(mixture, targets, estimates, perm) -> float:
    """Same improvement using the plain SNR-style SDR."""
    matched = float(np.mean([snr_sdr(targets[perm[i]], estimates[i]) for i in range(len(estimates))]))
    baseline = float(np.mean([snr_sdr(t, mixture) for t in targets]))
    return matched - baseline
