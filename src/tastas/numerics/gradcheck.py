"""Central finite-difference verification of every differentiable primitive.

For each op kind the suite builds small random instances, reduces the op
output to a scalar through a fixed random projection, and compares the
analytic gradient of every input element against (f(x+h) - f(x-h)) / 2h.
Relative error uses a 1e-4 floor in the denominator so elements whose true
gradient is tiny are judged on absolute agreement; a non-finite error counts
as infinite, so a NaN gradient fails its kind.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError
from . import ops
from .tensor import Tensor, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class KindReport:
    kind: str
    trials: int
    tolerance: float
    max_rel_err: float = 0.0
    worst_detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (
            f"{mark}  {self.kind:<18} max_rel_err={self.max_rel_err:.3e}  ({self.trials} trials)"
            + (f"  worst: {self.worst_detail}" if not self.passed else "")
        )


def numeric_gradients(
    forward: Callable[[list[Tensor]], Tensor],
    inputs: list[Tensor],
    proj: np.ndarray,
    step: float = DEFAULT_STEP,
) -> list[np.ndarray]:
    """Central finite differences of sum(forward(inputs) * proj) per input element."""

    def value(tensors: list[Tensor]) -> float:
        with no_grad():  # forwards that wrap inputs as parameters would otherwise record graphs
            out = forward(tensors)
        return float(np.sum(out.data * proj))

    grads = []
    for i, base in enumerate(inputs):
        g = np.zeros_like(base.data)
        flat = g.reshape(-1)
        for j in range(base.size):
            plus = [Tensor(t.data.copy()) for t in inputs]
            minus = [Tensor(t.data.copy()) for t in inputs]
            plus[i].data.reshape(-1)[j] += step
            minus[i].data.reshape(-1)[j] -= step
            flat[j] = (value(plus) - value(minus)) / (2.0 * step)
        grads.append(g)
    return grads


def check_case(
    forward: Callable[[list[Tensor]], Tensor],
    inputs: list[Tensor],
    rng: np.random.Generator,
    step: float = DEFAULT_STEP,
) -> tuple[float, str]:
    """Max relative error between analytic and numeric grads for one instance,
    and a note naming its first worst element."""
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = forward(inputs)
    proj = rng.standard_normal(out.shape)
    loss = ops.tsum(ops.mul(out, ops.const(proj, dtype=out.dtype)))
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]
    numeric = numeric_gradients(forward, [t.detach() for t in inputs], proj, step)
    worst = 0.0
    detail = ""
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        a, n = (np.asarray(g, dtype=np.float64).reshape(-1) for g in (a, n))
        with np.errstate(all="ignore"):  # inf - inf and the like are caught just below
            err = np.abs(a - n) / np.maximum(np.maximum(1e-4, np.abs(a)), np.abs(n))
        err[~np.isfinite(err)] = np.inf
        if err.size and err.max() > worst:
            j = int(np.argmax(err))
            worst = float(err[j])
            detail = f"input {i} elem {j}: analytic={a[j]:.6e} numeric={n[j]:.6e}"
    return worst, detail


# ---------------------------------------------------------------------------
# case builders, one per op kind
# ---------------------------------------------------------------------------

Builder = Callable[[np.random.Generator], tuple[list[Tensor], Callable[[list[Tensor]], Tensor]]]


def _u(rng: np.random.Generator, *shape: int, lo: float = -1.0, hi: float = 1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape))


def _build_add(rng):
    a, b = _u(rng, 3, 4), _u(rng, 3, 4)
    return [a, b], lambda ts: ops.add(ts[0], ts[1])


def _build_sub(rng):
    a, b = _u(rng, 3, 4), _u(rng, 1, 4)
    return [a, b], lambda ts: ops.sub(ts[0], ts[1])


def _build_elementwise_mul(rng):
    a, b = _u(rng, 2, 5), _u(rng, 2, 5)
    return [a, b], lambda ts: ops.mul(ts[0], ts[1])


def _build_div(rng):
    a = _u(rng, 2, 4)
    sign = np.where(rng.uniform(size=(2, 4)) < 0.5, -1.0, 1.0)
    b = Tensor(rng.uniform(0.5, 1.5, size=(2, 4)) * sign)
    return [a, b], lambda ts: ops.div(ts[0], ts[1])


def _build_neg(rng):
    x = _u(rng, 5)
    return [x], lambda ts: ops.neg(ts[0])


def _build_sum(rng):
    x = _u(rng, 3, 4)
    return [x], lambda ts: ops.tsum(ts[0], axis=1)


def _build_mean(rng):
    x = _u(rng, 3, 4)
    return [x], lambda ts: ops.tmean(ts[0], axis=0, keepdims=True)


def _build_log(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(6,)))
    return [x], lambda ts: ops.log(ts[0])


def _build_linear(rng):
    w = _u(rng, 4, 3)
    x = _u(rng, 3, 5)
    return [w, x], lambda ts: ops.linear(ts[0], ts[1])


def _conv_block_case(rng):
    """x (2, 5, 6), weight (3, 2, 3, 3) and slope (1,) whose pooled conv
    outputs all lie at least 0.01 from PReLU's kink at 0 and whose pool
    windows all lead by at least 0.01, so no +-step perturbation crosses
    the kink or flips a window's winner; drawn again until both hold."""
    while True:
        x, w = _u(rng, 2, 5, 6), _u(rng, 3, 2, 3, 3)
        slope = rng.uniform(0.1, 0.5, size=(1,))
        windows = _conv_windows(x.data, w.data)
        act = np.sort(np.where(windows > 0, windows, slope * windows), axis=-1)
        if np.min(np.abs(windows)) >= 0.01 and np.min(act[..., -1] - act[..., -2]) >= 0.01:
            return x, w, Tensor(slope)


def _conv_windows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The 2x2 pool windows (C_out, H//2, W//2, 4) of the padded convolution of x by w."""
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    conv = np.tensordot(w, windows, axes=([1, 2, 3], [0, 3, 4]))
    h, wd = conv.shape[1] // 2, conv.shape[2] // 2
    return conv[:, : 2 * h, : 2 * wd].reshape(c_out, h, 2, wd, 2).transpose(0, 1, 3, 2, 4).reshape(c_out, h, wd, 4)


def _build_conv_block(rng):
    x, w, slope = _conv_block_case(rng)
    return [x, w, slope], lambda ts: ops.conv_block(ts[0], ts[1], ts[2])


def _build_conv_block_frozen(rng):
    # the weight and slope are constants, as in the frozen speaker network:
    # only the input-gradient branch runs, and the node keeps no im2col
    x, w, slope = _conv_block_case(rng)
    return [x], lambda ts: ops.conv_block(ts[0], w, slope)


def _build_bilstm_layer(rng):
    # a whole dual-path block: the intra-chunk half (axis 1) feeds the
    # inter-chunk half (axis 2), so each trial checks both recurrence axes and
    # the gain, bias and residual paths of both norms
    features, positions, chunks, hidden = 3, 4, 3, 3
    x = _u(rng, features, positions, chunks)
    halves = []
    for _ in range(2):
        halves += [
            _u(rng, 4 * hidden, features),
            _u(rng, 4 * hidden, hidden),
            _u(rng, 4 * hidden),
            _u(rng, 4 * hidden, features),
            _u(rng, 4 * hidden, hidden),
            _u(rng, 4 * hidden),
            _u(rng, features, 2 * hidden),
            _u(rng, features, 1, 1, lo=0.5, hi=1.5),
            _u(rng, features, 1, 1),
        ]

    def forward(ts):
        return ops.bilstm_layer(ops.bilstm_layer(ts[0], 1, *ts[1:10]), 2, *ts[10:])

    return [x, *halves], forward


def _build_log_softmax(rng):
    x = _u(rng, 2, 5, lo=-2.0, hi=2.0)
    return [x], lambda ts: ops.log_softmax(ts[0], axis=1)


def _build_softmax_logloss(rng):
    x = _u(rng, 6, lo=-2.0, hi=2.0)
    label = int(rng.integers(0, 6))
    return [x], lambda ts: ops.neg(ops.getitem(ops.log_softmax(ts[0], axis=0), (label,)))


def _build_slice(rng):
    x = _u(rng, 4, 6)
    return [x], lambda ts: ops.getitem(ts[0], (slice(1, 3), slice(None, None, 2)))


def _build_encode(rng):
    # stage two's three waves; redrawn until every convolution output lies
    # 0.01 from PReLU's kink, so no +-step perturbation crosses it
    while True:
        waves = [_u(rng, 14) for _ in range(3)]
        weight, slope = _u(rng, 3, 1, 4), Tensor(rng.uniform(0.1, 0.5, size=(1,)))
        if min(np.min(np.abs(ops._encode_conv(w.data, weight.data, 2))) for w in waves) >= 0.01:
            return [*waves, weight, slope], lambda ts: ops.encode(ts[:3], ts[3], ts[4], stride=2)


def _build_mask_input(rng):
    # rep of 7 frames: padded to 8 and cut into three chunks of 4 every 2
    rep, gain, bias, weight = _u(rng, 4, 7), _u(rng, 4, 1, lo=0.5, hi=1.5), _u(rng, 4, 1), _u(rng, 2, 4)
    return [rep, gain, bias, weight], lambda ts: ops.mask_input(*ts, chunk_len=4, hop=2)


def _build_mask_decode(rng):
    # three chunks of 4 every 2 merge to rep's 7 frames; 2 speakers mask the
    # mixture's 2 channels of a 4-channel rep, and 4-sample frames every 2
    # samples overlap-add to 15, one sample short of their natural length
    chunks, mask_weight, rep, decoder = _u(rng, 2, 4, 3), _u(rng, 4, 2), _u(rng, 4, 7), _u(rng, 4, 2)
    return [chunks, mask_weight, rep, decoder], lambda ts: ops.mask_decode(*ts, hop=2, stride=2, out_len=15)


def _build_log_spectrum(rng):
    # 14 samples zero-padded to 18, a periodic Hann window of 8 every 2 samples
    x = _u(rng, 14)
    window = np.hanning(9)[:8]
    return [x], lambda ts: ops.log_spectrum(ts[0], window, hop=2, length=18)


BUILDERS: dict[str, Builder] = {
    "add": _build_add,
    "sub": _build_sub,
    "elementwise_mul": _build_elementwise_mul,
    "div": _build_div,
    "neg": _build_neg,
    "sum": _build_sum,
    "mean": _build_mean,
    "log": _build_log,
    "log_spectrum": _build_log_spectrum,
    "linear": _build_linear,
    "conv_block": _build_conv_block,
    "conv_block_frozen": _build_conv_block_frozen,
    "bilstm_layer": _build_bilstm_layer,
    "log_softmax": _build_log_softmax,
    "softmax_logloss": _build_softmax_logloss,
    "slice": _build_slice,
    "encode": _build_encode,
    "mask_input": _build_mask_input,
    "mask_decode": _build_mask_decode,
}


def check_tolerance(tolerance: float) -> None:
    """Raise a ConfigError unless tolerance is finite and > 0: against any
    other a check passes or fails whatever the gradients are."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and > 0, got {tolerance}")


def check_kind(
    kind: str,
    trials: int = 20,
    tolerance: float = DEFAULT_TOL,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> KindReport:
    if kind not in BUILDERS:
        raise KeyError(f"unknown op kind '{kind}'")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    check_tolerance(tolerance)
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng([seed, zlib.crc32(kind.encode())])
    report = KindReport(kind=kind, trials=trials, tolerance=tolerance)
    for _ in range(trials):
        inputs, forward = BUILDERS[kind](rng)
        err, detail = check_case(forward, inputs, rng, step)
        if err > report.max_rel_err:
            report.max_rel_err = err
            report.worst_detail = detail
    return report


def run_suite(
    kinds: list[str] | None = None,
    trials: int = 20,
    tolerance: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[KindReport]:
    """One report per kind (all by default), in name order."""
    return [check_kind(kind, trials=trials, tolerance=tolerance, seed=seed) for kind in sorted(kinds or BUILDERS)]
