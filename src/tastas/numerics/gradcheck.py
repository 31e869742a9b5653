"""Central finite-difference verification of every differentiable primitive.

For each op kind the suite builds small random instances, reduces the op
output to a scalar through a fixed random projection, and compares the
analytic gradient of every input element against (f(x+h) - f(x-h)) / 2h.
Relative error uses a 1e-4 floor in the denominator so elements whose true
gradient is tiny are judged on absolute agreement.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ops
from .tensor import Tensor, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-4, abs(analytic), abs(numeric))


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


@dataclass
class SuiteReport:
    tolerance: float
    kinds: dict[str, KindReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.kinds.values())

    def lines(self) -> list[str]:
        return [self.kinds[kind].line() for kind in sorted(self.kinds)]


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
    """Max relative error between analytic and numeric grads for one instance."""
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
        for j in range(a.size):
            err = relative_error(float(a.reshape(-1)[j]), float(n.reshape(-1)[j]))
            if err > worst:
                worst = err
                detail = (
                    f"input {i} elem {j}: analytic={float(a.reshape(-1)[j]):.6e} "
                    f"numeric={float(n.reshape(-1)[j]):.6e}"
                )
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


def _build_sqrt(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(6,)))
    return [x], lambda ts: ops.sqrt(ts[0])


def _build_prelu(rng):
    # |x| >= 0.01 keeps every +-step difference on one side of the kink at 0;
    # the random sign still exercises both slopes
    sign = np.where(rng.uniform(size=(3, 5)) < 0.5, -1.0, 1.0)
    x = Tensor(rng.uniform(0.01, 1.0, size=(3, 5)) * sign)
    slope = Tensor(rng.uniform(0.1, 0.5, size=(1,)))
    return [x, slope], lambda ts: ops.prelu(ts[0], ts[1])


def _build_linear(rng):
    w = _u(rng, 4, 3)
    x = _u(rng, 3, 5)
    return [w, x], lambda ts: ops.linear(ts[0], ts[1])


def _build_conv1d(rng):
    x = _u(rng, 2, 14)
    w = _u(rng, 3, 2, 4)
    return [x, w], lambda ts: ops.conv1d(ts[0], ts[1], stride=2)


def _build_conv2d(rng):
    x = _u(rng, 2, 5, 6)
    w = _u(rng, 3, 2, 3, 3)
    return [x, w], lambda ts: ops.conv2d(ts[0], ts[1], padding=1)


def _build_conv2d_frozen_weight(rng):
    # the weight is a constant, as in the frozen speaker network: only the
    # input-gradient branch runs, and the node keeps no im2col
    x = _u(rng, 2, 5, 6)
    w = _u(rng, 3, 2, 3, 3)
    return [x], lambda ts: ops.conv2d(ts[0], w, padding=1)


def _build_max_pool2d(rng):
    # distinct values 2/59 apart (plus jitter under a third of that), so no
    # +-step perturbation can flip the argmax of a pooling window
    grid = np.linspace(-1.0, 1.0, 60) + rng.uniform(0.0, 0.01, size=60)
    x = Tensor(rng.permutation(grid).reshape(2, 5, 6))
    return [x], lambda ts: ops.max_pool2d(ts[0], 2)


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


def _build_layer_norm(rng):
    x, gain, bias = _u(rng, 3, 4, 2), _u(rng, 3, 1, 1), _u(rng, 3, 1, 1)
    return [x, gain, bias], lambda ts: ops.layer_norm(ts[0], (0, 1), ts[1], ts[2])


def _build_softmax(rng):
    x = _u(rng, 3, 4, lo=-2.0, hi=2.0)
    return [x], lambda ts: ops.softmax(ts[0], axis=0)


def _build_log_softmax(rng):
    x = _u(rng, 2, 5, lo=-2.0, hi=2.0)
    return [x], lambda ts: ops.log_softmax(ts[0], axis=1)


def _build_softmax_logloss(rng):
    x = _u(rng, 6, lo=-2.0, hi=2.0)
    label = int(rng.integers(0, 6))
    return [x], lambda ts: ops.neg(ops.getitem(ops.log_softmax(ts[0], axis=0), (label,)))


def _build_concat(rng):
    a, b, c = _u(rng, 2, 3), _u(rng, 2, 2), _u(rng, 2, 4)
    return [a, b, c], lambda ts: ops.concat(list(ts), axis=1)


def _build_reshape(rng):
    x = _u(rng, 3, 4)
    return [x], lambda ts: ops.reshape(ts[0], (2, 6))


def _build_slice(rng):
    x = _u(rng, 4, 6)
    return [x], lambda ts: ops.getitem(ts[0], (slice(1, 3), slice(None, None, 2)))


def _build_segment_chunks(rng):
    x = _u(rng, 3, 11)
    return [x], lambda ts: ops.segment_chunks(ts[0], chunk_len=4, hop=2)[0]


def _build_merge_chunks(rng):
    x = _u(rng, 2, 4, 5)
    # layout: padded = 4 + 4*2 = 12, claim 11 real frames + 1 pad
    return [x], lambda ts: ops.merge_chunks(ts[0], hop=2, out_frames=11, pad_frames=1)


def _build_overlap_add(rng):
    x = _u(rng, 4, 5)
    return [x], lambda ts: ops.overlap_add(ts[0], stride=2, out_len=12)


def _build_stft(rng):
    x = _u(rng, 18)
    window = np.hanning(9)[:8]  # periodic Hann, length 8

    def forward(ts):
        return ops.stft_ri(ts[0], window, hop=2)

    return [x], forward


BUILDERS: dict[str, Builder] = {
    "add": _build_add,
    "sub": _build_sub,
    "elementwise_mul": _build_elementwise_mul,
    "div": _build_div,
    "neg": _build_neg,
    "sum": _build_sum,
    "mean": _build_mean,
    "log": _build_log,
    "sqrt": _build_sqrt,
    "prelu": _build_prelu,
    "linear": _build_linear,
    "conv1d": _build_conv1d,
    "conv2d": _build_conv2d,
    "conv2d_frozen_weight": _build_conv2d_frozen_weight,
    "max_pool2d": _build_max_pool2d,
    "bilstm_layer": _build_bilstm_layer,
    "layer_norm": _build_layer_norm,
    "softmax": _build_softmax,
    "log_softmax": _build_log_softmax,
    "softmax_logloss": _build_softmax_logloss,
    "concat": _build_concat,
    "reshape": _build_reshape,
    "slice": _build_slice,
    "segment_chunks": _build_segment_chunks,
    "merge_chunks": _build_merge_chunks,
    "overlap_add": _build_overlap_add,
    "stft": _build_stft,
}


def check_kind(
    kind: str,
    trials: int = 20,
    tolerance: float = DEFAULT_TOL,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> KindReport:
    if kind not in BUILDERS:
        raise KeyError(f"unknown op kind '{kind}'")
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
) -> SuiteReport:
    suite = SuiteReport(tolerance=tolerance)
    for kind in kinds or sorted(BUILDERS):
        suite.kinds[kind] = check_kind(kind, trials=trials, tolerance=tolerance, seed=seed)
    return suite
