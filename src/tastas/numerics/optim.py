"""Named parameter sets, the Adam optimizer and the global-norm gradient clip;
the caller passes the learning rate of each step."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NonFiniteGradientError
from .tensor import Tensor


class ParamSet:
    """Ordered map from parameter path to Tensor, all requiring grad."""

    def __init__(self, tensors: dict[str, Tensor] | None = None):
        self._tensors: dict[str, Tensor] = {}
        if tensors:
            for name, t in tensors.items():
                self.add(name, t)

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise ConfigError(f"duplicate parameter path '{name}'")
        tensor.requires_grad = True
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Current gradients; parameters untouched by backward count as zero."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._tensors.items()
        }

    def copy(self) -> "ParamSet":
        return ParamSet({n: Tensor(t.data.copy()) for n, t in self.items()})

    def checksum(self) -> int:
        """Order- and bit-sensitive digest of all parameter values."""
        import zlib

        crc = 0
        for name, t in self._tensors.items():
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
        return crc


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> Tensor:
    """uniform(-k, k) with k = 1/sqrt(fan_in); the default weight init."""
    k = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-k, k, size=shape).astype(dtype))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring a ParamSet."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_params(params: ParamSet, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return AdamState(
            step=0,
            m={n: np.zeros_like(t.data) for n, t in params.items()},
            v={n: np.zeros_like(t.data) for n, t in params.items()},
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(
    params: ParamSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update, in place: each parameter's array and
    both of its moments are overwritten, and the same params and state are
    returned. Every gradient is checked first (present, of its parameter's
    shape, finite), so a rejected step changes nothing."""
    if lr <= 0:
        raise ConfigError(f"adam_step: lr must be positive, got {lr}")
    for name, tensor in params.items():
        if name not in grads:
            raise ConfigError(f"adam_step: missing gradient for '{name}'")
        if grads[name].shape != tensor.shape:
            raise ConfigError(
                f"adam_step: gradient shape {grads[name].shape} != param shape {tensor.shape} for '{name}'"
            )
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradientError(name)
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    for name, tensor in params.items():
        g = grads[name].astype(tensor.dtype, copy=False)
        m, v = state.m[name], state.v[name]
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g^2, rounded as written
        m *= b1
        m += (1.0 - b1) * g
        g2 = g * g
        g2 *= 1.0 - b2
        v *= b2
        v += g2
        # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        update = np.divide(m, bias1)
        update *= lr
        denom = np.divide(v, bias2, out=g2)
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        tensor.data -= update
    return params, state


# the global-norm gradient clip of every training phase
GRAD_CLIP = 5.0


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {n: g * np.asarray(scale, dtype=g.dtype) for n, g in grads.items()}, norm
