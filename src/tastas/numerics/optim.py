"""Named parameter sets, the Adam optimizer, and the learning-rate policy."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

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
    """One bias-corrected Adam update. Pure: returns fresh params and state."""
    if lr <= 0:
        raise ConfigError(f"adam_step: lr must be positive, got {lr}")
    for name in params.names():
        if name not in grads:
            raise ConfigError(f"adam_step: missing gradient for '{name}'")
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradientError(name)
    step = state.step + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, tensor in params.items():
        g = grads[name].astype(tensor.dtype, copy=False)
        if g.shape != tensor.shape:
            raise ConfigError(f"adam_step: gradient shape {g.shape} != param shape {tensor.shape} for '{name}'")
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        update = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_params[name] = Tensor(update.astype(tensor.dtype, copy=False))
        new_m[name] = m
        new_v[name] = v
    return ParamSet(new_params), replace(state, step=step, m=new_m, v=new_v)


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


@dataclass
class LrPolicy:
    """Decaying learning rate with halved restarts.

    Restart k begins at initial_lr / 2^k and decays by decay_factor every
    decay_every_epochs epochs (epoch counted from the restart).
    """

    initial_lr: float = 0.001
    decay_factor: float = 0.98
    decay_every_epochs: int = 2
    restart_halvings: int = 0

    def halved(self) -> "LrPolicy":
        return replace(self, restart_halvings=self.restart_halvings + 1)


def lr_for_epoch(policy: LrPolicy, epoch: int) -> float:
    if epoch < 0:
        raise ConfigError(f"lr_for_epoch: epoch must be >= 0, got {epoch}")
    base = policy.initial_lr / (2.0**policy.restart_halvings)
    return base * policy.decay_factor ** (epoch // policy.decay_every_epochs)
