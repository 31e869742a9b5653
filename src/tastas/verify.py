"""Whole-model gradient verification.

Builds a deliberately tiny separator, runs the full training loss, and
compares the analytic gradient of every parameter element against central
finite differences. Slow by design (two forwards per element), so the
config is kept at a few hundred parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objectives
from .numerics.gradcheck import relative_error
from .numerics.optim import ParamSet
from .numerics.tensor import no_grad
from .sepnet import ModelConfig, TasTasModel

TINY_CONFIG = ModelConfig(stage_blocks=(1,), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)
TINY_SAMPLES = 328  # 40 encoder frames at kernel 16 / stride 8


@dataclass
class ModelCheckReport:
    max_rel_err: float
    worst_param: str
    param_count: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def tiny_model_check(
    tolerance: float = 1e-3,
    seed: int = 0,
    step: float = 1e-5,
    config: ModelConfig = TINY_CONFIG,
    num_samples: int = TINY_SAMPLES,
) -> ModelCheckReport:
    """Finite-difference check of d(loss)/d(theta) through the whole pipeline."""
    rng = np.random.default_rng(seed)
    model = TasTasModel.initialize(config, seed=seed, dtype=np.float64)
    mixture = rng.uniform(-0.5, 0.5, num_samples)
    targets = [rng.uniform(-0.5, 0.5, num_samples) for _ in range(config.num_speakers)]

    def loss_value(params: ParamSet) -> float:
        probe = TasTasModel(config, params, dtype=np.float64)
        with no_grad():
            total, _ = objectives.multi_stage_loss_graph(probe.forward(mixture), targets)
        return float(total.data)

    loss, _ = objectives.multi_stage_loss_graph(model.forward(mixture), targets)
    loss.backward()
    analytic = model.params.grads()

    worst, worst_param = 0.0, ""
    for name, tensor in model.params.items():
        flat_a = analytic[name].reshape(-1)
        for j in range(tensor.size):
            base = tensor.data.reshape(-1)[j]
            plus = model.params.copy()
            minus = model.params.copy()
            plus[name].data.reshape(-1)[j] = base + step
            minus[name].data.reshape(-1)[j] = base - step
            numeric = (loss_value(plus) - loss_value(minus)) / (2.0 * step)
            err = relative_error(float(flat_a[j]), numeric)
            if err > worst:
                worst, worst_param = err, f"{name}[{j}]"
    return ModelCheckReport(
        max_rel_err=worst,
        worst_param=worst_param,
        param_count=model.params.num_values(),
        tolerance=tolerance,
    )
