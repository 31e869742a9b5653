"""Whole-model gradient verification.

Builds a deliberately tiny separator and runs the op suite's central
finite-difference check (``gradcheck.check_case``) on the full training
loss, with every parameter tensor as an input. Slow by design (two
forwards per element), so the config is kept at a few hundred parameters.
"""

from __future__ import annotations

import numpy as np

from . import objectives
from .numerics.gradcheck import DEFAULT_STEP, KindReport, check_case
from .numerics.optim import ParamSet
from .sepnet import ModelConfig, TasTasModel

TINY_CONFIG = ModelConfig(stage_blocks=(1,), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)
TINY_SAMPLES = 328  # 40 encoder frames at kernel 16 / stride 8


def tiny_model_check(
    tolerance: float = 1e-3,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    config: ModelConfig = TINY_CONFIG,
    num_samples: int = TINY_SAMPLES,
) -> KindReport:
    """Finite-difference check of d(loss)/d(theta) through the whole pipeline."""
    rng = np.random.default_rng(seed)
    params = TasTasModel.initialize(config, seed=seed, dtype=np.float64).params
    mixture = rng.uniform(-0.5, 0.5, num_samples)
    targets = [rng.uniform(-0.5, 0.5, num_samples) for _ in range(config.num_speakers)]
    names = params.names()

    def loss(tensors):
        model = TasTasModel(config, ParamSet(dict(zip(names, tensors))))
        return objectives.multi_stage_loss_graph(model.forward(mixture), targets)[0]

    err, detail = check_case(loss, [params[n] for n in names], rng, step)
    return KindReport("full-model", trials=1, tolerance=tolerance, max_rel_err=err, worst_detail=detail)
