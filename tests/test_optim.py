import numpy as np
import pytest

from tastas.errors import ConfigError, NonFiniteGradientError
from tastas.numerics.optim import AdamState, ParamSet, adam_step, clip_global_norm
from tastas.numerics.tensor import Tensor
from tastas.pipeline import TrainConfig


def _params(values):
    return ParamSet({name: Tensor(np.asarray(v, dtype=np.float64)) for name, v in values.items()})


def test_zero_gradients_leave_params_unchanged():
    params = _params({"w": [1.0, -2.0], "b": [0.5]})
    state = AdamState.for_params(params)
    grads = {"w": np.zeros(2), "b": np.zeros(1)}
    new_params, new_state = adam_step(params, grads, state, lr=0.001)
    assert np.array_equal(new_params["w"].data, params["w"].data)
    assert np.array_equal(new_params["b"].data, params["b"].data)
    assert new_state.step == 1


def test_first_step_matches_signed_lr():
    params = _params({"w": [0.0]})
    state = AdamState.for_params(params)
    new_params, _ = adam_step(params, {"w": np.array([0.5])}, state, lr=0.001)
    delta = float(new_params["w"].data[0])
    # bias-corrected m=g, v=g*g, so the step is -lr * g/(|g| + eps) ~ -lr
    assert delta == pytest.approx(-0.001, abs=1e-9)


def test_adam_deterministic_across_reruns():
    def run():
        params = _params({"w": np.linspace(-1, 1, 7)})
        state = AdamState.for_params(params)
        g = np.arange(7.0) / 7.0
        for _ in range(2):
            params, state = adam_step(params, {"w": g}, state, lr=0.01)
        return params["w"].data

    assert np.array_equal(run(), run())


def test_non_finite_gradient_names_parameter():
    params = _params({"stage0.encoder.weight": [1.0]})
    state = AdamState.for_params(params)
    with pytest.raises(NonFiniteGradientError, match="stage0.encoder.weight"):
        adam_step(params, {"stage0.encoder.weight": np.array([np.nan])}, state, lr=0.001)


def test_adam_rejects_bad_lr_and_shapes():
    params = _params({"w": [1.0]})
    state = AdamState.for_params(params)
    with pytest.raises(ConfigError):
        adam_step(params, {"w": np.zeros(1)}, state, lr=0.0)
    with pytest.raises(ConfigError):
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    with pytest.raises(ConfigError, match="missing gradient"):
        adam_step(params, {}, state, lr=0.1)


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(5.0)
    assert clipped["a"][0] == pytest.approx(3.0)
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(g @ g) for g in clipped.values()))
    assert total == pytest.approx(1.0)


# -- learning-rate schedule (TrainConfig) -----------------------------------------


def test_lr_first_two_epochs_at_initial():
    config = TrainConfig()
    assert config.learning_rate(0, 0) == pytest.approx(0.001)
    assert config.learning_rate(0, 1) == pytest.approx(0.001)


def test_lr_decays_every_two_epochs():
    config = TrainConfig()
    assert config.learning_rate(0, 2) == pytest.approx(0.00098)
    assert config.learning_rate(0, 3) == pytest.approx(0.00098)
    assert config.learning_rate(0, 4) == pytest.approx(0.001 * 0.98**2)


def test_restart_halvings_sequence():
    lrs = [TrainConfig().learning_rate(k, 0) for k in range(3)]
    assert lrs == pytest.approx([0.001, 0.0005, 0.00025])


def test_lr_non_increasing_and_halves_exactly():
    config = TrainConfig()
    values = [config.learning_rate(0, e) for e in range(40)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for e in range(40):
        assert config.learning_rate(1, e) == config.learning_rate(0, e) / 2.0


def test_paramset_rejects_duplicates_and_checksums():
    params = _params({"w": [1.0]})
    with pytest.raises(ConfigError):
        params.add("w", Tensor(np.zeros(1)))
    c1 = params.checksum()
    params["w"].data[0] = 2.0
    assert params.checksum() != c1
