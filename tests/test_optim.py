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


def _functional_adam(values, m, v, grads, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as a pure function of fresh arrays: the float operations, in the
    order, that the in-place step must round exactly as."""
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    out_values, out_m, out_v = {}, {}, {}
    for name, x in values.items():
        g = grads[name].astype(x.dtype, copy=False)
        out_m[name] = b1 * m[name] + (1.0 - b1) * g
        out_v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = out_m[name] / bias1
        v_hat = out_v[name] / bias2
        out_values[name] = (x - lr * m_hat / (np.sqrt(v_hat) + eps)).astype(x.dtype, copy=False)
    return out_values, out_m, out_v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_equals_the_functional_update_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    shapes = {"w": (3, 4), "b": (5,)}
    params = ParamSet({name: Tensor(rng.standard_normal(shape).astype(dtype)) for name, shape in shapes.items()})
    state = AdamState.for_params(params)
    values = {name: t.data.copy() for name, t in params.items()}
    m = {name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}
    v = {name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}
    for step, lr in enumerate((0.01, 0.003, 0.001), start=1):
        grads = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
        values, m, v = _functional_adam(values, m, v, grads, step, lr)
        returned = adam_step(params, grads, state, lr)
        assert returned[0] is params and returned[1] is state
        assert state.step == step
        for name in shapes:
            for got, want in ((params[name].data, values[name]), (state.m[name], m[name]), (state.v[name], v[name])):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()


def _adam_arrays(params, state):
    return {n: t.data for n, t in params.items()}, state.m, state.v


@pytest.mark.parametrize(
    "bad, error",
    [(np.array([1.0, np.nan]), NonFiniteGradientError), (np.zeros(3), ConfigError)],
    ids=["nan", "mis-shaped"],
)
def test_rejected_adam_step_changes_nothing(bad, error):
    # the bad gradient is the last-named parameter's, so every other one would have been updated first
    params = _params({"a": [1.0, -2.0], "b": [0.5], "c": [0.25, 3.0]})
    state = AdamState.for_params(params)
    adam_step(params, {"a": np.array([0.1, 0.2]), "b": np.array([-0.3]), "c": np.array([0.4, 0.5])}, state, lr=0.01)
    before = [{n: a.copy() for n, a in arrays.items()} for arrays in _adam_arrays(params, state)]
    with pytest.raises(error):
        adam_step(params, {"a": np.array([1.0, 1.0]), "b": np.array([1.0]), "c": bad}, state, lr=0.01)
    assert state.step == 1
    for kept, now in zip(before, _adam_arrays(params, state)):
        assert all(np.array_equal(kept[n], now[n]) for n in ("a", "b", "c"))


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
