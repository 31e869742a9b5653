import threading

import numpy as np
import pytest

from tastas.errors import ConfigError
from tastas.numerics import ops
from tastas.numerics.tensor import Tensor, is_recording, no_grad


def test_forward_purity_bit_identical():
    x = Tensor(np.linspace(0.1, 2, 40))
    a = ops.log(x).data
    b = ops.log(x).data
    assert np.array_equal(a, b)


def test_requires_grad_propagation():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3))
    out = ops.mul(a, b)
    assert out.requires_grad
    frozen = ops.mul(b, b)
    assert not frozen.requires_grad
    assert frozen._backward is None


def test_backward_diamond_graph_accumulates():
    # y = x*x + x*x reuses the same node twice: dy/dx = 4x
    x = Tensor(np.array([3.0]), requires_grad=True)
    sq = ops.mul(x, x)
    y = ops.add(sq, sq)
    y.backward()
    assert np.allclose(x.grad, [12.0])


def test_backward_seed_shape_mismatch():
    x = Tensor(np.ones(4), requires_grad=True)
    y = ops.log(x)
    with pytest.raises(ConfigError):
        y.backward(seed=np.ones(3))


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros((1, 4)), requires_grad=True)
    out = ops.add(a, b)
    out.backward(seed=np.ones((3, 4)))
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    assert np.allclose(b.grad, 3.0)


def test_float32_graph_stays_float32():
    x = Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
    y = ops.log(ops.mul(x, ops.const(0.5, dtype=x.dtype)))
    assert y.dtype == np.float32
    y.backward(seed=np.ones(5, dtype=np.float32))
    assert x.grad.dtype == np.float32


def test_getitem_grad_is_scattered():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = ops.getitem(x, (slice(0, 1), slice(None)))
    y.backward(seed=np.ones((1, 3)))
    assert np.allclose(x.grad, [[1, 1, 1], [0, 0, 0]])


def test_detach_cuts_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    d = ops.log(x).detach()
    assert not d.requires_grad


# -- graph lifetime ------------------------------------------------------------------


def test_no_grad_ops_record_nothing():
    x = Tensor(np.linspace(0.5, 1.5, 6), requires_grad=True)
    w = Tensor(np.ones((2, 6)), requires_grad=True)
    with no_grad():
        outs = [ops.log(x), ops.mul(x, x), ops.linear(w, x), ops.getitem(x, (slice(1, 3),))]
    for out in outs:
        assert not out.requires_grad
        assert out._backward is None
        assert out._parents == ()
    assert ops.log(x).requires_grad


def test_no_grad_restores_mode_after_nesting_and_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not is_recording((x,))
        assert not is_recording((x,))
    assert is_recording((x,))
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_recording((x,))
    assert not is_recording((Tensor(np.ones(3)),))


def test_no_grad_is_per_thread():
    x = Tensor(np.ones(3), requires_grad=True)
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append(ops.log(x).requires_grad))
        worker.start()
        worker.join()
        assert not ops.log(x).requires_grad
    assert seen == [True]


def _bilstm_inputs(rng):
    hidden, features = 3, 4
    x = Tensor(rng.uniform(-1, 1, (features, 5, 2)), requires_grad=True)
    weights = []
    for _ in range(2):
        weights += [
            Tensor(rng.uniform(-0.5, 0.5, (4 * hidden, features)), requires_grad=True),
            Tensor(rng.uniform(-0.5, 0.5, (4 * hidden, hidden)), requires_grad=True),
            Tensor(rng.uniform(-0.5, 0.5, 4 * hidden), requires_grad=True),
        ]
    weights.append(Tensor(rng.uniform(-0.5, 0.5, (features, 2 * hidden)), requires_grad=True))
    weights.append(Tensor(rng.uniform(0.5, 1.5, (features, 1, 1)), requires_grad=True))
    weights.append(Tensor(rng.uniform(-0.5, 0.5, (features, 1, 1)), requires_grad=True))
    return x, weights


def test_bilstm_layer_same_output_with_and_without_recording():
    x, weights = _bilstm_inputs(np.random.default_rng(0))
    for axis in (1, 2):
        recorded = ops.bilstm_layer(x, axis, *weights)
        with no_grad():
            plain = ops.bilstm_layer(x, axis, *weights)
        assert recorded._backward is not None
        assert plain._backward is None
        assert np.array_equal(recorded.data, plain.data)


def test_backward_releases_interior_nodes():
    x = Tensor(np.array([0.5, 2.0]), requires_grad=True)
    a = ops.log(x)
    b = ops.mul(a, a)
    y = ops.tsum(b)
    y.backward()
    assert np.allclose(x.grad, 2 * np.log(x.data) / x.data)
    for node in (a, b):
        assert node._parents == ()
        assert node.grad is None
    assert y.grad is not None
    with pytest.raises(ConfigError, match="already consumed"):
        y.backward()


def test_second_backward_through_shared_subgraph_errors():
    x = Tensor(np.array([2.0]), requires_grad=True)
    shared = ops.mul(x, x)
    ops.tsum(shared).backward()
    with pytest.raises(ConfigError, match="already consumed"):
        ops.tsum(ops.mul(shared, ops.const(3.0))).backward()
