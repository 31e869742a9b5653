"""Analytic backward passes against the central finite-difference oracle,
plus the handful of closed-form cases checkable by eye."""

import numpy as np
import pytest

from tastas.errors import ConfigError
from tastas.numerics import ops
from tastas.numerics.gradcheck import BUILDERS, check_kind, run_suite
from tastas.numerics.tensor import Tensor

SPEC_KINDS = [
    "conv1d",
    "linear",
    "bilstm_layer",
    "layer_norm",
    "softmax",
    "prelu",
    "tanh",
    "concat",
    "elementwise_mul",
    "reshape",
    "transpose",
]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_kind_matches_finite_differences(kind):
    report = check_kind(kind, trials=8, tolerance=1e-4, seed=11)
    assert report.passed, f"{kind}: {report.max_rel_err:.3e} ({report.worst_detail})"


def test_spec_kinds_all_registered():
    for kind in SPEC_KINDS:
        assert kind in BUILDERS


def test_conv1d_stride2_20_trials():
    report = check_kind("conv1d", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def test_softmax_with_logloss_20_trials():
    report = check_kind("softmax_logloss", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def test_suite_report_carries_failures():
    suite = run_suite(kinds=["tanh"], trials=2, tolerance=1e-30)
    assert not suite.passed
    assert "FAIL" in suite.lines()[0]


# -- closed-form cases ---------------------------------------------------------


def test_softmax_symmetry():
    out = ops.softmax(Tensor(np.array([0.0, 0.0])), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-30, 30, size=(6, 9)))
    out = ops.softmax(x, axis=0).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=0), 1.0, atol=1e-9)


def test_prelu_definition():
    slope = Tensor(np.array([0.25]))
    assert ops.prelu(Tensor(np.array([-1.0])), slope).data[0] == pytest.approx(-0.25)
    assert ops.prelu(Tensor(np.array([2.0])), slope).data[0] == pytest.approx(2.0)


def test_layer_norm_constant_vector_maps_to_zero():
    out = ops.layer_norm(Tensor(np.array([5.0, 5.0, 5.0, 5.0])), axes=0)
    assert np.array_equal(out.data, np.zeros(4))


def test_layer_norm_normalizes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, size=(4, 6)))
    out = ops.layer_norm(x, axes=(0, 1)).data
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-9


def test_elementwise_mul_product_rule():
    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    out = ops.mul(a, b)
    g = np.array([1.0, 10.0])
    out.backward(seed=g)
    assert np.allclose(a.grad, g * b.data)
    assert np.allclose(b.grad, g * a.data)


def test_linear_matrix_calculus():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    out = ops.linear(w, x)
    g = rng.standard_normal(3)
    out.backward(seed=g)
    assert np.allclose(w.grad, np.outer(g, x.data))
    assert np.allclose(x.grad, w.data.T @ g)


def test_conv1d_shape_algebra():
    x = Tensor(np.zeros((1, 8000)))
    w = Tensor(np.zeros((64, 1, 16)))
    out = ops.conv1d(x, w, stride=8)
    assert out.shape == (64, 999)


def test_conv1d_shape_errors_name_dimensions():
    with pytest.raises(ConfigError, match="channels"):
        ops.conv1d(Tensor(np.zeros((2, 30))), Tensor(np.zeros((4, 3, 5))), stride=1)
    with pytest.raises(ConfigError, match="shorter than kernel"):
        ops.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((4, 1, 8))), stride=1)


def test_bilstm_output_shape():
    rng = np.random.default_rng(3)
    hidden, dim = 3, 2
    args = [Tensor(rng.standard_normal((2, 5, dim)))]
    for _ in range(2):
        args += [
            Tensor(rng.standard_normal((4 * hidden, dim))),
            Tensor(rng.standard_normal((4 * hidden, hidden))),
            Tensor(rng.standard_normal(4 * hidden)),
        ]
    out = ops.bilstm_layer(*args)
    assert out.shape == (2, 5, 2 * hidden)


def test_overlap_add_inverts_framing_scale():
    # constant frames at stride L/2 double-count except the edges
    x = Tensor(np.ones((4, 3)))
    out = ops.overlap_add(x, stride=2, out_len=8)
    assert np.allclose(out.data, [1, 1, 2, 2, 2, 2, 1, 1])


def test_segment_chunk_layout_rules():
    assert ops.chunk_layout(8, 4, 2) == (3, 8)  # T=8, K=4: three chunks, no pad
    assert ops.chunk_layout(4, 4, 2) == (2, 6)  # T=K: padded to K + hop, two chunks
    assert ops.chunk_layout(3, 4, 2) == (2, 6)  # T<K: same minimum layout
