"""Analytic backward passes against the central finite-difference oracle,
plus the handful of closed-form cases checkable by eye."""

import inspect
import tracemalloc

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


# Public functions of ops that build no graph node, and the BUILDERS kind of
# each op whose kind is named otherwise.
NOT_GRAPH_OPS = {"const", "chunk_layout", "frame_count", "reflect_index_map"}
BUILDER_KIND = {"mul": "elementwise_mul", "getitem": "slice", "tsum": "sum", "tmean": "mean", "stft_ri": "stft"}


def test_every_graph_op_has_a_gradcheck_builder():
    public = [
        name
        for name, fn in vars(ops).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == ops.__name__
    ]
    assert {"add", "bilstm_layer", "layer_norm"} <= set(public)
    missing = [name for name in public if name not in NOT_GRAPH_OPS and BUILDER_KIND.get(name, name) not in BUILDERS]
    assert not missing, f"ops without a gradcheck builder: {missing}"


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
    out = ops.layer_norm(Tensor(np.array([5.0, 5.0, 5.0, 5.0])), 0, Tensor(np.ones(1)), Tensor(np.zeros(1)))
    assert np.array_equal(out.data, np.zeros(4))


def test_layer_norm_normalizes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, size=(4, 6)))
    out = ops.layer_norm(x, (0, 1), Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1)))).data
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



# -- the BiLSTM kernel against a plain per-step reference ------------------------


def _ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _ref_lstm(x, w_ih, w_hh, b, g_h, reverse):
    """One direction over (B, T, D), a step at a time, gates in stored (i, f, g, o) order.

    Returns the hidden states and the grads of x, w_ih, w_hh and b for the
    upstream hidden-state grad g_h.
    """
    batch, steps, _ = x.shape
    hidden = w_hh.shape[1]
    order = list(range(steps - 1, -1, -1)) if reverse else list(range(steps))
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.zeros((batch, steps, hidden))
    saved = []
    for t in order:
        z = x[:, t] @ w_ih.T + h @ w_hh.T + b
        i = _ref_sigmoid(z[:, :hidden])
        f = _ref_sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _ref_sigmoid(z[:, 3 * hidden :])
        c_prev, h_prev = c, h
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t] = h
        saved.append((t, i, f, g, o, c_prev, h_prev, c))

    dx = np.zeros_like(x)
    dw_ih, dw_hh, db = np.zeros_like(w_ih), np.zeros_like(w_hh), np.zeros_like(b)
    dh_carry = np.zeros((batch, hidden))
    dc_carry = np.zeros((batch, hidden))
    for t, i, f, g, o, c_prev, h_prev, c in reversed(saved):
        tanh_c = np.tanh(c)
        dh = g_h[:, t] + dh_carry
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_carry
        dz = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g * g), dh * tanh_c * o * (1.0 - o)],
            axis=1,
        )
        dx[:, t] = dz @ w_ih
        dw_ih += dz.T @ x[:, t]
        dw_hh += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh_carry = dz @ w_hh
        dc_carry = dc * f
    return hs, (dx, dw_ih, dw_hh, db)


def _ref_bilstm(x, weights, g_out):
    """Output and the 7 gradients (x, then w_ih, w_hh, b of each direction)."""
    hidden = weights[1].shape[1]
    hs_f, (dx_f, *grads_f) = _ref_lstm(x, *weights[:3], g_out[:, :, :hidden], reverse=False)
    hs_b, (dx_b, *grads_b) = _ref_lstm(x, *weights[3:], g_out[:, :, hidden:], reverse=True)
    return np.concatenate([hs_f, hs_b], axis=2), [dx_f + dx_b, *grads_f, *grads_b]


def _bilstm_case(rng, batch, steps, dim, hidden, dtype=np.float64, scale=1.0):
    x = rng.standard_normal((batch, steps, dim))
    k = scale / np.sqrt(hidden)
    weights = []
    for _ in range(2):
        weights += [
            rng.uniform(-k, k, (4 * hidden, dim)),
            rng.uniform(-k, k, (4 * hidden, hidden)),
            rng.uniform(-k, k, 4 * hidden),
        ]
    g_out = rng.standard_normal((batch, steps, 2 * hidden))
    return [a.astype(dtype) for a in (x, *weights)], g_out.astype(dtype)


def _bilstm_with_grads(arrays, g_out):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = ops.bilstm_layer(*tensors)
    out.backward(seed=g_out)
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("batch,steps,dim,hidden", [(3, 1, 4, 5), (1, 6, 4, 5), (4, 7, 3, 5)])
def test_bilstm_matches_per_step_reference(batch, steps, dim, hidden):
    # T=1 leaves the recurrent-weight grad an empty product; B=1 a single sequence
    arrays, g_out = _bilstm_case(np.random.default_rng(batch * 100 + steps), batch, steps, dim, hidden, scale=2.0)
    out, grads = _bilstm_with_grads(arrays, g_out)
    ref_out, ref_grads = _ref_bilstm(arrays[0], arrays[1:], g_out)
    np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-10)
    assert len(grads) == len(ref_grads) == 7
    for grad, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)


def test_bilstm_float32_tracks_float64_at_model_widths():
    arrays, _ = _bilstm_case(np.random.default_rng(41), batch=41, steps=50, dim=64, hidden=64)
    wide = ops.bilstm_layer(*[Tensor(a) for a in arrays]).data
    narrow = ops.bilstm_layer(*[Tensor(a.astype(np.float32)) for a in arrays]).data
    assert narrow.dtype == np.float32
    assert np.max(np.abs(narrow - wide)) <= 1e-5 * np.max(np.abs(wide))


def test_bilstm_large_weights_stay_finite():
    arrays, g_out = _bilstm_case(np.random.default_rng(7), batch=3, steps=9, dim=4, hidden=5, scale=1e3)
    for dtype in (np.float32, np.float64):
        out, grads = _bilstm_with_grads([a.astype(dtype) for a in arrays], g_out.astype(dtype))
        assert np.all(np.isfinite(out))
        for grad in grads:
            assert np.all(np.isfinite(grad))


def test_bilstm_graph_keeps_gates_and_cell_states_only():
    # per direction the cache is the gates (4H) and cell states (H) of every
    # step; the hidden states live once, in the (B, T, 2H) output
    batch, steps, dim, hidden = 8, 16, 16, 16
    arrays, _ = _bilstm_case(np.random.default_rng(0), batch, steps, dim, hidden)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    tracemalloc.start()
    try:
        out = ops.bilstm_layer(*tensors)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    expected = (2 * 5 * hidden * steps * batch + 2 * hidden * steps * batch) * 8
    assert held <= 1.05 * expected, f"{held} bytes held, {held / expected:.3f}x the gates, cells and output"


# -- the fused affine layer norm -------------------------------------------------


def _layer_norm_composition(x, axes, gain, bias, residual, g):
    """The unfused graph in numpy: normalize -> * gain -> + bias -> residual +.

    Returns the output and the grads of x, gain, bias and residual for the
    upstream grad g, each formed the way those four nodes form them.
    """
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    degenerate = var < ops.LAYER_NORM_VAR_FLOOR
    inv_std = np.where(degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    y = centered * inv_std
    out = residual + (y * gain + bias)
    reduce = tuple(i for i, n in enumerate(gain.shape) if n == 1)
    g_y = g * gain
    g_mean = g_y.mean(axis=axes, keepdims=True)
    gy_mean = (g_y * y).mean(axis=axes, keepdims=True)
    g_x = inv_std * (g_y - g_mean - y * gy_mean)
    g_gain = (g * y).sum(axis=reduce, keepdims=True)
    g_bias = g.sum(axis=reduce, keepdims=True)
    return out, (g_x, g_gain, g_bias, g.copy())


@pytest.mark.parametrize("transposed,axes", [(True, (0, 1)), (False, (0, 2))], ids=["view-0-1", "0-2"])
def test_layer_norm_is_bit_identical_to_the_composition(transposed, axes):
    rng = np.random.default_rng(64)
    shape = (64, 50, 41)
    x = rng.standard_normal((64, 41, 50)).astype(np.float32).transpose(0, 2, 1) if transposed else (
        rng.standard_normal(shape).astype(np.float32)
    )
    gain = rng.uniform(0.5, 1.5, (64, 1, 1)).astype(np.float32)
    bias = rng.uniform(-0.5, 0.5, (64, 1, 1)).astype(np.float32)
    residual = rng.standard_normal(shape).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    tensors = [Tensor(a, requires_grad=True) for a in (x, gain, bias, residual)]
    out = ops.layer_norm(tensors[0], axes, *tensors[1:3], residual=tensors[3])
    out.backward(seed=g)
    ref_out, ref_grads = _layer_norm_composition(x, axes, gain, bias, residual, g)
    assert out.dtype == np.float32
    assert np.array_equal(out.data, ref_out)
    for tensor, ref in zip(tensors, ref_grads):
        assert tensor.grad.dtype == np.float32
        assert np.array_equal(tensor.grad, ref)


def test_layer_norm_residual_shape_must_match():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ConfigError, match="residual"):
        ops.layer_norm(x, (0, 1), Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))), residual=Tensor(np.ones((3, 2))))


def test_recorded_layer_norm_keeps_no_input_sized_array():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((64, 50, 41)), requires_grad=True)
    gain = Tensor(np.ones((64, 1, 1)), requires_grad=True)
    bias = Tensor(np.zeros((64, 1, 1)), requires_grad=True)
    residual = Tensor(rng.standard_normal(x.shape), requires_grad=True)
    tracemalloc.start()
    try:
        out = ops.layer_norm(x, (0, 2), gain, bias, residual=residual)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    # the output itself plus per-slice statistics and bookkeeping, well under another x
    assert held < out.data.nbytes + x.data.nbytes // 4
