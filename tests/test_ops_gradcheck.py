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
    hidden, dim, features = 3, 2, 4
    args = [Tensor(rng.standard_normal((2, 5, dim)))]
    for _ in range(2):
        args += [
            Tensor(rng.standard_normal((4 * hidden, dim))),
            Tensor(rng.standard_normal((4 * hidden, hidden))),
            Tensor(rng.standard_normal(4 * hidden)),
        ]
    out = ops.bilstm_layer(*args, Tensor(rng.standard_normal((features, 2 * hidden))))
    assert out.shape == (features, 2, 5)
    with pytest.raises(ConfigError, match="projection"):
        ops.bilstm_layer(*args, Tensor(rng.standard_normal((features, hidden))))


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


def _ref_bilstm(x, weights, g_h):
    """Hidden states (B, T, 2H) and the 7 gradients (x, then w_ih, w_hh, b of each direction)."""
    hidden = weights[1].shape[1]
    hs_f, (dx_f, *grads_f) = _ref_lstm(x, *weights[:3], g_h[:, :, :hidden], reverse=False)
    hs_b, (dx_b, *grads_b) = _ref_lstm(x, *weights[3:], g_h[:, :, hidden:], reverse=True)
    return np.concatenate([hs_f, hs_b], axis=2), [dx_f + dx_b, *grads_f, *grads_b]


def _bilstm_case(rng, batch, steps, dim, hidden, dtype=np.float64, scale=1.0):
    """x, the six LSTM weights and a (dim, 2H) projection, plus an upstream grad (dim, B, T)."""
    x = rng.standard_normal((batch, steps, dim))
    k = scale / np.sqrt(hidden)
    weights = []
    for _ in range(2):
        weights += [
            rng.uniform(-k, k, (4 * hidden, dim)),
            rng.uniform(-k, k, (4 * hidden, hidden)),
            rng.uniform(-k, k, 4 * hidden),
        ]
    proj = rng.uniform(-k, k, (dim, 2 * hidden))
    g_out = rng.standard_normal((dim, batch, steps))
    return [a.astype(dtype) for a in (x, *weights, proj)], g_out.astype(dtype)


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
    x, *weights, proj = arrays
    ref_h, ref_grads = _ref_bilstm(x, weights, np.einsum("fk,fbt->btk", proj, g_out))
    ref_out = np.einsum("fk,btk->fbt", proj, ref_h)
    ref_grads.append(np.einsum("fbt,btk->fk", g_out, ref_h))
    np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-10)
    assert len(grads) == len(ref_grads) == 8
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


def test_bilstm_graph_keeps_gates_only():
    # per direction the cache is the 4H activated gates of every step; the
    # node's value is the projected output, and backward re-forms the cell and
    # hidden states from the gates (keeping the hidden states would add 2H per
    # step and sequence, about 1.2x)
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
    expected = (2 * 4 * hidden * steps * batch + dim * steps * batch) * 8
    assert held <= 1.05 * expected, f"{held} bytes held, {held / expected:.3f}x the gates and output"


def _join_directions(hs_f, hs_b):
    """[h_fwd; h_bwd] of two (T, H, B) runs as (B*T, 2H), laid out as a (B, T, 2H) BiLSTM output."""
    joined = np.concatenate([hs_f.transpose(2, 0, 1), hs_b[::-1].transpose(2, 0, 1)], axis=2)
    return joined.reshape(-1, joined.shape[2])


def _unfused_chain(direction, arrays, g_out):
    """The BiLSTM node, then reshape, transpose, linear and reshape, in numpy.

    direction(x_dtb, w_ih, w_hh, b, g_h) runs one direction over (D, T, B)
    and returns its hidden states (T, H, B), dx and the grads of w_ih, w_hh
    and b. The projection and its grads are formed as ops.linear forms them
    from a (B, T, 2H) input. Returns the output and the 8 gradients.
    """
    x, *weights, proj = arrays
    feat, batch, steps = g_out.shape
    hidden = weights[1].shape[1]
    x_dtb = np.ascontiguousarray(x.transpose(2, 1, 0))
    g = g_out.reshape(feat, -1)
    g_thb = np.ascontiguousarray((proj.T @ g).reshape(2 * hidden, batch, steps).transpose(2, 0, 1))
    hs_f, dx_f, *grads_f = direction(x_dtb, *weights[:3], g_thb[:, :hidden])
    hs_b, dx_b, *grads_b = direction(x_dtb[:, ::-1], *weights[3:], g_thb[::-1, hidden:])
    h = _join_directions(hs_f, hs_b)
    dx_f += dx_b[:, ::-1]
    out = (proj @ h.T).reshape(feat, batch, steps)
    return out, [dx_f.transpose(2, 1, 0), *grads_f, *grads_b, g @ h]


def _assert_bytes_equal(out, grads, ref_out, ref_grads):
    assert out.dtype == np.float32 and out.tobytes() == ref_out.tobytes()
    for grad, ref in zip(grads, ref_grads, strict=True):
        assert grad.dtype == ref.dtype == np.float32
        assert grad.shape == ref.shape
        assert grad.tobytes() == np.ascontiguousarray(ref).tobytes()


def _cell_caching_direction(x_dtb, w_ih, w_hh, b, g_h):
    """One direction in the kernel's own arithmetic, a step at a time, with the
    forward's cell and hidden states kept for backward instead of re-formed.

    x_dtb is (D, T, B) and g_h (T, H, B), laid out as bilstm_layer passes
    them. Returns the hidden states (T, H, B), dx and the grads of w_ih, w_hh
    and b.
    """
    _, steps, batch = x_dtb.shape
    hidden = w_hh.shape[1]
    order = ops._gate_order(hidden)
    gates = np.matmul(ops._kernel_weights(w_ih, hidden), x_dtb.transpose(1, 0, 2))
    gates += ops._kernel_weights(b, hidden)[:, None]
    w_hh_k = ops._kernel_weights(w_hh, hidden)
    hs = np.empty((steps, hidden, batch), dtype=x_dtb.dtype)
    cs = np.empty_like(hs)
    h = c = np.zeros((hidden, batch), dtype=x_dtb.dtype)
    for t in range(steps):
        z = gates[t]
        z += w_hh_k @ h
        np.tanh(z, out=z)
        z[: 3 * hidden] = 0.5 * z[: 3 * hidden] + 0.5
        i, f, o, g = np.split(z, 4)
        cs[t] = f * c + i * g
        hs[t] = np.tanh(cs[t]) * o
        c, h = cs[t], hs[t]

    w_hh_t = np.ascontiguousarray(w_hh[order].T)
    dzs = np.empty_like(gates)
    zeros = np.zeros((hidden, batch), dtype=x_dtb.dtype)
    dh_carry = dc_carry = zeros
    for t in range(steps - 1, -1, -1):
        z, dz = gates[t], dzs[t]
        i, f, o, g = np.split(z, 4)
        dh = g_h[t] + dh_carry
        tanh_c = np.tanh(cs[t])
        dc = (1.0 - tanh_c * tanh_c) * o * dh + dc_carry
        dz[:hidden] = dc * g
        dz[hidden : 2 * hidden] = dc * (cs[t - 1] if t else zeros)
        dz[2 * hidden : 3 * hidden] = dh * tanh_c
        dz[: 3 * hidden] *= (1.0 - z[: 3 * hidden]) * z[: 3 * hidden]
        dz[3 * hidden :] = dc * ((1.0 - g * g) * i)
        dh_carry = w_hh_t @ dz
        dc_carry = dc * f
    dz_flat = np.ascontiguousarray(dzs.transpose(1, 0, 2)).reshape(4 * hidden, steps * batch)
    h_prev = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, -1)
    dx = (w_ih[order].T @ dz_flat).reshape(-1, steps, batch)
    dw_ih = (dz_flat @ x_dtb.reshape(x_dtb.shape[0], -1).T)[order]
    dw_hh = (dz_flat[:, batch:] @ h_prev.T)[order]
    db = dz_flat.sum(axis=1)[order]
    return hs, dx, dw_ih, dw_hh, db


def test_bilstm_grads_equal_a_cell_caching_reference_bit_for_bit():
    # re-forming c(t) and h(t) in backward must round exactly as the forward did
    arrays, g_out = _bilstm_case(np.random.default_rng(5), batch=41, steps=50, dim=64, hidden=64, dtype=np.float32)
    out, grads = _bilstm_with_grads(arrays, g_out)
    ref_out, ref_grads = _unfused_chain(_cell_caching_direction, arrays, g_out)
    _assert_bytes_equal(out, grads, ref_out, ref_grads)


def _kernel_direction(x_dtb, w_ih, w_hh, b, g_h):
    """One direction through ops._lstm_run and ops._lstm_grad, whose backward
    must give back the forward's hidden states byte for byte."""
    hs, gates = ops._lstm_run(x_dtb, w_ih, w_hh, b, keep_cache=True)
    reformed, *grads = ops._lstm_grad(x_dtb, gates, w_ih, w_hh, g_h)
    assert reformed.tobytes() == hs.tobytes()
    return hs, *grads


@pytest.mark.parametrize("batch,steps", [(41, 50), (50, 41)])
def test_bilstm_layer_equals_the_unfused_chain_bit_for_bit(batch, steps):
    # the train-1s shapes of the intra-chunk and inter-chunk BiLSTMs at D=H=F=64
    arrays, g_out = _bilstm_case(
        np.random.default_rng(batch), batch=batch, steps=steps, dim=64, hidden=64, dtype=np.float32
    )
    out, grads = _bilstm_with_grads(arrays, g_out)
    ref_out, ref_grads = _unfused_chain(_kernel_direction, arrays, g_out)
    _assert_bytes_equal(out, grads, ref_out, ref_grads)


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


# Reference copies of the earlier max_pool2d (one argmax over a reshaped,
# transposed copy of the windows) and conv2d (tensordot over a sliding-window
# view of the padded input). The rewritten ops must match them bit for bit.


def _ref_max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    channels, height, width = x.shape
    out_h, out_w = height // size, width // size
    trimmed = x.data[:, : out_h * size, : out_w * size]
    blocks = (
        trimmed.reshape(channels, out_h, size, out_w, size)
        .transpose(0, 1, 3, 2, 4)
        .reshape(channels, out_h, out_w, size * size)
    )
    arg = blocks.argmax(axis=3)
    out = Tensor._from_op(np.ascontiguousarray(np.take_along_axis(blocks, arg[..., None], axis=3)[..., 0]), (x,))
    if out.requires_grad:

        def backward():
            g_blocks = np.zeros_like(blocks)
            np.put_along_axis(g_blocks, arg[..., None], out.grad[..., None], axis=3)
            g_trim = (
                g_blocks.reshape(channels, out_h, out_w, size, size)
                .transpose(0, 1, 3, 2, 4)
                .reshape(channels, out_h * size, out_w * size)
            )
            gx = np.zeros_like(x.data)
            gx[:, : out_h * size, : out_w * size] = g_trim
            x._accum_grad(gx)

        out._backward = backward
    return out


def _ref_conv2d(x: Tensor, weight: Tensor, padding: int = 1) -> Tensor:
    c_in, height, width = x.shape
    c_out, _, kh, kw = weight.shape
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    out_h = height + 2 * padding - kh + 1
    out_w = width + 2 * padding - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    out_data = np.tensordot(weight.data, windows, axes=([1, 2, 3], [0, 3, 4]))
    out = Tensor._from_op(np.ascontiguousarray(out_data), (x, weight))
    if out.requires_grad:

        def backward():
            g = out.grad
            if weight.requires_grad:
                weight._accum_grad(np.tensordot(g, windows, axes=([1, 2], [1, 2])))
            if x.requires_grad:
                g_win = g.reshape(c_out, -1).T @ weight.data.reshape(c_out, -1)
                g_win = g_win.reshape(out_h, out_w, c_in, kh, kw)
                gxp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        gxp[:, i : i + out_h, j : j + out_w] += g_win[:, :, :, i, j].transpose(2, 0, 1)
                if padding:
                    gxp = gxp[:, padding:-padding, padding:-padding]
                x._accum_grad(gxp)

        out._backward = backward
    return out


def _value_and_grads(op, arrays, g_out):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.backward(g_out)
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("shape", [(3, 7, 9), (2, 6, 8), (16, 257, 32), (5, 3, 5)])
def test_max_pool2d_matches_argmax_reference_bit_for_bit(shape):
    # integer values tie often inside a window, and zeros of both signs tie
    # with each other; odd H and W leave a trailing row and column to drop
    rng = np.random.default_rng(sum(shape))
    x = rng.integers(-2, 3, size=shape).astype(np.float32)
    x[(x == 0) & (rng.uniform(size=shape) < 0.5)] = -0.0
    g = rng.standard_normal((shape[0], shape[1] // 2, shape[2] // 2)).astype(np.float32)
    got = _value_and_grads(lambda t: ops.max_pool2d(t, 2), [x], g)
    want = _value_and_grads(lambda t: _ref_max_pool2d(t, 2), [x], g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "c_in,c_out,height,width", [(1, 16, 257, 32), (16, 32, 128, 16), (32, 64, 64, 8), (64, 64, 32, 4)]
)
def test_conv2d_matches_tensordot_reference_bit_for_bit(c_in, c_out, height, width):
    # the four layer shapes of the default speaker network on a 0.5 s segment
    rng = np.random.default_rng(c_in + c_out)
    x = rng.standard_normal((c_in, height, width)).astype(np.float32)
    w = (rng.standard_normal((c_out, c_in, 3, 3)) / (3 * np.sqrt(c_in))).astype(np.float32)
    g = rng.standard_normal((c_out, height, width)).astype(np.float32)
    got = _value_and_grads(ops.conv2d, [x, w], g)
    want = _value_and_grads(_ref_conv2d, [x, w], g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_frozen_conv2d_keeps_no_im2col_or_padded_input():
    rng = np.random.default_rng(2)
    x_data = rng.standard_normal((16, 128, 16)).astype(np.float32)
    w_data = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)

    def held_bytes(weight_grad: bool):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data, requires_grad=weight_grad)
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w, padding=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        out.backward(np.ones(out.shape, dtype=np.float32))
        return held, out.data.nbytes

    held, out_bytes = held_bytes(weight_grad=False)
    # the output and bookkeeping; a padded input copy alone is over x.nbytes
    assert held < out_bytes + x_data.nbytes // 4, f"{held} bytes held for a {out_bytes}-byte output"
    # the same measure sees the 9-slab im2col a trainable weight needs
    held, _ = held_bytes(weight_grad=True)
    assert held >= out_bytes + 9 * x_data.nbytes


def test_frozen_idnet_embedding_and_wave_grad_match_reference_ops(monkeypatch):
    from tastas.idnet import IdNet, IdNetConfig

    net = IdNet.initialize(IdNetConfig(num_speakers=4), seed=0).freeze()
    wave = (0.1 * np.random.default_rng(3).standard_normal(net.config.sample_rate_hz)).astype(np.float32)

    def embed_and_grad():
        w = Tensor(wave.copy(), requires_grad=True)
        emb = net.embed_segments_graph(w)
        emb.backward(np.linspace(-1.0, 1.0, emb.size, dtype=np.float32))
        return emb.data, w.grad

    got = embed_and_grad()
    monkeypatch.setattr(ops, "conv2d", _ref_conv2d)
    monkeypatch.setattr(ops, "max_pool2d", _ref_max_pool2d)
    want = embed_and_grad()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
