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

import dual_path_reference as reference

SPEC_KINDS = [
    "conv1d",
    "linear",
    "bilstm_layer",
    "layer_norm",
    "softmax",
    "prelu",
    "log",
    "concat",
    "elementwise_mul",
    "reshape",
]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_kind_matches_finite_differences(kind):
    report = check_kind(kind, trials=8, tolerance=1e-4, seed=11)
    assert report.passed, f"{kind}: {report.max_rel_err:.3e} ({report.worst_detail})"


def test_full_model_check_runs_the_op_suite_check_on_every_parameter():
    from tastas.sepnet import ModelConfig
    from tastas.verify import tiny_model_check

    # narrower than the CLI's tiny model, so the 2 forwards per parameter stay fast
    config = ModelConfig(stage_blocks=(1,), num_filters=2, kernel_len=4, chunk_len=4, hidden_size=2)
    report = tiny_model_check(seed=1, config=config, num_samples=42)
    assert (report.kind, report.trials) == ("full-model", 1)
    assert report.passed, report.line()


def test_spec_kinds_all_registered():
    for kind in SPEC_KINDS:
        assert kind in BUILDERS


# Public functions of ops that build no graph node, and the BUILDERS kind of
# each op whose kind is named otherwise.
NOT_GRAPH_OPS = {"const", "chunk_layout"}
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
    stale = sorted((NOT_GRAPH_OPS | set(BUILDER_KIND)) - set(public))
    assert not stale, f"names listed here that are not public ops: {stale}"


def test_conv1d_stride2_20_trials():
    report = check_kind("conv1d", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def test_softmax_with_logloss_20_trials():
    report = check_kind("softmax_logloss", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def test_suite_report_carries_failures():
    suite = run_suite(kinds=["log"], trials=2, tolerance=1e-30)
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


def test_overlap_add_inverts_framing_scale():
    # constant frames at stride L/2 double-count except the edges
    x = Tensor(np.ones((4, 3)))
    out = ops.overlap_add(x, stride=2, out_len=8)
    assert np.allclose(out.data, [1, 1, 2, 2, 2, 2, 1, 1])


def test_segment_chunk_layout_rules():
    assert ops.chunk_layout(8, 4, 2) == (3, 8)  # T=8, K=4: three chunks, no pad
    assert ops.chunk_layout(4, 4, 2) == (2, 6)  # T=K: padded to K + hop, two chunks
    assert ops.chunk_layout(3, 4, 2) == (2, 6)  # T<K: same minimum layout



# -- the dual-path half against a plain per-step reference -----------------------


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


# (F, K, C) chunks as the (B, T, F) sequences each recurrence axis runs over, and back
_TO_SEQUENCES = {1: (2, 1, 0), 2: (1, 2, 0)}
_FROM_SEQUENCES = {1: (2, 1, 0), 2: (2, 0, 1)}


def _ref_dual_path_half(x, axis, weights, g):
    """chunks + LayerNorm(proj @ BiLSTM(chunks)) and its 10 grads in float64,
    from the per-step reference and the textbook layer-norm derivative."""
    *lstm, proj, gain, bias = weights
    seq = x.transpose(_TO_SEQUENCES[axis])
    h, _ = _ref_bilstm(seq, lstm, np.zeros(seq.shape[:2] + (proj.shape[1],)))
    y = (h @ proj.T).transpose(_FROM_SEQUENCES[axis])
    axes = (0, axis)
    std = y.std(axis=axes, keepdims=True)
    normalized = (y - y.mean(axis=axes, keepdims=True)) / std
    out = x + normalized * gain + bias
    g_n = g * gain
    g_y = (g_n - g_n.mean(axis=axes, keepdims=True) - normalized * (g_n * normalized).mean(axis=axes, keepdims=True)) / std
    g_y_seq = g_y.transpose(_TO_SEQUENCES[axis])
    _, (dseq, *lstm_grads) = _ref_bilstm(seq, lstm, g_y_seq @ proj)
    grads = [
        g + dseq.transpose(_FROM_SEQUENCES[axis]),
        *lstm_grads,
        np.einsum("btf,btk->fk", g_y_seq, h),
        (g * normalized).sum(axis=(1, 2), keepdims=True),
        g.sum(axis=(1, 2), keepdims=True),
    ]
    return out, grads


def _half_case(rng, shape, hidden, dtype=np.float64, scale=1.0):
    """(F, K, C) chunks, the six LSTM weights, the (F, 2H) projection, the norm
    gain and bias, plus an upstream grad of the output."""
    features = shape[0]
    x = rng.standard_normal(shape)
    k = scale / np.sqrt(hidden)
    weights = []
    for _ in range(2):
        weights += [
            rng.uniform(-k, k, (4 * hidden, features)),
            rng.uniform(-k, k, (4 * hidden, hidden)),
            rng.uniform(-k, k, 4 * hidden),
        ]
    proj = rng.uniform(-k, k, (features, 2 * hidden))
    gain = rng.uniform(0.5, 1.5, (features, 1, 1))
    bias = rng.uniform(-0.5, 0.5, (features, 1, 1))
    g_out = rng.standard_normal(shape)
    return [a.astype(dtype) for a in (x, *weights, proj, gain, bias)], g_out.astype(dtype)


def _chunk_shape(axis, features, batch, steps):
    """The (F, K, C) chunks whose recurrence along axis runs over steps, batch sequences at a time."""
    return (features, steps, batch) if axis == 1 else (features, batch, steps)


def _half_with_grads(arrays, axis, g_out, half=ops.bilstm_layer):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = half(tensors[0], axis, *tensors[1:])
    out.backward(seed=g_out)
    return out.data, [t.grad for t in tensors]


def test_bilstm_output_shape():
    rng = np.random.default_rng(3)
    hidden, features = 3, 4
    for axis in (1, 2):
        arrays, _ = _half_case(rng, (features, 5, 2), hidden)
        x, *weights, proj, gain, bias = [Tensor(a) for a in arrays]
        assert ops.bilstm_layer(x, axis, *weights, proj, gain, bias).shape == (features, 5, 2)
    with pytest.raises(ConfigError, match="projection"):
        ops.bilstm_layer(x, 1, *weights, Tensor(rng.standard_normal((features, hidden))), gain, bias)
    with pytest.raises(ConfigError, match="axis"):
        ops.bilstm_layer(x, 0, *weights, proj, gain, bias)
    with pytest.raises(ConfigError, match="features"):
        ops.bilstm_layer(Tensor(np.zeros((features + 1, 5, 2))), 1, *weights, proj, gain, bias)


@pytest.mark.parametrize("batch,steps,dim,hidden", [(3, 1, 4, 5), (1, 6, 4, 5), (4, 7, 3, 5)])
def test_bilstm_matches_per_step_reference(batch, steps, dim, hidden):
    # T=1 leaves the recurrent-weight grad an empty product; B=1 a single sequence
    for axis in (1, 2):
        shape = _chunk_shape(axis, dim, batch, steps)
        arrays, g_out = _half_case(np.random.default_rng(batch * 100 + steps), shape, hidden, scale=2.0)
        out, grads = _half_with_grads(arrays, axis, g_out)
        ref_out, ref_grads = _ref_dual_path_half(arrays[0], axis, arrays[1:], g_out)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-10)
        assert len(grads) == len(ref_grads) == 10
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)


def test_bilstm_float32_tracks_float64_at_model_widths():
    for axis in (1, 2):
        arrays, _ = _half_case(np.random.default_rng(41), (64, 50, 41), hidden=64)
        wide = ops.bilstm_layer(Tensor(arrays[0]), axis, *[Tensor(a) for a in arrays[1:]]).data
        narrow = ops.bilstm_layer(Tensor(arrays[0].astype(np.float32)), axis, *[Tensor(a.astype(np.float32)) for a in arrays[1:]]).data
        assert narrow.dtype == np.float32
        assert np.max(np.abs(narrow - wide)) <= 1e-5 * np.max(np.abs(wide))


def test_bilstm_large_weights_stay_finite():
    arrays, g_out = _half_case(np.random.default_rng(7), (4, 9, 3), hidden=5, scale=1e3)
    for dtype in (np.float32, np.float64):
        for axis in (1, 2):
            out, grads = _half_with_grads([a.astype(dtype) for a in arrays], axis, g_out.astype(dtype))
            assert np.all(np.isfinite(out))
            for grad in grads:
                assert np.all(np.isfinite(grad))


def test_bilstm_graph_keeps_gates_only():
    # per direction the cache is the 4H activated gates of every step, plus the
    # norm's per-slice mean and inverse std; the node's value is the half's
    # output, and backward re-forms the cell and hidden states and the
    # projection output (keeping the hidden states would add 2H per step and
    # sequence, about 1.2x, and the projection output F more)
    features, steps, batch, hidden = 16, 16, 8, 16
    for axis in (1, 2):
        arrays, _ = _half_case(np.random.default_rng(0), _chunk_shape(axis, features, batch, steps), hidden)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            out = ops.bilstm_layer(tensors[0], axis, *tensors[1:])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        expected = (2 * 4 * hidden * steps * batch + features * steps * batch) * 8
        assert held <= 1.05 * expected, f"axis {axis}: {held} bytes held, {held / expected:.3f}x the gates and output"


def _assert_bytes_equal(out, grads, ref_out, ref_grads):
    assert out.dtype == np.float32 and out.tobytes() == np.ascontiguousarray(ref_out).tobytes()
    for grad, ref in zip(grads, ref_grads, strict=True):
        assert grad.dtype == ref.dtype == np.float32
        assert grad.shape == ref.shape
        assert grad.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_bilstm_grads_equal_a_cell_caching_reference_bit_for_bit():
    # re-forming c(t), h(t) and the projection output in backward must round
    # exactly as the forward did
    for axis in (1, 2):
        arrays, g_out = _half_case(np.random.default_rng(5), (64, 50, 41), hidden=64, dtype=np.float32)
        out, grads = _half_with_grads(arrays, axis, g_out)

        def chain(*args):
            return reference.dual_path_half(*args, direction=reference.cell_caching_direction)

        ref_out, ref_grads = _half_with_grads(arrays, axis, g_out, half=chain)
        _assert_bytes_equal(out, grads, ref_out, ref_grads)


@pytest.mark.parametrize("batch,steps", [(41, 50), (50, 41), (159, 50), (50, 159)])
def test_bilstm_layer_equals_the_unfused_chain_bit_for_bit(batch, steps):
    # the intra-chunk (steps K=50) and inter-chunk (steps C) halves at the
    # train-1s (C=41) and eval-4s (C=159) shapes, D=H=F=64, against the
    # transpose -> BiLSTM with projection -> transpose -> layer norm with
    # residual chain they replace; K = 50, so 50 steps is the intra-chunk half
    axis = 1 if steps == 50 else 2
    arrays, g_out = _half_case(
        np.random.default_rng(batch), _chunk_shape(axis, 64, batch, steps), hidden=64, dtype=np.float32
    )
    out, grads = _half_with_grads(arrays, axis, g_out)
    ref_out, ref_grads = _half_with_grads(arrays, axis, g_out, half=reference.dual_path_half)
    _assert_bytes_equal(out, grads, ref_out, ref_grads)


# -- the affine layer norm ---------------------------------------------------------


def _layer_norm_composition(x, axes, gain, bias, g):
    """The unfused graph in numpy: normalize -> * gain -> + bias.

    Returns the output and the grads of x, gain and bias for the upstream
    grad g, each formed the way those three nodes form them.
    """
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    degenerate = var < ops.LAYER_NORM_VAR_FLOOR
    inv_std = np.where(degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    y = centered * inv_std
    out = y * gain + bias
    reduce = tuple(i for i, n in enumerate(gain.shape) if n == 1)
    g_y = g * gain
    g_mean = g_y.mean(axis=axes, keepdims=True)
    gy_mean = (g_y * y).mean(axis=axes, keepdims=True)
    g_x = inv_std * (g_y - g_mean - y * gy_mean)
    g_gain = (g * y).sum(axis=reduce, keepdims=True)
    g_bias = g.sum(axis=reduce, keepdims=True)
    return out, (g_x, g_gain, g_bias)


@pytest.mark.parametrize("transposed,axes", [(True, (0, 1)), (False, (0, 2))], ids=["view-0-1", "0-2"])
def test_layer_norm_is_bit_identical_to_the_composition(transposed, axes):
    rng = np.random.default_rng(64)
    shape = (64, 50, 41)
    x = rng.standard_normal((64, 41, 50)).astype(np.float32).transpose(0, 2, 1) if transposed else (
        rng.standard_normal(shape).astype(np.float32)
    )
    gain = rng.uniform(0.5, 1.5, (64, 1, 1)).astype(np.float32)
    bias = rng.uniform(-0.5, 0.5, (64, 1, 1)).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    tensors = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    out = ops.layer_norm(tensors[0], axes, *tensors[1:])
    out.backward(seed=g)
    ref_out, ref_grads = _layer_norm_composition(x, axes, gain, bias, g)
    assert out.dtype == np.float32
    assert np.array_equal(out.data, ref_out)
    for tensor, ref in zip(tensors, ref_grads, strict=True):
        assert tensor.grad.dtype == np.float32
        assert np.array_equal(tensor.grad, ref)


def test_recorded_layer_norm_keeps_no_input_sized_array():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((64, 50, 41)), requires_grad=True)
    gain = Tensor(np.ones((64, 1, 1)), requires_grad=True)
    bias = Tensor(np.zeros((64, 1, 1)), requires_grad=True)
    tracemalloc.start()
    try:
        out = ops.layer_norm(x, (0, 2), gain, bias)
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
