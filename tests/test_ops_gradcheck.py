"""Analytic backward passes against the central finite-difference oracle,
plus the handful of closed-form cases checkable by eye."""

import inspect
import tracemalloc

import numpy as np
import pytest

from tastas.errors import ConfigError
from tastas.numerics import gradcheck, ops
from tastas.numerics.gradcheck import BUILDERS, _u, check_case, check_kind, run_suite
from tastas.numerics.tensor import Tensor

import dual_path_reference as reference
import stage_reference

SPEC_KINDS = [
    "encode",
    "linear",
    "bilstm_layer",
    "mask_input",
    "mask_decode",
    "log",
    "concat",
    "elementwise_mul",
    "reshape",
]


def _build_ref_prelu(rng):
    # |x| >= 0.01 keeps every +-step difference on one side of the kink at 0;
    # the random sign still exercises both slopes
    sign = np.where(rng.uniform(size=(3, 5)) < 0.5, -1.0, 1.0)
    x = Tensor(rng.uniform(0.01, 1.0, size=(3, 5)) * sign)
    slope = Tensor(rng.uniform(0.1, 0.5, size=(1,)))
    return [x, slope], lambda ts: stage_reference.prelu(ts[0], ts[1])


def _build_ref_conv1d(rng):
    x, w = _u(rng, 2, 14), _u(rng, 3, 2, 4)
    return [x, w], lambda ts: stage_reference.conv1d(ts[0], ts[1], stride=2)


def _build_ref_layer_norm(rng):
    x, gain, bias = _u(rng, 3, 4, 2), _u(rng, 3, 1, 1), _u(rng, 3, 1, 1)
    return [x, gain, bias], lambda ts: stage_reference.layer_norm(ts[0], (0, 1), ts[1], ts[2])


def _build_ref_softmax(rng):
    x = _u(rng, 3, 4, lo=-2.0, hi=2.0)
    return [x], lambda ts: stage_reference.softmax(ts[0], axis=0)


def _build_ref_segment_chunks(rng):
    x = _u(rng, 3, 11)
    return [x], lambda ts: stage_reference.segment_chunks(ts[0], chunk_len=4, hop=2)[0]


def _build_ref_merge_chunks(rng):
    x = _u(rng, 2, 4, 5)
    # layout: padded = 4 + 4*2 = 12, claim 11 real frames + 1 pad
    return [x], lambda ts: stage_reference.merge_chunks(ts[0], hop=2, out_frames=11, pad_frames=1)


def _build_ref_overlap_add(rng):
    x = _u(rng, 4, 5)
    return [x], lambda ts: stage_reference.overlap_add(ts[0], stride=2, out_len=12)


# The unfused stage chain's ops, which the fused stage nodes must equal byte
# for byte: checked against finite differences too, so that oracle is sound.
REFERENCE_BUILDERS = {
    "prelu": _build_ref_prelu,
    "conv1d": _build_ref_conv1d,
    "layer_norm": _build_ref_layer_norm,
    "softmax": _build_ref_softmax,
    "segment_chunks": _build_ref_segment_chunks,
    "merge_chunks": _build_ref_merge_chunks,
    "overlap_add": _build_ref_overlap_add,
}


@pytest.mark.parametrize("kind", sorted(BUILDERS.keys() | REFERENCE_BUILDERS.keys()))
def test_kind_matches_finite_differences(kind, monkeypatch):
    if kind in REFERENCE_BUILDERS:
        monkeypatch.setitem(BUILDERS, kind, REFERENCE_BUILDERS[kind])
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
    assert {"add", "bilstm_layer", "encode", "mask_input", "mask_decode"} <= set(public)
    missing = [name for name in public if name not in NOT_GRAPH_OPS and BUILDER_KIND.get(name, name) not in BUILDERS]
    assert not missing, f"ops without a gradcheck builder: {missing}"
    stale = sorted((NOT_GRAPH_OPS | set(BUILDER_KIND)) - set(public))
    assert not stale, f"names listed here that are not public ops: {stale}"


def test_conv1d_stride2_20_trials():
    # the stage encoder's stride-2 convolution, through encode
    report = check_kind("encode", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def test_softmax_with_logloss_20_trials():
    report = check_kind("softmax_logloss", trials=20, tolerance=1e-4, seed=5)
    assert report.passed


def _loop_worst(analytic, numeric):
    """The per-element scan that check_case's array form replaced, kept as its reference."""
    worst, detail = 0.0, ""
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        for j, (x, y) in enumerate(zip(a.reshape(-1).tolist(), n.reshape(-1).tolist())):
            err = abs(x - y) / max(1e-4, abs(x), abs(y))
            if err > worst:
                worst, detail = err, f"input {i} elem {j}: analytic={x:.6e} numeric={y:.6e}"
    return worst, detail


@pytest.mark.parametrize("kind", ["linear", "bilstm_layer", "mask_decode", "stft"])
def test_check_case_finds_the_worst_element_the_loop_finds(kind, monkeypatch):
    numeric = []
    real = gradcheck.numeric_gradients
    monkeypatch.setattr(gradcheck, "numeric_gradients", lambda *args: numeric.append(real(*args)) or numeric[-1])
    rng = np.random.default_rng(4)
    inputs, forward = BUILDERS[kind](rng)
    got = check_case(forward, inputs, rng)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]
    assert got == _loop_worst(analytic, numeric[0])


def build_nan_gradient(rng):
    """A doubling op whose backward writes NaN into element 2 of its input's gradient."""
    x = _u(rng, 4)

    def forward(ts):
        (t,) = ts

        def backward(g):
            grad = 2.0 * g
            grad[2] = np.nan
            t._accum_grad(grad)

        return Tensor._from_op(2.0 * t.data, (t,), backward)

    return [x], forward


def test_nan_gradient_fails_the_check_and_names_its_element():
    rng = np.random.default_rng(0)
    err, detail = check_case(*reversed(build_nan_gradient(rng)), rng)
    assert err == np.inf
    assert detail.startswith("input 0 elem 2: analytic=nan numeric=")


@pytest.mark.parametrize("trials,seed,message", [(0, 0, "trials"), (-2, 0, "trials"), (1, -1, "seed")])
def test_check_kind_rejects_no_trials_and_a_negative_seed(trials, seed, message):
    # zero trials would report a pass that checked nothing
    with pytest.raises(ConfigError, match=f"{message} must be"):
        check_kind("log", trials=trials, seed=seed)


def test_suite_report_carries_failures():
    reports = run_suite(kinds=["log"], trials=2, tolerance=1e-30)
    assert [r.kind for r in reports] == ["log"]
    assert not reports[0].passed
    assert "FAIL" in reports[0].line()


# -- closed-form cases ---------------------------------------------------------


def _masks(chunks, mask_weight, frames):
    """mask_decode's softmax masks (S, N, frames) of chunks (N, K, C) merged every K/2 frames."""
    return ops._merge_and_mask(chunks, mask_weight, chunks.shape[1] // 2, frames)[1]


def test_softmax_symmetry():
    # equal logits, from a zero mask weight, give each of 2 speakers half of every bin
    masks = _masks(np.ones((3, 4, 3)), np.zeros((6, 3)), 8)
    assert np.allclose(masks, 0.5)


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    masks = _masks(rng.uniform(-30, 30, size=(3, 4, 4)), rng.uniform(-3, 3, size=(9, 3)), 9)
    assert masks.shape == (3, 3, 9)
    assert np.all(masks > 0)
    assert np.allclose(masks.sum(axis=0), 1.0, atol=1e-9)


def test_prelu_definition():
    slope = np.array([0.25])
    assert ops._prelu(np.array([-1.0]), slope)[0][0] == pytest.approx(-0.25)
    assert ops._prelu(np.array([2.0]), slope)[0][0] == pytest.approx(2.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.25, -0.25])
def test_prelu_bit_select_equals_the_where_form_byte_for_byte(dtype, slope):
    # signed zeros, NaN, infinities and subnormals among random values, each
    # on either side of the kink, through PReLU and both of its grads
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-40, -1e-40, 1.0, -1.0]
    x = np.concatenate([np.array(special, dtype=dtype), rng.standard_normal(990).astype(dtype)]).reshape(10, 100)
    g = np.concatenate([np.array(special[::-1], dtype=dtype), rng.standard_normal(990).astype(dtype)]).reshape(10, 100)
    s = np.array([slope], dtype=dtype)
    with np.errstate(invalid="ignore"):  # inf * 0 and NaN sums, in both forms alike
        out, positive = ops._prelu(x, s)
        ref_out, ref_positive = stage_reference.prelu_where(x, s)
        pairs = [
            (out, ref_out),
            (ops._prelu_input_grad(g, positive, s), np.where(positive, g, s * g)),
            (ops._prelu_slope_grad(g, positive, x, s.shape), ops._unbroadcast(np.where(positive, 0.0, x) * g, s.shape)),
            # a strided grad, as a slice of the encoder's stacked rep grad can be
            (ops._prelu_input_grad(g[:, ::2], positive[:, ::2], s), np.where(positive, g, s * g)[:, ::2]),
        ]
    assert np.array_equal(positive, ref_positive)
    for got, want in pairs:
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _identity_bottleneck_chunks(rep, gain, bias):
    """mask_input's chunks of rep (W, T) through an identity bottleneck, at
    chunks of 4 frames every 2."""
    return ops.mask_input(rep, gain, bias, Tensor(np.eye(rep.shape[0])), 4, 2)


def test_layer_norm_constant_vector_maps_to_zero():
    out = _identity_bottleneck_chunks(Tensor(np.full((2, 4), 5.0)), Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))))
    assert np.array_equal(out.data, np.zeros((2, 4, 2)))


def test_layer_norm_normalizes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, size=(4, 6)))
    out = _identity_bottleneck_chunks(x, Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1)))).data
    normalized = np.concatenate([out[:, :, 0], out[:, 2:, 1]], axis=1)  # frames 0-3, then 4-5 of the second chunk
    assert abs(normalized.mean()) < 1e-12
    assert abs(normalized.std() - 1.0) < 1e-9


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
    x = Tensor(np.zeros(8000))
    w = Tensor(np.zeros((64, 1, 16)))
    out = ops.encode([x, x, x], w, Tensor(np.array([0.25])), stride=8)
    assert out.shape == (3 * 64, 999)


def test_conv1d_shape_errors_name_dimensions():
    slope = Tensor(np.array([0.25]))
    with pytest.raises(ConfigError, match="weight"):
        ops.encode([Tensor(np.zeros(30))], Tensor(np.zeros((4, 3, 5))), slope, stride=1)
    with pytest.raises(ConfigError, match="shorter than kernel"):
        ops.encode([Tensor(np.zeros(4))], Tensor(np.zeros((4, 1, 8))), slope, stride=1)
    with pytest.raises(ConfigError, match="one length"):
        ops.encode([Tensor(np.zeros(30)), Tensor(np.zeros(31))], Tensor(np.zeros((4, 1, 8))), slope, stride=1)


def test_overlap_add_inverts_framing_scale():
    # constant frames at stride L/2 double-count except the edges, through the
    # decoder's overlap-add: one speaker's frames from a unit decoder weight
    # on mixture channels of ones, its mask 1 (a lone speaker's softmax)
    rep = Tensor(np.ones((1, 3)))
    chunks = Tensor(np.zeros((1, 4, 2)))
    out = ops.mask_decode(chunks, Tensor(np.zeros((1, 1))), rep, Tensor(np.ones((4, 1))), hop=2, stride=2, out_len=8)
    assert np.allclose(out.data, [[1, 1, 2, 2, 2, 2, 1, 1]])


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


def test_frozen_idnet_graph_keeps_block_outputs_only():
    # A frozen speaker network's graph over a 1 s wave: per 0.5 s segment the
    # spectral front end (a few bins x frames arrays) and each conv block's
    # pooled output with a byte each for its winner and PReLU sign. Keeping
    # the conv and PReLU outputs of the first block alone, as three separate
    # nodes did, would come to two (C0, bins, frames) float32 arrays per segment.
    from tastas.idnet import IdNet, IdNetConfig

    net = IdNet.initialize(IdNetConfig(num_speakers=4), seed=0).freeze()
    config = net.config
    wave = Tensor((0.1 * np.random.default_rng(3).standard_normal(config.sample_rate_hz)).astype(np.float32), True)
    tracemalloc.start()
    try:
        emb = net.embed_segments_graph(wave)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert emb.requires_grad
    segments = -(-wave.shape[0] // config.segment_len)
    first_conv = config.conv_channels[0] * (config.window_len // 2 + 1) * (config.segment_len // config.hop + 1) * 4
    assert held < 2 * segments * first_conv, f"{held} bytes held, {held / first_conv:.2f} first-block conv outputs"


def test_bilstm_backward_peak_holds_one_directions_step_grads():
    # Measured from the end of the forward, so the gates count as held and
    # freeing them counts too. In N = T*B columns, a backward holds at most
    # either of two sets. While the layer norm's backward runs: the output
    # grad and the residual's copy of it, the projection output and the norm
    # backward's three in-place arrays (6F), beside the re-formed c(t) and
    # h(t) of both directions (4H) and their join (2H). When the first
    # direction's BPTT loop ends: the two grads (2F), an (F, T, B) copy of the
    # chunks when the recurrence runs across them, both directions' c(t) and
    # h(t) and the first's tanh c(t), re-formed for its loop (5H), the
    # hidden-state grads (2H) and that direction's step grads (4H); its gates,
    # c(t) and tanh c(t) go before the flat copy of the step grads is made.
    # Beside either, the weight-sized w_hh^T (4H x H) and projection grad (F x 2H).
    features, steps, batch, hidden = 16, 16, 8, 16
    columns = steps * batch
    for axis in (1, 2):
        arrays, g_out = _half_case(np.random.default_rng(0), _chunk_shape(axis, features, batch, steps), hidden)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        chunk_copy = features if axis == 2 else 0
        held = max(6 * features + 6 * hidden, 2 * features + chunk_copy + 11 * hidden)
        floats = held * columns + 4 * hidden * hidden + 2 * hidden * features
        expected = floats * g_out.itemsize
        # numpy's ufunc iterator buffers (np.getbufsize() elements per operand,
        # 64 KiB by default) would outweigh these arrays at this small shape
        bufsize = np.setbufsize(128)
        tracemalloc.start()
        try:
            out = ops.bilstm_layer(tensors[0], axis, *tensors[1:])
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out.backward(seed=g_out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak <= 1.1 * expected, f"axis {axis}: peak {peak} bytes, {peak / expected:.3f}x the arrays it needs"


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
    # the norm that mask_input and bilstm_layer share: _normalize forward, and
    # _normalize_backward, which runs its arithmetic in place
    rng = np.random.default_rng(64)
    shape = (64, 50, 41)
    x = rng.standard_normal((64, 41, 50)).astype(np.float32).transpose(0, 2, 1) if transposed else (
        rng.standard_normal(shape).astype(np.float32)
    )
    gain = rng.uniform(0.5, 1.5, (64, 1, 1)).astype(np.float32)
    bias = rng.uniform(-0.5, 0.5, (64, 1, 1)).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    centered, mu, inv_std = ops._normalize(x, axes)
    out = centered * inv_std * gain + bias
    tensors = [Tensor(a, requires_grad=True) for a in (gain, bias)]
    g_x = ops._normalize_backward(g, x, mu, inv_std, *tensors, axes)
    ref_out, ref_grads = _layer_norm_composition(x, axes, gain, bias, g)
    assert out.dtype == np.float32
    assert np.array_equal(out, ref_out)
    for got, ref in zip((g_x, *(t.grad for t in tensors)), ref_grads, strict=True):
        assert got.dtype == np.float32
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_recorded_layer_norm_keeps_no_input_sized_array():
    # mask_input keeps the norm's mean and inverse std, not the normalized rep
    # or the bottleneck output
    rng = np.random.default_rng(5)
    rep = Tensor(rng.standard_normal((192, 999)), requires_grad=True)
    gain = Tensor(np.ones((192, 1)), requires_grad=True)
    bias = Tensor(np.zeros((192, 1)), requires_grad=True)
    weight = Tensor(rng.standard_normal((64, 192)), requires_grad=True)
    tracemalloc.start()
    try:
        out = ops.mask_input(rep, gain, bias, weight, 50, 25)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    # the output itself plus per-slice statistics and bookkeeping, well under a bottleneck output
    assert held < out.data.nbytes + 64 * 999 * 8 // 4


# Reference copies of the earlier max_pool2d (one argmax over a reshaped,
# transposed copy of the windows) and conv2d (tensordot over a sliding-window
# view of the padded input). conv_block must match their composition with
# prelu bit for bit.


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

    def backward(g):
        g_blocks = np.zeros_like(blocks)
        np.put_along_axis(g_blocks, arg[..., None], g[..., None], axis=3)
        g_trim = (
            g_blocks.reshape(channels, out_h, out_w, size, size)
            .transpose(0, 1, 3, 2, 4)
            .reshape(channels, out_h * size, out_w * size)
        )
        gx = np.zeros_like(x.data)
        gx[:, : out_h * size, : out_w * size] = g_trim
        x._accum_grad(gx)

    out_data = np.ascontiguousarray(np.take_along_axis(blocks, arg[..., None], axis=3)[..., 0])
    return Tensor._from_op(out_data, (x,), backward)


def _ref_conv2d(x: Tensor, weight: Tensor, padding: int = 1) -> Tensor:
    c_in, height, width = x.shape
    c_out, _, kh, kw = weight.shape
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    out_h = height + 2 * padding - kh + 1
    out_w = width + 2 * padding - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    out_data = np.tensordot(weight.data, windows, axes=([1, 2, 3], [0, 3, 4]))

    def backward(g):
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

    return Tensor._from_op(np.ascontiguousarray(out_data), (x, weight), backward)


def _ref_conv_block(x: Tensor, weight: Tensor, slope: Tensor) -> Tensor:
    return _ref_max_pool2d(stage_reference.prelu(_ref_conv2d(x, weight), slope))


def _block_value_and_grads(block, x, w, slope, g_out, frozen: bool):
    """The block's output and grads; a frozen block's weight and slope are constants."""
    tensors = [Tensor(x.copy(), requires_grad=True)]
    tensors += [Tensor(a.copy(), requires_grad=not frozen) for a in (w, slope)]
    out = block(*tensors)
    out.backward(g_out)
    return [out.data] + [t.grad for t in tensors if t.requires_grad]


def _assert_block_matches_reference(x, w, slope, g_out):
    for frozen in (False, True):
        got = _block_value_and_grads(ops.conv_block, x, w, slope, g_out, frozen)
        want = _block_value_and_grads(_ref_conv_block, x, w, slope, g_out, frozen)
        assert len(got) == (2 if frozen else 4)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(3, 7, 9), (2, 6, 8), (16, 257, 32), (5, 3, 5)])
def test_max_pool2d_matches_argmax_reference_bit_for_bit(shape):
    # shape is the conv output's. Small integer inputs and weights give exact
    # integer conv outputs that tie often inside a window, and PReLU runs with
    # a negative slope as well as a positive one; odd H and W leave a trailing
    # row and column to drop. An integer upstream grad keeps every grad sum
    # exact in any order, so the comparison checks where the pool routes it
    rng = np.random.default_rng(sum(shape))
    channels, height, width = shape
    x = rng.integers(-2, 3, size=(2, height, width)).astype(np.float32)
    w = rng.integers(-1, 2, size=(channels, 2, 3, 3)).astype(np.float32)
    g = rng.integers(-3, 4, size=(channels, height // 2, width // 2)).astype(np.float32)
    for slope in (0.25, -0.25):
        _assert_block_matches_reference(x, w, np.array([slope], dtype=np.float32), g)


@pytest.mark.parametrize(
    "c_in,c_out,height,width", [(1, 16, 257, 32), (16, 32, 128, 16), (32, 64, 64, 8), (64, 64, 32, 4)]
)
def test_conv2d_matches_tensordot_reference_bit_for_bit(c_in, c_out, height, width):
    # the four block shapes of the default speaker network on a 0.5 s segment
    rng = np.random.default_rng(c_in + c_out)
    x = rng.standard_normal((c_in, height, width)).astype(np.float32)
    w = (rng.standard_normal((c_out, c_in, 3, 3)) / (3 * np.sqrt(c_in))).astype(np.float32)
    g = rng.standard_normal((c_out, height // 2, width // 2)).astype(np.float32)
    _assert_block_matches_reference(x, w, np.array([0.25], dtype=np.float32), g)


def test_frozen_conv2d_keeps_no_im2col_or_padded_input():
    rng = np.random.default_rng(2)
    x_data = rng.standard_normal((16, 128, 16)).astype(np.float32)
    w_data = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)

    def held_bytes(trainable: bool):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data, requires_grad=trainable)
        slope = Tensor(np.array([0.25], dtype=np.float32), requires_grad=trainable)
        tracemalloc.start()
        try:
            out = ops.conv_block(x, w, slope)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        out.backward(np.ones(out.shape, dtype=np.float32))
        return held, out.data.nbytes

    held, out_bytes = held_bytes(trainable=False)
    # the pooled output and one byte each for the winner and its PReLU sign,
    # a quarter of the output's float32 bytes each; the conv output alone
    # would be four times the pooled output, a padded input copy over x.nbytes
    assert held < 1.5 * out_bytes + 4096, f"{held} bytes held for a {out_bytes}-byte output"
    # the same measure sees the 9-slab im2col and the conv output a trainable block needs
    held, _ = held_bytes(trainable=True)
    assert held >= 9 * x_data.nbytes + 4 * out_bytes


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
    monkeypatch.setattr(ops, "conv_block", _ref_conv_block)
    want = embed_and_grad()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
