import tracemalloc
import warnings

import numpy as np
import pytest

from tastas.errors import ConfigError
from tastas.objectives import multi_stage_loss_graph
from tastas.numerics import ops
from tastas.numerics.tensor import Tensor, _topo_order
from tastas.pipeline.data import synth_mixture_corpus
from tastas.pipeline.evaluate import evaluate
from tastas.sepnet import ModelConfig, TasTasModel, parse_preset
from tastas.sepnet import model as sepnet_model
from tastas.sepnet.model import dual_path_block, encode, estimate_masks, init_params

import dual_path_reference as reference

TINY = ModelConfig(stage_blocks=(1,), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)


def _tiny_two_stage():
    return ModelConfig(stage_blocks=(1, 1), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)


# -- configuration -----------------------------------------------------------------


def test_preset_parsing():
    assert parse_preset("tastas-6").stage_blocks == (6,)
    assert parse_preset("tastas-6-6").stage_blocks == (6, 6)
    assert parse_preset("tastas-8-9").stage_blocks == (8, 9)
    assert not parse_preset("tastas-6-6").use_id_loss
    assert parse_preset("tastas-i-6-6").use_id_loss
    assert parse_preset("tastas-i-2-2").stage_blocks == (2, 2)


def test_preset_rejects_garbage():
    for bad in ("dprnn-6", "tastas", "tastas-i", "tastas-x-6"):
        with pytest.raises(ConfigError):
            parse_preset(bad)


def test_model_config_invariants():
    cfg = ModelConfig(kernel_len=16, chunk_len=50)
    assert (cfg.stride, cfg.chunk_hop) == (8, 25)
    assert [cfg.input_streams(s) for s in range(3)] == [1, 3, 3]
    # checked at construction, and the message names the field the user sets, not a derived one
    with pytest.raises(ConfigError, match="chunk_len"):
        parse_preset("tastas-6", chunk_len=49)
    with pytest.raises(ConfigError, match="kernel_len"):
        parse_preset("tastas-6", kernel_len=15)  # its stride 7 does not divide it
    # kernel_len 3 has stride 1, which divides it: the accepted set is the even lengths and 3
    assert parse_preset("tastas-6", kernel_len=3).stride == 1
    with pytest.raises(ConfigError, match="block count"):
        ModelConfig(stage_blocks=(2, 0))
    with pytest.raises(ConfigError, match="num_speakers"):
        ModelConfig(num_speakers=1)


def test_three_stage_config_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ModelConfig(stage_blocks=(2, 2, 2))
    assert any("stages" in str(w.message) for w in caught)


def test_describe_matches_block_notation():
    assert _tiny_two_stage().describe() == "TasTas(1, 1)"
    cfg = parse_preset("tastas-i-6-6")
    assert cfg.describe() == "TasTas(I, 6, 6)"


# -- encoder ----------------------------------------------------------------------


def test_encoder_frame_count():
    cfg = ModelConfig(stage_blocks=(1,), num_filters=64)
    params = init_params(cfg, seed=0, dtype=np.float64)
    wave = Tensor(np.random.default_rng(0).uniform(-1, 1, 8000))
    rep = encode(params, cfg, 0, [wave])
    assert rep.shape == (64, 999)


def test_stage_two_feature_width_triples():
    cfg = _tiny_two_stage()
    params = init_params(cfg, seed=0, dtype=np.float64)
    n = 328
    waves = [Tensor(np.random.default_rng(i).uniform(-1, 1, n)) for i in range(3)]
    rep = encode(params, cfg, 1, waves)
    assert rep.shape[0] == 3 * cfg.num_filters


def test_zero_waveform_gives_zero_features():
    cfg = TINY
    params = init_params(cfg, seed=0, dtype=np.float64)
    rep = encode(params, cfg, 0, [Tensor(np.zeros(328))])
    assert np.abs(rep.data).max() == 0.0


def test_encode_wrong_stream_count_errors():
    cfg = _tiny_two_stage()
    params = init_params(cfg, seed=0, dtype=np.float64)
    with pytest.raises(ConfigError, match="expects 3"):
        encode(params, cfg, 1, [Tensor(np.zeros(328))])


# -- chunking round trip ------------------------------------------------------------


@pytest.mark.parametrize("frames,chunk_len", [(8, 4), (4, 4), (50, 50), (999, 50), (37, 10), (3, 4)])
def test_segment_merge_round_trip(frames, chunk_len):
    rng = np.random.default_rng(frames * 31 + chunk_len)
    x = Tensor(rng.uniform(-1, 1, (5, frames)))
    chunks, pad = ops.segment_chunks(x, chunk_len, chunk_len // 2)
    back = ops.merge_chunks(chunks, chunk_len // 2, frames, pad)
    assert np.abs(back.data - x.data).max() < 1e-9


def test_segment_examples_from_shape_algebra():
    x = Tensor(np.zeros((2, 8)))
    chunks, pad = ops.segment_chunks(x, 4, 2)
    assert chunks.shape == (2, 4, 3)
    assert pad == 0
    x = Tensor(np.zeros((2, 4)))
    chunks, pad = ops.segment_chunks(x, 4, 2)
    assert chunks.shape == (2, 4, 2)
    assert pad == 2


def test_merge_constant_tensor_no_edge_artifacts():
    x = Tensor(np.full((3, 4, 5), 2.5))
    out = ops.merge_chunks(x, 2, 12, 0)
    assert np.abs(out.data - 2.5).max() < 1e-12


# -- dual-path block ------------------------------------------------------------------


def test_block_preserves_shape():
    cfg = ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=6, chunk_len=6)
    params = init_params(cfg, seed=1, dtype=np.float64)
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, (8, 6, 4)))
    out = dual_path_block(params, "stage0.block0", x)
    assert out.shape == (8, 6, 4)


def test_zero_weight_block_is_identity():
    cfg = ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=6, chunk_len=6)
    params = init_params(cfg, seed=1, dtype=np.float64)
    for name, tensor in params.items():
        if ".block0." in name and ".norm." not in name:
            tensor.data[...] = 0.0
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (8, 6, 4)))
    out = dual_path_block(params, "stage0.block0", x)
    assert np.abs(out.data - x.data).max() == 0.0


def _unfused_layer_norm(x, axes, gain, bias, residual=None):
    """The norm sites as separate nodes: plain layer norm -> mul -> add -> add."""
    mu = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    degenerate = var < ops.LAYER_NORM_VAR_FLOOR
    inv_std = np.where(degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    normalized = Tensor._from_op(centered * inv_std, (x,))

    def backward():
        g = normalized.grad
        g_mean = g.mean(axis=axes, keepdims=True)
        gy_mean = (g * normalized.data).mean(axis=axes, keepdims=True)
        x._accum_grad(inv_std * (g - g_mean - normalized.data * gy_mean))

    normalized._backward = backward
    y = ops.add(ops.mul(normalized, gain), bias)
    return y if residual is None else ops.add(residual, y)


def _forward_and_grads(model, mix, targets):
    model.params.zero_grads()
    outs = model.forward(mix)
    loss, _ = multi_stage_loss_graph(outs, targets)
    loss.backward()
    return [est.data for stage in outs for est in stage], {n: t.grad for n, t in model.params.items()}


def test_fused_norm_sites_match_the_unfused_graph_bit_for_bit(monkeypatch):
    # the fused input norm and dual-path halves against a graph of separate
    # transpose, BiLSTM-with-projection, normalize, mul and add nodes
    cfg = ModelConfig(stage_blocks=(2, 2), num_filters=8, kernel_len=16, chunk_len=8, hidden_size=8)
    model = TasTasModel.initialize(cfg, seed=6)
    rng = np.random.default_rng(6)
    for name, tensor in model.params.items():  # norms start as identity; move them off it
        if name.endswith("norm.gain"):
            tensor.data[...] = rng.uniform(0.5, 1.5, tensor.shape)
        elif name.endswith("norm.bias"):
            tensor.data[...] = rng.uniform(-0.1, 0.1, tensor.shape)
    targets = [rng.uniform(-0.5, 0.5, 1000) for _ in range(2)]
    mix = targets[0] + targets[1]
    fused_outs, fused_grads = _forward_and_grads(model, mix, targets)
    monkeypatch.setattr(ops, "layer_norm", _unfused_layer_norm)
    monkeypatch.setattr(
        sepnet_model,
        "dual_path_block",
        lambda params, base, chunks: reference.dual_path_block(params, base, chunks, norm=_unfused_layer_norm),
    )
    outs, grads = _forward_and_grads(model, mix, targets)
    assert len(outs) == 4
    for fused, ref in zip(fused_outs, outs):
        assert np.array_equal(fused, ref)
    assert fused_grads.keys() == grads.keys()
    for name, grad in grads.items():
        assert grad is not None, name
        assert np.array_equal(fused_grads[name], grad), name


def _recorded_block(cfg, seed):
    params = init_params(cfg, seed=seed)
    shape = (cfg.num_filters, cfg.chunk_len, 41)  # the train-1s chunk layout
    chunks = Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32), requires_grad=True)
    return params, chunks


def test_dual_path_block_records_two_nodes():
    params, chunks = _recorded_block(ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=6, chunk_len=6), 0)
    out = dual_path_block(params, "stage0.block0", chunks)
    nodes = [t for t in _topo_order(out) if t._backward is not None]
    assert len(nodes) == 2  # one bilstm_layer node per half


def test_recorded_dual_path_block_keeps_gates_and_outputs_only():
    # default widths: (F, K, C) = (64, 50, 41). Each half keeps its 2 x 4H gates
    # per step and sequence (4.0 MiB) and its output (0.5 MiB); the unfused
    # chain also held each half's projection output, 10.0 MiB in all
    params, chunks = _recorded_block(ModelConfig(), 0)
    tracemalloc.start()
    try:
        out = dual_path_block(params, "stage0.block0", chunks)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held <= 9.1 * 2**20, f"{held / 2**20:.2f} MiB held"


# -- mask head -------------------------------------------------------------------------


def test_masks_form_a_simplex():
    cfg = ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=6, chunk_len=6)
    params = init_params(cfg, seed=4, dtype=np.float64)
    rep = encode(params, cfg, 0, [Tensor(np.random.default_rng(5).uniform(-1, 1, 500))])
    masks = estimate_masks(params, cfg, 0, rep)
    assert masks.shape[0] == 2
    assert np.all(masks.data > 0)
    assert np.all(masks.data < 1)
    assert np.abs(masks.data.sum(axis=0) - 1.0).max() < 1e-9


# -- full model -------------------------------------------------------------------------


def test_stage_outputs_match_mixture_length():
    model = TasTasModel.initialize(_tiny_two_stage(), seed=0, dtype=np.float64)
    for n in (328, 500, 8000):
        outs = model.forward(np.random.default_rng(n).uniform(-1, 1, n))
        assert len(outs) == 2
        for stage in outs:
            assert len(stage) == 2
            for est in stage:
                assert est.shape == (n,)
                assert np.all(np.isfinite(est.data))


def test_forward_deterministic():
    model = TasTasModel.initialize(TINY, seed=7, dtype=np.float64)
    mix = np.random.default_rng(8).uniform(-1, 1, 400)
    a = model.forward(mix)[-1][0].data
    b = model.forward(mix)[-1][0].data
    assert np.array_equal(a, b)


def test_same_seed_same_params():
    p1 = init_params(TINY, seed=42, dtype=np.float32)
    p2 = init_params(TINY, seed=42, dtype=np.float32)
    assert p1.checksum() == p2.checksum()
    p3 = init_params(TINY, seed=43, dtype=np.float32)
    assert p1.checksum() != p3.checksum()


def test_separate_returns_final_stage_arrays():
    model = TasTasModel.initialize(_tiny_two_stage(), seed=0, dtype=np.float32)
    ests = model.separate(np.random.default_rng(1).uniform(-1, 1, 400))
    assert len(ests) == 2
    assert all(e.dtype == np.float64 for e in ests)


def test_separate_equals_recorded_final_stage():
    model = TasTasModel.initialize(_tiny_two_stage(), seed=3, dtype=np.float32)
    mix = np.random.default_rng(4).uniform(-1, 1, 500)
    recorded = model.forward(mix)[-1]
    assert recorded[0].requires_grad
    for est, ref in zip(model.separate(mix), recorded):
        assert np.array_equal(est, np.asarray(ref.data, dtype=np.float64))


def test_separate_keeps_no_graph_in_memory():
    model = TasTasModel.initialize(_tiny_two_stage(), seed=0, dtype=np.float32)
    mix = np.random.default_rng(2).uniform(-1, 1, 16000)  # 2 s at 8 kHz
    tracemalloc.start()
    try:
        model.separate(mix)
        separate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        outs = model.forward(mix)
        forward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outs[-1][0].requires_grad
    assert separate_peak <= forward_peak / 2


def test_evaluate_rows_do_not_depend_on_thread_count(tmp_path, monkeypatch):
    records = synth_mixture_corpus(tmp_path, "test", 3, 4, 0.5, 0, 5, seed=8)
    model = TasTasModel.initialize(TINY, seed=0)
    monkeypatch.delenv("TASTAS_THREADS", raising=False)
    serial = evaluate(model, records).table("tiny")
    monkeypatch.setenv("TASTAS_THREADS", "2")
    threaded = evaluate(model, records).table("tiny")
    assert serial == threaded
    assert "ERROR" not in serial
