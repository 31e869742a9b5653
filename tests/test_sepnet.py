import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from tastas.audio.wavio import Waveform, wav_write
from tastas.errors import ConfigError, DataError
from tastas.objectives import multi_stage_loss_graph
from tastas.numerics import ops
from tastas.numerics.tensor import Tensor, _topo_order
from tastas.pipeline.data import LoadedExample, ManifestRecord, load_example, synth_mixture_corpus
from tastas.pipeline.evaluate import evaluate
from tastas.sepnet import ModelConfig, TasTasModel, parse_preset
from tastas.sepnet import model as sepnet_model
from tastas.sepnet.model import dual_path_block, init_params, stage_forward

import dual_path_reference as reference
import stage_reference

TINY = ModelConfig(stage_blocks=(1,), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)


def _tiny_two_stage():
    return ModelConfig(stage_blocks=(1, 1), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)


# -- configuration -----------------------------------------------------------------


def test_preset_parsing():
    assert parse_preset("tastas-6").stage_blocks == (6,)
    assert parse_preset("tastas-6-6").stage_blocks == (6, 6)
    assert parse_preset("tastas-8-9").stage_blocks == (8, 9)
    assert not parse_preset("tastas-6-6").use_id_loss


def test_preset_rejects_garbage():
    # only the finetune phase trains with the identity loss, so no preset takes an "i"
    for bad in ("dprnn-6", "tastas", "tastas-i", "tastas-x-6", "tastas-i-6-6", "tastas-i-1"):
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


@pytest.mark.parametrize(
    "field, value", [("num_filters", 0), ("hidden_size", 0), ("chunk_len", 0), ("chunk_len", -2)]
)
def test_model_config_rejects_widths_that_cannot_run(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_three_stage_config_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ModelConfig(stage_blocks=(2, 2, 2))
    assert any("stages" in str(w.message) for w in caught)


def test_describe_matches_block_notation():
    assert _tiny_two_stage().describe() == "TasTas(1, 1)"
    cfg = ModelConfig(stage_blocks=(6, 6), use_id_loss=True)
    assert cfg.describe() == "TasTas(I, 6, 6)"


# -- encoder ----------------------------------------------------------------------


def _encode(params, cfg, stage_index, waves):
    prefix = f"stage{stage_index}"
    return ops.encode(waves, params[f"{prefix}.encoder.weight"], params[f"{prefix}.encoder.prelu"], cfg.stride)


def test_encoder_frame_count():
    cfg = ModelConfig(stage_blocks=(1,), num_filters=64)
    params = init_params(cfg, seed=0, dtype=np.float64)
    wave = Tensor(np.random.default_rng(0).uniform(-1, 1, 8000))
    rep = _encode(params, cfg, 0, [wave])
    assert rep.shape == (64, 999)


def test_stage_two_feature_width_triples():
    cfg = _tiny_two_stage()
    params = init_params(cfg, seed=0, dtype=np.float64)
    n = 328
    waves = [Tensor(np.random.default_rng(i).uniform(-1, 1, n)) for i in range(3)]
    rep = _encode(params, cfg, 1, waves)
    assert rep.shape[0] == 3 * cfg.num_filters
    # wave i's features are rows i*N to (i+1)*N, as encoding it alone gives them
    n_filters = cfg.num_filters
    for i, wave in enumerate(waves):
        assert np.array_equal(rep.data[i * n_filters : (i + 1) * n_filters], _encode(params, cfg, 1, [wave]).data)


def test_zero_waveform_gives_zero_features():
    cfg = TINY
    params = init_params(cfg, seed=0, dtype=np.float64)
    rep = _encode(params, cfg, 0, [Tensor(np.zeros(328))])
    assert np.abs(rep.data).max() == 0.0


def test_encode_wrong_stream_count_errors():
    cfg = _tiny_two_stage()
    params = init_params(cfg, seed=0, dtype=np.float64)
    with pytest.raises(ConfigError, match="expects 3"):
        stage_forward(params, cfg, 1, Tensor(np.zeros(328)), [])


# -- chunking round trip ------------------------------------------------------------


def _identity_mask_input(x, chunk_len):
    """mask_input's chunks of x (F, T) itself: a norm that is the identity on
    x's values (gain std(x), bias mean(x)) and an identity bottleneck."""
    features = x.shape[0]
    gain = Tensor(np.full((features, 1), x.data.std()))
    bias = Tensor(np.full((features, 1), x.data.mean()))
    return ops.mask_input(x, gain, bias, Tensor(np.eye(features)), chunk_len, chunk_len // 2)


@pytest.mark.parametrize("frames,chunk_len", [(8, 4), (4, 4), (50, 50), (999, 50), (37, 10), (3, 4)])
def test_segment_merge_round_trip(frames, chunk_len):
    # mask_input's chunking, then mask_decode's averaging merge, gives back the frames
    rng = np.random.default_rng(frames * 31 + chunk_len)
    x = Tensor(rng.uniform(-1, 1, (5, frames)))
    chunks = _identity_mask_input(x, chunk_len)
    merged, _, _ = ops._merge_and_mask(chunks.data, np.zeros((10, 5)), chunk_len // 2, frames)
    assert np.abs(merged - x.data).max() < 1e-9


def test_segment_examples_from_shape_algebra():
    for frames, shape in ((8, (2, 4, 3)), (4, (2, 4, 2))):  # no pad; then padded to K + hop
        chunks = _identity_mask_input(Tensor(np.random.default_rng(frames).uniform(-1, 1, (2, frames))), 4)
        assert chunks.shape == shape
        # the padded frames are zeros after the norm and bottleneck
        assert np.array_equal(chunks.data[:, 2:, -1] == 0, np.full((2, 2), frames == 4))


def test_merge_constant_tensor_no_edge_artifacts():
    merged, _, _ = ops._merge_and_mask(np.full((3, 4, 5), 2.5), np.zeros((6, 3)), 2, 12)
    assert np.abs(merged - 2.5).max() < 1e-12


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
    normed = centered * inv_std

    def backward(g):
        g_mean = g.mean(axis=axes, keepdims=True)
        gy_mean = (g * normed).mean(axis=axes, keepdims=True)
        x._accum_grad(inv_std * (g - g_mean - normed * gy_mean))

    normalized = Tensor._from_op(normed, (x,), backward)
    y = ops.add(ops.mul(normalized, gain), bias)
    return y if residual is None else ops.add(residual, y)


def _forward_and_grads(model, mix, targets):
    model.params.zero_grads()
    outs = model.forward(mix)
    loss, _ = multi_stage_loss_graph(outs, targets)
    loss.backward()
    return [est.data for stage in outs for est in stage], {n: t.grad for n, t in model.params.items()}


def test_fused_norm_sites_match_the_unfused_graph_bit_for_bit(monkeypatch):
    # the fused stage nodes and dual-path halves against a graph of separate
    # conv1d, prelu, transpose, BiLSTM-with-projection, normalize, mul, add,
    # chunking, softmax and overlap-add nodes
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
    def unfused_block(params, base, chunks):
        return reference.dual_path_block(params, base, chunks, norm=_unfused_layer_norm)

    def unfused_stage(*args):
        return stage_reference.stage_forward(*args, norm=_unfused_layer_norm, block=unfused_block)

    monkeypatch.setattr(sepnet_model, "stage_forward", unfused_stage)
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
    rep = _encode(params, cfg, 0, [Tensor(np.random.default_rng(5).uniform(-1, 1, 500))])
    chunks = ops.mask_input(
        rep,
        params["stage0.separator.input_norm.gain"],
        params["stage0.separator.input_norm.bias"],
        params["stage0.separator.bottleneck.weight"],
        cfg.chunk_len,
        cfg.chunk_hop,
    )
    mask_weight = params["stage0.separator.mask.weight"].data
    _, masks, _ = ops._merge_and_mask(chunks.data, mask_weight, cfg.chunk_hop, rep.shape[1])
    assert masks.shape == (2, 8, rep.shape[1])
    assert np.all(masks > 0)
    assert np.all(masks < 1)
    assert np.abs(masks.sum(axis=0) - 1.0).max() < 1e-9


# -- the fused stage nodes against the unfused chain ------------------------------------


def _stage_case(stage_index, samples):
    """A float32 two-stage model at default widths (one block a stage, narrow
    LSTMs), the stage's input waves as leaves, and an upstream grad per speaker."""
    cfg = ModelConfig(stage_blocks=(1, 1), hidden_size=8)
    params = init_params(cfg, seed=stage_index)
    rng = np.random.default_rng(samples + stage_index)
    for name, tensor in params.items():  # norms start as identity; move them off it
        if name.endswith("norm.gain"):
            tensor.data[...] = rng.uniform(0.5, 1.5, tensor.shape)
        elif name.endswith("norm.bias"):
            tensor.data[...] = rng.uniform(-0.1, 0.1, tensor.shape)
    waves = [(0.3 * rng.standard_normal(samples)).astype(np.float32) for _ in range(cfg.input_streams(stage_index))]
    seeds = [rng.standard_normal(samples).astype(np.float32) for _ in range(cfg.num_speakers)]
    return cfg, params, waves, seeds


def _stage_value_and_grads(forward, cfg, params, waves, stage_index, seeds):
    params.zero_grads()
    leaves = [Tensor(w.copy(), requires_grad=i < len(waves) - 1) for i, w in enumerate(waves)]
    outs = forward(params, cfg, stage_index, leaves[-1], leaves[:-1] if stage_index else None)
    loss = None
    for out, seed in zip(outs, seeds, strict=True):
        term = ops.tsum(ops.mul(out, ops.const(seed)))
        loss = term if loss is None else ops.add(loss, term)
    loss.backward()
    grads = {name: t.grad for name, t in params.items()}
    grads.update({f"wave{i}": t.grad for i, t in enumerate(leaves[:-1])})
    return [o.data for o in outs], grads


@pytest.mark.parametrize("samples", [8000, 32000], ids=["999-frames", "3999-frames"])
@pytest.mark.parametrize("stage_index", [0, 1], ids=["stage0-1-wave", "stage1-3-waves"])
def test_fused_stage_nodes_equal_the_unfused_chain_bit_for_bit(stage_index, samples):
    cfg, params, waves, seeds = _stage_case(stage_index, samples)
    outs, grads = _stage_value_and_grads(stage_forward, cfg, params, waves, stage_index, seeds)
    ref_outs, ref_grads = _stage_value_and_grads(stage_reference.stage_forward, cfg, params, waves, stage_index, seeds)
    assert len(outs) == len(ref_outs) == 2
    for out, ref in zip(outs, ref_outs):
        assert out.dtype == ref.dtype == np.float32 and out.tobytes() == ref.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        if not name.startswith(f"stage{stage_index}.") and not name.startswith("wave"):
            continue
        grad = grads[name]
        assert grad is not None and ref is not None, name
        assert grad.dtype == ref.dtype and grad.tobytes() == ref.tobytes(), name


def test_stage_records_encode_mask_input_blocks_and_mask_decode():
    cfg, params, waves, _ = _stage_case(1, 8000)
    leaves = [Tensor(w, requires_grad=True) for w in waves]
    outs = stage_forward(params, cfg, 1, leaves[-1], leaves[:-1])
    kinds = []
    for node in _topo_order(outs[0]):
        if node._backward is not None:
            kinds.append(node._backward.__qualname__.split(".")[0])
    # the getitem of rep's mixture channels that mask_decode reads the last speaker's product through
    assert sorted(kinds) == ["bilstm_layer", "bilstm_layer", "encode", "getitem", "getitem", "mask_decode", "mask_input"]


def test_recorded_stage_keeps_gates_block_outputs_chunks_and_rep_only():
    # A recorded stage at default widths on 1 s holds rep (W, T), mask_input's
    # chunks and each half's output (N, K, C), each half's gates (2 x 4H per
    # step and sequence) and the (S, L) waves. The unfused chain also held
    # the conv and PReLU outputs, the norm and bottleneck outputs, the merged
    # chunks, logits, masks and masked products: (N, T) arrays, each 0.24 MiB.
    cfg = ModelConfig(stage_blocks=(1, 1))
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    waves = [Tensor((0.3 * rng.standard_normal(8000)).astype(np.float32), requires_grad=True) for _ in range(3)]
    n, frames = cfg.num_filters, 999
    count, _ = ops.chunk_layout(frames, cfg.chunk_len, cfg.chunk_hop)
    columns = cfg.chunk_len * count
    tracemalloc.start()
    try:
        outs = stage_forward(params, cfg, 1, waves[-1], waves[:-1])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert outs[0].requires_grad
    expected = (3 * n * frames + 3 * n * columns + 2 * 2 * 4 * cfg.hidden_size * columns + 2 * 8000) * 4
    spare = held - expected
    assert 0 <= spare < n * frames * 4 / 2, f"{spare} bytes beside the arrays a stage needs"


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


# -- bad mixtures fail at the model boundary --------------------------------------------


def test_mixture_shorter_than_the_kernel_is_a_data_error():
    model = TasTasModel.initialize(TINY, seed=0)
    with pytest.raises(DataError, match=r"15 samples is shorter than the encoder kernel \(16\)"):
        model.separate(np.zeros(15))
    assert len(model.separate(np.zeros(16))) == 2  # one encoder frame is enough


def test_non_finite_mixture_is_a_data_error():
    model = TasTasModel.initialize(TINY, seed=0)
    with pytest.raises(DataError, match="sample 0 is not finite"):
        model.separate(np.full(800, np.nan))
    mixture = np.zeros(800)
    mixture[123] = -np.inf
    with pytest.raises(DataError, match=r"sample 123 is not finite \(-inf\)"):
        model.separate(mixture)
    with pytest.raises(DataError, match="1-D"):
        model.separate(np.zeros((2, 800)))


def test_evaluate_turns_bad_mixtures_into_error_rows(tmp_path, monkeypatch):
    # a 10-sample mixture on disk, and a non-finite one (no 16-bit WAV can hold
    # one) handed to evaluate() as a loaded example
    records = synth_mixture_corpus(tmp_path, "test", 2, 4, 0.5, 0, 5, seed=8)
    sources = (str(tmp_path / "s1.wav"), str(tmp_path / "s2.wav"))
    short = ManifestRecord(str(tmp_path / "short.wav"), sources, 0.0, (0, 1))
    for path in (short.mix_path, *short.src_paths):
        wav_write(path, Waveform(np.linspace(-0.5, 0.5, 10)))

    def load(record):
        example = load_example(record)
        if record is records[1]:
            mixture = np.full(len(example.mixture), np.nan)
            example = LoadedExample(example.utt_id, mixture, example.targets, example.sample_rate_hz)
        return example

    monkeypatch.setattr(importlib.import_module("tastas.pipeline.evaluate"), "load_example", load)
    rows = evaluate(TasTasModel.initialize(TINY, seed=0), [records[0], records[1], short]).table("tiny").splitlines()
    assert "ERROR" not in rows[1]
    assert rows[2] == f"{records[1].utt_id}\tERROR\tmixture sample 0 is not finite (nan)"
    assert rows[3] == "short\tERROR\tmixture of 10 samples is shorter than the encoder kernel (16)"
