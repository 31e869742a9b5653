from dataclasses import replace

import numpy as np
import pytest

from tastas.audio import Waveform, hann_window, synth_speaker_source
from tastas.errors import ConfigError, DataError
from tastas.idnet import IdNet, IdNetConfig
from tastas.numerics import ops
from tastas.numerics.gradcheck import check_case
from tastas.numerics.tensor import Tensor
from tastas.pipeline import train
from tastas.pipeline.train import IdNetEpoch, train_idnet

import spectrum_reference

TINY = IdNetConfig(
    num_speakers=3,
    segment_s=0.06,
    window_len=64,
    hop=16,
    conv_channels=(4, 8),
    embedding_dim=16,
    sample_rate_hz=8000,
)


@pytest.mark.parametrize(
    "field,value",
    [("hop", 0), ("hop", -4), ("window_len", 0), ("window_len", 1), ("embedding_dim", 0), ("conv_channels", (4, 0))],
)
def test_config_rejects_a_front_end_that_cannot_run(field, value):
    # these come from a checkpoint header too, so they are checked at construction
    with pytest.raises(ConfigError, match=f"{field} must"):
        replace(TINY, **{field: value})


def test_forward_shapes():
    net = IdNet.initialize(TINY, seed=0)
    seg = np.random.default_rng(0).uniform(-0.5, 0.5, TINY.segment_len).astype(np.float32)
    logits, emb = net.forward(Tensor(seg))
    assert logits.shape == (3,)
    assert emb.shape == (16,)


def test_identical_segments_identical_embeddings():
    net = IdNet.initialize(TINY, seed=0)
    seg = np.random.default_rng(1).uniform(-0.5, 0.5, TINY.segment_len).astype(np.float32)
    a = net.forward(Tensor(seg))[1].data
    b = net.forward(Tensor(seg))[1].data
    assert np.array_equal(a, b)


def test_short_segment_zero_padded_long_rejected():
    net = IdNet.initialize(TINY, seed=0)
    short = np.random.default_rng(2).uniform(-0.5, 0.5, TINY.segment_len - 50).astype(np.float32)
    logits, _ = net.forward(Tensor(short))
    assert logits.shape == (3,)
    with pytest.raises(DataError):
        net.forward(Tensor(np.zeros(TINY.segment_len + 1, dtype=np.float32)))
    with pytest.raises(DataError):
        net.forward(Tensor(np.zeros(0, dtype=np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("short", [0, 37], ids=["full", "padded"])
def test_log_spectrum_equals_the_unfused_chain_bit_for_bit(dtype, short):
    rng = np.random.default_rng(21)
    n = TINY.segment_len
    samples = rng.uniform(-0.5, 0.5, n - short).astype(dtype)
    samples[100:300] = -0.0  # whole frames of negative zeros, whose bins are signed zeros
    samples[300:320] = 0.0
    seed = rng.standard_normal((1, TINY.window_len // 2 + 1, n // TINY.hop + 1)).astype(dtype)
    seed[:, :, 10:14] = -0.0
    results = []
    for log_spectrum in (ops.log_spectrum, spectrum_reference.log_spectrum):
        x = Tensor(samples, requires_grad=True)
        out = log_spectrum(x, hann_window(TINY.window_len), TINY.hop, n)
        out.backward(seed)
        results.append((out.data.dtype, out.data.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]
    assert results[0][0] == dtype


def test_input_gradient_is_exact():
    # the whole front end (DFT, log-magnitude, convs) is differentiable in the waveform
    net = IdNet.initialize(TINY, seed=3)
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, TINY.segment_len)

    def forward(ts):
        logits, _ = net.forward(ts[0])
        return logits

    worst, detail = check_case(forward, [Tensor(x)], np.random.default_rng(5))
    assert worst < 1e-3, f"max rel err {worst:.2e} ({detail})"


def test_embedding_of_exact_segment_matches_forward():
    net = IdNet.initialize(TINY, seed=6)
    seg = np.random.default_rng(7).uniform(-0.5, 0.5, TINY.segment_len).astype(np.float32)
    _, emb = net.forward(Tensor(seg))
    utt = net.embed_utterance(Waveform(seg.astype(np.float64)))
    assert utt.dtype == np.float64
    assert np.allclose(utt, emb.data, atol=1e-6)


def test_embedding_mean_of_repeated_segment_is_unchanged():
    net = IdNet.initialize(TINY, seed=8)
    seg = np.random.default_rng(9).uniform(-0.5, 0.5, TINY.segment_len)
    one = net.embed_utterance(Waveform(seg))
    two = net.embed_utterance(Waveform(np.concatenate([seg, seg])))
    assert np.allclose(one, two, atol=1e-5)


def test_non_finite_embedding_is_a_data_error():
    net = IdNet.initialize(TINY, seed=8)
    net.params["conv0.weight"].data[0, 0, 1, 1] = np.nan
    seg = np.random.default_rng(9).uniform(-0.5, 0.5, TINY.segment_len)
    with pytest.raises(DataError, match="non-finite"):
        net.embed_utterance(Waveform(seg))


def test_embedding_at_another_sample_rate_is_a_data_error():
    net = IdNet.initialize(TINY, seed=8)
    seg = np.random.default_rng(9).uniform(-0.5, 0.5, TINY.segment_len)
    with pytest.raises(DataError, match="16000 Hz, the speaker network at 8000 Hz"):
        net.embed_utterance(Waveform(seg, 16000))


@pytest.mark.filterwarnings("ignore:speaker class")
def test_training_segments_keep_a_short_last_piece_that_forward_pads():
    config, n = replace(TINY, num_speakers=2), TINY.segment_len
    samples = np.random.default_rng(12).uniform(-0.5, 0.5, 2 * n + 7)
    other = np.random.default_rng(13).uniform(-0.5, 0.5, n)
    segments = train._segment_corpus([(Waveform(samples), 0), (Waveform(other), 1)], config)
    assert [(len(piece), label) for piece, label in segments] == [(n, 0), (n, 0), (7, 0), (n, 1)]
    assert all(piece.dtype == np.float32 for piece, _ in segments)
    short = segments[2][0]
    assert np.array_equal(short, samples[2 * n :].astype(np.float32))
    padded = np.concatenate([short, np.zeros(n - 7, dtype=np.float32)])
    net = IdNet.initialize(TINY, seed=14)
    for a, b in zip(net.forward(Tensor(short)), net.forward(Tensor(padded))):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(DataError, match="utterance 1 .speaker 1. is empty"):
        train._segment_corpus([(Waveform(samples), 0), (Waveform(np.zeros(0)), 1)], config)


def test_freeze_blocks_gradients():
    net = IdNet.initialize(TINY, seed=10).freeze()
    x = Tensor(np.random.default_rng(11).uniform(-0.5, 0.5, TINY.segment_len), requires_grad=True)
    logits, _ = net.forward(x)
    ops.tsum(logits).backward()
    assert x.grad is not None
    assert all(t.grad is None for _, t in net.params.items())


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "trainable"])
def test_forward_records_one_node_per_conv_block(frozen):
    # each block's node reads the previous block's output, its conv weight and
    # its PReLU slope directly: no conv or PReLU output is a node of its own
    net = IdNet.initialize(TINY, seed=10)
    if frozen:
        net.freeze()
    x = Tensor(np.random.default_rng(11).uniform(-0.5, 0.5, TINY.segment_len), requires_grad=True)
    _, emb = net.forward(x)
    nodes, stack, seen = [], [emb], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    # the whole front end is one log_spectrum node, which reads the segment and feeds the first block
    spectrum = [n for n in nodes if any(p is x for p in n._parents)]
    assert len(spectrum) == 1 and spectrum[0]._parents == (x,)
    assert spectrum[0]._backward.__qualname__ == "log_spectrum.<locals>.backward"
    previous = spectrum[0]
    for i in range(len(TINY.conv_channels)):
        weight, slope = net.params[f"conv{i}.weight"], net.params[f"conv{i}.prelu"]
        readers = [n for n in nodes if any(p is weight or p is slope for p in n._parents)]
        assert len(readers) == 1, f"block {i}: {len(readers)} nodes read its parameters"
        block = readers[0]
        assert block._parents[1] is weight and block._parents[2] is slope
        assert block._parents[0] is previous
        previous = block


def test_train_rejects_single_speaker():
    wave = synth_speaker_source(0, 1.0, seed=0)
    with pytest.raises(DataError):
        train_idnet([(wave, 0), (wave, 0)], IdNetConfig(num_speakers=2), epochs_max=1)


def test_train_rejects_out_of_range_label():
    wave = synth_speaker_source(0, 1.0, seed=0)
    with pytest.raises(DataError):
        train_idnet([(wave, 0), (wave, 5)], IdNetConfig(num_speakers=2), epochs_max=1)


def _two_speaker_corpus():
    # 2 s per speaker slices into 34 segments of 0.06 s, above the recommended 20
    return [(synth_speaker_source(spk, 2.0, seed=spk), spk) for spk in range(2)]


def test_train_reports_epoch_telemetry(monkeypatch):
    monkeypatch.setattr(train, "IDNET_TARGET_ACCURACY", 1.1)
    _, rows = train_idnet(_two_speaker_corpus(), replace(TINY, num_speakers=2), epochs_max=2)
    assert [r.epoch for r in rows] == [1, 2]
    for t in (r.telemetry for r in rows):
        assert t.epoch_s > 0 and t.examples_per_s > 0
        assert 0 < t.grad_norm_mean <= t.grad_norm_max
        assert 0.0 <= t.clip_rate <= 1.0
    lines = [r.row() for r in rows]
    assert [len(line.split("\t")) for line in lines] == [len(IdNetEpoch.HEADER.split("\t"))] * 2
    assert lines[1].startswith("2\t")


def test_idnet_clip_rate_is_one_when_every_step_clips(monkeypatch):
    monkeypatch.setattr(train, "GRAD_CLIP", 1e-9)
    _, rows = train_idnet(_two_speaker_corpus(), replace(TINY, num_speakers=2), epochs_max=1)
    assert rows[0].telemetry.clip_rate == 1.0
    assert rows[0].telemetry.grad_norm_max > 1e-9


def test_utterance_at_another_sample_rate_is_a_data_error():
    # a 16 kHz utterance would slice into segments of half the configured length in seconds
    corpus = [
        (synth_speaker_source(0, 1.0, seed=0), 0),
        (synth_speaker_source(1, 1.0, seed=1, sample_rate_hz=16000), 1),
    ]
    with pytest.raises(DataError, match="utterance 1 .speaker 1. is at 16000 Hz, the speaker network at 8000 Hz"):
        train_idnet(corpus, IdNetConfig(num_speakers=2), epochs_max=1)


# one segment per speaker is far below the recommended count; the warning is not under test
@pytest.mark.filterwarnings("ignore:speaker class")
def test_train_without_a_training_segment_is_a_data_error():
    # one 0.5 s utterance per speaker is one segment each, and the holdout takes it
    corpus = [(synth_speaker_source(spk, 0.5, seed=spk), spk) for spk in range(2)]
    with pytest.raises(DataError, match="all 2 of 2 segments"):
        train_idnet(corpus, IdNetConfig(num_speakers=2), epochs_max=1)
