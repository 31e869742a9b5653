from dataclasses import replace

import numpy as np
import pytest

from tastas.audio import Waveform, synth_speaker_source
from tastas.errors import DataError
from tastas.idnet import IdNet, IdNetConfig, slice_segments, train_idnet
from tastas.numerics import ops
from tastas.numerics.gradcheck import check_case
from tastas.numerics.tensor import Tensor

TINY = IdNetConfig(
    num_speakers=3,
    segment_s=0.06,
    window_len=64,
    hop=16,
    conv_channels=(4, 8),
    embedding_dim=16,
    sample_rate_hz=8000,
)


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
    assert np.allclose(utt.values, emb.data, atol=1e-6)


def test_embedding_mean_of_repeated_segment_is_unchanged():
    net = IdNet.initialize(TINY, seed=8)
    seg = np.random.default_rng(9).uniform(-0.5, 0.5, TINY.segment_len)
    one = net.embed_utterance(Waveform(seg))
    two = net.embed_utterance(Waveform(np.concatenate([seg, seg])))
    assert np.allclose(one.values, two.values, atol=1e-5)


def test_slice_segments_pads_trailing():
    pieces = slice_segments(np.ones(10), 4)
    assert len(pieces) == 3
    assert np.array_equal(pieces[2], [1, 1, 0, 0])
    with pytest.raises(DataError):
        slice_segments(np.ones(0), 4)


def test_freeze_blocks_gradients():
    net = IdNet.initialize(TINY, seed=10).freeze()
    x = Tensor(np.random.default_rng(11).uniform(-0.5, 0.5, TINY.segment_len), requires_grad=True)
    logits, _ = net.forward(x)
    ops.tsum(logits).backward()
    assert x.grad is not None
    assert all(t.grad is None for _, t in net.params.items())


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


def test_train_reports_epoch_telemetry():
    _, report = train_idnet(_two_speaker_corpus(), replace(TINY, num_speakers=2), epochs_max=2, target_accuracy=1.1)
    assert report.epochs_run == 2
    for column in (report.epoch_s, report.examples_per_s, report.grad_norm_mean, report.grad_norm_max):
        assert len(column) == 2 and all(v > 0 for v in column)
    assert all(0 < m <= x for m, x in zip(report.grad_norm_mean, report.grad_norm_max))
    assert all(0.0 <= r <= 1.0 for r in report.clip_rate)
    rows = report.rows()
    assert len(rows) == 2
    assert [len(r.split("\t")) for r in rows] == [len(report.HEADER.split("\t"))] * 2
    assert rows[1].startswith("2\t")


def test_idnet_clip_rate_is_one_when_every_step_clips(monkeypatch):
    from tastas.idnet import train

    monkeypatch.setattr(train, "GRAD_CLIP", 1e-9)
    _, report = train_idnet(_two_speaker_corpus(), replace(TINY, num_speakers=2), epochs_max=1)
    assert report.clip_rate == [1.0]
    assert report.grad_norm_max[0] > 1e-9
