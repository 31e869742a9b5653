import importlib
import math
import re
import wave
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tastas import objectives as obj
from tastas.audio import Waveform, wav_read, wav_write
from tastas.errors import CheckpointError, ConfigError, DataError
from tastas.idnet import IdNetConfig
from tastas.numerics import ops
from tastas.numerics.optim import GRAD_CLIP, AdamState, ParamSet
from tastas.numerics.tensor import Tensor
from tastas.pipeline import (
    SepTrainer,
    TrainConfig,
    load_sep_checkpoint,
    load_train_config,
    read_manifest,
    run_phase,
    synth_mixture_corpus,
    write_manifest,
)
from tastas.pipeline.data import load_examples
from tastas.pipeline.evaluate import evaluate
from tastas.pipeline.train import EpochReport, read_report, save_sep_checkpoint, train_pass
from tastas.sepnet import ModelConfig, parse_preset


# -- config files ------------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        """
# comment line
phase=sep
epochs_max=7
batch_size=2
initial_lr=0.002
decay_factor=0.99
id_weight=0.25   # inline comment
model=tastas-2-2
train_manifest=a.tsv
dev_manifest=b.tsv
seed=11
""",
        encoding="utf-8",
    )
    cfg = load_train_config(path)
    assert cfg.phase == "sep"
    assert cfg.epochs_max == 7
    assert cfg.batch_size == 2
    assert cfg.initial_lr == pytest.approx(0.002)
    assert cfg.id_weight == pytest.approx(0.25)
    assert cfg.model == "tastas-2-2"
    assert cfg.model_config() == ModelConfig(stage_blocks=(2, 2))
    assert cfg.seed == 11


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    # these were fields once; a file that still sets one fails loudly
    for key in ("no_such_field", "early_stop_dev_si_sdri", "idnet_segment_s", "idnet_embedding_dim"):
        path.write_text(f"{key}=1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_train_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs_max=abc\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_train_config(path)


@pytest.mark.parametrize("key,value", [
    ("model", "tastas-4-4"),
    ("num_filters", "999"),
    ("kernel_len", "32"),
    ("chunk_len", "20"),
    ("hidden_size", "3"),
])
def test_finetune_config_rejects_architecture_keys(tmp_path, key, value):
    # finetune takes the architecture from sep_ckpt; the key would be ignored
    path = tmp_path / "ft.cfg"
    path.write_text(f"idnet_ckpt=id.ckpt\nsep_ckpt=sep.ckpt\n# comment\n{key}={value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"ft.cfg:4: '{key}'"):
        load_train_config(path, {"phase": "finetune"})
    path.write_text(f"phase=finetune\nidnet_ckpt=id.ckpt\n{key}={value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"ft.cfg:3: '{key}'"):
        load_train_config(path)
    assert str(getattr(load_train_config(path, {"phase": "sep"}), key)) == value


def test_config_validates_fields():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=4)
    with pytest.raises(ConfigError):
        TrainConfig(phase="warmup")
    with pytest.raises(ConfigError):
        TrainConfig(phase="finetune", idnet_ckpt="")
    with pytest.raises(ConfigError, match="sep_ckpt"):
        TrainConfig(phase="finetune", idnet_ckpt="id.ckpt")
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(phase="idnet", seed=-1)
    # a sep config builds its model at construction, so a bad width fails before any corpus is read
    with pytest.raises(ConfigError, match="chunk_len"):
        TrainConfig(chunk_len=9)
    with pytest.raises(ConfigError, match="preset"):
        TrainConfig(model="dprnn-6")
    # finetune and idnet take no architecture from the config
    TrainConfig(phase="idnet", chunk_len=9)


@pytest.mark.parametrize("key,value", [
    ("initial_lr", 0.0),
    ("initial_lr", math.inf),
    ("decay_factor", -0.5),
    ("decay_factor", math.inf),
    ("id_weight", math.nan),  # would fail only after the references are embedded
    ("id_weight", -0.1),
    ("epochs_max", -3),
    ("epochs_max", 0),  # train-idnet would save an untrained speaker network
    ("decay_every_epochs", 0),
    ("patience", 0),  # would restart, halving the LR, after every epoch, even an improving one
    ("max_restarts", -1),
])
def test_config_rejects_a_schedule_that_cannot_run(key, value):
    # a config that cannot train fails at construction, before any corpus is read
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**{key: value})


def test_benchmark_configs_build_at_both_scales(tmp_path, monkeypatch):
    """The benchmark builds a finetune TrainConfig and a preset with widths at each of its
    scales; a config change that breaks either breaks the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workload = importlib.import_module("workload")
    for name, scale in workload.SCALES.items():
        model = parse_preset(scale.preset, **scale.widths)
        loop = workload.TrainLoop(scale, seed=0, root=tmp_path, tally=workload.Tally())
        config = loop.config(tmp_path / name)
        assert config.phase == "finetune" and config.sep_ckpt and config.idnet_ckpt
        assert config.model_config() == model
        IdNetConfig(num_speakers=workload.SPEAKER_POOL, **scale.idnet_widths)


def test_benchmark_train_loop_passes_its_checks(tmp_path, monkeypatch):
    """Two train-1s calls at the smoke scale: one adam_step per example through the
    patch point the benchmark wraps, last.ckpt reloads to the trained parameters,
    and the second epoch repeats the first bit for bit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workload = importlib.import_module("workload")
    scale = workload.SCALES["tiny"]
    ctx = workload.setup_train(scale, 0, tmp_path)
    tally = workload.Tally()
    loop = workload.TrainLoop(scale, 0, ctx["root"], tally)
    with loop.coarse():
        assert loop.call() and loop.call()
    assert tally.failed == 0, tally.checks
    assert tally.attempted > 0 and len(loop.stamps) == scale.n_train


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    """The benchmark's tracer wraps package functions by name; a renamed one fails here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    assert tracer_module.wrapped_attributes() == []
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrapped = set(tracer_module.wrapped_attributes())
        assert {f"tastas.objectives.{name}" for name in tracer_module.OBJECTIVES} <= wrapped
    finally:
        tracer.restore()
    assert tracer_module.wrapped_attributes() == []


# -- manifests and corpus -----------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    records = synth_mixture_corpus(
        tmp_path, "train", num_mixtures=3, num_speakers=4, duration_s=0.6,
        snr_lo=0.0, snr_hi=5.0, seed=1,
    )
    back = read_manifest(tmp_path / "train.tsv")
    assert back == records


def test_manifest_rejects_malformed(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("only\tthree\tfields\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_manifest(path)


@pytest.mark.parametrize(
    "column", [pytest.param(3, id="snr_db"), pytest.param(4, id="speaker_a"), pytest.param(5, id="speaker_b")]
)
def test_manifest_rejects_a_non_numeric_field(tmp_path, column):
    good = ["m.wav", "a.wav", "b.wav", "2.5", "0", "1"]
    bad = list(good)
    bad[column] = "x"
    path = tmp_path / "m.tsv"
    path.write_text("\t".join(good) + "\n" + "\t".join(bad) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"m\.tsv:2: "):
        read_manifest(path)


def test_corpus_mixture_equals_sum_of_sources(tmp_path):
    from tastas.audio import wav_read

    records = synth_mixture_corpus(
        tmp_path, "train", num_mixtures=4, num_speakers=4, duration_s=0.6,
        snr_lo=0.0, snr_hi=5.0, seed=2,
    )

    def pcm(path):
        with wave.open(path, "rb") as fh:
            return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2").astype(np.int64)

    for r in records:
        # int-domain construction is exact: the stored 16-bit samples add up
        assert np.array_equal(pcm(r.mix_path), pcm(r.src_paths[0]) + pcm(r.src_paths[1]))
        # wav_read divides by a PCM scale that is not a power of two, so the
        # float sum may differ from the float mixture by round-off only
        mix = wav_read(r.mix_path).samples
        total = wav_read(r.src_paths[0]).samples + wav_read(r.src_paths[1]).samples
        np.testing.assert_allclose(mix, total, rtol=0, atol=1e-15)


def test_corpus_snr_in_range_and_remeasurable(tmp_path):
    from tastas.audio import wav_read
    from tastas.audio.mix import measure_snr_db

    records = synth_mixture_corpus(
        tmp_path, "train", num_mixtures=6, num_speakers=4, duration_s=0.6,
        snr_lo=0.0, snr_hi=5.0, seed=3,
    )
    for r in records:
        assert 0.0 <= r.snr_db <= 5.0
        a = wav_read(r.src_paths[0])
        b = wav_read(r.src_paths[1])
        assert measure_snr_db(a, b) == pytest.approx(r.snr_db, abs=0.01)


def test_corpus_deterministic_per_seed(tmp_path):
    r1 = synth_mixture_corpus(tmp_path / "a", "dev", 3, 4, 0.6, 0.0, 5.0, seed=5)
    r2 = synth_mixture_corpus(tmp_path / "b", "dev", 3, 4, 0.6, 0.0, 5.0, seed=5)
    from tastas.audio import wav_read

    for x, y in zip(r1, r2):
        assert x.snr_db == y.snr_db
        assert x.speaker_ids == y.speaker_ids
        assert np.array_equal(wav_read(x.mix_path).samples, wav_read(y.mix_path).samples)


def test_splits_use_disjoint_utterance_seeds(tmp_path):
    from tastas.audio import wav_read

    train = synth_mixture_corpus(tmp_path, "train", 2, 4, 0.6, 0, 5, seed=6)
    dev = synth_mixture_corpus(tmp_path, "dev", 2, 4, 0.6, 0, 5, seed=6)
    for tr in train:
        for dr in dev:
            a = wav_read(tr.src_paths[0]).samples
            b = wav_read(dr.src_paths[0]).samples
            assert not np.array_equal(a, b)


# -- trainer ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    synth_mixture_corpus(root, "train", 3, 4, 0.5, 0, 5, seed=8)
    synth_mixture_corpus(root, "dev", 2, 4, 0.5, 0, 5, seed=8)
    synth_mixture_corpus(root, "test", 2, 4, 0.5, 0, 5, seed=8)
    return root


def _tiny_train_config(root, out_dir, **kw):
    defaults = dict(
        phase="sep",
        epochs_max=2,
        batch_size=1,
        model="tastas-1",
        num_filters=8,
        hidden_size=8,
        chunk_len=10,
        seed=3,
        train_manifest=str(root / "train.tsv"),
        dev_manifest=str(root / "dev.tsv"),
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_sep_phase_runs_and_reports(tiny_corpus, tmp_path):
    config = _tiny_train_config(tiny_corpus, tmp_path / "run")
    ckpt, rows = run_phase(config)
    assert ckpt.exists()
    assert len(rows) == 2
    assert rows[0].epoch == 1
    assert rows[0].lr == pytest.approx(0.001)
    assert rows[1].lr == pytest.approx(0.001)
    assert (tmp_path / "run" / "best.ckpt").exists()
    assert (tmp_path / "run" / "train_report.tsv").exists()
    report = (tmp_path / "run" / "train_report.tsv").read_text()
    assert report.splitlines()[0] == EpochReport.HEADER


def test_lr_follows_policy_in_reports(tiny_corpus, tmp_path):
    config = _tiny_train_config(tiny_corpus, tmp_path / "run_lr", epochs_max=4)
    _, rows = run_phase(config)
    assert [r.lr for r in rows] == pytest.approx([0.001, 0.001, 0.00098, 0.00098])


def test_checkpoint_resume_is_bit_exact(tiny_corpus, tmp_path):
    full_cfg = _tiny_train_config(tiny_corpus, tmp_path / "full", epochs_max=4)
    full_ckpt, full_rows = run_phase(full_cfg)

    half_cfg = _tiny_train_config(tiny_corpus, tmp_path / "half", epochs_max=2)
    half_ckpt, _ = run_phase(half_cfg)
    resumed_cfg = _tiny_train_config(tiny_corpus, tmp_path / "resumed", epochs_max=4)
    resumed_ckpt, resumed_rows = run_phase(resumed_cfg, resume_from=str(half_ckpt))

    m_full, a_full, _ = load_sep_checkpoint(full_ckpt)
    m_res, a_res, _ = load_sep_checkpoint(resumed_ckpt)
    assert m_full.params.checksum() == m_res.params.checksum()
    assert a_full.step == a_res.step
    for name in a_full.m:
        assert np.array_equal(a_full.m[name], a_res.m[name])
    full_tail = [(r.train_loss, r.dev_loss) for r in full_rows[2:]]
    resumed_tail = [(r.train_loss, r.dev_loss) for r in resumed_rows]
    assert full_tail == resumed_tail


def test_one_epoch_run_writes_each_checkpoint_once(tiny_corpus, tmp_path, monkeypatch):
    from tastas.pipeline import train

    written = []
    save = train.save_sep_checkpoint

    def counting_save(path, *args):
        written.append(path.name)
        save(path, *args)

    monkeypatch.setattr(train, "save_sep_checkpoint", counting_save)
    run_phase(_tiny_train_config(tiny_corpus, tmp_path / "once", epochs_max=1))
    assert written == ["best.ckpt", "last.ckpt"]


def test_finished_run_resumes_to_the_same_last_checkpoint(tiny_corpus, tmp_path):
    done_ckpt, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "done", epochs_max=1))
    again_ckpt, rows = run_phase(
        _tiny_train_config(tiny_corpus, tmp_path / "again", epochs_max=1), resume_from=str(done_ckpt)
    )
    assert rows == []
    assert again_ckpt.read_bytes() == done_ckpt.read_bytes()


def test_restarts_halve_the_lr_and_survive_a_resume(tiny_corpus, tmp_path, monkeypatch):
    # every dev loss after the first is worse, so patience 1 restarts after every epoch but the
    # first; the third trigger finds max_restarts spent and stops
    monkeypatch.setattr(SepTrainer, "_dev_metrics", lambda self: (float(self.epoch), 0.0))
    kw = dict(patience=1, max_restarts=2, initial_lr=0.002)
    _, rows = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "full", epochs_max=6, **kw))
    assert [(r.epoch, r.lr, r.restarts) for r in rows] == [(1, 0.002, 0), (2, 0.002, 0), (3, 0.001, 1), (4, 0.0005, 2)]
    half, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "half", epochs_max=3, **kw))
    assert load_sep_checkpoint(half)[2]["restart_halvings"] == 2
    _, tail = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "half", epochs_max=6, **kw), resume_from=str(half))
    assert [(r.epoch, r.lr, r.restarts, r.train_loss, r.dev_loss) for r in tail] == [
        (r.epoch, r.lr, r.restarts, r.train_loss, r.dev_loss) for r in rows[3:]
    ]


def _scripted_run(tiny_corpus, out_dir, monkeypatch, dev_losses, **kw):
    """Runs SepTrainer with the given dev losses; returns (reloads, report rows).

    Each reload is (epoch it happened after, epoch of best.ckpt, whether the
    weights now equal best.ckpt's).
    """
    losses = iter(dev_losses)
    monkeypatch.setattr(SepTrainer, "_dev_metrics", lambda self: (next(losses), 0.0))
    reloads = []
    reload_best = SepTrainer._reload_best

    def checked_reload(self):
        reload_best(self)
        best, _, extras = load_sep_checkpoint(self.out_dir / "best.ckpt")
        reloads.append((self.epoch, extras["epoch"], self.model.params.checksum() == best.params.checksum()))

    monkeypatch.setattr(SepTrainer, "_reload_best", checked_reload)
    _, rows = run_phase(_tiny_train_config(tiny_corpus, out_dir, **kw))
    return reloads, [(r.epoch, r.lr, r.restarts) for r in rows]


def test_controller_continues_while_improving(tiny_corpus, tmp_path, monkeypatch):
    reloads, rows = _scripted_run(
        tiny_corpus, tmp_path / "improving", monkeypatch, [3.0, 2.0, 1.5, 1.0], epochs_max=4, patience=1, max_restarts=1
    )
    assert reloads == []
    assert rows == [(1, 0.001, 0), (2, 0.001, 0), (3, 0.00098, 0), (4, 0.00098, 0)]


def test_controller_restarts_after_patience(tiny_corpus, tmp_path, monkeypatch):
    # two improve, then two worse ones trigger the restart
    reloads, rows = _scripted_run(
        tiny_corpus, tmp_path / "restart", monkeypatch, [3.0, 2.0, 2.5, 2.6, 1.0], epochs_max=5, patience=2, max_restarts=1
    )
    assert reloads == [(4, 2, True)]  # after epoch 4, the weights of epoch 2
    assert rows == [(1, 0.001, 0), (2, 0.001, 0), (3, 0.00098, 0), (4, 0.00098, 0), (5, 0.0005, 1)]


def test_controller_stops_after_budget(tiny_corpus, tmp_path, monkeypatch):
    # the restart after epoch 4 spends max_restarts; two more worse epochs stop the run well before epochs_max
    reloads, rows = _scripted_run(
        tiny_corpus,
        tmp_path / "stop",
        monkeypatch,
        [3.0, 2.0, 2.5, 2.6, 2.4, 2.2],
        epochs_max=10,
        patience=2,
        max_restarts=1,
    )
    assert reloads == [(4, 2, True)]
    assert rows == [(1, 0.001, 0), (2, 0.001, 0), (3, 0.00098, 0), (4, 0.00098, 0), (5, 0.0005, 1), (6, 0.0005, 1)]


def test_resume_rejects_a_negative_counter(tiny_corpus, tmp_path):
    config = _tiny_train_config(tiny_corpus, tmp_path / "run", epochs_max=1)
    last, _ = run_phase(config)
    model, adam, extras = load_sep_checkpoint(last)
    for key in ("epoch", "epoch_in_restart", "restart_halvings", "worse_streak"):
        bad = tmp_path / f"{key}.ckpt"
        save_sep_checkpoint(bad, model, adam, {**extras, key: -1})
        with pytest.raises(CheckpointError, match=re.escape(f"{bad}: {key} must be >= 0, got -1")):
            SepTrainer(config, resume_from=str(bad))


def test_resume_rejects_a_checkpoint_of_the_other_phase(tiny_corpus, tmp_path):
    from tastas.idnet import IdNet, save_idnet

    idnet_ckpt = tmp_path / "idnet.ckpt"
    save_idnet(idnet_ckpt, IdNet.initialize(IdNetConfig(num_speakers=4, embedding_dim=16), seed=0).freeze())
    sep_ckpt, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "sep", epochs_max=1))
    finetune = _tiny_train_config(
        tiny_corpus, tmp_path / "ft", phase="finetune", epochs_max=1, sep_ckpt=str(sep_ckpt), idnet_ckpt=str(idnet_ckpt)
    )
    with pytest.raises(CheckpointError, match=re.escape(f"{sep_ckpt}: a sep checkpoint cannot resume finetune")):
        SepTrainer(finetune, resume_from=str(sep_ckpt))
    ft_ckpt, _ = run_phase(finetune)
    with pytest.raises(CheckpointError, match=re.escape(f"{ft_ckpt}: a finetune checkpoint cannot resume sep")):
        SepTrainer(_tiny_train_config(tiny_corpus, tmp_path / "sep2", epochs_max=2), resume_from=str(ft_ckpt))


def test_resume_into_another_directory_brings_best_ckpt_or_fails_before_training(tiny_corpus, tmp_path):
    # a restart reloads out_dir/best.ckpt, so it must hold the best dev loss the resume carries over
    old, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "old", epochs_max=1))
    carried = load_sep_checkpoint(old)[2]["best_dev_loss"]
    assert np.isfinite(carried)

    SepTrainer(_tiny_train_config(tiny_corpus, tmp_path / "new", epochs_max=3), resume_from=str(old))
    brought, _, extras = load_sep_checkpoint(tmp_path / "new" / "best.ckpt")
    assert extras["best_dev_loss"] == carried
    assert brought.params.checksum() == load_sep_checkpoint(tmp_path / "old" / "best.ckpt")[0].params.checksum()

    # a stale best.ckpt in the new directory is neither reloaded nor replaced
    model, adam, extras = load_sep_checkpoint(old)
    stale = tmp_path / "stale" / "best.ckpt"
    save_sep_checkpoint(stale, model, adam, {**extras, "best_dev_loss": carried + 1.0})
    with pytest.raises(CheckpointError, match=re.escape(f"{stale}: records best_dev_loss {carried + 1.0}")):
        SepTrainer(_tiny_train_config(tiny_corpus, stale.parent, epochs_max=3), resume_from=str(old))
    assert load_sep_checkpoint(stale)[2]["best_dev_loss"] == carried + 1.0

    # no best.ckpt in either directory
    alone = tmp_path / "alone" / "last.ckpt"
    alone.parent.mkdir()
    alone.write_bytes(old.read_bytes())
    fresh = tmp_path / "fresh"
    with pytest.raises(CheckpointError, match=re.escape(f"{fresh / 'best.ckpt'}: missing")):
        SepTrainer(_tiny_train_config(tiny_corpus, fresh, epochs_max=3), resume_from=str(alone))


def test_run_stopped_between_best_and_last_saves_resumes_to_the_same_checkpoints(tiny_corpus, tmp_path):
    # An improving epoch k saves best.ckpt, then last.ckpt. A run stopped
    # between the two leaves best.ckpt of epoch k beside last.ckpt of epoch
    # k - 1; resuming from that last.ckpt repeats epoch k and ends with the
    # uninterrupted run's checkpoints, byte for byte.
    full = tmp_path / "full"
    run_phase(_tiny_train_config(tiny_corpus, full, epochs_max=3))
    earlier, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "earlier", epochs_max=1))
    stopped = tmp_path / "stopped"
    run_phase(_tiny_train_config(tiny_corpus, stopped, epochs_max=2))
    assert load_sep_checkpoint(stopped / "best.ckpt")[2]["epoch"] == 2, "epoch 2 must improve for this case"
    (stopped / "last.ckpt").write_bytes(earlier.read_bytes())

    run_phase(_tiny_train_config(tiny_corpus, stopped, epochs_max=3), resume_from=str(stopped / "last.ckpt"))
    for name in ("best.ckpt", "last.ckpt"):
        assert (stopped / name).read_bytes() == (full / name).read_bytes(), name


def test_train_pass_keeps_no_gradient_of_the_previous_step(monkeypatch):
    from tastas.pipeline import train

    params = ParamSet({"w": Tensor(np.ones(3)), "b": Tensor(np.zeros(1))})
    taken = []  # weakrefs to every gradient array an Adam step was given
    real_step = train.adam_step

    def recording_step(step_params, grads, state, lr):
        taken.extend(weakref.ref(g) for g in grads.values())
        return real_step(step_params, grads, state, lr)

    monkeypatch.setattr(train, "adam_step", recording_step)
    alive = []

    def example_loss(i):
        alive.append(sum(ref() is not None for ref in taken))
        # the gradient norm is about 3.5 * (i + 1): example 0's step is not clipped, example 1's is
        w, b = params["w"], params["b"]
        return ops.add(ops.tsum(ops.mul(ops.mul(w, w), ops.const(float(i + 1)))), ops.tsum(b))

    done = train_pass(params, AdamState.for_params(params), 0.01, [0, 1, 0, 1], 1, example_loss)
    assert [n > GRAD_CLIP for n in done.grad_norms] == [False, True, False, True]
    assert len(taken) == 8
    assert alive == [0, 0, 0, 0]


def test_resumed_run_keeps_earlier_report_rows(tiny_corpus, tmp_path):
    out = tmp_path / "resumed_in_place"
    _, first_rows = run_phase(_tiny_train_config(tiny_corpus, out, epochs_max=2))
    _, later_rows = run_phase(_tiny_train_config(tiny_corpus, out, epochs_max=4), resume_from=str(out / "last.ckpt"))
    assert [r.epoch for r in later_rows] == [3, 4]
    lines = (out / "train_report.tsv").read_text().splitlines()
    assert lines[1:] == [r.row() for r in first_rows + later_rows]
    assert [r.epoch for r in read_report(out / "train_report.tsv")] == [1, 2, 3, 4]


def test_fresh_run_replaces_an_old_report(tiny_corpus, tmp_path):
    out = tmp_path / "rerun"
    run_phase(_tiny_train_config(tiny_corpus, out, epochs_max=2))
    run_phase(_tiny_train_config(tiny_corpus, out, epochs_max=1))
    assert [r.epoch for r in read_report(out / "train_report.tsv")] == [1]


def test_malformed_report_row_is_a_data_error(tmp_path):
    path = tmp_path / "train_report.tsv"
    path.write_text(EpochReport.HEADER + "\n1\t0.001\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(DataError, match="train_report.tsv:2"):
        read_report(path)


def test_report_carries_epoch_telemetry(tiny_corpus, tmp_path):
    _, rows = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "telemetry", epochs_max=1))
    row = rows[0]
    telemetry = row.telemetry
    assert telemetry.epoch_s > 0 and telemetry.examples_per_s > 0
    assert 0 < telemetry.grad_norm_mean <= telemetry.grad_norm_max
    assert 0.0 <= telemetry.clip_rate <= 1.0
    assert row.id_loss == 0.0  # no speaker network outside finetune
    (parsed,) = read_report(tmp_path / "telemetry" / "train_report.tsv")
    assert parsed.row() == row.row()


def test_clip_rate_is_one_when_every_step_clips(tiny_corpus, tmp_path, monkeypatch):
    from tastas.pipeline import train

    monkeypatch.setattr(train, "GRAD_CLIP", 1e-9)
    _, rows = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "clipped", epochs_max=1))
    assert rows[0].telemetry.clip_rate == 1.0
    assert rows[0].telemetry.grad_norm_max > 1e-9


def test_finetune_reports_the_identity_term(tiny_corpus, tmp_path):
    from tastas.idnet import IdNet, IdNetConfig, save_idnet

    idnet_ckpt = tmp_path / "idnet.ckpt"
    save_idnet(idnet_ckpt, IdNet.initialize(IdNetConfig(num_speakers=4, embedding_dim=16), seed=0).freeze())
    sep_ckpt, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "sep", epochs_max=1))
    config = _tiny_train_config(
        tiny_corpus,
        tmp_path / "ft",
        phase="finetune",
        epochs_max=1,
        sep_ckpt=str(sep_ckpt),
        idnet_ckpt=str(idnet_ckpt),
    )
    _, rows = run_phase(config)
    assert rows[0].id_loss > 0.0
    assert read_report(tmp_path / "ft" / "train_report.tsv")[0].id_loss > 0.0


def test_speaker_network_at_another_sample_rate_is_a_data_error(tiny_corpus, tmp_path, monkeypatch):
    from tastas.idnet import IdNet, save_idnet
    from tastas.sepnet import TasTasModel

    net = IdNet.initialize(IdNetConfig(num_speakers=4, embedding_dim=16, sample_rate_hz=16000), seed=0).freeze()
    idnet_ckpt = tmp_path / "idnet16k.ckpt"
    save_idnet(idnet_ckpt, net)
    sep_ckpt, _ = run_phase(_tiny_train_config(tiny_corpus, tmp_path / "sep", epochs_max=1))
    config = _tiny_train_config(
        tiny_corpus, tmp_path / "ft", phase="finetune", epochs_max=1, sep_ckpt=str(sep_ckpt), idnet_ckpt=str(idnet_ckpt)
    )
    embedded = []
    monkeypatch.setattr(SepTrainer, "_embed_targets", lambda self, examples: embedded.append(examples))
    # the corpus is at 8 kHz: fine-tuning fails before it embeds any target
    with pytest.raises(DataError, match="is at 8000 Hz, the speaker network at 16000 Hz"):
        SepTrainer(config)
    assert embedded == []
    # eval scores the separator's rows but turns the identity term into an error row
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=8, chunk_len=10), seed=0)
    summary = evaluate(model, read_manifest(tiny_corpus / "test.tsv"), include_irm=False, idnet=net)
    assert all("at 8000 Hz, the speaker network at 16000 Hz" in r.error for r in summary.results)


def test_trainer_loss_matches_objectives_module(tiny_corpus, tmp_path):
    config = _tiny_train_config(tiny_corpus, tmp_path / "consistency", epochs_max=1)
    trainer = SepTrainer(config)
    example = trainer.train_set[0]
    loss, _, _ = trainer._example_loss(example)
    outs = trainer.model.forward(example.mixture)
    stage_values = [[np.asarray(t.data, dtype=np.float64) for t in stage] for stage in outs]
    reference = np.mean([obj.pit_loss(example.targets, stage)[0] for stage in stage_values])
    assert float(loss.data) == pytest.approx(reference, abs=1e-5)


def test_finetune_requires_frozen_idnet(tiny_corpus, tmp_path):
    with pytest.raises(ConfigError):
        TrainConfig(phase="finetune", idnet_ckpt="", sep_ckpt="x")


def test_evaluate_handles_bad_utterance(tiny_corpus, tmp_path):
    from tastas.pipeline.data import ManifestRecord
    from tastas.sepnet import ModelConfig, TasTasModel

    records = read_manifest(tiny_corpus / "test.tsv")
    broken = ManifestRecord(
        mix_path=str(tmp_path / "missing.wav"),
        src_paths=records[0].src_paths,
        snr_db=1.0,
        speaker_ids=(0, 1),
    )
    model = TasTasModel.initialize(
        ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=8, chunk_len=10), seed=0
    )
    summary = evaluate(model, [records[0], broken], include_irm=False)
    assert not summary.results[0].error
    assert summary.results[1].error
    table = summary.table("tiny")
    assert "ERROR" in table
    assert "unsupported" in table


def test_evaluate_writes_an_error_row_for_a_zero_estimate(tiny_corpus):
    from tastas.sepnet import TasTasModel

    records = read_manifest(tiny_corpus / "test.tsv")
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=8, chunk_len=10), seed=0)
    model.separate = lambda mixture: [np.zeros_like(mixture), np.zeros_like(mixture)]
    summary = evaluate(model, records[:1], include_irm=False)
    assert "undefined" in summary.results[0].error
    assert "ERROR" in summary.table("tiny")


def test_evaluate_deterministic(tiny_corpus):
    from tastas.sepnet import ModelConfig, TasTasModel

    records = read_manifest(tiny_corpus / "test.tsv")
    model = TasTasModel.initialize(
        ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=8, chunk_len=10), seed=0
    )
    t1 = evaluate(model, records, include_irm=True).table("tiny")
    t2 = evaluate(model, records, include_irm=True).table("tiny")
    assert t1 == t2
    assert "irm-oracle" in t1


def test_evaluate_of_no_records_is_an_empty_summary(monkeypatch):
    from tastas.sepnet import ModelConfig, TasTasModel

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # where two records would be scored on threads
    # and no pool is built for none
    monkeypatch.setattr(importlib.import_module("tastas.pipeline.evaluate"), "ThreadPoolExecutor", None)
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,), num_filters=8, hidden_size=8, chunk_len=10), seed=0)
    summary = evaluate(model, [])
    assert summary.results == [] and summary.irm_results == []
    assert math.isnan(summary.mean_si_sdri())


def test_examples_load_with_matching_lengths(tiny_corpus):
    examples = load_examples(read_manifest(tiny_corpus / "train.tsv"))
    for ex in examples:
        assert all(len(t) == len(ex.mixture) for t in ex.targets)


def test_source_at_another_sample_rate_is_a_data_error(tiny_corpus, tmp_path):
    record = read_manifest(tiny_corpus / "train.tsv")[0]
    source = wav_read(record.src_paths[1])
    wide = tmp_path / "wide.wav"
    wav_write(wide, Waveform(np.repeat(source.samples, 2), sample_rate_hz=2 * source.sample_rate_hz))
    mismatched = replace(record, src_paths=(record.src_paths[0], str(wide)))
    with pytest.raises(DataError, match=f"{record.utt_id}: source .*wide.wav is at 16000 Hz, the mixture at 8000 Hz"):
        load_examples([mismatched])


def test_write_manifest_empty(tmp_path):
    write_manifest(tmp_path / "empty.tsv", [])
    assert read_manifest(tmp_path / "empty.tsv") == []
