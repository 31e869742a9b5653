import re
import struct

import numpy as np
import pytest

from tastas.checkpoint import MAGIC, config_from_header, load_container, save_container
from tastas.errors import CheckpointError
from tastas.idnet import IdNet, IdNetConfig, load_idnet, save_idnet
from tastas.numerics.optim import AdamState
from tastas.pipeline.train import load_sep_checkpoint, load_sep_model, save_sep_checkpoint
from tastas.sepnet import ModelConfig, TasTasModel


def test_container_round_trip(tmp_path):
    path = tmp_path / "c.ckpt"
    rng = np.random.default_rng(0)
    blobs = {
        "param.a": rng.standard_normal((3, 4)).astype(np.float32),
        "param.b": rng.standard_normal(7).astype(np.float32),
        "scalarish": np.float32(2.5) * np.ones((), dtype=np.float32),
    }
    header = {"model": {"x": 1}, "extras": {"note": "hi"}}
    save_container(path, "sepnet", header, blobs)
    kind, header2, blobs2 = load_container(path)
    assert kind == "sepnet"
    assert header2["model"] == {"x": 1}
    assert header2["extras"] == {"note": "hi"}
    for name in blobs:
        assert np.array_equal(blobs[name], blobs2[name])


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_container(path)


def test_container_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 9) + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="version 9"):
        load_container(path)


def test_container_rejects_truncation(tmp_path):
    path = tmp_path / "t.ckpt"
    blobs = {"param.w": np.ones(100, dtype=np.float32), "adam.m.w": np.ones(100, dtype=np.float32)}
    save_container(path, "sepnet", {}, blobs)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 50])
    # a blob the reader skips unread is checked against the file size all the same
    for prefix in ("", "param."):
        with pytest.raises(CheckpointError, match="truncated checkpoint while reading blob 'adam.m.w' data"):
            load_container(path, prefix=prefix)


def test_container_bytes_follow_the_documented_layout(tmp_path):
    # blobs are written from the array's buffer, so check the bytes against the layout itself,
    # with inputs that need a conversion: float64, a transposed view, a 0-d and an empty array
    blobs = {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b": np.arange(6, dtype=np.float32).reshape(2, 3).T,
        "c": np.ones((), dtype=np.float32),
        "d": np.zeros((0, 2), dtype=np.float32),
    }
    path = tmp_path / "c.ckpt"
    save_container(path, "sepnet", {"extras": {}}, blobs)
    header = b'{"extras": {}, "kind": "sepnet"}'
    expected = MAGIC + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", len(blobs))
    for name, arr in blobs.items():
        expected += struct.pack("<H", len(name)) + name.encode()
        expected += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.astype("<f4").tobytes()
    assert path.read_bytes() == expected
    _, _, loaded = load_container(path)
    for name, arr in blobs.items():
        assert loaded[name].dtype == np.float32 and loaded[name].flags.c_contiguous
        assert np.array_equal(loaded[name], arr)


def test_truncation_error_names_the_file(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_container(path, "sepnet", {}, {"w": np.ones(4, dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated checkpoint while reading blob 'w' data")):
        load_container(path)


def _container_bytes(header: bytes, blob_name: bytes) -> bytes:
    """A version-1 container with the given raw header and one 1-element blob."""
    return (
        MAGIC
        + struct.pack("<II", 1, len(header))
        + header
        + struct.pack("<IH", 1, len(blob_name))
        + blob_name
        + struct.pack("<BIf", 1, 1, 0.0)
    )


def test_container_rejects_non_object_header(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(_container_bytes(b"[1,2]", b"w"))
    with pytest.raises(CheckpointError, match="not an object") as info:
        load_container(path)
    assert str(path) in str(info.value)


def test_container_rejects_non_utf8_blob_name(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(_container_bytes(b'{"kind": "sepnet"}', b"\xff\xfe"))
    with pytest.raises(CheckpointError, match="not UTF-8") as info:
        load_container(path)
    assert str(path) in str(info.value)


def test_sep_checkpoint_round_trip(tmp_path):
    config = ModelConfig(stage_blocks=(1, 1), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4)
    model = TasTasModel.initialize(config, seed=3, dtype=np.float32)
    adam = AdamState.for_params(model.params)
    adam.m = {n: np.full_like(t.data, 0.25) for n, t in model.params.items()}
    adam = AdamState(step=17, m=adam.m, v=adam.v, beta1=0.9, beta2=0.999, eps=1e-8)
    extras = {"epoch": 4, "best_dev_loss": -3.5, "restart_halvings": 1,
              "epoch_in_restart": 2, "worse_streak": 0, "rng_state": "{}"}
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, adam, extras)
    model2, adam2, extras2 = load_sep_checkpoint(path)
    assert model2.config == config
    assert model2.params.checksum() == model.params.checksum()
    assert adam2.step == 17
    for n in adam.m:
        assert np.array_equal(adam.m[n], adam2.m[n])
    assert extras2["epoch"] == 4
    assert extras2["best_dev_loss"] == -3.5


def test_model_precision_is_its_weights(tmp_path):
    # no dtype argument: a float64 model computes in float64, and the same model
    # loaded back from its (float32) checkpoint computes in float32
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1, 1), num_filters=4, chunk_len=4, hidden_size=4), 0, np.float64)
    mixture = np.random.default_rng(1).uniform(-0.5, 0.5, 200)
    assert {t.dtype for stage in model.forward(mixture) for t in stage} == {np.dtype(np.float64)}
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, AdamState.for_params(model.params), {})
    for loaded in (load_sep_model(path), load_sep_checkpoint(path)[0]):
        assert {t.dtype for stage in loaded.forward(mixture) for t in stage} == {np.dtype(np.float32)}


def test_weights_only_load_never_reads_the_optimizer_state(tmp_path):
    import tracemalloc

    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,)), seed=3)
    adam = AdamState.for_params(model.params)
    adam.m = {n: np.full_like(t.data, 0.25) for n, t in model.params.items()}
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, adam, {"epoch": 1})
    tracemalloc.start()
    try:
        weights = load_sep_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full, _, _ = load_sep_checkpoint(path)
    assert weights.config == full.config
    assert weights.params.names() == full.params.names()
    for name, tensor in full.params.items():
        assert weights.params[name].data.dtype == np.float32
        assert np.array_equal(weights.params[name].data, tensor.data)
    # the parameters alone, not the two moment sets of the same size
    param_bytes = sum(t.data.nbytes for _, t in full.params.items())
    assert peak < 1.5 * param_bytes


def test_sep_loader_rejects_idnet_container(tmp_path):
    config = IdNetConfig(num_speakers=2, window_len=64, hop=16, segment_s=0.05,
                         conv_channels=(4,), embedding_dim=8, sample_rate_hz=8000)
    net = IdNet.initialize(config, seed=0)
    path = tmp_path / "id.ckpt"
    save_idnet(path, net)
    with pytest.raises(CheckpointError, match="expected 'sepnet'"):
        load_sep_checkpoint(path)


def test_idnet_checkpoint_round_trip(tmp_path):
    config = IdNetConfig(num_speakers=3, window_len=64, hop=16, segment_s=0.05,
                         conv_channels=(4, 8), embedding_dim=16, sample_rate_hz=8000)
    net = IdNet.initialize(config, seed=1).freeze()
    path = tmp_path / "id.ckpt"
    save_idnet(path, net, extras={"best_accuracy": 0.99})
    net2 = load_idnet(path)
    assert net2.frozen
    assert net2.config == config
    assert net2.params.checksum() == net.params.checksum()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["id.ckpt"]


@pytest.mark.parametrize(
    "env,expected",
    [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "OPENBLAS_NUM_THREADS=1"),
        ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS=2"),
        ({}, "unset"),
    ],
)
def test_checkpoints_record_the_blas_thread_setting(tmp_path, monkeypatch, env, expected):
    # gradients depend on the BLAS thread count, so a run is reproducible
    # only at the count its checkpoints name
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    model = TasTasModel.initialize(
        ModelConfig(stage_blocks=(1,), num_filters=4, kernel_len=16, chunk_len=4, hidden_size=4), seed=0
    )
    save_sep_checkpoint(tmp_path / "sep.ckpt", model, AdamState.for_params(model.params), {"epoch": 1})
    assert load_sep_checkpoint(tmp_path / "sep.ckpt")[2] == {"epoch": 1, "blas_threads": expected}
    config = IdNetConfig(num_speakers=2, window_len=64, hop=16, segment_s=0.05,
                         conv_channels=(4,), embedding_dim=8, sample_rate_hz=8000)
    save_idnet(tmp_path / "id.ckpt", IdNet.initialize(config, seed=0), extras={"best_accuracy": 0.5})
    _, header, _ = load_container(tmp_path / "id.ckpt")
    assert header["extras"] == {"best_accuracy": 0.5, "blas_threads": expected}


def test_interrupted_save_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "best.ckpt"
    old = {"param.a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_container(path, "sepnet", {"extras": {"epoch": 1}}, old)
    # the second blob cannot be converted, so the write fails after the first
    broken = {"param.a": np.zeros((2, 3), dtype=np.float32), "param.b": np.array(["not a number"])}
    with pytest.raises(ValueError):
        save_container(path, "sepnet", {"extras": {"epoch": 2}}, broken)
    kind, header, blobs = load_container(path)
    assert header["extras"] == {"epoch": 1}
    assert np.array_equal(blobs["param.a"], old["param.a"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]


# -- model headers ----------------------------------------------------------------


def test_sep_header_layout_and_round_trip(tmp_path):
    config = ModelConfig(
        stage_blocks=(1, 2), num_filters=8, kernel_len=8, chunk_len=6, hidden_size=4, num_speakers=3, use_id_loss=True
    )
    model = TasTasModel.initialize(config, seed=0)
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, AdamState.for_params(model.params), {})
    _, header, _ = load_container(path)
    # the layout every existing checkpoint was written with
    assert header["model"] == {
        "stage_blocks": [1, 2],
        "num_filters": 8,
        "kernel_len": 8,
        "chunk_len": 6,
        "hidden_size": 4,
        "num_speakers": 3,
        "use_id_loss": True,
    }
    assert config_from_header(ModelConfig, header["model"], path) == config
    assert load_sep_checkpoint(path)[0].config == config


def test_idnet_header_layout_and_round_trip(tmp_path):
    config = IdNetConfig(num_speakers=3, window_len=64, hop=16, segment_s=0.05,
                         conv_channels=(4, 8), embedding_dim=16, sample_rate_hz=8000)
    path = tmp_path / "id.ckpt"
    save_idnet(path, IdNet.initialize(config, seed=0))
    _, header, _ = load_container(path)
    assert header["model"] == {
        "num_speakers": 3,
        "segment_s": 0.05,
        "window_len": 64,
        "hop": 16,
        "conv_channels": [4, 8],
        "embedding_dim": 16,
        "sample_rate_hz": 8000,
    }
    assert config_from_header(IdNetConfig, header["model"], path) == config


@pytest.mark.parametrize("edit", ["missing", "extra", "absent"])
def test_model_header_must_match_config_fields(tmp_path, edit):
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,), num_filters=4, chunk_len=4, hidden_size=4), seed=0)
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, AdamState.for_params(model.params), {})
    kind, header, blobs = load_container(path)
    if edit == "missing":
        del header["model"]["hidden_size"]
    elif edit == "extra":
        header["model"]["dropout"] = 0.1
    else:
        del header["model"]
    save_container(path, kind, header, blobs)
    with pytest.raises(CheckpointError, match="ModelConfig"):
        load_sep_checkpoint(path)


@pytest.mark.parametrize("edit", ["one adam.v blob", "adam header", "adam step"])
def test_sep_loader_requires_the_whole_optimizer_state(tmp_path, edit):
    # a resume from moments that silently start at zero would not continue the run it claims to
    model = TasTasModel.initialize(ModelConfig(stage_blocks=(1,), num_filters=4, chunk_len=4, hidden_size=4), seed=0)
    path = tmp_path / "sep.ckpt"
    save_sep_checkpoint(path, model, AdamState.for_params(model.params), {})
    kind, header, blobs = load_container(path)
    if edit == "one adam.v blob":
        missing = f"adam.v.{model.params.names()[-1]}"
        del blobs[missing]
    elif edit == "adam header":
        missing = "adam.step"
        del header["adam"]
    else:
        missing = "adam.step"
        del header["adam"]["step"]
    save_container(path, kind, header, blobs)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: incomplete optimizer state")) as info:
        load_sep_checkpoint(path)
    assert missing in str(info.value)
