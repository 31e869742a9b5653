"""The framing view and its overlap-add adjoint that every framed signal goes through."""

import numpy as np
import pytest

from tastas.numerics import ops
from tastas.numerics.ops import _frames, _overlap_add
from tastas.numerics.tensor import Tensor


def _loop_overlap_add(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """One frame at a time, first frame first."""
    count, length = frames.shape[-2:]
    out = np.zeros((*frames.shape[:-2], total), dtype=frames.dtype)
    for t in range(count):
        out[..., t * hop : t * hop + length] += frames[..., t, :]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length,hop", [(8, 4), (9, 3), (8, 2)])  # 2-, 3- and 4-way overlap
@pytest.mark.parametrize("count", [5, 40])  # fewer frames than samples per frame, and more
def test_overlap_add_matches_frame_loop_bytes(dtype, length, hop, count):
    rng = np.random.default_rng(length * 100 + count)
    frames = rng.standard_normal((3, count, length)).astype(dtype)
    total = (count - 1) * hop + length + 2
    got = _overlap_add(frames, hop, total)
    assert got.dtype == dtype
    assert got.tobytes() == _loop_overlap_add(frames, hop, total).tobytes()


def test_frames_is_the_adjoint_of_overlap_add():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 30))
    frames = rng.standard_normal((2, 6, 8))
    # <frames(x), f> == <x, overlap_add(f)>
    lhs = np.sum(_frames(x, 8, 4) * frames)
    rhs = np.sum(x * _overlap_add(frames, 4, 30))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _spy_passed_gradients(monkeypatch) -> list:
    passed = []
    accum = Tensor._accum_grad

    def spy(self, g):
        passed.append(g)
        accum(self, g)

    monkeypatch.setattr(Tensor, "_accum_grad", spy)
    return passed


def _encode(x):
    return ops.encode([x], Tensor(np.random.default_rng(2).standard_normal((4, 1, 6))), Tensor(np.array([0.25])), 3)


def _mask_input(x):
    return ops.mask_input(x, Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1))), Tensor(np.eye(4)), 6, 3)


def _mask_decode(x):
    rep = Tensor(np.random.default_rng(2).standard_normal((4, 10)))
    return ops.mask_decode(x, Tensor(np.ones((8, 4))), rep, Tensor(np.ones((6, 4))), 3, 3, 25)


@pytest.mark.parametrize(
    "op,shape",
    [(_mask_input, (4, 17)), (_mask_decode, (4, 6, 3)), (_encode, (25,))],
    ids=["segment_chunks", "merge_chunks", "overlap_add"],
)
def test_framing_ops_pass_back_c_contiguous_gradients(monkeypatch, op, shape):
    # the framing steps of the stage nodes: mask_input's chunking, and
    # mask_decode's merge of the chunks; encode's grad of its wave is the
    # overlap-add of its frames' grads. A strided or transposed gradient
    # would keep its layout in the leaf's grad copy
    x = Tensor(np.random.default_rng(1).standard_normal(shape), requires_grad=True)
    out = op(x)
    passed = _spy_passed_gradients(monkeypatch)
    out.backward(seed=np.ones(out.shape))
    _, passed_back = passed  # backward() seeds the root through the same method
    assert passed_back.shape == shape
    assert passed_back.flags.c_contiguous
    assert x.grad.flags.c_contiguous
