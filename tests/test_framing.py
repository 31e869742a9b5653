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


@pytest.mark.parametrize(
    "op,shape",
    [
        (lambda x: ops.segment_chunks(x, 6, 3)[0], (4, 17)),
        (lambda x: ops.merge_chunks(x, 3, 10, 2), (4, 6, 3)),
        (lambda x: ops.overlap_add(x, 3, 25), (6, 5)),
    ],
    ids=["segment_chunks", "merge_chunks", "overlap_add"],
)
def test_framing_ops_pass_back_c_contiguous_gradients(monkeypatch, op, shape):
    # a strided or transposed gradient would keep its layout in the leaf's grad copy
    x = Tensor(np.random.default_rng(1).standard_normal(shape), requires_grad=True)
    out = op(x)
    passed = _spy_passed_gradients(monkeypatch)
    out.backward(seed=np.ones(out.shape))
    _, passed_back = passed  # backward() seeds the root through the same method
    assert passed_back.shape == shape
    assert passed_back.flags.c_contiguous
    assert x.grad.flags.c_contiguous
