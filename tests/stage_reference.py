"""Reference copies of the unfused separator stage, for the bit-for-bit tests.

A stage used to be a chain of generic graph nodes around its dual-path
blocks: per input wave a reshape, ``conv1d`` and ``prelu``, a ``concat``;
then ``layer_norm``, a ``linear`` bottleneck and ``segment_chunks``; after
the blocks ``merge_chunks``, a ``linear`` mask projection, a ``reshape``
and a ``softmax``; and per speaker two ``getitem``s, a ``mul``, a ``linear``
decoder and an ``overlap_add``. ``ops.encode``, ``ops.mask_input`` and
``ops.mask_decode`` now do all of that in three nodes and must give the
chain's outputs and gradients byte for byte. The ops and the stage below
are that chain, kept as it was; ``prelu`` keeps its ``np.where`` form,
which the bit-select PReLU must match.
"""

import numpy as np

from tastas.numerics import ops
from tastas.numerics.tensor import Tensor


def prelu_where(x: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PReLU and where x is positive, in the np.where form."""
    positive = x > 0
    return np.where(positive, x, slope * x), positive


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    out_data, positive = prelu_where(x.data, slope.data)

    def backward(g):
        if x.requires_grad:
            x._accum_grad(np.where(positive, g, slope.data * g))
        if slope.requires_grad:
            slope._accum_grad(ops._unbroadcast(np.where(positive, 0.0, x.data) * g, slope.shape))

    return Tensor._from_op(out_data, (x, slope), backward)


def conv1d(x: Tensor, weight: Tensor, stride: int) -> Tensor:
    """1-D convolution. x is (C_in, T), weight is (C_out, C_in, K)."""
    t_len, k_len = x.shape[1], weight.shape[2]
    cols = ops._frames(x.data, k_len, stride)

    def backward(g):
        if weight.requires_grad:
            weight._accum_grad(np.tensordot(g, cols, axes=([1], [1])))
        if x.requires_grad:
            g_cols = np.einsum("ot,ock->ctk", g, weight.data)
            x._accum_grad(ops._overlap_add(g_cols, stride, t_len))

    out_data = np.ascontiguousarray(np.tensordot(weight.data, cols, axes=([1, 2], [0, 2])))
    return Tensor._from_op(out_data, (x, weight), backward)


def layer_norm(x: Tensor, axes, gain: Tensor, bias: Tensor) -> Tensor:
    """normalized * gain + bias as one node, the norm backward out of place."""
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    centered, mu, inv_std = ops._normalize(x.data, axes)

    def backward(g):
        if bias.requires_grad:
            bias._accum_grad(ops._unbroadcast(g, bias.shape))
        normalized = (x.data - mu) * inv_std
        if gain.requires_grad:
            gain._accum_grad(ops._unbroadcast(g * normalized, gain.shape))
        g = g * gain.data
        g_mean = g.mean(axis=axes, keepdims=True)
        gy_mean = (g * normalized).mean(axis=axes, keepdims=True)
        if x.requires_grad:
            x._accum_grad(inv_std * (g - g_mean - normalized * gy_mean))

    return Tensor._from_op(centered * inv_std * gain.data + bias.data, (x, gain, bias), backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum_grad(out_data * (g - inner))

    return Tensor._from_op(out_data, (x,), backward)


def segment_chunks(x: Tensor, chunk_len: int, hop: int) -> tuple[Tensor, int]:
    """Split (F, T) into overlapping chunks -> ((F, K, C), pad_frames)."""
    frames = x.shape[1]
    _, padded = ops.chunk_layout(frames, chunk_len, hop)
    pad = padded - frames
    xp = np.pad(x.data, ((0, 0), (0, pad)))

    def backward(g):
        gxp = ops._overlap_add(g.transpose(0, 2, 1), hop, padded)
        x._accum_grad(np.ascontiguousarray(gxp[:, :frames]))

    out_data = np.ascontiguousarray(ops._frames(xp, chunk_len, hop).transpose(0, 2, 1))
    return Tensor._from_op(out_data, (x,), backward), pad


def merge_chunks(x: Tensor, hop: int, out_frames: int, pad_frames: int) -> Tensor:
    """Averaging overlap-add of (F, K, C) back to (F, out_frames); exact inverse of segment_chunks."""
    feat, chunk_len, count = x.shape
    padded = chunk_len + (count - 1) * hop
    assert padded == out_frames + pad_frames
    counts = ops._overlap_add(np.ones((count, chunk_len), dtype=x.dtype), hop, padded)
    acc = ops._overlap_add(x.data.transpose(0, 2, 1), hop, padded)

    def backward(g):
        gp = np.zeros((feat, padded), dtype=x.dtype)
        gp[:, :out_frames] = g
        gp = gp / counts
        x._accum_grad(np.ascontiguousarray(ops._frames(gp, chunk_len, hop).transpose(0, 2, 1)))

    return Tensor._from_op(np.ascontiguousarray((acc / counts)[:, :out_frames]), (x,), backward)


def overlap_add(x: Tensor, stride: int, out_len: int) -> Tensor:
    """Overlap-add frames (L, T) at the given stride into a signal of out_len samples."""
    frame_len, frames = x.shape
    total = max((frames - 1) * stride + frame_len, out_len)

    def backward(g):
        g_total = np.zeros(total, dtype=x.dtype)
        g_total[:out_len] = g
        x._accum_grad(np.ascontiguousarray(ops._frames(g_total, frame_len, stride)[:frames].T))

    return Tensor._from_op(ops._overlap_add(x.data.T, stride, total)[:out_len], (x,), backward)


def encode(waves, weight: Tensor, slope: Tensor, stride: int) -> Tensor:
    """The chain ``ops.encode`` replaces."""
    feats = [prelu(conv1d(ops.reshape(wave, (1, wave.shape[0])), weight, stride), slope) for wave in waves]
    return feats[0] if len(feats) == 1 else ops.concat(feats, axis=0)


def mask_input(rep: Tensor, gain: Tensor, bias: Tensor, weight: Tensor, chunk_len: int, hop: int, norm=layer_norm):
    """The chain ``ops.mask_input`` replaces; norm(x, axes, gain, bias) is the norm node."""
    return segment_chunks(ops.linear(weight, norm(rep, (0, 1), gain, bias)), chunk_len, hop)[0]


def mask_decode(chunks, mask_weight, rep, decoder_weight, hop: int, stride: int, out_len: int) -> list[Tensor]:
    """The chain ``ops.mask_decode`` replaces, one wave per speaker."""
    width, frames = rep.shape
    features, chunk_len, count = chunks.shape
    merged = merge_chunks(chunks, hop, frames, chunk_len + (count - 1) * hop - frames)
    logits = ops.reshape(ops.linear(mask_weight, merged), (-1, features, frames))
    masks = softmax(logits, axis=0)
    waves = []
    for s in range(masks.shape[0]):
        mixture = ops.getitem(rep, (slice(width - features, width), slice(None)))
        masked = ops.mul(ops.getitem(masks, (s,)), mixture)
        waves.append(overlap_add(ops.linear(decoder_weight, masked), stride, out_len))
    return waves


def stage_forward(params, config, stage_index, mixture, prev_estimates, norm=layer_norm, block=None):
    """``sepnet.model.stage_forward`` as the unfused chain. block(params, base,
    chunks) runs a dual-path block (default: the fused one of the model)."""
    from tastas.sepnet.model import dual_path_block

    block = block or dual_path_block
    prefix = f"stage{stage_index}"
    waves = [mixture] if prev_estimates is None else [*prev_estimates, mixture]
    rep = encode(waves, params[f"{prefix}.encoder.weight"], params[f"{prefix}.encoder.prelu"], config.stride)
    chunks = mask_input(
        rep,
        params[f"{prefix}.separator.input_norm.gain"],
        params[f"{prefix}.separator.input_norm.bias"],
        params[f"{prefix}.separator.bottleneck.weight"],
        config.chunk_len,
        config.chunk_hop,
        norm=norm,
    )
    for b in range(config.stage_blocks[stage_index]):
        chunks = block(params, f"{prefix}.block{b}", chunks)
    return mask_decode(
        chunks,
        params[f"{prefix}.separator.mask.weight"],
        rep,
        params[f"{prefix}.decoder.weight"],
        config.chunk_hop,
        config.stride,
        mixture.shape[0],
    )

