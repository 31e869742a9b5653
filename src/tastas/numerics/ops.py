"""Differentiable primitives.

Every function takes Tensors and returns ``Tensor._from_op(value,
parents, backward)`` with an exact analytic ``backward(g)`` (see the
node protocol in ``tensor``). Shape validation raises ConfigError naming
the op and the offending dimensions. The finite-difference suite in
``gradcheck`` verifies every op here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import ConfigError
from . import sibling
from .tensor import Tensor, is_recording

LAYER_NORM_VAR_FLOOR = 1e-12


def const(value, dtype=None) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype), requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to the given shape (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _frames(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """(..., count, length) strided view of the last axis: a frame every hop samples."""
    return np.lib.stride_tricks.sliding_window_view(x, length, axis=-1)[..., ::hop, :]


def _overlap_add(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Adjoint of ``_frames``: sum (..., count, length) frames into (..., total).

    Loops along the shorter of the two frame axes; the offset loop runs from
    the last offset down, so either way every sample adds its frames in
    ascending frame order and the bits do not depend on the loop taken.
    """
    *lead, count, length = frames.shape
    out = np.zeros((*lead, total), dtype=frames.dtype)
    if count <= length:
        for t in range(count):
            out[..., t * hop : t * hop + length] += frames[..., t, :]
    else:
        last = (count - 1) * hop
        for k in range(length - 1, -1, -1):
            out[..., k : k + last + 1 : hop] += frames[..., k]
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g, b.shape))

    return Tensor._from_op(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(-g, b.shape))

    return Tensor._from_op(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) product."""

    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._from_op(a.data / b.data, (a, b), backward)


def neg(x: Tensor) -> Tensor:
    def backward(g):
        x._accum_grad(-g)

    return Tensor._from_op(-x.data, (x,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        x._accum_grad(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))

    return Tensor._from_op(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[i] for i in axes]))
    scaled = tsum(x, axis=axis, keepdims=keepdims)
    return mul(scaled, const(1.0 / count, dtype=x.dtype))


# ---------------------------------------------------------------------------
# transcendental / activations
# ---------------------------------------------------------------------------


def log(x: Tensor) -> Tensor:
    def backward(g):
        x._accum_grad(g / x.data)

    return Tensor._from_op(np.log(x.data), (x,), backward)


def _sign_mask(positive: np.ndarray, bits: np.dtype) -> np.ndarray:
    """All ones where positive, all zeros elsewhere, as unsigned integers of bits."""
    mask = positive.astype(bits)
    np.negative(mask, out=mask)  # 1 -> all ones
    return mask


def _bit_select(positive: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a where positive and b elsewhere, written into b and returned.

    The choice is made on raw bits, b ^ ((a ^ b) & mask) with an all-ones
    mask where positive, as _route_to_winners routes grads: the same bits as
    np.where, signed zeros and NaNs included, several times faster.
    """
    bits = np.dtype(f"u{b.itemsize}")
    b_bits = b.view(bits)
    diff = np.bitwise_xor(a.astype(b.dtype, copy=False).view(bits), b_bits)
    diff &= _sign_mask(positive, bits)
    b_bits ^= diff
    return b


def _prelu(x: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(0, x) + slope * min(0, x), and where x is positive."""
    positive = x > 0
    return _bit_select(positive, x, slope * x), positive


def _prelu_input_grad(g: np.ndarray, positive: np.ndarray, slope: np.ndarray) -> np.ndarray:
    return _bit_select(positive, g, slope * g)


def _prelu_slope_grad(g: np.ndarray, positive: np.ndarray, x: np.ndarray, slope_shape) -> np.ndarray:
    bits = np.dtype(f"u{x.itemsize}")
    off = _sign_mask(positive, bits)
    np.invert(off, out=off)
    np.bitwise_and(x.view(bits), off, out=off)  # x off the positive side, +0.0 on it
    return _unbroadcast(off.view(x.dtype) * g, slope_shape)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def linear(weight: Tensor, x: Tensor) -> Tensor:
    """y = W x. W is (out, in); x is (in,) or (in, cols)."""
    if weight.ndim != 2 or x.shape[0] != weight.shape[1]:
        raise ConfigError(
            f"linear: weight {weight.shape} incompatible with input {x.shape}"
        )

    def backward(g):
        if weight.requires_grad:
            if x.ndim == 1:
                weight._accum_grad(np.outer(g, x.data))
            else:
                weight._accum_grad(g @ x.data.T)
        if x.requires_grad:
            x._accum_grad(weight.data.T @ g)

    return Tensor._from_op(weight.data @ x.data, (weight, x), backward)


# ---------------------------------------------------------------------------
# convolutions and pooling
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The (C*kh*kw, out_h*out_w) im2col matrix of x (C, H, W) zero-padded
    by one sample on each side, built from kh*kw slabs, and the padded shape."""
    c_in, height, width = x.shape
    out_h, out_w = height + 3 - kh, width + 3 - kw
    padded_shape = (c_in, height + 2, width + 2)
    xp = np.zeros(padded_shape, dtype=x.dtype)
    xp[:, 1 : 1 + height, 1 : 1 + width] = x
    cols = np.empty((c_in, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + out_h, j : j + out_w]
    return cols.reshape(c_in * kh * kw, out_h * out_w), padded_shape


def _col2im(g_cols: np.ndarray, padded_shape: tuple[int, int, int], kh: int, kw: int) -> np.ndarray:
    """Adjoint of _im2col: sum the (C*kh*kw, out_h*out_w) column grads back
    into the grad of the unpadded input (C, H, W)."""
    c_in, padded_h, padded_w = padded_shape
    out_h, out_w = padded_h - kh + 1, padded_w - kw + 1
    # Each slab is laid out on the padded rows, its entries past out_w zero,
    # so that its add is one run along the flattened padded input, not out_h
    # runs of out_w floats. The sums start at +0.0 and so never hold -0.0:
    # adding those zeros changes no bit.
    wide = np.zeros((c_in, kh * kw, out_h, padded_w), dtype=g_cols.dtype)
    wide[..., :out_w] = g_cols.reshape(c_in, kh * kw, out_h, out_w)
    wide = wide.reshape(c_in, kh * kw, out_h * padded_w)
    span = (out_h - 1) * padded_w + out_w
    gxp = np.zeros((c_in, padded_h * padded_w), dtype=g_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            start = i * padded_w + j
            gxp[:, start : start + span] += wide[:, i * kw + j, :span]
    return gxp.reshape(padded_shape)[:, 1 : padded_h - 1, 1 : padded_w - 1]


def _pool_entry(data: np.ndarray, k: int, out_h: int, out_w: int) -> np.ndarray:
    """Entry k, in row-major order, of every 2x2 window of data (C, H, W): a
    strided (C, out_h, out_w) view."""
    i, j = divmod(k, 2)
    return data[:, i : 2 * out_h : 2, j : 2 * out_w : 2]


def conv_block(x: Tensor, weight: Tensor, slope: Tensor) -> Tensor:
    """One speaker-network block as one node: max_pool(PReLU(conv(x, weight)), 2).

    x is (C_in, H, W) and weight (C_out, C_in, kh, kw); the convolution has
    stride 1 and one sample of zero padding on each side, PReLU's slope
    broadcasts over its output, and the 2x2 max pooling drops a trailing
    row or column that does not fit. The convolution is one matrix product
    against an im2col matrix of the padded input. The pooled value is the
    running maximum of the four window entries in row-major order, and each
    window's winner, the first entry equal to its maximum, is recorded as it
    goes, one uint8 per output. The node keeps its output, the winners and
    the sign PReLU saw at each winner; only a trainable weight or slope adds
    the im2col matrix and the convolution's output, whose grads need them.
    """
    if x.ndim != 3 or weight.ndim != 4:
        raise ConfigError(f"conv_block: expected (C,H,W) input and (O,C,kh,kw) weight, got {x.shape}, {weight.shape}")
    c_in, height, width = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ConfigError(f"conv_block: input channels {c_in} != weight channels {c_in_w}")
    conv_h, conv_w = height + 3 - kh, width + 3 - kw
    out_h, out_w = conv_h // 2, conv_w // 2
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"conv_block: input {x.shape} too small for kernel ({kh},{kw}) and a 2x2 pool")
    cols, padded_shape = _im2col(x.data, kh, kw)
    w2 = weight.data.reshape(c_out, -1)
    conv = (w2 @ cols).reshape(c_out, conv_h, conv_w)
    act, positive = _prelu(conv, slope.data)
    out_data = _pool_entry(act, 0, out_h, out_w).copy()
    record = is_recording((x, weight, slope))
    winner = np.zeros(out_data.shape, dtype=np.uint8)  # the index of each window's winning entry
    won = np.empty(out_data.shape, dtype=bool)
    for k in range(1, 4):
        entry = _pool_entry(act, k, out_h, out_w)
        if record:
            # A later entry wins only if it is strictly greater, so the first
            # maximum wins, and the last entry that won is the window's winner.
            np.greater(entry, out_data, out=won)
            np.maximum(winner, won.view(np.uint8) * np.uint8(k), out=winner)
        # np.maximum returns its second argument on a tie, so the running
        # maximum keeps the earlier entry too
        np.maximum(entry, out_data, out=out_data)
    del act, won
    winner_positive = np.zeros(out_data.shape, dtype=bool)  # the sign PReLU saw at each winner
    if record:
        for k in range(4):
            winner_positive |= (winner == k) & _pool_entry(positive, k, out_h, out_w)
    del positive
    trainable = record and (weight.requires_grad or slope.requires_grad)
    saved_cols, saved_conv = (cols, conv) if trainable else (None, None)
    del cols, conv

    def backward(g):
        if trainable:
            # the pool's grad in full, PReLU's as its own backward forms it
            g_act = np.zeros((c_out, conv_h, conv_w), dtype=g.dtype)
            _route_to_winners(g, winner, g_act, out_h, out_w)
            conv_positive = saved_conv > 0
            if slope.requires_grad:
                slope._accum_grad(_prelu_slope_grad(g_act, conv_positive, saved_conv, slope.shape))
            g_conv = _prelu_input_grad(g_act, conv_positive, slope.data)
        else:
            # PReLU's grad at the winners alone; every other entry is +0.0,
            # where PReLU would give slope * +0.0 off its positive side,
            # a zero of either sign that the input grad's sums turn into +0.0
            g_conv = np.zeros((c_out, conv_h, conv_w), dtype=g.dtype)
            _route_to_winners(_prelu_input_grad(g, winner_positive, slope.data), winner, g_conv, out_h, out_w)
        g_conv = g_conv.reshape(c_out, -1)
        if weight.requires_grad:
            weight._accum_grad((g_conv @ saved_cols.T).reshape(weight.shape))
        if x.requires_grad:
            x._accum_grad(_col2im(w2.T @ g_conv, padded_shape, kh, kw))

    return Tensor._from_op(out_data, (x, weight, slope), backward)


def _route_to_winners(g: np.ndarray, winner: np.ndarray, dest: np.ndarray, out_h: int, out_w: int) -> None:
    """Write each window's grad g (C, out_h, out_w) to the entry of dest
    (C, H, W), zeros beforehand, that won the window."""
    # The gradient is routed as raw bits: g's bits ANDed with an all-ones
    # mask where the entry won and an all-zeros one elsewhere give g or +0.0,
    # several times faster than a masked copy into a strided view.
    bits = np.dtype(f"u{g.itemsize}")
    g_bits = g.view(bits)
    for k in range(4):
        np.bitwise_and(g_bits, _sign_mask(winner == k, bits), out=_pool_entry(dest.view(bits), k, out_h, out_w))


# ---------------------------------------------------------------------------
# recurrent cells
# ---------------------------------------------------------------------------
#
# Kernel layout. The stored weights keep their gate rows in (i, f, g, o) order:
# input, forget, cell candidate, output. Each call works on a copy reordered to
# (i, f, o, g) whose three sigmoid blocks are halved. Since
# sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, and halving is exact in binary floating
# point, one np.tanh over all 4H pre-activations, then 0.5 * t + 0.5 on the
# first 3H, gives all four gates.
#
# The recurrence is time-major with the batch on the last axis: the gate buffer
# is (T, 4H, B) and the cell states are (T, H, B), so step t works on
# contiguous blocks and each gate is a contiguous (H, B) slab of gates[t]. The
# gate buffer starts as the input projection and holds the activated gates once
# step t has run. The two directions' hidden states are joined into one
# (B*T, 2H) matrix, rows in (batch, step) order, which the output projection
# reads transposed. A (2H, T, B) buffer that the kernel writes into directly
# would save that copy, but its row-strided step slabs made the forward 11-15%
# slower at B=41, T=50, and OpenBLAS rounds its plain (2H, T*B) product
# differently at small shapes.
#
# The dual-path half (bilstm_layer) is one node that keeps the activated gates
# alone, 4H values per step and sequence, plus the norm's per-slice mean and
# inverse std. Its backward first re-forms the cell states,
# c(t) = f(t) * c(t-1) + i(t) * g(t), and the hidden states,
# h(t) = o(t) * tanh(c(t)), of both directions, with the same float32
# operations the forward ran, so both come back bit for bit; then the
# projection output, with the forward's own matrix product on those hidden
# states; then the norm backward, in place, and the projection's weight grad,
# and last the BPTT loops, one direction at a time. Through the norm backward
# it holds c(t) and h(t) alone: each direction's _lstm_grad takes its gates
# and re-formed states over from the node, re-forms tanh c(t) with the same
# bulk np.tanh just before its loop, and frees the gates, c(t) and tanh c(t)
# once the loop has run, so the first direction's are gone before its tail
# products and the second direction's BPTT. The kernel reads its
# input as (D, T, B): the chunks (F, K, C) themselves for the intra-chunk
# recurrence, and an (F, C, K) copy of them for the inter-chunk one. The
# right-to-left pass is the same kernel run on the time-flipped input.
#
# A half that records no graph (separate(), eval, dev passes) runs its two
# directions on two processes when ``sibling`` allows it: the caller copies
# the input into an arena it shares with a forked helper, runs the
# left-to-right pass there itself, and the helper runs the right-to-left
# pass and writes its hidden states into the arena, which _join_directions
# reads. Both run the one kernel on the same bytes, so the output is the
# serial path's bit for bit. A recorded half always runs both directions
# in the caller: its backward needs the gates of both, and copying the
# helper's gates and BPTT inputs through the arena made a training step
# 1.08-1.15x slower on 2 vCPUs.


@functools.cache
def _gate_order(hidden: int) -> np.ndarray:
    """Row permutation between (i, f, g, o) and (i, f, o, g); it is its own inverse."""
    order = np.r_[0 : 2 * hidden, 3 * hidden : 4 * hidden, 2 * hidden : 3 * hidden]
    order.flags.writeable = False
    return order


def _kernel_weights(w: np.ndarray, hidden: int) -> np.ndarray:
    """w (or a bias) in kernel layout: rows in (i, f, o, g) order, sigmoid rows halved."""
    k = w[_gate_order(hidden)]
    k[: 3 * hidden] *= 0.5
    return k


def _lstm_run(x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray, b: np.ndarray, keep_cache: bool, out=None):
    """Run one LSTM direction over x (D, T, B), first step first.

    Returns the hidden states (T, H, B), written into out if given, and the
    BPTT cache (None unless keep_cache): the activated gates (T, 4H, B).
    """
    _, steps, batch = x.shape
    hidden = w_hh.shape[1]
    w_hh_k = _kernel_weights(w_hh, hidden)
    gates = np.matmul(_kernel_weights(w_ih, hidden), x.transpose(1, 0, 2))
    gates += _kernel_weights(b, hidden)[:, None]
    hs = np.empty((steps, hidden, batch), dtype=x.dtype) if out is None else out
    recurrent = np.empty((4 * hidden, batch), dtype=x.dtype)
    i_g = np.empty((hidden, batch), dtype=x.dtype)
    h = np.zeros((hidden, batch), dtype=x.dtype)
    c = np.zeros_like(h)  # one cell-state slab, overwritten in place at every step
    for t in range(steps):
        z = gates[t]
        np.matmul(w_hh_k, h, out=recurrent)
        z += recurrent
        np.tanh(z, out=z)
        sig = z[: 3 * hidden]
        sig *= 0.5
        sig += 0.5
        i, f, o, g = (z[k * hidden : (k + 1) * hidden] for k in range(4))
        np.multiply(i, g, out=i_g)
        c *= f
        c += i_g
        h = hs[t]
        np.tanh(c, out=h)
        h *= o
    return hs, (gates if keep_cache else None)


def _lstm_states(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell states and the hidden states (each (T, H, B)) of the run
    whose activated gates (T, 4H, B) these are, rounded as it rounded them."""
    steps, four_hidden, batch = gates.shape
    hidden = four_hidden // 4
    zeros = np.zeros((hidden, batch), dtype=gates.dtype)
    tmp = np.empty_like(zeros)
    # c(t) = f(t) * c(t-1) + i(t) * g(t), each product rounded as the forward rounds it
    cs = np.multiply(gates[:, :hidden], gates[:, 3 * hidden :])
    for t in range(steps):
        np.multiply(gates[t, hidden : 2 * hidden], cs[t - 1] if t else zeros, out=tmp)
        cs[t] += tmp
    hs = np.tanh(cs)
    hs *= gates[:, 2 * hidden : 3 * hidden]
    return cs, hs


def _lstm_grad(x: np.ndarray, run: list, w_ih: np.ndarray, w_hh: np.ndarray, g_h: np.ndarray):
    """BPTT through one direction that _lstm_run ran over x (D, T, B).

    run is [gates, c, h]: the run's cache (T, 4H, B) and the states
    _lstm_states re-formed from it (each (T, H, B)). _lstm_grad empties the
    list and so owns those arrays: it re-forms tanh c(t) with the bulk
    np.tanh _lstm_states ran, and frees the gates, c(t) and tanh c(t) once
    its BPTT loop has run. g_h is the upstream grad of the hidden states
    (T, H, B). Returns dx (D, T, B) and the grads of w_ih, w_hh and b in
    their stored gate order.
    """
    gates, cs, hs = run
    run.clear()
    steps, _, batch = gates.shape
    hidden = w_hh.shape[1]
    order = _gate_order(hidden)
    # the carry-free factors of the gate grads, over all steps at once:
    # s * (1 - s) for the sigmoid gates and i * (1 - g^2) for the cell candidate
    dzs = np.empty_like(gates)
    sig, cand = dzs[:, : 3 * hidden], dzs[:, 3 * hidden :]
    np.subtract(1.0, gates[:, : 3 * hidden], out=sig)
    sig *= gates[:, : 3 * hidden]
    np.multiply(gates[:, 3 * hidden :], gates[:, 3 * hidden :], out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= gates[:, :hidden]
    del sig, cand
    tanh_cs = np.tanh(cs)
    _bptt(gates, cs, tanh_cs, np.ascontiguousarray(w_hh[order].T), g_h, dzs)
    # the loop is the last reader of these; the step grads it wrote are all the tail needs
    del gates, cs, tanh_cs
    # one (4H, T*B) copy turns the weight grads and dx into single matrix products
    dz_flat = np.ascontiguousarray(dzs.transpose(1, 0, 2)).reshape(4 * hidden, steps * batch)
    del dzs
    h_prev = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, -1)  # h(t-1), (H, (T-1)*B)
    del hs
    dx = (w_ih[order].T @ dz_flat).reshape(-1, steps, batch)
    dw_ih = (dz_flat @ x.reshape(x.shape[0], -1).T)[order]
    dw_hh = (dz_flat[:, batch:] @ h_prev.T)[order]
    db = dz_flat.sum(axis=1)[order]
    return dx, dw_ih, dw_hh, db


def _bptt(
    gates: np.ndarray, cs: np.ndarray, tanh_cs: np.ndarray, w_hh_t: np.ndarray, g_h: np.ndarray, dzs: np.ndarray
) -> None:
    """The BPTT loop of _lstm_grad, last step first: multiplies each step's
    carry-free factors in dzs (T, 4H, B) by the grads of its gates. Its own
    frame, so no view into the gates or states outlives it."""
    steps, four_hidden, batch = gates.shape
    hidden = four_hidden // 4
    zeros = np.zeros((hidden, batch), dtype=gates.dtype)
    dh_carry, dc_carry = zeros.copy(), zeros.copy()
    dh, dc = np.empty_like(zeros), np.empty_like(zeros)
    d_sig = np.empty((3 * hidden, batch), dtype=gates.dtype)
    for t in range(steps - 1, -1, -1):
        z, dz, tanh_c = gates[t], dzs[t], tanh_cs[t]
        f, o, g = (z[k * hidden : (k + 1) * hidden] for k in range(1, 4))
        np.add(g_h[t], dh_carry, out=dh)
        # dc = dh * o * (1 - tanh(c)^2) + dc_carry
        np.multiply(tanh_c, tanh_c, out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        dc += dc_carry
        # the grads of the gates, times their factors
        np.multiply(dc, g, out=d_sig[:hidden])
        np.multiply(dc, cs[t - 1] if t else zeros, out=d_sig[hidden : 2 * hidden])
        np.multiply(dh, tanh_c, out=d_sig[2 * hidden :])
        dz[: 3 * hidden] *= d_sig
        dz[3 * hidden :] *= dc
        np.matmul(w_hh_t, dz, out=dh_carry)
        np.multiply(dc, f, out=dc_carry)


def _join_directions(hs_f: np.ndarray, hs_b: np.ndarray) -> np.ndarray:
    """[h_fwd; h_bwd] of two (T, H, B) runs, the second time-flipped, as (B*T, 2H)."""
    steps, hidden, batch = hs_f.shape
    h = np.empty((batch, steps, 2 * hidden), dtype=hs_f.dtype)
    h[:, :, :hidden] = hs_f.transpose(2, 0, 1)
    h[:, :, hidden:] = hs_b[::-1].transpose(2, 0, 1)
    return h.reshape(batch * steps, 2 * hidden)


def _as_dtb(a: np.ndarray, axis: int) -> np.ndarray:
    """A (F, K, C) array as the kernel's (D, T, B), with the recurrence axis
    as the steps T, or such an array back as (F, K, C): a view either way."""
    return a if axis == 1 else a.transpose(0, 2, 1)


def _as_fbt(a: np.ndarray, axis: int) -> np.ndarray:
    """A (F, B, T) array as (F, K, C), with the recurrence axis as the steps T,
    or such an array back as (F, B, T): a view either way."""
    return a.transpose(0, 2, 1) if axis == 1 else a


def bilstm_layer(
    chunks: Tensor,
    axis: int,
    w_ih_f: Tensor,
    w_hh_f: Tensor,
    b_f: Tensor,
    w_ih_b: Tensor,
    w_hh_b: Tensor,
    b_b: Tensor,
    proj: Tensor,
    gain: Tensor,
    bias: Tensor,
) -> Tensor:
    """One half of a dual-path block: chunks + LayerNorm(proj @ BiLSTM(chunks)).

    chunks is (F, K, C): F features at K positions in each of C chunks. The
    BiLSTM recurs along axis, 1 within each chunk or 2 across the chunks,
    one pass left to right and one right to left; proj (F, 2H) projects the
    hidden states of both, [h_fwd; h_bwd], back to F features. The layer norm
    runs over the features and that axis, with gain and bias broadcast
    against (F, K, C), and the result is added to chunks. One fused node with
    manual BPTT: it keeps only the activated gates and the norm's per-slice
    statistics, and backward re-forms the rest.
    """
    if chunks.ndim != 3:
        raise ConfigError(f"bilstm_layer: expected (F,K,C) chunks, got {chunks.shape}")
    if axis not in (1, 2):
        raise ConfigError(f"bilstm_layer: recurrence axis must be 1 or 2, got {axis}")
    features = chunks.shape[0]
    hidden = w_hh_f.shape[1]
    if w_ih_f.shape[1] != features or w_ih_b.shape[1] != features:
        raise ConfigError(
            f"bilstm_layer: {features} features incompatible with weights {w_ih_f.shape}, {w_ih_b.shape}"
        )
    if proj.shape != (features, 2 * hidden):
        raise ConfigError(
            f"bilstm_layer: projection {proj.shape} does not map {2 * hidden} hidden to {features} features"
        )
    parents = (chunks, w_ih_f, w_hh_f, b_f, w_ih_b, w_hh_b, b_b, proj, gain, bias)
    record = is_recording(parents)
    steps, batch = chunks.shape[axis], chunks.shape[3 - axis]
    norm_axes = (0, axis)
    weights_f, weights_b = (w_ih_f.data, w_hh_f.data, b_f.data), (w_ih_b.data, w_hh_b.data, b_b.data)
    pair = None if record else sibling.run_directions(_lstm_run, _as_dtb(chunks.data, axis), weights_f, weights_b)
    if pair is None:
        x_dtb = np.ascontiguousarray(_as_dtb(chunks.data, axis))
        hs_f, gates_f = _lstm_run(x_dtb, *weights_f, keep_cache=record)
        hs_b, gates_b = _lstm_run(x_dtb[:, ::-1], *weights_b, keep_cache=record)
    else:
        (hs_f, hs_b), gates_f, gates_b = pair, None, None
    projected = (proj.data @ _join_directions(hs_f, hs_b).T).reshape(features, batch, steps)
    centered, mu, inv_std = _normalize(_as_fbt(projected, axis), norm_axes)

    def backward(g):
        # each array is dropped once spent (see the node protocol in tensor.py)
        nonlocal gates_f, gates_b
        # each direction's [gates, c, h], handed whole to its _lstm_grad
        run_f, run_b = [gates_f, *_lstm_states(gates_f)], [gates_b, *_lstm_states(gates_b)]
        gates_f = gates_b = None
        h = _join_directions(run_f[2], run_b[2])
        y = _as_fbt((proj.data @ h.T).reshape(features, batch, steps), axis)
        if chunks.requires_grad:
            chunks._accum_grad(g)  # the residual
        g_y = _normalize_backward(g, y, mu, inv_std, gain, bias, norm_axes)
        del y
        g_y = np.ascontiguousarray(_as_fbt(g_y, axis)).reshape(features, batch * steps)
        if proj.requires_grad:
            proj._accum_grad(g_y @ h)
        del h
        g_h = (proj.data.T @ g_y).reshape(2 * hidden, batch, steps)
        del g_y
        g_thb = np.ascontiguousarray(g_h.transpose(2, 0, 1))
        del g_h
        x_dtb = np.ascontiguousarray(_as_dtb(chunks.data, axis))
        dx_f, dwi_f, dwh_f, db_f = _lstm_grad(x_dtb, run_f, w_ih_f.data, w_hh_f.data, g_thb[:, :hidden])
        dx_b, dwi_b, dwh_b, db_b = _lstm_grad(x_dtb[:, ::-1], run_b, w_ih_b.data, w_hh_b.data, g_thb[::-1, hidden:])
        if chunks.requires_grad:
            dx_f += dx_b[:, ::-1]
            chunks._accum_grad(_as_dtb(dx_f, axis))
        for tensor, grad in (
            (w_ih_f, dwi_f),
            (w_hh_f, dwh_f),
            (b_f, db_f),
            (w_ih_b, dwi_b),
            (w_hh_b, dwh_b),
            (b_b, db_b),
        ):
            if tensor.requires_grad:
                tensor._accum_grad(grad)

    return Tensor._from_op(chunks.data + (centered * inv_std * gain.data + bias.data), parents, backward)


# ---------------------------------------------------------------------------
# normalization / softmax
# ---------------------------------------------------------------------------


def _normalize(x: np.ndarray, axes: tuple[int, ...]):
    """x - mean, the per-slice mean and the per-slice inverse std over axes.

    Slices whose variance falls below LAYER_NORM_VAR_FLOOR get inverse std
    zero, so they normalize to zeros (and pass zero gradient to x).
    """
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    degenerate = var < LAYER_NORM_VAR_FLOOR
    inv_std = np.where(degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    return centered, mu, inv_std


def _normalize_backward(
    g: np.ndarray, x: np.ndarray, mu: np.ndarray, inv_std: np.ndarray, gain: Tensor, bias: Tensor, axes
) -> np.ndarray:
    """Backward of normalized(x) * gain + bias for the upstream grad g.

    Accumulates the grads of gain and bias and returns x's. The normalized
    values are re-formed from x and the saved statistics.
    """
    if bias.requires_grad:
        bias._accum_grad(_unbroadcast(g, bias.shape))
    normalized = x - mu
    normalized *= inv_std
    product = g * normalized
    if gain.requires_grad:
        gain._accum_grad(_unbroadcast(product, gain.shape))
    g = g * gain.data
    g_mean = g.mean(axis=axes, keepdims=True)
    np.multiply(g, normalized, out=product)  # the layout g * normalized has, so the mean sums in its order
    gy_mean = product.mean(axis=axes, keepdims=True)
    del product
    # inv_std * (g - g_mean - normalized * gy_mean), in place
    g -= g_mean
    normalized *= gy_mean
    g -= normalized
    g *= inv_std
    return g


def log_softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(g):
        x._accum_grad(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def getitem(x: Tensor, key) -> Tensor:
    """Basic slicing only (slices, ints, tuples of those)."""

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[key] += g
        x._accum_grad(gx)

    return Tensor._from_op(np.asarray(x.data[key], order="C"), (x,), backward)


# ---------------------------------------------------------------------------
# the separator stage around the dual-path blocks
# ---------------------------------------------------------------------------
#
# A stage is four kinds of node: encode, mask_input, the bilstm_layer stack,
# and mask_decode. Each fused node runs the float operations of a chain of
# generic graph ops (conv1d, prelu, concat, layer_norm, linear,
# segment_chunks, merge_chunks, reshape, softmax, getitem, mul, overlap_add;
# the bit-for-bit tests keep that chain as test-local ops) in its order, so
# its output and every gradient are the chain's bit for bit, at a fraction of
# the graph memory. Each keeps only what its backward cannot re-form from its
# parents: encode its output, the concatenated rep (its backward re-forms
# the convolution outputs from the waves); mask_input the input norm's mean
# and inverse std (its backward re-forms the normalized rep from rep);
# mask_decode nothing (its backward re-forms the merged chunks, the masks and
# the masked mixture channels from the last block's output and rep). rep
# stays a node output that mask_decode and mask_input both read, so their
# grads meet there in the chain's order (see mask_decode).


def chunk_layout(frames: int, chunk_len: int, hop: int) -> tuple[int, int]:
    """(chunk_count, padded_frames) for a frame axis of the given length.

    At least two chunks are always produced so the cross-chunk recurrence
    sees a sequence; the frame axis is zero-padded up to the exact layout.
    """
    if chunk_len < 2:
        raise ConfigError(f"chunk_layout: chunk_len must be >= 2, got {chunk_len}")
    if hop * 2 != chunk_len:
        raise ConfigError(f"chunk_layout: hop {hop} must be chunk_len/2 ({chunk_len}/2)")
    steps = max(1, math.ceil((frames - chunk_len) / hop))
    count = steps + 1
    padded = chunk_len + steps * hop
    return count, padded


def _encode_conv(wave: np.ndarray, weight: np.ndarray, stride: int) -> np.ndarray:
    """The (C_out, frames) convolution of a 1-D wave by weight (C_out, 1, K)."""
    cols = _frames(wave.reshape(1, -1), weight.shape[2], stride)
    return np.ascontiguousarray(np.tensordot(weight, cols, axes=([1, 2], [0, 2])))


def encode(waves, weight: Tensor, slope: Tensor, stride: int) -> Tensor:
    """The stage's front end: PReLU(conv(wave, weight)) of each wave, stacked.

    waves are 1-D and of one length; weight is (N, 1, K), its frames taken
    every stride samples, and slope broadcasts over each (N, frames)
    convolution output. Returns rep (len(waves) * N, frames), wave i's
    features in rows i*N to (i+1)*N. The node keeps only rep: its backward
    re-forms each wave's convolution output.
    """
    if weight.ndim != 3 or weight.shape[1] != 1:
        raise ConfigError(f"encode: expected an (N,1,K) weight, got {weight.shape}")
    if stride < 1:
        raise ConfigError(f"encode: stride must be >= 1, got {stride}")
    if not waves:
        raise ConfigError("encode: no waves")
    n, _, k_len = weight.shape
    length = waves[0].shape[0]
    for wave in waves:
        if wave.ndim != 1 or wave.shape[0] != length:
            raise ConfigError(f"encode: expected 1-D waves of one length, got {[w.shape for w in waves]}")
    if length < k_len:
        raise ConfigError(f"encode: input length {length} shorter than kernel {k_len}")
    dtype = np.result_type(weight.data, slope.data, *(wave.data for wave in waves))
    rep = np.empty((len(waves) * n, (length - k_len) // stride + 1), dtype=dtype)
    for i, wave in enumerate(waves):
        rep[i * n : (i + 1) * n] = _prelu(_encode_conv(wave.data, weight.data, stride), slope.data)[0]

    def backward(g):
        for i, wave in enumerate(waves):  # in the order the chain's per-wave nodes ran
            conv = _encode_conv(wave.data, weight.data, stride)
            positive = conv > 0
            g_act = g[i * n : (i + 1) * n]
            if slope.requires_grad:
                slope._accum_grad(_prelu_slope_grad(g_act, positive, conv, slope.shape))
            g_conv = _prelu_input_grad(g_act, positive, slope.data)
            del conv, positive
            cols = _frames(wave.data.reshape(1, -1), k_len, stride)
            if weight.requires_grad:
                weight._accum_grad(np.tensordot(g_conv, cols, axes=([1], [1])))
            if wave.requires_grad:
                g_cols = np.einsum("ot,ock->ctk", g_conv, weight.data)
                wave._accum_grad(_overlap_add(g_cols, stride, length).reshape(length))

    return Tensor._from_op(rep, (*waves, weight, slope), backward)


def mask_input(rep: Tensor, gain: Tensor, bias: Tensor, weight: Tensor, chunk_len: int, hop: int) -> Tensor:
    """The mask estimator's input: rep (W, T) through a global layer norm,
    the bottleneck weight (N, W), zero padding and chunking.

    The norm runs over all of rep, with gain and bias (W, 1); the padded
    (N, T') features are cut into chunk_len frames every hop frames, as
    chunk_layout lays them out. Returns the chunks (N, chunk_len, C). The
    node keeps the norm's mean and inverse std: its backward re-forms the
    normalized rep from rep.
    """
    if rep.ndim != 2:
        raise ConfigError(f"mask_input: expected (W,T) rep, got {rep.shape}")
    width, frames = rep.shape
    if weight.ndim != 2 or weight.shape[1] != width:
        raise ConfigError(f"mask_input: bottleneck {weight.shape} incompatible with rep {rep.shape}")
    _, padded = chunk_layout(frames, chunk_len, hop)
    axes = (0, 1)
    centered, mu, inv_std = _normalize(rep.data, axes)
    y = weight.data @ (centered * inv_std * gain.data + bias.data)
    del centered
    padded_y = np.pad(y, ((0, 0), (0, padded - frames)))
    del y
    chunks = np.ascontiguousarray(_frames(padded_y, chunk_len, hop).transpose(0, 2, 1))
    del padded_y

    def backward(g):
        g_y = np.ascontiguousarray(_overlap_add(g.transpose(0, 2, 1), hop, padded)[:, :frames])
        if weight.requires_grad:
            normed = (rep.data - mu) * inv_std * gain.data + bias.data  # as the forward formed it
            weight._accum_grad(g_y @ normed.T)
            del normed
        if rep.requires_grad or gain.requires_grad or bias.requires_grad:
            g_rep = _normalize_backward(weight.data.T @ g_y, rep.data, mu, inv_std, gain, bias, axes)
            if rep.requires_grad:
                rep._accum_grad(g_rep)

    return Tensor._from_op(chunks, (rep, gain, bias, weight), backward)


def _merge_and_mask(chunks: np.ndarray, mask_weight: np.ndarray, hop: int, frames: int):
    """The merged chunks (N, frames) and the softmax masks (S, N, frames) of
    mask_decode, and the overlap counts that merged them."""
    features, chunk_len, count = chunks.shape
    padded = chunk_len + (count - 1) * hop
    counts = _overlap_add(np.ones((count, chunk_len), dtype=chunks.dtype), hop, padded)
    merged = np.ascontiguousarray((_overlap_add(chunks.transpose(0, 2, 1), hop, padded) / counts)[:, :frames])
    logits = (mask_weight @ merged).reshape(-1, features, frames)
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    del logits
    masks = e / e.sum(axis=0, keepdims=True)
    return merged, masks, counts


def mask_decode(
    chunks: Tensor, mask_weight: Tensor, rep: Tensor, decoder_weight: Tensor, hop: int, stride: int, out_len: int
) -> Tensor:
    """The stage's output: S masked, decoded and overlap-added waves (S, out_len).

    chunks (N, K, C) are the last dual-path block's output; they are merged
    back to rep's T frames by an averaging overlap-add every hop frames, the
    mask weight (S*N, N) projects them to S masks, and a softmax over the
    speakers makes the masks sum to one at every (feature, frame). Each mask
    multiplies the mixture's own channels, the last N rows of rep (W, T); the
    decoder weight (L, N) maps the product to frames of L samples, and their
    overlap-add every stride samples, trimmed or zero-padded to out_len, is
    the speaker's wave. The node keeps nothing: its backward re-forms the
    merged chunks, the masks and the masked channels.
    """
    if chunks.ndim != 3 or rep.ndim != 2:
        raise ConfigError(f"mask_decode: expected (N,K,C) chunks and (W,T) rep, got {chunks.shape}, {rep.shape}")
    features, chunk_len, count = chunks.shape
    width, frames = rep.shape
    if chunk_layout(frames, chunk_len, hop)[0] != count:
        raise ConfigError(f"mask_decode: {count} chunks of {chunk_len} do not lay out {frames} frames at hop {hop}")
    speakers, extra_rows = divmod(mask_weight.shape[0], features)
    if mask_weight.ndim != 2 or mask_weight.shape[1] != features or extra_rows or not speakers:
        raise ConfigError(f"mask_decode: mask weight {mask_weight.shape} does not map {features} features to masks")
    if width < features or decoder_weight.ndim != 2 or decoder_weight.shape[1] != features:
        raise ConfigError(f"mask_decode: decoder {decoder_weight.shape} incompatible with rep {rep.shape}")
    frame_len = decoder_weight.shape[0]
    total = max((frames - 1) * stride + frame_len, out_len)
    padded = chunk_len + (count - 1) * hop
    rows = slice(width - features, width)
    mixture = rep.data[rows]
    _, masks, _ = _merge_and_mask(chunks.data, mask_weight.data, hop, frames)
    waves = np.empty((speakers, out_len), dtype=np.result_type(decoder_weight.data, masks, mixture))
    for s in range(speakers):
        waves[s] = _overlap_add((decoder_weight.data @ (masks[s] * mixture)).T, stride, total)[:out_len]
    del masks
    parents = (chunks, mask_weight, rep, decoder_weight)
    # The chain's backward walk summed the grads of rep in this order: each
    # speaker's masked mixture channels but the last speaker's, the input
    # norm's, then the last speaker's. So the last speaker's goes through a
    # getitem of those channels, a parent the walk reaches after mask_input,
    # and rep's grad is summed, and rounded, as the chain summed it.
    last = getitem(rep, (rows,)) if is_recording((rep,)) else None

    def backward(g):
        merged, masks, counts = _merge_and_mask(chunks.data, mask_weight.data, hop, frames)
        g_masks = np.zeros_like(masks)
        g_rep = np.zeros_like(rep.data) if last is not None else None
        g_wave = np.zeros(total, dtype=g.dtype)
        for s in range(speakers):
            g_wave[:out_len] = g[s]
            g_frames = np.ascontiguousarray(_frames(g_wave, frame_len, stride)[:frames].T)
            if decoder_weight.requires_grad:
                decoder_weight._accum_grad(g_frames @ (masks[s] * mixture).T)
            g_masked = decoder_weight.data.T @ g_frames
            del g_frames
            g_masks[s] += g_masked * mixture
            if s < speakers - 1 and g_rep is not None:
                g_rep[rows] += g_masked * masks[s]
        if g_rep is not None:
            rep._accum_grad(g_rep)
            last._accum_grad(g_masked * masks[-1])
            del g_rep
        del g_wave, g_masked
        # the softmax's backward, then the mask projection's
        g_logits = masks * (g_masks - (g_masks * masks).sum(axis=0, keepdims=True))
        del g_masks, masks
        g_logits = g_logits.reshape(-1, frames)
        if mask_weight.requires_grad:
            mask_weight._accum_grad(g_logits @ merged.T)
        del merged
        if chunks.requires_grad:
            g_padded = np.zeros((features, padded), dtype=g_logits.dtype)
            g_padded[:, :frames] = mask_weight.data.T @ g_logits
            del g_logits
            g_padded = g_padded / counts
            chunks._accum_grad(np.ascontiguousarray(_frames(g_padded, chunk_len, hop).transpose(0, 2, 1)))

    return Tensor._from_op(waves, parents if last is None else (*parents, last), backward)


# ---------------------------------------------------------------------------
# the speaker network's spectral front end
# ---------------------------------------------------------------------------


def _reflect_index_map(length: int, pad: int) -> np.ndarray:
    """Original-sample index for each position of a reflect-padded signal (length > pad)."""
    idx = np.empty(length + 2 * pad, dtype=np.intp)
    idx[pad : pad + length] = np.arange(length)
    idx[:pad] = np.arange(pad, 0, -1)
    idx[pad + length :] = np.arange(length - 2, length - 2 - pad, -1)
    return idx


def _spectrum(x: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """One-sided DFT (frames, bins) of the windowed frames of a 1-D signal,
    a frame every hop samples, after reflect-padding by half a window on each side."""
    idx = _reflect_index_map(len(x), len(window) // 2)
    return np.fft.rfft(_frames(x[idx], len(window), hop) * window, axis=1)


def log_spectrum(segment: Tensor, window: np.ndarray, hop: int, length: int) -> Tensor:
    """log(1 + |STFT|) of a 1-D segment zero-padded to length: a (1, bins, frames) image.

    The STFT is ``_spectrum``'s and |.| is sqrt(re^2 + im^2 + 1e-12). The
    node runs the float operations of the chain of generic ops it replaces
    (a zero-pad concat, a two-plane STFT, a getitem, mul and add per plane,
    sqrt, log and reshape; the bit-for-bit tests keep that chain as
    test-local ops) in its order, so its output and gradient are the
    chain's bit for bit. It keeps nothing: its backward re-forms the
    spectrum from the segment.
    """
    if segment.ndim != 1 or segment.shape[0] > length:
        raise ConfigError(f"log_spectrum: expected a 1-D segment of at most {length} samples, got {segment.shape}")
    window_len, pad, dtype = len(window), len(window) // 2, segment.dtype
    if length <= pad:
        raise ConfigError(f"log_spectrum: signal of {length} samples shorter than half a window ({pad})")
    window = window.astype(dtype, copy=False)
    one = dtype.type(1.0)

    def planes():
        """The spectrum's real and imaginary planes (bins, frames) and its magnitude."""
        padded = np.zeros(length, dtype=dtype)
        padded[: segment.shape[0]] = segment.data
        spec = _spectrum(padded, window, hop)
        re, im = (np.ascontiguousarray(part.T).astype(dtype, copy=False) for part in (spec.real, spec.imag))
        return re, im, np.sqrt(re * re + im * im + dtype.type(1e-12))

    def backward(g):
        re, im, magnitude = planes()
        g_power = g[0] / (magnitude + one) * 0.5 / magnitude
        # the chain's two getitems per plane summed this up to the sign of a
        # zero, which the sum into gx below erases
        g_spec = (2 * (g_power * re)).T + 1j * (2 * (g_power * im)).T
        if pad > 1:  # the exact adjoint of the one-sided DFT: interior bins are not doubled
            g_spec[:, 1:-1] *= 0.5
        g_frames = np.fft.irfft(g_spec, n=window_len, axis=1) * window_len
        g_padded = _overlap_add((g_frames * window).astype(dtype, copy=False), hop, length + 2 * pad)
        gx = np.zeros(length, dtype=dtype)
        np.add.at(gx, _reflect_index_map(length, pad), g_padded)
        segment._accum_grad(gx[: segment.shape[0]])

    return Tensor._from_op(np.log(planes()[2] + one)[None], (segment,), backward)
