"""Differentiable primitives.

Every function takes Tensors, returns a Tensor, and, when the graph is
recording (``tensor.is_recording``), installs an exact analytic backward
closure. Shape validation raises ConfigError naming the op and the
offending dimensions. The finite-difference suite in ``gradcheck``
verifies every op here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import ConfigError
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
    out = Tensor._from_op(a.data + b.data, (a, b))
    if out.requires_grad:

        def backward():
            if a.requires_grad:
                a._accum_grad(_unbroadcast(out.grad, a.shape))
            if b.requires_grad:
                b._accum_grad(_unbroadcast(out.grad, b.shape))

        out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor._from_op(a.data - b.data, (a, b))
    if out.requires_grad:

        def backward():
            if a.requires_grad:
                a._accum_grad(_unbroadcast(out.grad, a.shape))
            if b.requires_grad:
                b._accum_grad(_unbroadcast(-out.grad, b.shape))

        out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) product."""
    out = Tensor._from_op(a.data * b.data, (a, b))
    if out.requires_grad:

        def backward():
            if a.requires_grad:
                a._accum_grad(_unbroadcast(out.grad * b.data, a.shape))
            if b.requires_grad:
                b._accum_grad(_unbroadcast(out.grad * a.data, b.shape))

        out._backward = backward
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor._from_op(a.data / b.data, (a, b))
    if out.requires_grad:

        def backward():
            if a.requires_grad:
                a._accum_grad(_unbroadcast(out.grad / b.data, a.shape))
            if b.requires_grad:
                b._accum_grad(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

        out._backward = backward
    return out


def neg(x: Tensor) -> Tensor:
    out = Tensor._from_op(-x.data, (x,))
    if out.requires_grad:

        def backward():
            x._accum_grad(-out.grad)

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor._from_op(x.data.sum(axis=axis, keepdims=keepdims), (x,))
    if out.requires_grad:

        def backward():
            g = out.grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            x._accum_grad(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))

        out._backward = backward
    return out


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
    out = Tensor._from_op(np.log(x.data), (x,))
    if out.requires_grad:

        def backward():
            x._accum_grad(out.grad / x.data)

        out._backward = backward
    return out


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            x._accum_grad(out.grad * 0.5 / out_data)

        out._backward = backward
    return out


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """max(0, x) + slope * min(0, x); slope broadcasts over x."""
    positive = x.data > 0
    out = Tensor._from_op(np.where(positive, x.data, slope.data * x.data), (x, slope))
    if out.requires_grad:

        def backward():
            if x.requires_grad:
                x._accum_grad(np.where(positive, out.grad, slope.data * out.grad))
            if slope.requires_grad:
                slope._accum_grad(_unbroadcast(np.where(positive, 0.0, x.data) * out.grad, slope.shape))

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def linear(weight: Tensor, x: Tensor) -> Tensor:
    """y = W x. W is (out, in); x is (in,) or (in, cols)."""
    if weight.ndim != 2 or x.shape[0] != weight.shape[1]:
        raise ConfigError(
            f"linear: weight {weight.shape} incompatible with input {x.shape}"
        )
    out = Tensor._from_op(weight.data @ x.data, (weight, x))
    if out.requires_grad:

        def backward():
            g = out.grad
            if weight.requires_grad:
                if x.ndim == 1:
                    weight._accum_grad(np.outer(g, x.data))
                else:
                    weight._accum_grad(g @ x.data.T)
            if x.requires_grad:
                x._accum_grad(weight.data.T @ g)

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# convolutions and pooling
# ---------------------------------------------------------------------------


def conv1d(x: Tensor, weight: Tensor, stride: int) -> Tensor:
    """1-D convolution. x is (C_in, T), weight is (C_out, C_in, K)."""
    if x.ndim != 2 or weight.ndim != 3:
        raise ConfigError(f"conv1d: expected (C,T) input and (O,C,K) weight, got {x.shape}, {weight.shape}")
    c_in, t_len = x.shape
    c_out, c_in_w, k_len = weight.shape
    if c_in != c_in_w:
        raise ConfigError(f"conv1d: input channels {c_in} != weight channels {c_in_w}")
    if t_len < k_len:
        raise ConfigError(f"conv1d: input length {t_len} shorter than kernel {k_len}")
    if stride < 1:
        raise ConfigError(f"conv1d: stride must be >= 1, got {stride}")
    cols = _frames(x.data, k_len, stride)
    out_data = np.tensordot(weight.data, cols, axes=([1, 2], [0, 2]))
    out = Tensor._from_op(np.ascontiguousarray(out_data), (x, weight))
    if out.requires_grad:

        def backward():
            g = out.grad
            if weight.requires_grad:
                weight._accum_grad(np.tensordot(g, cols, axes=([1], [1])))
            if x.requires_grad:
                g_cols = np.einsum("ot,ock->ctk", g, weight.data)
                x._accum_grad(_overlap_add(g_cols, stride, t_len))

        out._backward = backward
    return out


def conv2d(x: Tensor, weight: Tensor, padding: int = 1) -> Tensor:
    """2-D convolution, stride 1. x is (C_in, H, W), weight is (C_out, C_in, kh, kw).

    One im2col matrix (C_in*kh*kw, out_h*out_w) is built from kh*kw slabs of
    the zero-padded input, and every product is a plain 2-D matmul against it.
    The node keeps that matrix only when the weight requires grad: the input
    gradient needs the weight alone.
    """
    if x.ndim != 3 or weight.ndim != 4:
        raise ConfigError(f"conv2d: expected (C,H,W) input and (O,C,kh,kw) weight, got {x.shape}, {weight.shape}")
    c_in, height, width = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ConfigError(f"conv2d: input channels {c_in} != weight channels {c_in_w}")
    out_h = height + 2 * padding - kh + 1
    out_w = width + 2 * padding - kw + 1
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"conv2d: input {x.shape} too small for kernel ({kh},{kw})")
    padded_shape = (c_in, height + 2 * padding, width + 2 * padding)
    xp = np.zeros(padded_shape, dtype=x.dtype)
    xp[:, padding : padding + height, padding : padding + width] = x.data
    cols = np.empty((c_in, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + out_h, j : j + out_w]
    cols = cols.reshape(c_in * kh * kw, out_h * out_w)
    w2 = weight.data.reshape(c_out, -1)
    out = Tensor._from_op((w2 @ cols).reshape(c_out, out_h, out_w), (x, weight))
    if out.requires_grad:
        saved_cols = cols if weight.requires_grad else None

        def backward():
            g = out.grad.reshape(c_out, -1)
            if weight.requires_grad:
                weight._accum_grad((g @ saved_cols.T).reshape(weight.shape))
            if x.requires_grad:
                # Each slab is laid out on the padded rows, its entries past
                # out_w zero, so that its add is one run along the flattened
                # padded input, not out_h runs of out_w floats. The sums start
                # at +0.0 and so never hold -0.0: adding those zeros changes
                # no bit.
                _, padded_h, padded_w = padded_shape
                wide = np.zeros((c_in, kh * kw, out_h, padded_w), dtype=x.dtype)
                wide[..., :out_w] = (w2.T @ g).reshape(c_in, kh * kw, out_h, out_w)
                wide = wide.reshape(c_in, kh * kw, out_h * padded_w)
                span = (out_h - 1) * padded_w + out_w
                gxp = np.zeros((c_in, padded_h * padded_w), dtype=x.dtype)
                for i in range(kh):
                    for j in range(kw):
                        start = i * padded_w + j
                        gxp[:, start : start + span] += wide[:, i * kw + j, :span]
                gxp = gxp.reshape(padded_shape)
                x._accum_grad(gxp[:, padding : padding + height, padding : padding + width])

        out._backward = backward
    return out


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fit are dropped.

    The output is the running maximum of the size*size strided views of x, one
    per window entry, in row-major window order. Backward gives each output's
    gradient to the first window entry that equals the maximum.
    """
    if x.ndim != 3:
        raise ConfigError(f"max_pool2d: expected (C,H,W), got {x.shape}")
    _, height, width = x.shape
    out_h, out_w = height // size, width // size
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"max_pool2d: input {x.shape} smaller than pool {size}")

    def entry(data: np.ndarray, k: int) -> np.ndarray:
        i, j = divmod(k, size)
        return data[:, i : out_h * size : size, j : out_w * size : size]

    out_data = entry(x.data, 0).copy()
    for k in range(1, size * size):
        # np.maximum returns its second argument on a tie, so the running
        # maximum keeps the earlier entry, as a first-max argmax does
        np.maximum(entry(x.data, k), out_data, out=out_data)
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            # The gradient is routed as raw bits: g's bits ANDed with an
            # all-ones mask where the entry won and an all-zeros one elsewhere
            # give g or +0.0, several times faster than a masked copy into a
            # strided view.
            bits = np.dtype(f"u{x.data.itemsize}")
            g_bits = out.grad.view(bits)
            gx = np.zeros_like(x.data)
            unplaced = None
            for k in range(size * size):
                hit = entry(x.data, k) == out_data
                if unplaced is None:
                    unplaced = ~hit
                else:
                    hit &= unplaced
                    unplaced &= ~hit
                mask = hit.astype(bits)
                np.negative(mask, out=mask)  # 1 -> all ones
                np.bitwise_and(g_bits, mask, out=entry(gx.view(bits), k))
            x._accum_grad(gx)

        out._backward = backward
    return out


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
# states; then the norm backward, and last the BPTT loops. The kernel reads its
# input as (D, T, B): the chunks (F, K, C) themselves for the intra-chunk
# recurrence, and an (F, C, K) copy of them for the inter-chunk one. The
# right-to-left pass is the same kernel run on the time-flipped input.


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


def _lstm_run(x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray, b: np.ndarray, keep_cache: bool):
    """Run one LSTM direction over x (D, T, B), first step first.

    Returns the hidden states (T, H, B) and the BPTT cache (None unless
    keep_cache): the activated gates (T, 4H, B).
    """
    _, steps, batch = x.shape
    hidden = w_hh.shape[1]
    w_hh_k = _kernel_weights(w_hh, hidden)
    gates = np.matmul(_kernel_weights(w_ih, hidden), x.transpose(1, 0, 2))
    gates += _kernel_weights(b, hidden)[:, None]
    hs = np.empty((steps, hidden, batch), dtype=x.dtype)
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


def _lstm_states(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell states, their tanh and the hidden states (each (T, H, B)) of
    the run whose activated gates (T, 4H, B) these are, rounded as it rounded them."""
    steps, four_hidden, batch = gates.shape
    hidden = four_hidden // 4
    zeros = np.zeros((hidden, batch), dtype=gates.dtype)
    tmp = np.empty_like(zeros)
    # c(t) = f(t) * c(t-1) + i(t) * g(t), each product rounded as the forward rounds it
    cs = np.multiply(gates[:, :hidden], gates[:, 3 * hidden :])
    for t in range(steps):
        np.multiply(gates[t, hidden : 2 * hidden], cs[t - 1] if t else zeros, out=tmp)
        cs[t] += tmp
    tanh_cs = np.tanh(cs)
    return cs, tanh_cs, np.multiply(tanh_cs, gates[:, 2 * hidden : 3 * hidden])


def _lstm_grad(x: np.ndarray, gates: np.ndarray, states: tuple, w_ih: np.ndarray, w_hh: np.ndarray, g_h: np.ndarray):
    """BPTT through one direction that _lstm_run ran over x (D, T, B).

    gates is the run's cache (T, 4H, B), states what _lstm_states re-formed
    from it and g_h the upstream grad of the hidden states (T, H, B). Returns
    dx (D, T, B) and the grads of w_ih, w_hh and b in their stored gate order.
    """
    steps, _, batch = gates.shape
    hidden = w_hh.shape[1]
    cs, tanh_cs, hs = states
    order = _gate_order(hidden)
    w_hh_t = np.ascontiguousarray(w_hh[order].T)
    zeros = np.zeros((hidden, batch), dtype=gates.dtype)
    dh_carry, dc_carry = zeros.copy(), zeros.copy()
    dh, dc = np.empty_like(zeros), np.empty_like(zeros)
    # the carry-free factors of the gate grads, over all steps at once:
    # s * (1 - s) for the sigmoid gates and i * (1 - g^2) for the cell candidate
    dzs = np.empty_like(gates)
    sig, cand = dzs[:, : 3 * hidden], dzs[:, 3 * hidden :]
    np.subtract(1.0, gates[:, : 3 * hidden], out=sig)
    sig *= gates[:, : 3 * hidden]
    np.multiply(gates[:, 3 * hidden :], gates[:, 3 * hidden :], out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= gates[:, :hidden]
    d_sig = np.empty((3 * hidden, batch), dtype=gates.dtype)
    for t in range(steps - 1, -1, -1):
        z, dz, tanh_c = gates[t], dzs[t], tanh_cs[t]
        _, f, o, g = (z[k * hidden : (k + 1) * hidden] for k in range(4))
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
    # one (4H, T*B) copy turns the weight grads and dx into single matrix products
    dz_flat = np.ascontiguousarray(dzs.transpose(1, 0, 2)).reshape(4 * hidden, steps * batch)
    h_prev = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, -1)  # h(t-1), (H, (T-1)*B)
    dx = (w_ih[order].T @ dz_flat).reshape(-1, steps, batch)
    dw_ih = (dz_flat @ x.reshape(x.shape[0], -1).T)[order]
    dw_hh = (dz_flat[:, batch:] @ h_prev.T)[order]
    db = dz_flat.sum(axis=1)[order]
    return dx, dw_ih, dw_hh, db


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
    x_dtb = np.ascontiguousarray(_as_dtb(chunks.data, axis))
    _, steps, batch = x_dtb.shape
    norm_axes = (0, axis)
    hs_f, gates_f = _lstm_run(x_dtb, w_ih_f.data, w_hh_f.data, b_f.data, keep_cache=record)
    hs_b, gates_b = _lstm_run(x_dtb[:, ::-1], w_ih_b.data, w_hh_b.data, b_b.data, keep_cache=record)
    projected = (proj.data @ _join_directions(hs_f, hs_b).T).reshape(features, batch, steps)
    centered, mu, inv_std = _normalize(_as_fbt(projected, axis), norm_axes)
    out = Tensor._from_op(chunks.data + (centered * inv_std * gain.data + bias.data), parents)
    if out.requires_grad:

        def backward():
            g = out.grad
            states_f, states_b = _lstm_states(gates_f), _lstm_states(gates_b)
            h = _join_directions(states_f[2], states_b[2])
            y = _as_fbt((proj.data @ h.T).reshape(features, batch, steps), axis)
            if chunks.requires_grad:
                chunks._accum_grad(g)  # the residual
            g_y = _normalize_backward(g, y, mu, inv_std, gain, bias, norm_axes)
            g_y = np.ascontiguousarray(_as_fbt(g_y, axis)).reshape(features, batch * steps)
            g_h = (proj.data.T @ g_y).reshape(2 * hidden, batch, steps)
            g_thb = np.ascontiguousarray(g_h.transpose(2, 0, 1))
            x_dtb = np.ascontiguousarray(_as_dtb(chunks.data, axis))
            dx_f, dwi_f, dwh_f, db_f = _lstm_grad(x_dtb, gates_f, states_f, w_ih_f.data, w_hh_f.data, g_thb[:, :hidden])
            dx_b, dwi_b, dwh_b, db_b = _lstm_grad(
                x_dtb[:, ::-1], gates_b, states_b, w_ih_b.data, w_hh_b.data, g_thb[::-1, hidden:]
            )
            if chunks.requires_grad:
                dx_f += dx_b[:, ::-1]
                chunks._accum_grad(_as_dtb(dx_f, axis))
            if proj.requires_grad:
                proj._accum_grad(g_y @ h)
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

        out._backward = backward
    return out


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
    normalized = (x - mu) * inv_std
    if gain.requires_grad:
        gain._accum_grad(_unbroadcast(g * normalized, gain.shape))
    g = g * gain.data
    g_mean = g.mean(axis=axes, keepdims=True)
    gy_mean = (g * normalized).mean(axis=axes, keepdims=True)
    return inv_std * (g - g_mean - normalized * gy_mean)


def layer_norm(x: Tensor, axes, gain: Tensor, bias: Tensor) -> Tensor:
    """normalized * gain + bias as one node.

    normalized is x at zero mean and unit variance over the given axes;
    gain and bias broadcast against x. Slices whose variance falls below
    LAYER_NORM_VAR_FLOOR normalize to zeros (and pass zero gradient to x),
    so constant inputs cannot blow up. The node keeps only the per-slice
    mean and inverse std: backward re-forms the normalized values from x,
    which the graph holds anyway.
    """
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    centered, mu, inv_std = _normalize(x.data, axes)
    out = Tensor._from_op(centered * inv_std * gain.data + bias.data, (x, gain, bias))
    if out.requires_grad:

        def backward():
            g_x = _normalize_backward(out.grad, x.data, mu, inv_std, gain, bias, axes)
            if x.requires_grad:
                x._accum_grad(g_x)

        out._backward = backward
    return out


def softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            g = out.grad
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x._accum_grad(out_data * (g - inner))

        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            g = out.grad
            x._accum_grad(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ConfigError("concat: empty tensor list")
    out = Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * out.ndim
                    index[axis] = slice(lo, hi)
                    t._accum_grad(out.grad[tuple(index)])

        out._backward = backward
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor._from_op(x.data.reshape(shape), (x,))
    if out.requires_grad:

        def backward():
            x._accum_grad(out.grad.reshape(x.shape))

        out._backward = backward
    return out


def getitem(x: Tensor, key) -> Tensor:
    """Basic slicing only (slices, ints, tuples of those)."""
    out = Tensor._from_op(np.asarray(x.data[key], order="C"), (x,))
    if out.requires_grad:

        def backward():
            gx = np.zeros_like(x.data)
            gx[key] += out.grad
            x._accum_grad(gx)

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# chunking for the dual-path separator
# ---------------------------------------------------------------------------


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


def segment_chunks(x: Tensor, chunk_len: int, hop: int) -> tuple[Tensor, int]:
    """Split (F, T) into overlapping chunks -> ((F, K, C), pad_frames)."""
    if x.ndim != 2:
        raise ConfigError(f"segment_chunks: expected (F,T), got {x.shape}")
    frames = x.shape[1]
    _, padded = chunk_layout(frames, chunk_len, hop)
    pad = padded - frames
    xp = np.pad(x.data, ((0, 0), (0, pad)))
    out_data = np.ascontiguousarray(_frames(xp, chunk_len, hop).transpose(0, 2, 1))
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            gxp = _overlap_add(out.grad.transpose(0, 2, 1), hop, padded)
            x._accum_grad(np.ascontiguousarray(gxp[:, :frames]))

        out._backward = backward
    return out, pad


def merge_chunks(x: Tensor, hop: int, out_frames: int, pad_frames: int) -> Tensor:
    """Averaging overlap-add of (F, K, C) back to (F, out_frames); exact inverse of segment_chunks."""
    if x.ndim != 3:
        raise ConfigError(f"merge_chunks: expected (F,K,C), got {x.shape}")
    feat, chunk_len, count = x.shape
    padded = chunk_len + (count - 1) * hop
    if padded != out_frames + pad_frames:
        raise ConfigError(
            f"merge_chunks: layout {padded} != out_frames {out_frames} + pad {pad_frames}"
        )
    counts = _overlap_add(np.ones((count, chunk_len), dtype=x.dtype), hop, padded)
    acc = _overlap_add(x.data.transpose(0, 2, 1), hop, padded)
    out_data = np.ascontiguousarray((acc / counts)[:, :out_frames])
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            gp = np.zeros((feat, padded), dtype=x.dtype)
            gp[:, :out_frames] = out.grad
            gp = gp / counts
            x._accum_grad(np.ascontiguousarray(_frames(gp, chunk_len, hop).transpose(0, 2, 1)))

        out._backward = backward
    return out


def overlap_add(x: Tensor, stride: int, out_len: int) -> Tensor:
    """Overlap-add frames (L, T) at the given stride into a signal of out_len samples.

    The natural length is (T-1)*stride + L; the result is trimmed or
    zero-padded to out_len.
    """
    if x.ndim != 2:
        raise ConfigError(f"overlap_add: expected (L,T), got {x.shape}")
    frame_len, frames = x.shape
    total = max((frames - 1) * stride + frame_len, out_len)
    out = Tensor._from_op(_overlap_add(x.data.T, stride, total)[:out_len], (x,))
    if out.requires_grad:

        def backward():
            g = np.zeros(total, dtype=x.dtype)
            g[:out_len] = out.grad
            x._accum_grad(np.ascontiguousarray(_frames(g, frame_len, stride)[:frames].T))

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# differentiable STFT
# ---------------------------------------------------------------------------


def _reflect_index_map(length: int, pad: int) -> np.ndarray:
    """Original-sample index for each position of a reflect-padded signal (length > pad)."""
    idx = np.empty(length + 2 * pad, dtype=np.intp)
    idx[pad : pad + length] = np.arange(length)
    idx[:pad] = np.arange(pad, 0, -1)
    idx[pad + length :] = np.arange(length - 2, length - 2 - pad, -1)
    return idx


def stft_ri(x: Tensor, window: np.ndarray, hop: int) -> Tensor:
    """Windowed DFT of a 1-D signal -> (2, bins, frames): real part, imaginary part.

    Reflect-pads by half a window on each side. The backward pass is the
    exact adjoint of the one-sided DFT (interior bins are not doubled).
    """
    if x.ndim != 1:
        raise ConfigError(f"stft_ri: expected 1-D signal, got {x.shape}")
    window_len = len(window)
    pad = window_len // 2
    n = x.shape[0]
    if n <= pad:
        raise ConfigError(f"stft_ri: signal of {n} samples shorter than half a window ({pad})")
    idx = _reflect_index_map(n, pad)
    xp = x.data[idx]
    window = window.astype(x.dtype, copy=False)
    framed = _frames(xp, window_len, hop) * window
    spec = np.fft.rfft(framed, axis=1)
    bins = window_len // 2 + 1
    out_data = np.ascontiguousarray(
        np.stack([spec.real.T, spec.imag.T]).astype(x.dtype, copy=False)
    )
    out = Tensor._from_op(out_data, (x,))
    if out.requires_grad:

        def backward():
            g = out.grad[0].T + 1j * out.grad[1].T
            g = g.copy()
            if bins > 2:
                g[:, 1:-1] *= 0.5
            g_frames = np.fft.irfft(g, n=window_len, axis=1) * window_len
            g_frames = (g_frames * window).astype(x.dtype, copy=False)
            gxp = _overlap_add(g_frames, hop, len(xp))
            gx = np.zeros(n, dtype=x.dtype)
            np.add.at(gx, idx, gxp)
            x._accum_grad(gx)

        out._backward = backward
    return out
