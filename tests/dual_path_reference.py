"""Reference copies of the unfused dual-path half, for the bit-for-bit tests.

Each half of a dual-path block used to be a chain of graph nodes: a
transpose, a BiLSTM-with-projection node that returns (F, B, T), a second
transpose for the intra-chunk pass, and an affine layer norm with the
residual added. ``ops.bilstm_layer`` now does all of that in one node, and
must give the chain's output and gradients byte for byte. The copies here
are that chain, kept as it was; only the one-direction BPTT is pluggable,
so a test can also run it through a reference that keeps the forward's cell
and hidden states instead of re-forming them.
"""

import numpy as np

from tastas.numerics import ops
from tastas.numerics.tensor import Tensor


def _lstm_grad(x, gates, w_ih, w_hh, g_h):
    """BPTT through one direction that ops._lstm_run ran over x (D, T, B),
    re-forming the cell states before the loop and the hidden states in it.
    Returns the hidden states (T, H, B), dx (D, T, B) and the grads of w_ih,
    w_hh and b in their stored gate order."""
    steps, _, batch = gates.shape
    hidden = w_hh.shape[1]
    order = ops._gate_order(hidden)
    w_hh_t = np.ascontiguousarray(w_hh[order].T)
    zeros = np.zeros((hidden, batch), dtype=gates.dtype)
    dh_carry, dc_carry = zeros.copy(), zeros.copy()
    dh, dc, tanh_c, tmp = (np.empty_like(zeros) for _ in range(4))
    hs = np.empty((steps, hidden, batch), dtype=gates.dtype)
    cs = np.multiply(gates[:, :hidden], gates[:, 3 * hidden :])
    for t in range(steps):
        np.multiply(gates[t, hidden : 2 * hidden], cs[t - 1] if t else zeros, out=tmp)
        cs[t] += tmp
    dzs = np.empty_like(gates)
    sig, cand = dzs[:, : 3 * hidden], dzs[:, 3 * hidden :]
    np.subtract(1.0, gates[:, : 3 * hidden], out=sig)
    sig *= gates[:, : 3 * hidden]
    np.multiply(gates[:, 3 * hidden :], gates[:, 3 * hidden :], out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= gates[:, :hidden]
    d_sig = np.empty((3 * hidden, batch), dtype=gates.dtype)
    for t in range(steps - 1, -1, -1):
        z, dz = gates[t], dzs[t]
        _, f, o, g = (z[k * hidden : (k + 1) * hidden] for k in range(4))
        np.add(g_h[t], dh_carry, out=dh)
        np.tanh(cs[t], out=tanh_c)
        np.multiply(tanh_c, o, out=hs[t])
        np.multiply(tanh_c, tanh_c, out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        dc += dc_carry
        np.multiply(dc, g, out=d_sig[:hidden])
        np.multiply(dc, cs[t - 1] if t else zeros, out=d_sig[hidden : 2 * hidden])
        np.multiply(dh, tanh_c, out=d_sig[2 * hidden :])
        dz[: 3 * hidden] *= d_sig
        dz[3 * hidden :] *= dc
        np.matmul(w_hh_t, dz, out=dh_carry)
        np.multiply(dc, f, out=dc_carry)
    dz_flat = np.ascontiguousarray(dzs.transpose(1, 0, 2)).reshape(4 * hidden, steps * batch)
    h_prev = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, -1)
    dx = (w_ih[order].T @ dz_flat).reshape(-1, steps, batch)
    dw_ih = (dz_flat @ x.reshape(x.shape[0], -1).T)[order]
    dw_hh = (dz_flat[:, batch:] @ h_prev.T)[order]
    db = dz_flat.sum(axis=1)[order]
    return hs, dx, dw_ih, dw_hh, db


def kernel_direction(x_dtb, w_ih, w_hh, b, g_h):
    """One direction through ops._lstm_run and the chain's own BPTT, whose
    re-formed hidden states must equal the forward's byte for byte."""
    hs, gates = ops._lstm_run(x_dtb, w_ih, w_hh, b, keep_cache=True)
    reformed, *grads = _lstm_grad(x_dtb, gates, w_ih, w_hh, g_h)
    assert reformed.tobytes() == hs.tobytes()
    return hs, *grads


def cell_caching_direction(x_dtb, w_ih, w_hh, b, g_h):
    """One direction in the kernel's own arithmetic, a step at a time, with the
    forward's cell and hidden states kept for backward instead of re-formed.

    x_dtb is (D, T, B) and g_h (T, H, B). Returns the hidden states
    (T, H, B), dx and the grads of w_ih, w_hh and b.
    """
    _, steps, batch = x_dtb.shape
    hidden = w_hh.shape[1]
    order = ops._gate_order(hidden)
    gates = np.matmul(ops._kernel_weights(w_ih, hidden), x_dtb.transpose(1, 0, 2))
    gates += ops._kernel_weights(b, hidden)[:, None]
    w_hh_k = ops._kernel_weights(w_hh, hidden)
    hs = np.empty((steps, hidden, batch), dtype=x_dtb.dtype)
    cs = np.empty_like(hs)
    h = c = np.zeros((hidden, batch), dtype=x_dtb.dtype)
    for t in range(steps):
        z = gates[t]
        z += w_hh_k @ h
        np.tanh(z, out=z)
        z[: 3 * hidden] = 0.5 * z[: 3 * hidden] + 0.5
        i, f, o, g = np.split(z, 4)
        cs[t] = f * c + i * g
        hs[t] = np.tanh(cs[t]) * o
        c, h = cs[t], hs[t]

    w_hh_t = np.ascontiguousarray(w_hh[order].T)
    dzs = np.empty_like(gates)
    zeros = np.zeros((hidden, batch), dtype=x_dtb.dtype)
    dh_carry = dc_carry = zeros
    for t in range(steps - 1, -1, -1):
        z, dz = gates[t], dzs[t]
        i, f, o, g = np.split(z, 4)
        dh = g_h[t] + dh_carry
        tanh_c = np.tanh(cs[t])
        dc = (1.0 - tanh_c * tanh_c) * o * dh + dc_carry
        dz[:hidden] = dc * g
        dz[hidden : 2 * hidden] = dc * (cs[t - 1] if t else zeros)
        dz[2 * hidden : 3 * hidden] = dh * tanh_c
        dz[: 3 * hidden] *= (1.0 - z[: 3 * hidden]) * z[: 3 * hidden]
        dz[3 * hidden :] = dc * ((1.0 - g * g) * i)
        dh_carry = w_hh_t @ dz
        dc_carry = dc * f
    dz_flat = np.ascontiguousarray(dzs.transpose(1, 0, 2)).reshape(4 * hidden, steps * batch)
    h_prev = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, -1)
    dx = (w_ih[order].T @ dz_flat).reshape(-1, steps, batch)
    dw_ih = (dz_flat @ x_dtb.reshape(x_dtb.shape[0], -1).T)[order]
    dw_hh = (dz_flat[:, batch:] @ h_prev.T)[order]
    db = dz_flat.sum(axis=1)[order]
    return hs, dx, dw_ih, dw_hh, db


def bilstm_projection(x, w_ih_f, w_hh_f, b_f, w_ih_b, w_hh_b, b_b, proj, direction=kernel_direction):
    """The BiLSTM-with-projection node: (B, T, D) -> (F, B, T).

    direction(x_dtb, w_ih, w_hh, b, g_h) runs one direction's forward and
    BPTT over (D, T, B) in backward.
    """
    batch, steps, _ = x.shape
    features, hidden = proj.shape[0], w_hh_f.shape[1]
    parents = (x, w_ih_f, w_hh_f, b_f, w_ih_b, w_hh_b, b_b, proj)
    x_dtb = np.ascontiguousarray(x.data.transpose(2, 1, 0))
    hs_f, _ = ops._lstm_run(x_dtb, w_ih_f.data, w_hh_f.data, b_f.data, keep_cache=False)
    hs_b, _ = ops._lstm_run(x_dtb[:, ::-1], w_ih_b.data, w_hh_b.data, b_b.data, keep_cache=False)
    data = (proj.data @ ops._join_directions(hs_f, hs_b).T).reshape(features, batch, steps)
    out = Tensor._from_op(data, parents)
    if out.requires_grad:

        def backward():
            g = out.grad.reshape(features, batch * steps)
            g_h = (proj.data.T @ g).reshape(2 * hidden, batch, steps)
            g_thb = np.ascontiguousarray(g_h.transpose(2, 0, 1))
            x_dtb = np.ascontiguousarray(x.data.transpose(2, 1, 0))
            hs_f, dx_f, *grads_f = direction(x_dtb, w_ih_f.data, w_hh_f.data, b_f.data, g_thb[:, :hidden])
            hs_b, dx_b, *grads_b = direction(
                x_dtb[:, ::-1], w_ih_b.data, w_hh_b.data, b_b.data, g_thb[::-1, hidden:]
            )
            if x.requires_grad:
                dx_f += dx_b[:, ::-1]
                x._accum_grad(dx_f.transpose(2, 1, 0))
            if proj.requires_grad:
                proj._accum_grad(g @ ops._join_directions(hs_f, hs_b))
            for tensor, grad in zip((w_ih_f, w_hh_f, b_f, w_ih_b, w_hh_b, b_b), (*grads_f, *grads_b)):
                if tensor.requires_grad:
                    tensor._accum_grad(grad)

        out._backward = backward
    return out


def transpose(x, axes):
    axes = tuple(axes)
    out = Tensor._from_op(np.transpose(x.data, axes), (x,))
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))

        def backward():
            x._accum_grad(np.transpose(out.grad, inverse))

        out._backward = backward
    return out


def layer_norm(x, axes, gain, bias, residual):
    """residual + (normalized * gain + bias) as one node."""
    mu = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    degenerate = var < ops.LAYER_NORM_VAR_FLOOR
    inv_std = np.where(degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    out = Tensor._from_op(residual.data + (centered * inv_std * gain.data + bias.data), (x, gain, bias, residual))
    if out.requires_grad:

        def backward():
            g = out.grad
            if residual.requires_grad:
                residual._accum_grad(g)
            if bias.requires_grad:
                bias._accum_grad(ops._unbroadcast(g, bias.shape))
            normalized = (x.data - mu) * inv_std
            if gain.requires_grad:
                gain._accum_grad(ops._unbroadcast(g * normalized, gain.shape))
            if x.requires_grad:
                g = g * gain.data
                g_mean = g.mean(axis=axes, keepdims=True)
                gy_mean = (g * normalized).mean(axis=axes, keepdims=True)
                x._accum_grad(inv_std * (g - g_mean - normalized * gy_mean))

        out._backward = backward
    return out


def dual_path_half(chunks, axis, *weights, direction=kernel_direction, norm=layer_norm):
    """The chain ``ops.bilstm_layer(chunks, axis, *weights)`` replaces.

    weights are the six LSTM weights, the projection, the norm gain and the
    norm bias. norm(x, axes, gain, bias, residual) is the norm node.
    """
    *lstm, proj, gain, bias = weights
    if axis == 1:  # recur over positions within each chunk
        out = bilstm_projection(transpose(chunks, (2, 1, 0)), *lstm, proj, direction=direction)  # (F, C, K)
        out = transpose(out, (0, 2, 1))
    else:  # recur across chunks at each intra position
        out = bilstm_projection(transpose(chunks, (1, 2, 0)), *lstm, proj, direction=direction)  # (F, K, C)
    return norm(out, (0, axis), gain, bias, residual=chunks)


WEIGHT_NAMES = ("w_ih_f", "w_hh_f", "b_f", "w_ih_b", "w_hh_b", "b_b", "proj.weight", "norm.gain", "norm.bias")


def dual_path_block(params, base, chunks, norm=layer_norm):
    """sepnet.model.dual_path_block as the unfused chain."""
    for axis, path in ((1, "intra"), (2, "inter")):
        chunks = dual_path_half(chunks, axis, *(params[f"{base}.{path}.{n}"] for n in WEIGHT_NAMES), norm=norm)
    return chunks
