"""Reference copy of the speaker network's unfused front end, for the bit-for-bit tests.

The speaker network used to read a segment through a chain of generic graph
nodes: a ``concat`` zero pad (for a short segment), ``stft_ri``, a
``getitem`` of each plane twice, a ``mul`` per plane, two ``add``s (the
planes, then 1e-12), ``sqrt``, an ``add`` of 1, ``log`` and a ``reshape``.
``ops.log_spectrum`` now does all of that in one node and must give the
chain's output and gradient byte for byte. The ops and the chain below are
that chain, kept as it was.
"""

import numpy as np

from tastas.errors import ConfigError
from tastas.numerics import ops
from tastas.numerics.tensor import Tensor

from stage_reference import concat, reshape


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(g):
        x._accum_grad(g * 0.5 / out_data)

    return Tensor._from_op(out_data, (x,), backward)


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
    idx = ops._reflect_index_map(n, pad)
    xp = x.data[idx]
    window = window.astype(x.dtype, copy=False)
    framed = ops._frames(xp, window_len, hop) * window
    spec = np.fft.rfft(framed, axis=1)
    bins = window_len // 2 + 1
    out_data = np.ascontiguousarray(
        np.stack([spec.real.T, spec.imag.T]).astype(x.dtype, copy=False)
    )

    def backward(g):
        g_spec = g[0].T + 1j * g[1].T
        if bins > 2:
            g_spec[:, 1:-1] *= 0.5
        g_frames = np.fft.irfft(g_spec, n=window_len, axis=1) * window_len
        g_frames = (g_frames * window).astype(x.dtype, copy=False)
        gxp = ops._overlap_add(g_frames, hop, len(xp))
        gx = np.zeros(n, dtype=x.dtype)
        np.add.at(gx, idx, gxp)
        x._accum_grad(gx)

    return Tensor._from_op(out_data, (x,), backward)


def log_spectrum(segment: Tensor, window: np.ndarray, hop: int, length: int) -> Tensor:
    """The chain ``ops.log_spectrum`` replaces."""
    if segment.shape[0] < length:
        pad = ops.const(np.zeros(length - segment.shape[0]), dtype=segment.dtype)
        segment = concat([segment, pad], axis=0)
    spec = stft_ri(segment, window, hop)  # (2, bins, frames)
    power = ops.add(
        ops.add(
            ops.mul(ops.getitem(spec, (0,)), ops.getitem(spec, (0,))),
            ops.mul(ops.getitem(spec, (1,)), ops.getitem(spec, (1,))),
        ),
        ops.const(1e-12, dtype=segment.dtype),
    )
    magnitude = sqrt(power)
    x = ops.log(ops.add(magnitude, ops.const(1.0, dtype=segment.dtype)))
    return reshape(x, (1, *x.shape))
