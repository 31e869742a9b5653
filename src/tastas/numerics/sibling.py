"""A forked helper process that runs the right-to-left LSTM direction of a
BiLSTM half that records no graph, beside the caller's left-to-right one.

The two directions of a dual-path half read the same chunks and nothing
of each other, so two processes can run them with the bits the serial
path gives. The helper is forked once per process, lazily, at the first
half that can use it, and serves every such half after that. It is used
only when all of these hold, and otherwise the caller runs both
directions itself:

1. the process may run on at least two CPUs;
2. BLAS is pinned to one thread (``blas_threads`` names a setting of 1);
   an unpinned BLAS oversubscribes the cores and made ``separate()``
   2.5x slower on 2 vCPUs;
3. the caller is the process's only Python thread, so eval worker
   threads neither share the helper nor fork one;
4. the helper is alive: one that died is not restarted.

The two processes share an arena, a ``memfd_create`` file both map. The
caller stages the input (D, T, B) and the three right-to-left weights in
it (the copy the serial path makes of the input anyway), writes one small
request to a pipe, runs its own direction and waits for the reply; the
helper runs the kernel on the time-flipped input and writes the hidden
states (T, H, B) into the arena. When a request needs more room, the
caller grows the file and both sides map it again.

Lifetime: the helper closes the caller's ends of the pipes, so it reads
EOF and exits when the caller dies, even by SIGKILL. At a normal exit the
caller kills and reaps it. It leaves only through ``os._exit``, never
into the caller's stack, and a Ctrl-C ends it without a traceback. If it
dies, the request in flight runs serially and the caller goes on
without it. A process forked from the caller forgets the caller's helper
and forks its own if it needs one.
"""

from __future__ import annotations

import atexit
import gc
import math
import mmap
import os
import signal
import struct
import threading

import numpy as np

# the arena's size in bytes, the dtype's index in _DTYPES, then D, T, B, H
_REQUEST = struct.Struct("<6q")
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_ALIGN = 64


def blas_threads() -> str:
    """The BLAS thread setting of this process's environment.

    "OPENBLAS_NUM_THREADS=n" or "OMP_NUM_THREADS=n", whichever OpenBLAS reads
    first, else "unset". OpenBLAS splits the long contractions of the
    weight-gradient products across its threads, so a training run
    reproduces bit for bit only at the same thread count; checkpoints
    record this string.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name):
            return f"{name}={os.environ[name]}"
    return "unset"


def _layout(features: int, steps: int, batch: int, hidden: int, itemsize: int):
    """The (shape, byte offset) of x (D, T, B), w_ih (4H, D), w_hh (4H, H),
    b (4H,) and h (T, H, B) in the arena, and its size; each starts on a
    64-byte boundary."""
    gates = 4 * hidden
    shapes = ((features, steps, batch), (gates, features), (gates, hidden), (gates,), (steps, hidden, batch))
    placed, size = [], 0
    for shape in shapes:
        placed.append((shape, size))
        size += -(-math.prod(shape) * itemsize // _ALIGN) * _ALIGN
    return placed, size


def _views(buf, dtype: np.dtype, placed) -> list[np.ndarray]:
    return [np.ndarray(shape, dtype, buf, offset) for shape, offset in placed]


class _Helper:
    """The caller's side of one forked helper: its pid, the pipes and the arena."""

    def __init__(self, kernel):
        self.kernel, self.buf, self.size, self.pid = kernel, None, 0, None
        fds = []
        try:
            fds.append(os.memfd_create("tastas-sibling"))
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no helper: this process runs every half serially
            for fd in fds:
                os.close(fd)
            return
        self.fd, request_r, self.requests, self.replies, reply_w = fds
        self.pid = pid
        if pid == 0:
            try:  # a Ctrl-C's KeyboardInterrupt ends up here too: no traceback
                os.close(self.requests)
                os.close(self.replies)
                gc.disable()  # a collection would touch, and so copy, the whole inherited heap
                _serve(kernel, self.fd, request_r, reply_w)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        atexit.register(self.close)

    def _drop(self) -> None:
        """Close this process's ends of the pipes and the arena file."""
        for fd in (self.requests, self.replies, self.fd):
            os.close(fd)
        atexit.unregister(self.close)
        self.buf = None

    def close(self) -> None:
        """End and reap the helper; later halves run serially."""
        if self.pid is None:
            return
        self._drop()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        self.pid = None

    def run(self, x: np.ndarray, weights_f: tuple, weights_b: tuple):
        """The hidden states (T, H, B) of both directions over x (D, T, B):
        weights_f run here on x, weights_b on the helper on x time-flipped.
        None if the arena cannot grow to hold them."""
        kernel = self.kernel
        features, steps, batch = x.shape
        hidden = weights_b[1].shape[1]
        placed, size = _layout(features, steps, batch, hidden, x.dtype.itemsize)
        if size > self.size:
            try:
                os.ftruncate(self.fd, size)
                self.buf, self.size = mmap.mmap(self.fd, size), size
            except OSError:  # out of memory: the caller runs the half serially
                self.close()
                return None
        staged = _views(self.buf, x.dtype, placed)
        for dst, src in zip(staged, (x, *weights_b)):
            np.copyto(dst, src)
        x, hs_b = staged[0], staged[-1]
        sent = _write(self.requests, _REQUEST.pack(self.size, _DTYPES.index(x.dtype), features, steps, batch, hidden))
        try:
            hs_f, _ = kernel(x, *weights_f, keep_cache=False)
            served = sent and _read(self.replies) == b"\0"
        except BaseException:
            self.close()  # the helper may still answer a request nobody waits for
            raise
        if not served:
            self.close()
            kernel(x[:, ::-1], *weights_b, keep_cache=False, out=hs_b)
        return hs_f, hs_b


def _write(fd: int, data: bytes) -> bool:
    try:
        return os.write(fd, data) == len(data)
    except OSError:  # the helper is gone
        return False


def _read(fd: int) -> bytes:
    try:
        return os.read(fd, 1)
    except OSError:
        return b""


def _serve(kernel, arena_fd: int, requests: int, replies: int) -> None:
    """The helper's loop: one right-to-left run per request, until EOF."""
    buf, mapped = None, 0
    while len(message := os.read(requests, _REQUEST.size)) == _REQUEST.size:
        size, code, features, steps, batch, hidden = _REQUEST.unpack(message)
        if size != mapped:
            buf, mapped = mmap.mmap(arena_fd, size), size
        dtype = _DTYPES[code]
        x, w_ih, w_hh, b, hs = _views(buf, dtype, _layout(features, steps, batch, hidden, dtype.itemsize)[0])
        kernel(x[:, ::-1], w_ih, w_hh, b, keep_cache=False, out=hs)
        del x, w_ih, w_hh, b, hs  # the old map is freed when the arena grows
        os.write(replies, b"\0")


_helper: _Helper | None = None


def _forget_in_child() -> None:
    """In a process forked from the caller: drop the caller's helper, so this
    process never talks to it, nor ends it at exit."""
    global _helper
    if _helper is not None and _helper.pid is not None:
        _helper._drop()
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_in_child)


def run_directions(kernel, x: np.ndarray, weights_f: tuple, weights_b: tuple):
    """(hs_f, hs_b) of both LSTM directions over x (D, T, B), the second on
    the helper, or None when the helper cannot take them: the caller then
    runs both.

    kernel is the direction kernel, ``kernel(x, w_ih, w_hh, b, keep_cache,
    out=None) -> (hs, cache)``. hs_b is in the step order of the flipped
    input, as the serial ``kernel(x[:, ::-1], ...)`` returns it, and lives
    in the arena: it holds until the next call.
    """
    global _helper
    usable = (
        x.dtype in _DTYPES
        and all(w.dtype == x.dtype for w in weights_f + weights_b)
        and hasattr(os, "memfd_create")
        and len(os.sched_getaffinity(0)) >= 2
        and blas_threads().split("=")[-1] == "1"
        and threading.active_count() == 1
    )
    if not usable:
        return None
    if _helper is None:
        _helper = _Helper(kernel)
    if _helper.pid is None:  # it could not start, or it died: it is not restarted
        return None
    return _helper.run(x, weights_f, weights_b)
