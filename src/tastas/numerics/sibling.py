"""A forked helper process that runs the right-to-left LSTM direction of a
BiLSTM half beside the caller's left-to-right one: its forward, and when
the half records a graph, its BPTT too.

The two directions of a dual-path half read the same chunks and nothing
of each other, forward and backward, so two processes can run them with
the bits the serial path gives. The helper is forked once per process,
lazily, at the first half that can use it, and serves every half after
that: ``separate()``, eval and dev passes, and training steps. It is used
only when all of these hold, and otherwise the caller runs both
directions itself:

1. ``usable_cpus()`` is at least 2: BLAS is pinned to one thread (an
   unpinned BLAS oversubscribes the cores and made ``separate()`` 2.5x
   slower on 2 vCPUs) and the process may run on two CPUs;
2. the caller is the process's only Python thread: ``evaluate()`` scores
   two records or more on worker threads, which neither share the helper
   nor fork one, and a single record on the calling thread, with it;
3. the helper is alive: one that died is not restarted.

The two processes share an arena, a ``memfd_create`` file both map. The
caller stages a request's inputs in it, writes one small request to a
pipe, runs its own direction and waits for the reply.

- A forward: the caller stages the input (D, T, B) (the copy the serial
  path makes of it anyway) and the three right-to-left weights; the
  helper runs the kernel on the time-flipped input and writes the hidden
  states (T, H, B), and for a recorded half the activated gates
  (T, 4H, B), into the arena. The caller copies the gates out before its
  next request.
- A BPTT: the caller stages the input, the two weight matrices, the gates,
  the cell and hidden states it re-formed from them, and the hidden
  states' grads (T, H, B); the helper runs the BPTT and writes dx and the
  grads of w_ih, w_hh and b over the slots of x, w_ih, w_hh and b.

When a request needs more room, the caller grows the file and both sides
map it again. Two habits keep the helper from costing the caller time:
after each reply it polls its request pipe for ``SPIN_S`` before it
blocks, since a helper woken from sleep was often put on the caller's CPU
and stalled it for milliseconds; and it keeps its freed heap instead of
handing it back to the kernel, which made every BPTT fault its
temporaries back in.

Lifetime: the helper closes the caller's ends of the pipes, so it reads
EOF and exits when the caller dies, even by SIGKILL. At a normal exit the
caller kills and reaps it. It leaves only through ``os._exit``, never
into the caller's stack, and a Ctrl-C ends it without a traceback. If it
dies, the caller runs the request in flight itself, from its own inputs
and the arena slots the helper does not write, and goes on without it. A
process forked from the caller forgets the caller's helper and forks its
own if it needs one.
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import math
import mmap
import os
import select
import signal
import struct
import threading
import time

import numpy as np

# the arena's size in bytes, the job, the dtype's index in _DTYPES, then D, T, B, H
_REQUEST = struct.Struct("<7q")
_RUN, _RUN_CACHED, _GRAD = range(3)
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_ALIGN = 64
# how long the helper polls for the next request after a reply before it sleeps
SPIN_S = 0.03
# glibc mallopt parameters and the helper's values: no array goes to its own
# mmap, and up to 256 MiB of freed heap stays with the process
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_HEAP = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))


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


def usable_cpus() -> int:
    """The CPUs this process may keep busy side by side: its CPU affinity when
    BLAS is pinned to one thread, else 1 (an unpinned BLAS spreads over them)."""
    if blas_threads().split("=")[-1] != "1":
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _layout(features: int, steps: int, batch: int, hidden: int, itemsize: int):
    """The (shape, byte offset) of x (D, T, B), w_ih (4H, D), w_hh (4H, H),
    b (4H,), h (T, H, B), the gates (T, 4H, B), c (T, H, B) and h's grad
    (T, H, B) in the arena, and its size; each starts on a 64-byte
    boundary. A forward that keeps no gates never touches the last three."""
    gates, states = 4 * hidden, (steps, hidden, batch)
    shapes = (
        (features, steps, batch),
        (gates, features),
        (gates, hidden),
        (gates,),
        states,
        (steps, gates, batch),
        states,
        states,
    )
    placed, size = [], 0
    for shape in shapes:
        placed.append((shape, size))
        size += -(-math.prod(shape) * itemsize // _ALIGN) * _ALIGN
    return placed, size


def _views(buf, dtype: np.dtype, placed) -> list[np.ndarray]:
    return [np.ndarray(shape, dtype, buf, offset) for shape, offset in placed]


def _ops():
    """The module of the direction kernels; it imports this one, so it is looked up at use."""
    from . import ops

    return ops


class _Helper:
    """The caller's side of one forked helper: its pid, the pipes and the arena."""

    def __init__(self):
        self.buf, self.size, self.pid = None, 0, None
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
                _serve(self.fd, request_r, reply_w)
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

    def _arena(self, dtype: np.dtype, features: int, steps: int, batch: int, hidden: int):
        """The arena's views of x, w_ih, w_hh, b, h, the gates, c and h's
        grad, grown to hold them; None if it cannot grow."""
        placed, size = _layout(features, steps, batch, hidden, dtype.itemsize)
        if size > self.size:
            try:
                os.ftruncate(self.fd, size)
                self.buf, self.size = mmap.mmap(self.fd, size), size
            except OSError:  # out of memory: the caller runs the half serially
                self.close()
                return None
        return _views(self.buf, dtype, placed)

    def _beside(self, job: int, arena: list, local):
        """Ask the helper to run job on the staged arena, run local() here
        meanwhile, and wait: (local's result, whether the helper served it)."""
        x, hidden = arena[0], arena[2].shape[1]
        sent = _write(self.requests, _REQUEST.pack(self.size, job, _DTYPES.index(x.dtype), *x.shape, hidden))
        try:
            result = local()
            served = sent and _read(self.replies) == b"\0"
        except BaseException:
            self.close()  # the helper may still answer a request nobody waits for
            raise
        if not served:
            self.close()
        return result, served

    def run(self, x: np.ndarray, weights_f: tuple, weights_b: tuple, keep_cache: bool):
        """The kernel's (hs, cache) of both directions over x (D, T, B):
        weights_f run here on x, weights_b on the helper on x time-flipped.
        None if the arena cannot grow to hold them."""
        kernel = _ops()._lstm_run
        arena = self._arena(x.dtype, *x.shape, weights_b[1].shape[1])
        if arena is None:
            return None
        for dst, src in zip(arena, (x, *weights_b)):
            np.copyto(dst, src)
        x, _, _, _, hs_b, gates_b, _, _ = arena
        run_f, served = self._beside(
            _RUN_CACHED if keep_cache else _RUN, arena, lambda: kernel(x, *weights_f, keep_cache=keep_cache)
        )
        if not served:
            return run_f, kernel(x[:, ::-1], *weights_b, keep_cache=keep_cache, out=hs_b)
        return run_f, (hs_b, gates_b.copy() if keep_cache else None)

    def grad(self, local, x: np.ndarray, run_b: list, w_ih: np.ndarray, w_hh: np.ndarray, g_h: np.ndarray):
        """(local(), the right-to-left grads): see grad_directions. None if
        the arena cannot grow to hold their inputs."""
        kernel = _ops()._lstm_grad
        arena = self._arena(x.dtype, *x.shape, w_hh.shape[1])
        if arena is None:
            return None
        x_s, w_ih_s, w_hh_s, _, h_s, gates_s, c_s, g_s = arena
        for dst, src in zip((x_s, w_ih_s, w_hh_s, gates_s, c_s, h_s, g_s), (x, w_ih, w_hh, *run_b, g_h)):
            np.copyto(dst, src)
        run_b.clear()
        grads_f, served = self._beside(_GRAD, arena, local)
        if not served:  # the helper wrote, at most, over the slots of x, the weights and b
            return grads_f, kernel(x[:, ::-1], [gates_s, c_s, h_s], w_ih, w_hh, g_s)
        return grads_f, tuple(arena[:4])


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


def _keep_heap() -> None:
    """Make glibc's malloc keep this process's freed memory (a no-op elsewhere)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for param, value in _KEEP_HEAP:
        mallopt(param, value)


def _next_request(requests: int, pipe: select.poll) -> bytes:
    """The next request, polled for SPIN_S before a blocking read."""
    deadline = time.monotonic() + SPIN_S
    while not pipe.poll(0) and time.monotonic() < deadline:
        pass
    return os.read(requests, _REQUEST.size)


def _serve(arena_fd: int, requests: int, replies: int) -> None:
    """The helper's loop: one right-to-left job per request, until EOF."""
    _keep_heap()
    ops = _ops()
    buf, mapped = None, 0
    pipe = select.poll()
    pipe.register(requests, select.POLLIN)
    while len(message := _next_request(requests, pipe)) == _REQUEST.size:
        size, job, code, features, steps, batch, hidden = _REQUEST.unpack(message)
        if size != mapped:
            buf, mapped = mmap.mmap(arena_fd, size), size
        dtype = _DTYPES[code]
        x, w_ih, w_hh, b, h, gates, c, g = _views(buf, dtype, _layout(features, steps, batch, hidden, dtype.itemsize)[0])
        if job == _GRAD:
            for dst, grad in zip((x, w_ih, w_hh, b), ops._lstm_grad(x[:, ::-1], [gates, c, h], w_ih, w_hh, g)):
                np.copyto(dst, grad)
        else:
            _, cache = ops._lstm_run(x[:, ::-1], w_ih, w_hh, b, keep_cache=job == _RUN_CACHED, out=h)
            if cache is not None:
                np.copyto(gates, cache)
        del x, w_ih, w_hh, b, h, gates, c, g  # the old map is freed when the arena grows
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


def _available(dtype: np.dtype, weights: tuple) -> _Helper | None:
    """The helper, forked if need be, when it may take a direction of this
    dtype and these weights; else None."""
    global _helper
    usable = (
        dtype in _DTYPES
        and all(w.dtype == dtype for w in weights)
        and hasattr(os, "memfd_create")
        and usable_cpus() >= 2
        and threading.active_count() == 1
    )
    if not usable:
        return None
    if _helper is None:
        _helper = _Helper()
    return _helper if _helper.pid is not None else None  # one that died is not restarted


def run_directions(x: np.ndarray, weights_f: tuple, weights_b: tuple, keep_cache: bool = False):
    """The (hs, cache) pairs of ``ops._lstm_run`` for both LSTM directions
    over x (D, T, B), the second on the helper, or None when the helper
    cannot take them: the caller then runs both.

    The second pair is in the step order of the flipped input, as the
    serial ``_lstm_run(x[:, ::-1], ...)`` returns it. Its hidden states
    live in the arena and hold until the next call; its cache, the
    activated gates when keep_cache, is the caller's own.
    """
    helper = _available(x.dtype, weights_f + weights_b)
    return None if helper is None else helper.run(x, weights_f, weights_b, keep_cache)


def grad_directions(local, x: np.ndarray, run_b: list, w_ih_b: np.ndarray, w_hh_b: np.ndarray, g_h_b: np.ndarray):
    """(local(), the right-to-left grads), the second from the helper, or
    None when the helper cannot take them: the caller then runs both.

    local runs the left-to-right BPTT here. The right-to-left direction ran
    over x (D, T, B) time-flipped; run_b is its [gates, c, h], as
    ``ops._lstm_grad`` takes it, and g_h_b the grad of its hidden states
    (T, H, B). Unless it returns None, grad_directions empties run_b, as
    ``ops._lstm_grad`` does, and so frees the states. The grads are those of ``ops._lstm_grad``,
    (dx, dw_ih, dw_hh, db); from the helper they live in the arena and
    hold until the next call.
    """
    helper = _available(x.dtype, (w_ih_b, w_hh_b, g_h_b))
    return None if helper is None else helper.grad(local, x, run_b, w_ih_b, w_hh_b, g_h_b)
