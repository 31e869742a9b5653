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
- A BPTT, a job with two replies: the caller stages the input, the two
  right-to-left weight matrices, the gates, the cell and hidden states it
  re-formed from them, and the hidden states' grads (T, H, B). It then
  runs its own direction's input-grad chain (``ops._lstm_chain``), which
  writes the gate grads dz_flat (4H, T*B) and h(t-1) (H, (T-1)*B) into
  their arena slots, and writes one byte to the request pipe to say they
  are there. The helper runs the right-to-left chain, writes its dx into
  a slot of its own (x stays), and sends the first reply; with it the
  caller adds the two dx and goes on down the graph. Meanwhile the helper
  forms the weight grads (``ops._lstm_weight_grads``) of its direction
  and, once the caller's byte is in, of the caller's, writes all six into
  their slots and sends the second reply. Nothing in the backward reads
  weight grads, so the caller waits for them only when it settles: before
  its next request writes to the arena, and before ``Tensor.backward()``
  returns, also when it raises. Settling adds the six grads with
  ``_accum_grad``, in the order of the serial path, so every gradient is
  final when ``backward()`` returns.

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
dies, the caller runs the job in flight on the arena itself, with the
helper's own ``_serve_run`` or ``_serve_grad``, and goes on without it. A
process forked from the caller forgets the caller's helper and forks its
own if it needs one.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
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
    """The (shape, byte offset) of each arena slot, and the arena's size;
    each slot starts on a 64-byte boundary. The slots are x (D, T, B),
    w_ih (4H, D), w_hh (4H, H), b (4H,), h (T, H, B); then, touched only by
    a recorded half, the gates (T, 4H, B), c (T, H, B) and h's grad
    (T, H, B), the caller's gate grads dz_flat (4H, T*B) and h(t-1)
    (H, (T-1)*B), the helper's dx (D, T, B), and the grads of w_ih, w_hh
    and b of the left-to-right direction, then of the right-to-left one."""
    gates, states = 4 * hidden, (steps, hidden, batch)
    weights = ((gates, features), (gates, hidden), (gates,))
    shapes = (
        (features, steps, batch),
        *weights,
        states,
        (steps, gates, batch),
        states,
        states,
        (gates, steps * batch),
        (hidden, (steps - 1) * batch),
        (features, steps, batch),
        *weights,
        *weights,
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
        self.pending = None  # (arena, accumulate) of a BPTT whose weight grads the helper still owes
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
        (self.fd, request_r, self.requests, self.replies, reply_w), self.pid = fds, pid
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
        """The arena's views of its slots (see _layout), grown to hold them,
        once the pending BPTT is settled; None if the helper is gone or the
        arena cannot grow."""
        self.settle()
        if self.pid is None:  # found dead while settling
            return None
        placed, size = _layout(features, steps, batch, hidden, dtype.itemsize)
        if size > self.size:
            try:
                os.ftruncate(self.fd, size)
                self.buf, self.size = mmap.mmap(self.fd, size), size
            except OSError:  # out of memory: the caller runs the half serially
                self.close()
                return None
        return _views(self.buf, dtype, placed)

    def _answered(self, sent: bool = True) -> bool:
        """Whether the helper replied to what was sent; if not, or if the
        wait is cut short, the helper is ended."""
        served = False
        try:
            served = sent and self.pid is not None and _read(self.replies) == b"\0"
        finally:
            if not served:
                self.close()
        return served

    def _beside(self, job: int, arena: list, local):
        """Ask the helper to run job on the staged arena, run local() here
        meanwhile, and wait: (local's result, whether the helper served it).
        A BPTT's helper reads what local() wrote, so it is told when that is done."""
        x, hidden = arena[0], arena[2].shape[1]
        sent = _write(self.requests, _REQUEST.pack(self.size, job, _DTYPES.index(x.dtype), *x.shape, hidden))
        try:
            result = local()
            if job == _GRAD:
                sent = sent and _write(self.requests, b"\0")
        except BaseException:
            self.close()  # the helper may still answer a request nobody waits for
            raise
        return result, self._answered(sent)

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
        x, _, _, _, hs_b, gates_b = arena[:6]
        run_f, served = self._beside(
            _RUN_CACHED if keep_cache else _RUN, arena, lambda: kernel(x, *weights_f, keep_cache=keep_cache)
        )
        if not served:
            _serve_run(arena, keep_cache)
        return run_f, (hs_b, gates_b.copy() if keep_cache else None)

    def grad(self, x: np.ndarray, chain_f: tuple, chain_b: tuple, accumulate):
        """(dx_f, dx_b), the weight grads left to the helper: see
        grad_directions. None if the arena cannot grow to hold their inputs."""
        run_b, w_ih, w_hh, g_h = chain_b
        arena = self._arena(x.dtype, *x.shape, w_hh.shape[1])
        if arena is None:
            return None
        x_s, w_ih_s, w_hh_s, _, h_s, gates_s, c_s, g_s, dz_s, h_prev_s, dx_s = arena[:11]
        for dst, src in zip((x_s, w_ih_s, w_hh_s, gates_s, c_s, h_s, g_s), (x, w_ih, w_hh, *run_b, g_h)):
            np.copyto(dst, src)
        run_b.clear()
        dx_f, served = self._beside(_GRAD, arena, lambda: _ops()._lstm_chain(*chain_f, out=(dz_s, h_prev_s))[0])
        self.pending = arena, accumulate
        if not served:  # the helper's BPTT runs here, and its weight grads go to accumulate now
            self.settle()
        return dx_f, dx_s

    def settle(self) -> None:
        """Wait for the weight grads of the pending BPTT, if any, and hand
        them to its accumulate; if the helper has died, run its job here."""
        if self.pending is None:
            return
        arena, accumulate = self.pending
        self.pending = None
        if not self._answered():
            _serve_grad(arena)
        accumulate(arena[11:])


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
    buf, mapped = None, 0
    pipe = select.poll()
    pipe.register(requests, select.POLLIN)
    reply = functools.partial(os.write, replies, b"\0")
    while len(message := _next_request(requests, pipe)) == _REQUEST.size:
        size, job, code, features, steps, batch, hidden = _REQUEST.unpack(message)
        if size != mapped:
            buf, mapped = mmap.mmap(arena_fd, size), size
        dtype = _DTYPES[code]
        views = _views(buf, dtype, _layout(features, steps, batch, hidden, dtype.itemsize)[0])
        if job != _GRAD:
            _serve_run(views, keep_cache=job == _RUN_CACHED)
        elif not _serve_grad(views, reply, lambda: os.read(requests, 1) == b"\0"):
            return
        del views  # the old map is freed when the arena grows
        reply()


def _serve_run(views: list, keep_cache: bool) -> None:
    """A right-to-left forward: h, and for a recorded half the gates, into the arena."""
    x, w_ih, w_hh, b, h, gates = views[:6]
    _, cache = _ops()._lstm_run(x[:, ::-1], w_ih, w_hh, b, keep_cache=keep_cache, out=h)
    if cache is not None:
        np.copyto(gates, cache)


def _serve_grad(views: list, reply=lambda: None, staged=lambda: True) -> bool:
    """A BPTT: the right-to-left chain, whose dx goes into the arena before
    reply(), then the weight grads of both directions, the left-to-right
    ones once staged() says the caller's gate grads and h(t-1) are in. On
    the helper the hooks are its pipe write and read, and its loop sends the
    second reply; the caller, which has staged both, runs it with neither.
    False if staged() finds EOF."""
    ops = _ops()
    x, w_ih, w_hh, _, h, gates, c, g, dz_flat, h_prev, dx, *grads = views
    dx_b, dz_b, h_prev_b = ops._lstm_chain([gates, c, h], w_ih, w_hh, g)
    np.copyto(dx, dx_b)
    reply()
    grads_b = ops._lstm_weight_grads(dz_b, x[:, ::-1], h_prev_b)
    if not staged():
        return False
    for dst, grad in zip(grads, ops._lstm_weight_grads(dz_flat, x, h_prev) + grads_b):
        np.copyto(dst, grad)
    return True


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


def grad_directions(x: np.ndarray, chain_f: tuple, chain_b: tuple, accumulate):
    """The dx of both LSTM directions' BPTT, (dx_f, dx_b), the second from
    the helper, or None when the helper cannot take them: the caller then
    runs both.

    chain_f and chain_b are the ``ops._lstm_chain`` arguments of the
    left-to-right direction, which ran over x (D, T, B), and of the
    right-to-left one, which ran over x time-flipped. Unless it returns
    None, grad_directions empties both runs, as ``_lstm_chain`` does, and so
    frees the states. dx_b is in the step order of the flipped input; it
    lives in the arena and holds until the next call. The six weight grads,
    those of w_ih, w_hh and b left to right and then right to left, go to
    accumulate once the helper has formed them: at the next ``settle()``,
    which every later request and ``Tensor.backward()`` call first, or at
    once if the helper has died.
    """
    helper = _available(x.dtype, chain_f[1:] + chain_b[1:])
    return None if helper is None else helper.grad(x, chain_f, chain_b, accumulate)


def settle() -> None:
    """Hand the weight grads the helper still owes, if any, to their
    accumulate; ``Tensor.backward()`` calls this before it returns."""
    if _helper is not None:
        _helper.settle()
