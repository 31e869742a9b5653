"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps one ndarray and remembers how it was produced. Calling
``backward()`` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every tensor that was
created with ``requires_grad=True``. Forward ops never mutate their
inputs, so repeated evaluation of the same graph is bit-identical.

The node protocol. An op computes its value, defines ``backward(g)``,
which takes the output's gradient g and accumulates its inputs' grads,
and returns ``Tensor._from_op(value, parents, backward)``. Only a
recorded node keeps its parents and backward: when ``is_recording`` says
so (some parent requires grad and the thread is not inside
``no_grad()``). Otherwise the output is a plain ``requires_grad=False``
tensor, so a forward keeps nothing but its values. No backward refers to
its own output, so no graph is a reference cycle: one that is never
backpropagated is freed by reference counting. A node keeps what its
backward reads and no more: its parents, and the saved arrays that
cannot be re-formed from them, each of which a backward may drop once
spent. What each fused node saves and re-forms is written in its
docstring in ``ops`` (``encode``, ``mask_input``, ``mask_decode``,
``bilstm_layer`` and ``conv_block``). ``no_grad()`` nests, restores the
previous mode on exit (also on an exception), and is per thread.
``backward()`` frees a graph as it goes: once a node's backward has run,
the node drops it, its parents and (unless it is the root) its gradient.
Leaves keep their gradients. A second ``backward()`` through a spent
graph raises ConfigError instead of reusing stale gradients.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError

_FLOAT_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Run the block without recording a graph (per thread; nests)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_recording(inputs) -> bool:
    """Whether an op over these input tensors records a graph node."""
    return _grad_mode.enabled and any(t.requires_grad for t in inputs)


def _spent_backward(g: np.ndarray) -> None:
    raise ConfigError("backward() through a graph that backward() already consumed; run the forward again")


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in _FLOAT_DTYPES:
        return arr.astype(np.float64)
    return arr


class Tensor:
    """A value in the computation graph.

    data is row-major real storage, shape is its dimension list, and
    requires_grad marks leaves that should receive gradients. Recorded
    non-leaf tensors carry the backward closure of the op that made them,
    until ``backward()`` consumes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction used by ops ------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = is_recording(parents)
        out._parents = parents if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        return out

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ----------------------------------------------------

    def _accum_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may be a view into another node's grad buffer
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            np.add(self.grad, g, out=self.grad)

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        seed defaults to ones (for a scalar loss this is d loss/d loss = 1).
        The walk consumes the graph: each interior node is released once its
        closure has run, and a second call through it raises ConfigError.
        """
        if not self.requires_grad:
            raise ConfigError("backward() on a tensor that does not require grad")
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = _coerce(seed, self.data.dtype)
            if seed.shape != self.data.shape:
                raise ConfigError(
                    f"backward seed shape {seed.shape} != tensor shape {self.data.shape}"
                )
        order = _topo_order(self)
        self._accum_grad(seed)
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf
                continue
            node._backward(node.grad)
            # The closure held this node's inputs and saved arrays; dropping
            # it and the parent links lets refcounting free the graph behind us.
            node._backward = _spent_backward
            node._parents = ()
            if node is not self:
                node.grad = None


def _topo_order(root: Tensor) -> list[Tensor]:
    """Topological order, parents first and root last; iterative so deep graphs cannot overflow."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order
