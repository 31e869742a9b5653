"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces public functions of the ``tastas`` package with
timing wrappers, from outside the package: every module-level binding of
a wrapped function (``from x import f`` copies included) and the class
attributes named below. Each op wrapper also wraps the backward closure
the op leaves on the tensor it returns, so backward time is attributed to
the op kind that recorded it. ``restore()`` puts every original back.

Spans nest. A span's self time is its duration minus the duration of the
spans opened inside it, so op self times add up without double counting.
Totals go into the open *bucket*; the caller closes a bucket at each unit
of work (a train step, an ``evaluate()`` call) with ``cut()``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"

# Op kinds reported by name; every other op is folded into "other".
NAMED_KINDS = (
    "bilstm_layer",
    "linear",
    "layer_norm",
    "reshape",
    "transpose",
    "add",
    "mul",
    "getitem",
    "prelu",
    "conv1d",
    "softmax",
    "segment_chunks",
    "merge_chunks",
    "overlap_add",
    "conv2d",
    "max_pool2d",
    "stft_ri",
)
OP_KINDS = NAMED_KINDS + ("other",)

# Public names in tastas.numerics.ops that build no graph node.
NOT_OPS = frozenset({"as_tensor", "const", "chunk_layout", "frame_count", "reflect_index_map"})

OBJECTIVES = ("multi_stage_loss_graph", "id_loss_graph", "pit_loss", "si_sdri")


def _tastas_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "tastas" or n.startswith("tastas."))]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.buckets: list[tuple[str, dict]] = []
        self._bucket = self._new_bucket()

    # -- buckets ----------------------------------------------------------

    def _new_bucket(self) -> dict:
        bucket = defaultdict(float)
        bucket["_start"] = self.clock()
        return bucket

    def cut(self, label: str) -> None:
        """Close the open bucket under ``label`` and open a new one."""
        bucket = self._bucket
        bucket["_wall"] = self.clock() - bucket["_start"]
        self.buckets.append((label, bucket))
        self._bucket = self._new_bucket()

    def discard(self) -> None:
        """Drop what the open bucket holds and restart it now."""
        self._bucket = self._new_bucket()

    # -- spans ------------------------------------------------------------

    def _record(self, name: str, start: float, child: float, end: float) -> None:
        dt = end - start
        if self._stack:
            self._stack[-1][0] += dt
        b = self._bucket
        b[name + ".total"] += dt
        b[name + ".self"] += dt - child
        b[name + ".calls"] += 1

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the call's args."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [0.0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer._record(label, start, frame[0], end)
            if after is not None:
                after(start, out, args, kwargs)
            return out

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, fn, name, after=None) -> None:
        """Replace every binding of ``fn`` in the loaded tastas modules."""
        wrapper = self.span(name, fn, after)
        for module in _tastas_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name, after=None) -> None:
        self._set(cls, attr, self.span(name, getattr(cls, attr), after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the package's layers ---------------------------------------------

    def install(self, on_adam_step=None, on_trainer_init=None) -> None:
        """Wrap every layer the per-layer metrics name.

        ``on_adam_step(result)`` and ``on_trainer_init()`` run after those
        calls return, outside every span, so the caller can cut buckets there.
        """
        from tastas import checkpoint, objectives
        from tastas.audio import irm
        from tastas.idnet.model import IdNet
        from tastas.numerics import ops, optim
        from tastas.numerics.tensor import Tensor
        from tastas.pipeline import data
        from tastas.pipeline.train import SepTrainer
        from tastas.sepnet import model as sepmodel

        for attr, fn in list(vars(ops).items()):
            if attr.startswith("_") or attr in NOT_OPS or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != ops.__name__:
                continue
            self._wrap_op(fn, attr if attr in NAMED_KINDS else "other")

        self.wrap_method(Tensor, "backward", "tensor.backward")
        self.wrap_method(sepmodel.TasTasModel, "forward", "sepnet.forward")
        self.wrap_method(sepmodel.TasTasModel, "separate", "sepnet.separate")
        self.wrap_function(sepmodel.stage_forward, lambda *a, **k: f"sepnet.stage{a[2]}.forward")
        self.wrap_method(IdNet, "embed_segments_graph", "idnet.embed_segments_graph")
        for attr in OBJECTIVES:
            self.wrap_function(getattr(objectives, attr), f"objectives.{attr}")
        self.wrap_function(optim.clip_global_norm, "optim.clip_global_norm")
        self.wrap_function(
            optim.adam_step,
            "optim.adam_step",
            after=(lambda start, out, args, kwargs: on_adam_step(out)) if on_adam_step else None,
        )

        def after_save(start, out, args, kwargs):
            bucket = self._bucket
            if "_first_save" not in bucket:
                bucket["_first_save"] = start
            bucket["checkpoint.save_container.bytes"] += os.path.getsize(args[0])

        self.wrap_function(checkpoint.save_container, "checkpoint.save_container", after=after_save)
        self.wrap_function(checkpoint.load_container, "checkpoint.load_container")
        self.wrap_function(data.load_example, "pipeline.data.load_example")
        self.wrap_function(irm.irm_separate, "audio.irm_separate")
        self.wrap_method(
            SepTrainer,
            "__init__",
            "pipeline.train.init",
            after=(lambda *_: on_trainer_init()) if on_trainer_init else None,
        )

    def _wrap_op(self, fn, kind: str) -> None:
        from tastas.numerics.tensor import Tensor

        bwd = f"ops.{kind}.bwd"

        def after(start, out, args, kwargs):
            bucket = self._bucket
            bucket["ops.calls"] += 1
            for t in out if isinstance(out, tuple) else (out,):
                if isinstance(t, Tensor) and t._backward is not None:
                    bucket["ops.backward_closures"] += 1
                    t._backward = self.span(bwd, t._backward)

        self.wrap_function(fn, f"ops.{kind}.fwd", after=after)


def wrapped_attributes() -> list[str]:
    """Names of tastas attributes that still hold a tracer wrapper."""
    found = []
    for module in _tastas_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, MARK):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found
