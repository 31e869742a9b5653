"""One benchmark workload, run in its own process by ``run.py``.

    PYTHONPATH=src python3 perfbench/workload.py --workload train-1s --seed 0 --seconds 45 \
        --trace 0 --scale full --work-dir .perfbench/work --result out.json

The process drives only the package's public entry points on inputs made
from the seed, checks the outputs, and writes one JSON result file. It
prints nothing on success; ``run.py`` formats the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tastas import objectives
from tastas.idnet import IdNet, IdNetConfig, save_idnet
from tastas.numerics.optim import AdamState
from tastas.pipeline import (
    TrainConfig,
    evaluate,
    load_example,
    load_sep_checkpoint,
    run_phase,
    save_sep_checkpoint,
    synth_mixture_corpus,
)
from tastas.pipeline import train as train_module
from tastas.sepnet import TasTasModel, parse_preset

from tracer import OP_KINDS, Tracer, wrapped_attributes

SAMPLE_RATE = 8000
# The defaults of `tastas synth-data`.
SPEAKER_POOL = 8
SNR_RANGE_DB = (0.0, 5.0)
# Output checks against recorded values allow float32 round-off, in dB.
REFERENCE_TOL_DB = 1e-3
REFERENCE = Path(__file__).with_name("reference.json")
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    preset: str
    widths: dict
    idnet_widths: dict
    train_s: float
    n_train: int
    n_dev: int
    eval_s: float
    n_test: int
    setup_reps: int


SCALES = {
    # tastas-6-6 at default widths: 41 chunks of 50 frames at 1 s, 159 at 4 s.
    "full": Scale("tastas-6-6", {}, {}, 1.0, 6, 2, 4.0, 8, 3),
    # For the smoke test only: seconds per run, not minutes.
    "tiny": Scale(
        "tastas-1-1",
        {"num_filters": 8, "hidden_size": 8, "chunk_len": 10},
        {"conv_channels": (4, 4), "embedding_dim": 8},
        0.5,
        2,
        1,
        0.5,
        2,
        2,
    ),
}


@dataclass
class Tally:
    """Operations attempted and failed, plus the named output checks."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks.append({"check": name, "detail": detail})

    def error(self, what: str) -> None:
        self.check(what, False, traceback.format_exc(limit=4))
        traceback.print_exc(file=sys.stderr)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Budget:
    """Time-boxed loop: a call starts only if, at the mean call time so far,
    it ends by the deadline. The first ``minimum`` calls always run."""

    def __init__(self, seconds: float, minimum: int = 1):
        self.started = clock()
        self.deadline = self.started + seconds
        self.minimum = minimum
        self.calls = 0

    def more(self) -> bool:
        now = clock()
        ok = self.calls < self.minimum or now + (now - self.started) / self.calls <= self.deadline
        self.calls += ok
        return ok


def collect_graphs() -> None:
    """Free the last operation's autodiff graph before the next one starts.

    Backward closures reference the tensors that hold them, so every graph
    is a reference cycle that only the cyclic collector frees. Left to its
    schedule, graphs of earlier operations pile up (7.6 GB within 20 s of
    train-1s). Collecting between operations, outside every timed region,
    gives each operation the heap a fresh process would give it.
    """
    gc.collect()


def p50(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# set-up: corpus synthesis, checkpoint preparation, warm-up
# ---------------------------------------------------------------------------


def warm_up(model: TasTasModel, mixture: np.ndarray, targets: list) -> None:
    """One forward+backward: the first one in a process is about 3x slower."""
    loss, _ = objectives.multi_stage_loss_graph(model.forward(mixture), targets)
    loss.backward()
    model.params.zero_grads()


def setup_train(scale: Scale, seed: int, root: Path) -> dict:
    train = synth_mixture_corpus(root, "train", scale.n_train, SPEAKER_POOL, scale.train_s, *SNR_RANGE_DB, seed=seed)
    synth_mixture_corpus(root, "dev", scale.n_dev, SPEAKER_POOL, scale.train_s, *SNR_RANGE_DB, seed=seed)
    model = TasTasModel.initialize(parse_preset(scale.preset, **scale.widths), seed=seed)
    save_sep_checkpoint(root / "sep_init.ckpt", model, AdamState.for_params(model.params), {})
    idnet = IdNet.initialize(IdNetConfig(num_speakers=SPEAKER_POOL, **scale.idnet_widths), seed=seed).freeze()
    save_idnet(root / "idnet.ckpt", idnet)
    example = load_example(train[0])
    warm_up(model, example.mixture, example.targets)
    return {"root": root}


def setup_eval(scale: Scale, seed: int, root: Path) -> dict:
    records = synth_mixture_corpus(root, "test", scale.n_test, SPEAKER_POOL, scale.eval_s, *SNR_RANGE_DB, seed=seed)
    fresh = TasTasModel.initialize(parse_preset(scale.preset, **scale.widths), seed=seed)
    save_sep_checkpoint(root / "sep_init.ckpt", fresh, AdamState.for_params(fresh.params), {})
    model, _, _ = load_sep_checkpoint(root / "sep_init.ckpt")
    # Warm up on a train-length crop: a 4 s backward would double peak memory.
    example = load_example(records[0])
    n = int(scale.train_s * SAMPLE_RATE)
    warm_up(model, example.mixture[:n], [t[:n] for t in example.targets])
    return {"root": root, "records": records, "model": model}


def run_setups(setup, scale: Scale, seed: int, work: Path, reps: int) -> tuple[dict, list[float]]:
    """Set up ``reps`` times from scratch; the last context is used."""
    times = []
    for r in range(reps):
        start = clock()
        ctx = setup(scale, seed, work / f"setup{r}")
        times.append(clock() - start)
        collect_graphs()
    return ctx, times


# ---------------------------------------------------------------------------
# train-1s
# ---------------------------------------------------------------------------


class TrainLoop:
    """Repeated one-epoch ``run_phase`` calls of the finetune phase.

    Under ``coarse()`` a call records one timestamp per ``adam_step``
    return and one pair per forward; under ``traced()`` the tracer cuts a
    bucket at each ``adam_step`` return instead.
    """

    unit = "step"

    def __init__(self, scale: Scale, seed: int, root: Path, tally: Tally):
        self.scale, self.root, self.tally = scale, root, tally
        self.seed = seed
        self.calls = 0
        self.examples = 0
        self.wall = 0.0
        self.first_row = None
        self.last_params = None
        self.stamps: list[float] = []
        self.coarse_on = False
        self.intervals: list[float] = []
        self.rtf: list[float] = []

    def config(self, out_dir: Path) -> TrainConfig:
        return TrainConfig(
            phase="finetune",
            epochs_max=1,
            batch_size=1,
            seed=self.seed,
            train_manifest=str(self.root / "train.tsv"),
            dev_manifest=str(self.root / "dev.tsv"),
            model=self.scale.preset,
            sep_ckpt=str(self.root / "sep_init.ckpt"),
            idnet_ckpt=str(self.root / "idnet.ckpt"),
            out_dir=str(out_dir),
            **self.scale.widths,
        )

    def on_adam_step(self, out) -> None:
        self.last_params = out[0]
        self.stamps.append(clock())

    @contextmanager
    def coarse(self):
        orig_step = train_module.adam_step
        orig_forward = TasTasModel.forward

        def stamped_step(*args, **kwargs):
            out = orig_step(*args, **kwargs)
            self.on_adam_step(out)
            return out

        def timed_forward(model, mixture_samples):
            start = clock()
            out = orig_forward(model, mixture_samples)
            self.rtf.append((clock() - start) / (len(mixture_samples) / SAMPLE_RATE))
            return out

        train_module.adam_step = stamped_step
        TasTasModel.forward = timed_forward
        self.coarse_on = True
        try:
            yield
        finally:
            self.coarse_on = False
            train_module.adam_step = orig_step
            TasTasModel.forward = orig_forward

    @contextmanager
    def traced(self, tracer: Tracer):
        tracer.install(
            on_adam_step=lambda out: (self.on_adam_step(out), tracer.cut("step")),
            on_trainer_init=lambda: tracer.cut("init"),
        )
        tracer.discard()
        try:
            yield
        finally:
            tracer.cut("tail")
            tracer.restore()

    def call(self) -> bool:
        """One run_phase call plus its output checks; False stops the loop."""
        out_dir = self.root / f"run{self.calls}"
        self.calls += 1
        self.stamps = []
        expected = self.scale.n_train  # batch size 1
        start = clock()
        try:
            _, rows = run_phase(self.config(out_dir))
        except Exception:
            self.tally.ops(expected, expected)
            self.tally.error("run_phase raised")
            return False
        if self.coarse_on:
            self.wall += clock() - start
            self.examples += expected
            self.intervals += np.diff(self.stamps).tolist()
        row = rows[-1]
        ok = finite(row.train_loss, row.dev_loss, row.dev_si_sdri)
        t = self.tally
        t.ops(expected, 0 if ok else expected)
        t.check("train and dev losses are finite", ok, repr(row))
        t.check("one adam_step per example", len(self.stamps) == expected, f"{len(self.stamps)} != {expected}")
        t.check("one report row", len(rows) == 1, f"{len(rows)} rows")
        try:
            trained, _, _ = load_sep_checkpoint(out_dir / "last.ckpt")
            names = trained.params.names()
            same = (
                self.last_params is not None
                and names == self.last_params.names()
                and all(np.array_equal(trained.params[n].data, self.last_params[n].data) for n in names)
            )
            t.check("last.ckpt holds the trained parameters", same)
        except Exception:
            t.error("last.ckpt does not load")
        values = (row.train_loss, row.dev_loss, row.dev_si_sdri)
        if self.first_row is None:
            self.first_row = values
        else:
            t.check("every epoch repeats the first bit for bit", values == self.first_row, f"{values} vs {self.first_row}")
        shutil.rmtree(out_dir, ignore_errors=True)
        collect_graphs()
        return True

    def reset_timings(self) -> None:
        self.examples, self.wall, self.intervals, self.rtf = 0, 0.0, [], []

    def end_to_end(self) -> dict:
        return {
            "items_per_s": self.examples / self.wall if self.wall else float("nan"),
            "item_s_p50": p50(self.intervals),
            "item_samples": len(self.intervals),
            "item_s_values": self.intervals,
            "model_rtf_p50": p50(self.rtf),
            "model_rtf_samples": len(self.rtf),
        }

    def outputs(self) -> dict:
        if self.first_row is None:
            return {}
        return dict(zip(("train_loss", "dev_loss", "dev_si_sdri"), self.first_row))


# ---------------------------------------------------------------------------
# eval-4s
# ---------------------------------------------------------------------------


class EvalLoop:
    """``evaluate()`` once per test mixture, cycling through the test set.

    Under ``coarse()`` a call records one pair per ``evaluate()`` and one
    per ``separate()``; under ``traced()`` the tracer cuts a bucket per call.
    """

    unit = "utt"

    def __init__(self, ctx: dict, tally: Tally):
        self.model = ctx["model"]
        self.records = ctx["records"]
        self.tally = tally
        self.calls = 0
        self.coarse_on = False
        self.times: list[float] = []
        self.rtf: list[float] = []
        self.separate_calls = 0
        self.lengths_ok = False
        self.si_sdri: dict[str, float] = {}
        self.irm_si_sdri: dict[str, float] = {}

    def _watch_separate(self, timed: bool):
        """Replace TasTasModel.separate with a counting (and timing) wrapper."""
        orig = TasTasModel.separate

        def watched(model, mixture_samples):
            start = clock()
            out = orig(model, mixture_samples)
            if timed:
                self.rtf.append((clock() - start) / (len(mixture_samples) / SAMPLE_RATE))
            self.separate_calls += 1
            self.lengths_ok = len(out) == 2 and all(len(e) == len(mixture_samples) for e in out)
            return out

        TasTasModel.separate = watched
        return orig

    @contextmanager
    def coarse(self):
        orig = self._watch_separate(timed=True)
        self.coarse_on = True
        try:
            yield
        finally:
            self.coarse_on = False
            TasTasModel.separate = orig

    @contextmanager
    def traced(self, tracer: Tracer):
        tracer.install()
        orig = self._watch_separate(timed=False)
        tracer.discard()
        try:
            yield
        finally:
            tracer.cut("utt")
            TasTasModel.separate = orig
            tracer.restore()

    def call(self) -> bool:
        record = self.records[self.calls % len(self.records)]
        self.calls += 1
        before = self.separate_calls
        start = clock()
        try:
            summary = evaluate(self.model, [record], include_irm=True)
        except Exception:
            self.tally.ops(2, 2)
            self.tally.error("evaluate raised")
            return False
        if self.coarse_on:
            self.times.append(clock() - start)
        rows = summary.results + summary.irm_results
        bad = [r for r in rows if r.error or not finite(r.si_sdri, r.sdri)]
        t = self.tally
        t.ops(len(rows), len(bad))
        t.check("two rows per utterance, none an error", len(rows) == 2 and not bad, "; ".join(r.row() for r in rows))
        t.check("separate runs once per utterance", self.separate_calls == before + 1, f"{self.separate_calls - before}")
        t.check("estimate lengths equal mixture length", self.lengths_ok)
        for seen, rows_ in ((self.si_sdri, summary.results), (self.irm_si_sdri, summary.irm_results)):
            for r in rows_:
                if r.error:
                    continue
                if r.utt_id in seen:
                    t.check("a repeated utterance scores the same", seen[r.utt_id] == r.si_sdri, r.utt_id)
                seen[r.utt_id] = r.si_sdri
        collect_graphs()
        return True

    def separate_peak_mib(self) -> float:
        """tracemalloc peak of one untimed separate() of the first mixture."""
        mixture = load_example(self.records[0]).mixture
        tracemalloc.start()
        try:
            self.model.separate(mixture)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            collect_graphs()

    def reset_timings(self) -> None:
        self.times, self.rtf = [], []

    def end_to_end(self) -> dict:
        return {
            "items_per_s": len(self.times) / sum(self.times) if self.times else float("nan"),
            "item_s_p50": p50(self.times),
            "item_samples": len(self.times),
            "item_s_values": self.times,
            "model_rtf_p50": p50(self.rtf),
            "model_rtf_samples": len(self.rtf),
        }

    def outputs(self) -> dict:
        return {"si_sdri": dict(sorted(self.si_sdri.items())), "irm_si_sdri": dict(sorted(self.irm_si_sdri.items()))}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(loop, seconds: float) -> None:
    """Untraced: coarse timestamps only, for the end-to-end metrics."""
    with loop.coarse():
        budget = Budget(seconds)
        while budget.more() and loop.call():
            pass


def trace(loop, seconds: float, tracer: Tracer) -> None:
    """Traced: after one cold untraced call, traced and untraced calls alternate.

    The first call in a process is slower (its heap grows from scratch), so
    it counts on neither side; the untraced calls give the baseline that
    the tracing overhead is measured against.
    """
    began = clock()
    with loop.coarse():
        cold_ok = loop.call()
    loop.reset_timings()
    if cold_ok:
        budget = Budget(seconds - (clock() - began), minimum=2)
        traced = True
        while budget.more():
            with loop.traced(tracer) if traced else loop.coarse():
                ok = loop.call()
            if not ok:
                break
            traced = not traced
    leftover = wrapped_attributes()
    loop.tally.check("tracer wrappers removed", not leftover, ", ".join(leftover))


# ---------------------------------------------------------------------------
# per-layer metrics from the traced buckets
# ---------------------------------------------------------------------------


def per_layer(tracer: Tracer, loop, audio_s: float, traced_peak_mib: float = 0.0) -> dict:
    """Means per unit (train step or evaluate() call) of the traced buckets."""
    unit = loop.unit
    units = [b for label, b in tracer.buckets if label == unit]
    everything = [b for _, b in tracer.buckets]
    n = max(1, len(units))

    def mean(key: str) -> float:
        return sum(b.get(key, 0.0) for b in units) / n

    def per_call(name: str) -> float:
        calls = sum(b.get(name + ".calls", 0.0) for b in everything)
        return sum(b.get(name + ".total", 0.0) for b in everything) / calls if calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    for kind in OP_KINDS:
        m[f"ops.{kind}.fwd_s"] = (mean(f"ops.{kind}.fwd.self"), "s")
        m[f"ops.{kind}.bwd_s"] = (mean(f"ops.{kind}.bwd.self"), "s")
    unit_s = mean("_wall")
    bilstm = m["ops.bilstm_layer.fwd_s"][0] + m["ops.bilstm_layer.bwd_s"][0]
    m["ops.bilstm_layer.share"] = (bilstm / unit_s if unit_s else 0.0, "ratio")
    m["ops.calls"] = (mean("ops.calls"), "count")
    m["ops.backward_closures"] = (mean("ops.backward_closures"), "count")
    m["tensor.backward_s"] = (mean("tensor.backward.total"), "s")
    m["tensor.backward_self_s"] = (mean("tensor.backward.self"), "s")
    for name in ("sepnet.forward", "sepnet.separate", "sepnet.stage0.forward", "sepnet.stage1.forward"):
        m[name + "_s"] = (mean(name + ".total"), "s")
    m["sepnet.separate_traced_peak_mb"] = (traced_peak_mib, "MiB")
    for name in ("multi_stage_loss_graph", "id_loss_graph", "pit_loss", "si_sdri"):
        m[f"objectives.{name}_s"] = (mean(f"objectives.{name}.total"), "s")
    m["idnet.embed_segments_graph_s"] = (mean("idnet.embed_segments_graph.total"), "s")
    m["optim.clip_global_norm_s"] = (mean("optim.clip_global_norm.total"), "s")
    m["optim.adam_step_s"] = (mean("optim.adam_step.total"), "s")
    m["pipeline.data.load_example_s"] = (mean("pipeline.data.load_example.total"), "s")
    m["audio.irm_separate_s"] = (mean("audio.irm_separate.total"), "s")

    # Once per run_phase call (train) or once per run (eval).
    m["pipeline.train.init_s"] = (per_call("pipeline.train.init"), "s")
    tails = [b for label, b in tracer.buckets if label == "tail" and "_first_save" in b]
    dev = [b["_first_save"] - b["_start"] for b in tails]
    m["pipeline.train.dev_pass_s"] = (sum(dev) / len(dev) if dev else 0.0, "s")
    m["checkpoint.save_container_s"] = (per_call("checkpoint.save_container"), "s")
    saves = sum(b.get("checkpoint.save_container.calls", 0.0) for b in everything)
    written = sum(b.get("checkpoint.save_container.bytes", 0.0) for b in everything)
    m["checkpoint.save_container_mb"] = (written / saves / 2**20 if saves else 0.0, "MiB")
    m["checkpoint.load_container_s"] = (per_call("checkpoint.load_container"), "s")

    # Coverage of the traced unit by op self time, backward engine and optimizer.
    attributed = sum(m[f"ops.{k}.fwd_s"][0] + m[f"ops.{k}.bwd_s"][0] for k in OP_KINDS)
    attributed += m["tensor.backward_self_s"][0] + m["optim.adam_step_s"][0] + m["optim.clip_global_norm_s"][0]
    m["trace.unit_s"] = (unit_s, "s")
    m["trace.unattributed_s"] = (unit_s - attributed, "s")
    m["trace.coverage"] = (attributed / unit_s if unit_s else 0.0, "ratio")

    # Overhead: traced minus untraced medians, measured in the same process.
    step_overhead = rtf_overhead = 0.0
    if unit == "step":
        # Traced step intervals, without each call's first step (as untraced).
        walls, previous = [], None
        for label, b in tracer.buckets:
            if label == "step" and previous == "step":
                walls.append(b["_wall"])
            previous = label
        step_overhead = p50(walls) - p50(loop.intervals)
    else:
        sep = [b.get("sepnet.separate.total", 0.0) for b in units]
        rtf_overhead = p50(sep) / audio_s - p50(loop.rtf)
    m["trace.overhead.train_step_s"] = (step_overhead, "s")
    m["trace.overhead.separate_rtf"] = (rtf_overhead, "ratio")
    m["trace.units"] = (float(len(units)), "count")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# reference values recorded for the default seed
# ---------------------------------------------------------------------------


def check_reference(tally: Tally, workload: str, outputs: dict) -> None:
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    for key, want in recorded.items():
        got = outputs.get(key)
        if isinstance(want, dict):
            for utt, value in (got or {}).items():
                tally.check(
                    f"{key}[{utt}] matches the recorded value",
                    utt in want and abs(value - want[utt]) <= REFERENCE_TOL_DB,
                    f"{value!r} vs {want.get(utt)!r}",
                )
        else:
            tally.check(
                f"{key} matches the recorded value",
                got is not None and abs(got - want) <= REFERENCE_TOL_DB,
                f"{got!r} vs {want!r}",
            )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(args) -> dict:
    scale = SCALES[args.scale]
    work = Path(args.work_dir)
    tally = Tally()
    reps = 1 if args.trace else scale.setup_reps
    if args.workload == "train-1s":
        ctx, setup_times = run_setups(setup_train, scale, args.seed, work, reps)
        loop = TrainLoop(scale, args.seed, ctx["root"], tally)
    else:
        ctx, setup_times = run_setups(setup_eval, scale, args.seed, work, reps)
        loop = EvalLoop(ctx, tally)

    result: dict = {}
    if args.trace:
        tracer = Tracer()
        peak = 0.0
        if args.workload == "eval-4s":
            peak = loop.separate_peak_mib()
            tracer.install()
            load_sep_checkpoint(ctx["root"] / "sep_init.ckpt")  # measured once
            tracer.cut("load")
            tracer.restore()
        trace(loop, args.seconds, tracer)
        audio_s = scale.train_s if args.workload == "train-1s" else scale.eval_s
        result["per_layer"] = per_layer(tracer, loop, audio_s, peak)
    else:
        measure(loop, args.seconds)
        e2e = loop.end_to_end()
        e2e["setup_s"] = p50(setup_times)
        e2e["setup_samples"] = len(setup_times)
        e2e["peak_rss_mb"] = peak_rss_mib()
        result["end_to_end"] = e2e

    outputs = loop.outputs()
    if args.scale == "full" and args.seed == 0:
        check_reference(tally, args.workload, outputs)
    result.update(attempted=tally.attempted, failed=tally.failed, failed_checks=tally.checks, outputs=outputs)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train-1s", "eval-4s"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=sorted(SCALES), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
