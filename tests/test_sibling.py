"""The forked helper that runs a BiLSTM half's right-to-left direction: the
forward of every half, and the BPTT of a recorded one, whose weight grads
it forms after its dx reply and hands over when the caller settles. A
helper that dies leaves the job in flight to the caller, which runs it on
the arena with the helper's own function; one that cannot be forked, or
whose arena cannot grow, leaves the half serial. Either way the bits are
the serial path's.

Each test that uses the helper pins BLAS to one thread, which enables it,
and asserts that a helper exists afterwards, so a helper that is silently
never used fails it.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tastas.errors import ConfigError
from tastas.numerics import ops, sibling
from tastas.numerics.tensor import Tensor, no_grad
from tastas.pipeline import TrainConfig, run_phase, synth_mixture_corpus
from tastas.pipeline.evaluate import evaluate
from tastas.sepnet import TasTasModel, parse_preset

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "memfd_create") or len(os.sched_getaffinity(0)) < 2, reason="the helper needs two CPUs"
)


@pytest.fixture
def fresh(monkeypatch):
    """No helper yet, BLAS unpinned; the helper a test forks is ended after it."""
    monkeypatch.setattr(sibling, "_helper", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    yield monkeypatch
    if sibling._helper is not None:
        sibling._helper.close()


def _helper_pid():
    assert sibling._helper is not None and sibling._helper.pid is not None
    os.kill(sibling._helper.pid, 0)  # it exists
    return sibling._helper.pid


def _half_inputs(rng, dtype, features=6, hidden=5, steps=7, chunks=4):
    shapes = [(4 * hidden, features), (4 * hidden, hidden), (4 * hidden,)] * 2
    shapes += [(features, 2 * hidden), (features, 1, 1), (features, 1, 1)]
    x = Tensor(rng.standard_normal((features, steps, chunks)).astype(dtype))
    return x, [Tensor(rng.uniform(-0.5, 0.5, shape).astype(dtype)) for shape in shapes]


def _half(x, weights, axis):
    with no_grad():
        return ops.bilstm_layer(x, axis, *weights).data


def _recorded_half(x, weights, axis):
    """The output of a recorded half, then the grads of its chunks and all
    nine weights under a fixed upstream grad."""
    x = Tensor(x.data, requires_grad=True)
    weights = [Tensor(w.data, requires_grad=True) for w in weights]
    out = ops.bilstm_layer(x, axis, *weights)
    value = out.data.copy()
    out.backward(np.random.default_rng(9).standard_normal(out.shape))
    return [value] + [t.grad for t in (x, *weights)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, 2])
def test_half_on_the_helper_is_byte_equal_to_the_serial_half(fresh, dtype, axis):
    x, weights = _half_inputs(np.random.default_rng(axis), dtype)
    serial = _half(x, weights, axis)
    assert sibling._helper is None
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = _half(x, weights, axis)
    _helper_pid()
    assert shared.dtype == serial.dtype and shared.tobytes() == serial.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, 2])
def test_recorded_half_on_the_helper_is_byte_equal_to_the_serial_half(fresh, dtype, axis):
    x, weights = _half_inputs(np.random.default_rng(10 + axis), dtype)
    serial = _recorded_half(x, weights, axis)
    assert sibling._helper is None
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = _recorded_half(x, weights, axis)
    _helper_pid()
    assert len(shared) == 11 and all(a.dtype == dtype for a in shared)
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in serial]


def _recorded_chain(x, weights, axis, halves=3):
    """The grads, read as soon as backward() returns, of the chunks and the
    weights of a chain of recorded halves that alternate the recurrence axis."""
    x = Tensor(x.data, requires_grad=True)
    rng = np.random.default_rng(20)
    stack = [[Tensor(w.data + rng.uniform(-0.1, 0.1, w.shape).astype(w.dtype), requires_grad=True) for w in weights]]
    stack += [[Tensor(w.data, requires_grad=True) for w in weights] for _ in range(halves - 1)]
    out = x
    for k, layer in enumerate(stack):
        out = ops.bilstm_layer(out, axis if k % 2 == 0 else 3 - axis, *layer)
    out.backward(np.random.default_rng(9).standard_normal(out.shape))
    grads = [t.grad.tobytes() for t in (x, *(w for layer in stack for w in layer))]
    assert sibling._helper is None or sibling._helper.pending is None
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, 2])
def test_a_recorded_chain_on_the_helper_has_every_grad_when_backward_returns(fresh, dtype, axis):
    x, weights = _half_inputs(np.random.default_rng(30 + axis), dtype)
    serial = _recorded_chain(x, weights, axis)
    assert sibling._helper is None
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = _recorded_chain(x, weights, axis)
    _helper_pid()
    assert len(shared) == 1 + 3 * 9 and shared == serial


def _failed_backward(x, weights, seed):
    """The weight grads of a backward that raises part-way: its graph
    shares a prefix with one that backward() has already consumed."""
    x = Tensor(x.data, requires_grad=True)
    weights = [Tensor(w.data, requires_grad=True) for w in weights]
    y = ops.mul(x, ops.const(x.data.dtype.type(2.0)))
    ops.bilstm_layer(y, 1, *weights).backward(seed)
    for w in weights:
        w.grad = None
    with pytest.raises(ConfigError, match="already consumed"):
        ops.bilstm_layer(y, 2, *weights).backward(seed)
    return [w.grad.tobytes() for w in weights]


def test_a_backward_that_raises_part_way_leaves_nothing_pending(fresh):
    x, weights = _half_inputs(np.random.default_rng(40), np.float32)
    seed = np.random.default_rng(41).standard_normal(x.shape)
    serial = _failed_backward(x, weights, seed), _half(x, weights, 1)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = _failed_backward(x, weights, seed)
    pid = _helper_pid()
    assert sibling._helper.pending is None
    assert shared == serial[0]
    assert _half(x, weights, 1).tobytes() == serial[1].tobytes() and _helper_pid() == pid


def test_helper_sleeps_once_the_spin_bound_has_passed(fresh):
    if not os.path.exists(f"/proc/{os.getpid()}/stat"):
        pytest.skip("no /proc to read the helper's state from")
    x, weights = _half_inputs(np.random.default_rng(7), np.float32)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    _half(x, weights, 1)
    pid = _helper_pid()
    time.sleep(sibling.SPIN_S + 0.5)
    with open(f"/proc/{pid}/stat") as stat:
        state = stat.read().rsplit(")", 1)[1].split()[0]
    assert state == "S"  # blocked in its read, not polling


def test_a_larger_half_grows_the_arena_and_stays_byte_equal(fresh):
    rng = np.random.default_rng(3)
    small, large = _half_inputs(rng, np.float32), _half_inputs(rng, np.float32, steps=30, chunks=20)
    serial = [_half(*inputs, 1) for inputs in (small, large)]
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = [_half(*small, 1)]
    pid, size = _helper_pid(), sibling._helper.size
    shared.append(_half(*large, 1))
    assert sibling._helper.size > size and _helper_pid() == pid
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in serial]


def test_a_process_forked_from_the_caller_forks_its_own_helper(fresh):
    x, weights = _half_inputs(np.random.default_rng(6), np.float32)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    expected = _half(x, weights, 1).tobytes()
    pid = _helper_pid()
    r, w = os.pipe()
    child = os.fork()
    if child == 0:  # never returns into pytest
        try:
            inherited = sibling._helper
            same = _half(x, weights, 1).tobytes() == expected
            own = sibling._helper.pid
            sibling._helper.close()
            os.write(w, b"1" if inherited is None and same and own != pid else b"0")
        finally:
            os._exit(0)
    os.close(w)
    answer = os.read(r, 1)
    os.close(r)
    os.waitpid(child, 0)
    assert answer == b"1"
    assert _half(x, weights, 1).tobytes() == expected and _helper_pid() == pid


def _tiny_model():
    return TasTasModel.initialize(parse_preset("tastas-2-2", num_filters=16, hidden_size=16, chunk_len=10), seed=0)


def test_separate_on_the_helper_is_byte_equal(fresh):
    model = _tiny_model()
    mix = np.random.default_rng(4).uniform(-0.5, 0.5, 4000)
    serial = model.separate(mix)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    shared = model.separate(mix)
    _helper_pid()
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in serial]


@pytest.mark.parametrize("setting", [None, "2"])
def test_no_helper_while_blas_is_unpinned(fresh, setting):
    if setting:
        fresh.setenv("OPENBLAS_NUM_THREADS", setting)
    x, weights = _half_inputs(np.random.default_rng(5), np.float32)
    _half(x, weights, 1)
    assert sibling._helper is None


def test_no_helper_for_eval_worker_threads(fresh, tmp_path):
    # two records are scored on worker threads, which fork no helper; one
    # record is scored on the calling thread, which does
    records = synth_mixture_corpus(tmp_path, "test", 2, 4, 0.5, 0, 5, seed=8)
    model = _tiny_model()
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    assert "ERROR" not in evaluate(model, records, include_irm=False).table("tiny")
    assert sibling._helper is None
    assert "ERROR" not in evaluate(model, records[:1], include_irm=False).table("tiny")
    _helper_pid()


# -- lifetime: a separating process and its helper --------------------------------------

SEPARATE = """
import os, signal, sys
import numpy as np
from tastas.numerics import sibling
from tastas.sepnet import TasTasModel, parse_preset

model = TasTasModel.initialize(parse_preset("tastas-1-1", num_filters=8, hidden_size=8, chunk_len=10), seed=0)
mix = np.random.default_rng(0).uniform(-0.5, 0.5, 4000)
first = model.separate(mix)
print(sibling._helper.pid, flush=True)
if sys.argv[1] == "signal-helper":
    os.kill(sibling._helper.pid, getattr(signal, sys.argv[2]))
    again = model.separate(mix)
    print([a.tobytes() for a in again] == [a.tobytes() for a in first], sibling._helper.pid, flush=True)
elif sys.argv[1] == "wait":
    sys.stdin.read()
"""

# Forward a recorded half on the helper, SIGKILL the helper, then run the
# backward; prints whether the grads equal those of the serial path and the
# helper's pid after it (None: no new helper was forked).
KILL_BEFORE_BACKWARD = """
import os, signal
import numpy as np
from tastas.errors import ConfigError
from tastas.numerics import ops, sibling
from tastas.numerics.tensor import Tensor

def grads(kill):
    rng = np.random.default_rng(0)
    shapes = [(64, 8, 6), (32, 64), (32, 8), (32,), (32, 64), (32, 8), (32,), (64, 16), (64, 1, 1), (64, 1, 1)]
    tensors = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32), requires_grad=True) for shape in shapes]
    out = ops.bilstm_layer(tensors[0], 1, *tensors[1:])
    if kill:
        pid = sibling._helper.pid
        os.kill(pid, signal.SIGKILL)
    out.backward(rng.standard_normal(out.shape).astype(np.float32))
    return [t.grad.tobytes() for t in tensors], (pid if kill else None)

usable_cpus, sibling.usable_cpus = sibling.usable_cpus, lambda: 1
serial, _ = grads(False)
assert sibling._helper is None
sibling.usable_cpus = usable_cpus
killed, pid = grads(True)
print(pid, killed == serial, sibling._helper.pid, flush=True)
"""

# Runs a recorded chain of halves whose helper SIGKILLs itself after its
# first dx reply, when it starts on the weight grads; prints the helper's
# pid, whether every grad equals the serial path's, whether a settle found
# the weight grads still owed, and the helper's pid after (None: no new
# helper was forked).
KILL_BEFORE_WEIGHT_GRADS = """
import os, signal, sys
import numpy as np
from tastas.numerics import ops, sibling
from tastas.numerics.tensor import Tensor

caller = os.getpid()
weight_grads = ops._lstm_weight_grads

def dying(*args):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return weight_grads(*args)

ops._lstm_weight_grads = dying
owed = []
settle = sibling._Helper.settle

def watched(self):
    owed.append(self.pending is not None)
    settle(self)

sibling._Helper.settle = watched

def grads():
    rng = np.random.default_rng(0)
    shapes = [(64, 8, 6)] + [(32, 64), (32, 8), (32,), (32, 64), (32, 8), (32,), (64, 16), (64, 1, 1), (64, 1, 1)] * 2
    tensors = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32), requires_grad=True) for shape in shapes]
    out = tensors[0]
    for k in range(int(sys.argv[1])):
        out = ops.bilstm_layer(out, 1 + k, *tensors[1 + 9 * k : 10 + 9 * k])
    pid = sibling._helper.pid if sibling._helper else None
    out.backward(rng.standard_normal(out.shape).astype(np.float32))
    return [t.grad.tobytes() for t in tensors if t.grad is not None], pid

usable_cpus, sibling.usable_cpus = sibling.usable_cpus, lambda: 1
serial, _ = grads()
assert sibling._helper is None
sibling.usable_cpus = usable_cpus
killed, pid = grads()
print(pid, killed == serial, any(owed), sibling._helper.pid, flush=True)
"""

# Runs SEPARATE "wait", SIGKILLs it, and waits up to 2 s for the orphaned
# helper. As a child subreaper it receives the orphan, so it can tell the
# helper's exit apart from a zombie, and reap it either way.
ORPHAN = """
import ctypes, os, signal, subprocess, sys, time

ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
caller = subprocess.Popen(
    [sys.executable, "-c", sys.argv[1], "wait"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
)
pid = int(caller.stdout.readline())
caller.kill()
caller.wait()
deadline = time.monotonic() + 2.0
while os.waitpid(pid, os.WNOHANG)[0] != pid:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        print("left running")
        break
    time.sleep(0.01)
else:
    print("gone")
"""


def _run(code, *args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.split()


def test_helper_is_reaped_when_its_caller_exits():
    (pid,) = _run(SEPARATE, "exit")
    # the caller reaps it on its way out; a helper left to notice EOF on its
    # own would outlive the caller's exit
    assert not os.path.exists(f"/proc/{pid}")


def test_helper_exits_when_its_caller_is_killed():
    assert _run(ORPHAN, SEPARATE) == ["gone"]


@pytest.mark.parametrize("signame", ["SIGKILL", "SIGINT"])  # SIGINT: a Ctrl-C ends it with no traceback
def test_a_killed_helper_leaves_the_next_separate_serial_and_byte_equal(signame):
    pid, equal, after = _run(SEPARATE, "signal-helper", signame)
    assert (equal, after) == ("True", "None")
    assert not os.path.exists(f"/proc/{pid}")  # reaped when the caller found it dead


def test_a_helper_killed_before_a_backward_leaves_it_serial_and_byte_equal():
    pid, equal, after = _run(KILL_BEFORE_BACKWARD)
    assert (equal, after) == ("True", "None")
    assert not os.path.exists(f"/proc/{pid}")  # reaped when the caller found it dead


@pytest.mark.parametrize("halves", [1, 2])  # settled at the end of backward(), or by the next half's request
def test_a_helper_killed_before_its_weight_grads_leaves_them_to_the_caller_byte_equal(halves):
    pid, equal, owed, after = _run(KILL_BEFORE_WEIGHT_GRADS, str(halves))
    assert (equal, owed, after) == ("True", "True", "None")
    assert not os.path.exists(f"/proc/{pid}")  # reaped when the caller found it dead


# -- fallbacks in this process: the caller runs the job, or the half, itself ------------


def _forks(monkeypatch, fail=False):
    """Counts this process's os.fork calls from now on; with fail, each raises."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        if fail:
            raise OSError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def test_a_helper_killed_before_a_recorded_forward_leaves_it_to_the_caller_byte_equal(fresh):
    if not os.path.exists(f"/proc/{os.getpid()}/stat"):
        pytest.skip("no /proc to see the helper die in")
    x, weights = _half_inputs(np.random.default_rng(50), np.float32)
    serial = _recorded_half(x, weights, 2)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    _half(x, weights, 1)
    pid = _helper_pid()
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while (state := Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]) != "Z":
        assert time.monotonic() < deadline, state
        time.sleep(0.01)
    forks, served, serve_run = _forks(fresh), [], sibling._serve_run

    def watched(views, keep_cache):
        served.append(keep_cache)
        serve_run(views, keep_cache)

    fresh.setattr(sibling, "_serve_run", watched)
    shared = _recorded_half(x, weights, 2)
    assert served == [True]  # the recorded forward the helper never took ran here, through its own function
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in serial]
    assert sibling._helper.pid is None and forks == []
    assert not os.path.exists(f"/proc/{pid}")  # reaped when the caller found it dead


def test_an_arena_that_cannot_grow_leaves_the_half_serial_and_byte_equal(fresh):
    rng = np.random.default_rng(51)
    small, large = _half_inputs(rng, np.float32), _half_inputs(rng, np.float32, steps=30, chunks=20)
    serial = _half(*small, 1), _recorded_half(*large, 1)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _half(*small, 1).tobytes() == serial[0].tobytes()
    pid, forks, tried = _helper_pid(), _forks(fresh), []

    def refused(fd, size):
        tried.append(size)
        raise OSError("no room")

    fresh.setattr(os, "ftruncate", refused)
    shared = _recorded_half(*large, 1)
    assert len(tried) == 1 and tried[0] > sibling._helper.size
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in serial[1]]
    assert sibling._helper.pid is None and forks == []
    assert not os.path.exists(f"/proc/{pid}")  # reaped when the arena could not grow


def test_a_fork_that_fails_leaves_every_half_serial_and_no_descriptor_open(fresh):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc to count descriptors in")
    x, weights = _half_inputs(np.random.default_rng(52), np.float32)
    serial = _recorded_half(x, weights, 1), _half(x, weights, 2)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    forks, before = _forks(fresh, fail=True), len(os.listdir("/proc/self/fd"))
    shared = _recorded_half(x, weights, 1), _half(x, weights, 2)
    assert len(os.listdir("/proc/self/fd")) == before
    assert [a.tobytes() for a in shared[0]] == [a.tobytes() for a in serial[0]]
    assert shared[1].tobytes() == serial[1].tobytes()
    assert sibling._helper.pid is None and len(forks) == 1  # tried once, at the first half


# -- training ---------------------------------------------------------------------------


def _epoch_checkpoints(fresh, tmp_path, batch_size):
    """last.ckpt of one training epoch on the helper, and of the same epoch run serially."""
    root = tmp_path / "corpus"
    for split in ("train", "dev"):
        synth_mixture_corpus(root, split, 2, 4, 0.5, 0, 5, seed=8)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")

    def last_checkpoint(name):
        config = TrainConfig(
            phase="sep",
            epochs_max=1,
            batch_size=batch_size,
            model="tastas-2-2",
            num_filters=8,
            hidden_size=8,
            chunk_len=10,
            seed=3,
            train_manifest=str(root / "train.tsv"),
            dev_manifest=str(root / "dev.tsv"),
            out_dir=str(tmp_path / name),
        )
        run_phase(config)
        return (tmp_path / name / "last.ckpt").read_bytes()

    shared = last_checkpoint("shared")
    _helper_pid()
    fresh.setattr(sibling, "usable_cpus", lambda: 1)
    return shared, last_checkpoint("serial")


def test_a_training_epoch_on_the_helper_writes_the_serial_checkpoint(fresh, tmp_path):
    shared, serial = _epoch_checkpoints(fresh, tmp_path, batch_size=1)
    assert serial == shared


def test_a_batch_of_two_on_the_helper_writes_the_serial_checkpoint(fresh, tmp_path):
    # two backward() calls accumulate into each .grad before the step
    shared, serial = _epoch_checkpoints(fresh, tmp_path, batch_size=2)
    assert serial == shared
