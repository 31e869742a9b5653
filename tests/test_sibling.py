"""The forked helper that runs a no-grad BiLSTM half's right-to-left direction.

Each test that uses the helper pins BLAS to one thread, which enables it,
and asserts that a helper exists afterwards, so a helper that is silently
never used fails it.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tastas.numerics import ops, sibling
from tastas.numerics.tensor import Tensor, no_grad
from tastas.pipeline import synth_mixture_corpus
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
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TASTAS_THREADS"):
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
    records = synth_mixture_corpus(tmp_path, "test", 2, 4, 0.5, 0, 5, seed=8)
    fresh.setenv("OPENBLAS_NUM_THREADS", "1")
    fresh.setenv("TASTAS_THREADS", "2")
    assert "ERROR" not in evaluate(_tiny_model(), records, include_irm=False).table("tiny")
    assert sibling._helper is None


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
    env.pop("TASTAS_THREADS", None)
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
