"""Objective functions: hand-computed cases, invariances, and the
brute-force assignment oracle (implemented independently in this file)."""

import gc
import math
from itertools import permutations

import numpy as np
import pytest

from tastas import objectives as obj
from tastas.errors import DataError
from tastas.numerics import ops
from tastas.numerics.tensor import Tensor
from tastas.sepnet import TasTasModel, parse_preset


def _oracle_si_sdr(target, estimate):
    """Reference implementation, written from the definition."""
    x = np.asarray(target, dtype=np.float64)
    s = np.asarray(estimate, dtype=np.float64)
    x = x - x.mean()
    s = s - s.mean()
    proj = (np.dot(x, s) / np.dot(x, x)) * x
    err = proj - s
    num = np.dot(proj, proj)
    return 10.0 * math.log10(num / (np.dot(err, err) + 1e-12 * num))


def _oracle_best_perm(targets, estimates):
    best, best_perm = -np.inf, None
    for perm in permutations(range(len(targets))):
        mean = np.mean([_oracle_si_sdr(targets[perm[i]], estimates[i]) for i in range(len(targets))])
        if mean > best:
            best, best_perm = mean, perm
    return best_perm, best


def test_hand_computed_case():
    x = np.array([1.0, 0.0, -1.0, 0.0])
    s = np.array([0.9, 0.1, -0.9, -0.1])
    assert obj.si_sdr(x, s) == pytest.approx(10 * math.log10(81), abs=1e-3)
    assert obj.si_sdr(x, s) == pytest.approx(19.085, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_scale_invariance(alpha):
    rng = np.random.default_rng(0)
    x, s = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)
    assert obj.si_sdr(x, alpha * s) == pytest.approx(obj.si_sdr(x, s), abs=1e-9)


def test_offset_invariance_after_mean_subtraction():
    rng = np.random.default_rng(1)
    x, s = rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)
    assert obj.si_sdr(x, s + 0.37) == pytest.approx(obj.si_sdr(x, s), abs=1e-9)


def test_perfect_estimate_hits_cap():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 500)
    assert obj.si_sdr(x, x) >= 119.0


def test_silent_target_errors():
    with pytest.raises(DataError):
        obj.si_sdr(np.zeros(100), np.ones(100))


@pytest.mark.parametrize(
    "estimate",
    [np.zeros(100), np.full(100, 0.3), np.tile([1.0, 0.0, -1.0, 0.0], 25)],
    ids=["zero", "constant", "orthogonal"],
)
def test_estimate_without_projection_is_a_data_error(estimate):
    # 0/0 for a constant estimate, log(0) for an orthogonal one
    target = np.tile([0.0, 1.0, 0.0, -1.0], 25)
    with pytest.raises(DataError, match="no projection"):
        obj.si_sdr(target, estimate)
    with pytest.raises(DataError, match="no projection"):
        obj.si_sdr_graph(target, Tensor(estimate.astype(np.float32), requires_grad=True))


def test_graph_loss_on_zero_estimates_is_a_data_error():
    rng = np.random.default_rng(3)
    targets = [rng.uniform(-1, 1, 64) for _ in range(2)]
    with pytest.raises(DataError, match="no projection"):
        obj.pit_loss_graph(targets, [Tensor(np.zeros(64)), Tensor(np.zeros(64))])


def test_graph_and_value_paths_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, s = rng.uniform(-1, 1, 150), rng.uniform(-1, 1, 150)
        g = obj.si_sdr_graph(x, Tensor(s))
        assert float(g.data) == pytest.approx(obj.si_sdr(x, s), abs=1e-9)


def test_si_sdr_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x, s = rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60)
    est = Tensor(s.copy(), requires_grad=True)
    obj.si_sdr_graph(x, est).backward()
    h = 1e-6
    for j in range(0, 60, 7):
        sp, sm = s.copy(), s.copy()
        sp[j] += h
        sm[j] -= h
        numeric = (obj.si_sdr(x, sp) - obj.si_sdr(x, sm)) / (2 * h)
        assert est.grad[j] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


# -- assignment search -----------------------------------------------------------


def test_identity_and_swap_permutations():
    rng = np.random.default_rng(5)
    t1, t2 = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    loss_id, res_id = obj.pit_loss([t1, t2], [t1, t2])
    assert res_id.perm == (0, 1)
    loss_swap, res_swap = obj.pit_loss([t1, t2], [t2, t1])
    assert res_swap.perm == (1, 0)
    assert loss_swap == pytest.approx(loss_id, abs=1e-9)


@pytest.mark.parametrize("speakers", [2, 3])
def test_matches_brute_force_oracle(speakers):
    rng = np.random.default_rng(6)
    for _ in range(25):
        targets = [rng.uniform(-1, 1, 80) for _ in range(speakers)]
        estimates = [rng.uniform(-1, 1, 80) for _ in range(speakers)]
        loss, res = obj.pit_loss(targets, estimates)
        oracle_perm, oracle_mean = _oracle_best_perm(targets, estimates)
        assert res.perm == oracle_perm
        assert -loss == pytest.approx(oracle_mean, abs=1e-9)
        matched = [_oracle_si_sdr(targets[res.perm[i]], estimates[i]) for i in range(speakers)]
        assert res.mean_si_sdr == pytest.approx(np.mean(matched), abs=1e-9)


@pytest.mark.parametrize("speakers", [2, 3])
def test_maximality_over_all_fixed_permutations(speakers):
    rng = np.random.default_rng(7)
    targets = [rng.uniform(-1, 1, 90) for _ in range(speakers)]
    estimates = [rng.uniform(-1, 1, 90) for _ in range(speakers)]
    loss, _ = obj.pit_loss(targets, estimates)
    for perm in permutations(range(speakers)):
        fixed = -np.mean([obj.si_sdr(targets[perm[i]], estimates[i]) for i in range(speakers)])
        assert loss <= fixed + 1e-12


def test_cardinality_mismatch_errors():
    with pytest.raises(DataError):
        obj.pit_loss([np.ones(10)], [np.ones(10), np.ones(10)])


def test_graph_pit_agrees_with_value_pit():
    rng = np.random.default_rng(8)
    targets = [rng.uniform(-1, 1, 120) for _ in range(2)]
    estimates = [rng.uniform(-1, 1, 120) for _ in range(2)]
    loss_v, res_v = obj.pit_loss(targets, estimates)
    loss_g, res_g = obj.pit_loss_graph(targets, [Tensor(e, requires_grad=True) for e in estimates])
    assert res_g.perm == res_v.perm
    assert float(loss_g.data) == pytest.approx(loss_v, abs=1e-9)


def _all_pairs_pit_loss_graph(targets, estimates):
    """All-pairs oracle: records every one of the n^2 pair graphs and searches
    on their float32 values."""
    n = len(targets)
    pair, values = {}, np.empty((n, n))
    for i in range(n):
        for j in range(n):
            pair[(i, j)] = obj.si_sdr_graph(targets[j], estimates[i])
            values[i, j] = float(pair[(i, j)].data)
    best_perm, best_mean = None, -np.inf
    for perm in permutations(range(n)):
        mean = float(np.mean([values[i, perm[i]] for i in range(n)]))
        if mean > best_mean:
            best_perm, best_mean = perm, mean
    total = pair[(0, best_perm[0])]
    for i in range(1, n):
        total = ops.add(total, pair[(i, best_perm[i])])
    return ops.neg(ops.mul(total, ops.const(1.0 / n, dtype=total.dtype))), best_perm


@pytest.mark.parametrize(
    "speakers, tie",
    [(2, False), (3, False), pytest.param(2, True, id="identical-estimates")],
)
def test_graph_pit_bytes_match_the_all_pairs_loop(speakers, tie):
    rng = np.random.default_rng(18)
    for _ in range(5):
        targets = [rng.uniform(-1, 1, 160) for _ in range(speakers)]
        samples = [rng.uniform(-1, 1, 160).astype(np.float32) for _ in range(speakers)]
        if tie:
            samples = [samples[0]] * speakers
        ours = [Tensor(s.copy(), requires_grad=True) for s in samples]
        theirs = [Tensor(s.copy(), requires_grad=True) for s in samples]
        loss, result = obj.pit_loss_graph(targets, ours)
        ref_loss, ref_perm = _all_pairs_pit_loss_graph(targets, theirs)
        assert result.perm == ref_perm
        if tie:
            assert result.perm == tuple(range(speakers))
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        loss.backward()
        ref_loss.backward()
        for a, b in zip(ours, theirs, strict=True):
            assert a.grad.tobytes() == b.grad.tobytes()


@pytest.mark.parametrize("speakers", [2, 3])
def test_graph_pit_records_only_the_winning_pairs(speakers, monkeypatch):
    calls = []
    log = ops.log

    def recorded_log(x):
        # the PIT search scores every pair with ops too, but records no node
        out = log(x)
        if out.requires_grad:
            calls.append(out)
        return out

    monkeypatch.setattr(ops, "log", recorded_log)
    rng = np.random.default_rng(19)
    targets = [rng.uniform(-1, 1, 100) for _ in range(speakers)]
    estimates = [Tensor(rng.uniform(-1, 1, 100), requires_grad=True) for _ in range(speakers)]
    obj.pit_loss_graph(targets, estimates)
    assert len(calls) == speakers


def test_backpropagated_step_leaves_no_cycles():
    """Every recorded node is reached by backward(), which frees it; a node left
    off the loss's graph would keep its backward closure in a reference cycle."""
    model = TasTasModel.initialize(parse_preset("tastas-1-1", num_filters=8, hidden_size=8, chunk_len=10), seed=0)
    rng = np.random.default_rng(20)
    targets = [rng.uniform(-1, 1, 800) for _ in range(2)]
    mixture = targets[0] + targets[1]
    gc.collect()
    gc.disable()
    try:
        loss, _ = obj.multi_stage_loss_graph(model.forward(mixture), targets)
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unused_recorded_graph_leaves_no_cycles():
    """No node's backward refers to its own output, so a recorded forward, its
    loss and a speaker embedding, dropped without a backward, are freed by
    reference counting alone."""
    from tastas.idnet import IdNet, IdNetConfig

    model = TasTasModel.initialize(parse_preset("tastas-1-1", num_filters=8, hidden_size=8, chunk_len=10), seed=0)
    config = IdNetConfig(num_speakers=2, segment_s=0.06, window_len=64, hop=16, conv_channels=(4, 8), embedding_dim=8)
    idnet = IdNet.initialize(config, seed=0).freeze()
    rng = np.random.default_rng(21)
    targets = [rng.uniform(-1, 1, 1100) for _ in range(2)]
    gc.collect()
    gc.disable()
    try:
        stages = model.forward(targets[0] + targets[1])
        loss, _ = obj.multi_stage_loss_graph(stages, targets)
        embedding = idnet.embed_segments_graph(stages[-1][0])
        assert loss.requires_grad and embedding.requires_grad
        del stages, loss, embedding
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- multi-stage averaging ---------------------------------------------------------


def _graph_stages(*stages):
    return [[Tensor(e, requires_grad=True) for e in stage] for stage in stages]


def test_single_stage_equals_pit_loss():
    rng = np.random.default_rng(9)
    targets = [rng.uniform(-1, 1, 100) for _ in range(2)]
    estimates = [rng.uniform(-1, 1, 100) for _ in range(2)]
    total, breakdown = obj.multi_stage_loss_graph(_graph_stages(estimates), targets)
    direct, result = obj.pit_loss(targets, estimates)
    assert float(total.data) == pytest.approx(direct, abs=1e-9)
    assert np.mean(breakdown.per_stage_neg_si_sdr) == float(total.data)
    assert breakdown.per_stage_perms[0].perm == result.perm


def test_two_stage_mean():
    rng = np.random.default_rng(10)
    targets = [rng.uniform(-1, 1, 100) for _ in range(2)]
    clean = [t.copy() for t in targets]
    noisy = [t + rng.uniform(-0.5, 0.5, 100) for t in targets]
    total, breakdown = obj.multi_stage_loss_graph(_graph_stages(noisy, clean), targets)
    assert float(total.data) == pytest.approx(np.mean(breakdown.per_stage_neg_si_sdr), abs=1e-12)
    for stage_loss, estimates in zip(breakdown.per_stage_neg_si_sdr, (noisy, clean), strict=True):
        assert stage_loss == pytest.approx(obj.pit_loss(targets, estimates)[0], abs=1e-9)
    assert len(breakdown.per_stage_perms) == 2


def test_stage_mean_of_known_losses():
    # t1 and t2 are zero-mean, orthogonal and of equal power, so t1 + a * t2 has
    # SI-SDR -20 log10(a) against t1; stages at 10 and 14 dB average to a loss of -12
    t1, t2 = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])

    def stage(db):
        a = 10.0 ** (-db / 20.0)
        return [t1 + a * t2, t2 + a * t1]

    total, breakdown = obj.multi_stage_loss_graph(_graph_stages(stage(10.0), stage(14.0)), [t1, t2])
    assert breakdown.per_stage_neg_si_sdr == pytest.approx([-10.0, -14.0], abs=1e-9)
    assert float(total.data) == pytest.approx(-12.0, abs=1e-9)


def test_stages_may_choose_different_permutations():
    rng = np.random.default_rng(11)
    t1, t2 = rng.uniform(-1, 1, 150), rng.uniform(-1, 1, 150)
    stage1 = [t1 + 0.01 * rng.uniform(-1, 1, 150), t2 + 0.01 * rng.uniform(-1, 1, 150)]
    stage2 = [t2 + 0.01 * rng.uniform(-1, 1, 150), t1 + 0.01 * rng.uniform(-1, 1, 150)]
    _, breakdown = obj.multi_stage_loss_graph(_graph_stages(stage1, stage2), [t1, t2])
    assert breakdown.per_stage_perms[0].perm == (0, 1)
    assert breakdown.per_stage_perms[1].perm == (1, 0)


# -- identity loss --------------------------------------------------------------------


def test_id_loss_zero_iff_equal():
    rng = np.random.default_rng(12)
    e = [rng.uniform(-1, 1, 128) for _ in range(2)]
    assert obj.id_loss(e, [v.copy() for v in e], (0, 1)) == 0.0
    shifted = [v + 1e-3 for v in e]
    assert obj.id_loss(e, shifted, (0, 1)) > 0.0


def test_id_loss_constant_offset():
    e = [np.zeros(128), np.zeros(128)]
    refs = [np.full(128, 0.1), np.full(128, 0.1)]
    assert obj.id_loss(e, refs, (0, 1)) == pytest.approx(0.01, abs=1e-12)


def test_id_loss_symmetry_and_nonnegativity():
    rng = np.random.default_rng(13)
    a = [rng.uniform(-1, 1, 64) for _ in range(2)]
    b = [rng.uniform(-1, 1, 64) for _ in range(2)]
    assert obj.id_loss(a, b, (0, 1)) == pytest.approx(obj.id_loss(b, a, (0, 1)), abs=1e-12)
    assert obj.id_loss(a, b, (0, 1)) >= 0.0


def test_id_loss_dimension_mismatch():
    with pytest.raises(DataError):
        obj.id_loss([np.zeros(8)], [np.zeros(9)], (0,))


def test_id_loss_graph_matches_value():
    rng = np.random.default_rng(14)
    est = [Tensor(rng.uniform(-1, 1, 32), requires_grad=True) for _ in range(2)]
    refs = [rng.uniform(-1, 1, 32) for _ in range(2)]
    g = obj.id_loss_graph(est, refs, (1, 0))
    v = obj.id_loss([e.data for e in est], refs, (1, 0))
    assert float(g.data) == pytest.approx(v, abs=1e-7)


def test_id_loss_graph_casts_references_to_the_estimates_dtype():
    # float64 references (as the speaker network's embed_utterance returns them)
    # give the same bytes as float32 ones
    rng = np.random.default_rng(15)
    values = [rng.uniform(-1, 1, 32).astype(np.float32) for _ in range(2)]
    refs = [rng.uniform(-1, 1, 32).astype(np.float32) for _ in range(2)]
    results = []
    for ref_dtype in (np.float32, np.float64):
        est = [Tensor(v.copy(), requires_grad=True) for v in values]
        loss = obj.id_loss_graph(est, [r.astype(ref_dtype) for r in refs], (1, 0))
        loss.backward()
        results.append([loss.data.tobytes()] + [e.grad.tobytes() for e in est])
    assert results[0] == results[1]


# -- improvements -------------------------------------------------------------------


def test_si_sdri_zero_for_mixture_estimates():
    rng = np.random.default_rng(15)
    t1, t2 = rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)
    mixture = t1 + t2
    improvement = obj.si_sdri(mixture, [t1, t2], obj.pit_permutation([t1, t2], [mixture, mixture]))
    assert improvement == pytest.approx(0.0, abs=1e-9)


def test_si_sdri_for_perfect_estimates_reaches_cap_margin():
    rng = np.random.default_rng(16)
    t1, t2 = rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)
    mixture = t1 + t2
    improvement = obj.si_sdri(mixture, [t1, t2], obj.pit_permutation([t1, t2], [t1, t2]))
    assert improvement > 100.0
    assert np.isfinite(improvement)


def test_sdri_is_scale_sensitive():
    rng = np.random.default_rng(17)
    t = rng.uniform(-1, 1, 200)
    assert obj.snr_sdr(t, t) >= 119.0
    assert obj.snr_sdr(t, 0.5 * t) < obj.snr_sdr(t, t)
