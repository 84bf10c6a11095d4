"""Vectorized driver: stream alignment, cross-driver equivalence, policies."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from asgd import batch, sim, vecmath
from asgd.batch import BatchOptions, _compose_sm_maps, _lowest, _sample_quorums
from asgd.maa import STAGE_TARGET, AggregationRule, required_rounds
from asgd.oracle import OracleSpec, clamp, grad, sequential_sgd
from asgd.sgd import ConfigError, LrSchedule, SgdConfig, Variant

QUAD = OracleSpec(kind="quadratic", dim=2, sigma=0.7, mu=1.0, lipschitz=4.0)
PAIR = sim.Topology(n=2, clusters=((0, 1),))
FAST = sim.Schedule(max_delay=3)

# Reachable one-stage maps of the two-member shared-memory stage, rows =
# (new value of member 0, new value of member 1) as weights over the pair,
# indexed by _compose_sm_maps's picks: the reference for its weight pairs.
_SM_PATTERNS = np.array([
    [[0.5, 0.5], [0.5, 0.5]],  # both members collected both cells
    [[1.0, 0.0], [0.5, 0.5]],  # member 0 collected only its own cell
    [[0.5, 0.5], [0.0, 1.0]],  # member 1 collected only its own cell
])


def test_chunked_normal_draws_match_sequential_draws():
    # the noise predraw asks for (T, d) in one call; the event driver draws
    # one length-d vector per iteration from the same stream
    ss = np.random.SeedSequence([4, 2])
    chunked = np.random.Generator(np.random.PCG64(ss)).standard_normal((5, 3))
    gen = np.random.Generator(np.random.PCG64(ss))
    single = np.stack([gen.standard_normal(3) for _ in range(5)])
    assert chunked.tobytes() == single.tobytes()


def test_predraw_noise_is_time_major_numpy_spawn_draws(monkeypatch):
    n, d, T = 3, 2, 5
    options = BatchOptions(seeds=4, seed_root=2 ** 32 + 9)
    for block in (1, 3, 16):  # one seed a block; a full block and a partial one; one block
        monkeypatch.setattr(batch, "_NOISE_BLOCK", block)
        noise, taus = batch._predraw_noise(n, d, T, options, want_tau=True)
        assert noise.shape == (T, d, n, 4) and noise.flags.c_contiguous
        for s in range(4):
            children = np.random.SeedSequence([options.seed_root, s]).spawn(n + 2)
            rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
            for p in range(n):
                want = rngs[2 + p].standard_normal((T, d))
                assert np.ascontiguousarray(noise[:, :, p, s]).tobytes() == want.tobytes()
            assert taus[s] == rngs[1].integers(1, T + 1)
        again, no_taus = batch._predraw_noise(n, d, T, options, want_tau=False)
        assert no_taus is None and again.tobytes() == noise.tobytes()


def _tensor_diameters(X):
    """The diameter as first written, over the (S, n, n, d) difference
    tensor: the reference for the pair-list version."""
    diffs = X[:, :, None, :] - X[:, None, :, :]
    return np.einsum("sijd,sijd->sij", diffs, diffs).max(axis=(1, 2))


def _coordinate_major(X):
    """(S, n, d) iterates in the driver's (d, n, S) layout."""
    return np.ascontiguousarray(X.transpose(2, 1, 0))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_record_head_diameter_equals_the_tensor_form_bitwise(n, d):
    rng = np.random.default_rng(10 * n + d)
    X = rng.standard_normal((40, n, d)) * np.exp(rng.uniform(-20, 20, (40, 1, 1)))
    X[:3] = X[:3, :1]  # seeds whose processes all agree
    series = batch._series_store(True, 1, 40)
    batch._record_head(series, 1, _coordinate_major(X), np.zeros((d, n, 40)))
    assert series["diam_sq"][0].tobytes() == _tensor_diameters(X).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_coordinate_major_diameter_equals_the_scan_and_the_tensor_form_bitwise(n, d):
    rng = np.random.default_rng(100 + 10 * n + d)
    X = rng.standard_normal((40, n, d)) * np.exp(rng.uniform(-20, 20, (40, 1, 1)))
    X[:3] = X[:3, :1]  # seeds whose processes all agree
    X[3, 0, -1] = X[4, -1, 0] = np.nan
    X[5, 0, 0] = np.inf
    X[6, 0, -1] = -np.inf
    X[7, -1, -1] = np.inf  # in a later point: the tensor form's (i, i) is NaN, the scan's inf
    with np.errstate(invalid="ignore", over="ignore"):
        got = vecmath.diameter_sq(_coordinate_major(X), axis=0)
        scan = vecmath._scan(X)[2].max(axis=-1)
        tensor = _tensor_diameters(X)
    assert got.tobytes() == scan.tobytes()
    assert np.isnan(got[3:7]).all()  # a NaN, or an infinite coordinate in point 0
    same = np.ones(40, dtype=bool)
    if n > 1:  # the one case where the two forms differ (vecmath docstring)
        assert got[7] == np.inf and np.isnan(tensor[7])
        same[7] = False
    assert got[same].tobytes() == tensor[same].tobytes()


def test_strongly_convex_matches_event_driver_bitwise():
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=4, quorum=2,
                     x1=(1.0, -0.5), lr=LrSchedule(kind="constant", value=0.1))
    result = batch.run_ensemble(PAIR, conf, QUAD, BatchOptions(seeds=3, seed_root=77))
    for s in range(3):
        trace = sim.run(PAIR, sim.FaultPlan(), FAST, conf, QUAD, [77, s])
        assert trace.liveness["ok"]
        for pid in range(2):
            assert trace.outputs[pid].tobytes() == result.outputs[s, pid].tobytes()


def test_non_convex_matches_event_driver_bitwise_when_agreement_skipped():
    # q = 1 means zero agreement rounds, so quorums are the only schedule
    # freedom, and n = N pins those: the drivers must agree bit for bit.
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=4, quorum=2,
                     x1=(1.0, -0.5), lr=LrSchedule(kind="constant", value=0.05),
                     agreement_q=1.0)
    result = batch.run_ensemble(PAIR, conf, QUAD, BatchOptions(seeds=3, seed_root=18))
    for s in range(3):
        trace = sim.run(PAIR, sim.FaultPlan(), FAST, conf, QUAD, [18, s])
        assert trace.liveness["ok"]
        assert trace.tau == result.taus[s]
        for pid in range(2):
            assert trace.outputs[pid].tobytes() == result.outputs[s, pid].tobytes()


def test_non_convex_noiseless_agreement_path_matches_event_driver():
    quiet = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=3, quorum=2,
                     x1=(1.0, -0.5), lr=LrSchedule(kind="constant", value=0.05))
    result = batch.run_ensemble(PAIR, conf, quiet, BatchOptions(seeds=2, seed_root=5))
    for s in range(2):
        trace = sim.run(PAIR, sim.FaultPlan(), FAST, conf, quiet, [5, s])
        assert trace.liveness["ok"]
        assert trace.tau == result.taus[s]
        for pid in range(2):
            assert trace.outputs[pid].tobytes() == result.outputs[s, pid].tobytes()


def test_strongly_convex_single_pair_tracks_sequential_sgd():
    # n = N = 2 with sigma 0: averaging identical steps is plain descent
    quiet = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=6, quorum=2,
                     x1=(2.0, 1.0), lr=LrSchedule(kind="constant", value=0.2))
    result = batch.run_ensemble(PAIR, conf, quiet, BatchOptions(seeds=1, seed_root=3))
    expect = sequential_sgd(quiet, np.array([2.0, 1.0]), 6, lambda t: 0.2, 1,
                            np.random.default_rng(0))
    assert result.outputs[0, 0].tobytes() == expect.tobytes()


def test_split_policy_keeps_blocks_separate():
    topo = sim.Topology(n=4, clusters=((0, 1, 2, 3),))
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=5, quorum=2,
                     x1=(0.5, 0.5), lr=LrSchedule(kind="constant", value=0.1))
    result = batch.run_ensemble(
        topo, conf, QUAD, BatchOptions(seeds=4, seed_root=9, quorum_policy="split"))
    outs = result.outputs
    # within a block the trajectories collapse after one averaging step
    assert np.array_equal(outs[:, 0], outs[:, 1])
    assert np.array_equal(outs[:, 2], outs[:, 3])
    # across blocks the noise keeps them apart
    assert not np.array_equal(outs[:, 0], outs[:, 2])
    with pytest.raises(ConfigError):
        batch.run_ensemble(
            topo, SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=2,
                            quorum=3, x1=(0.5, 0.5),
                            lr=LrSchedule(kind="constant", value=0.1)),
            QUAD, BatchOptions(seeds=2, seed_root=9, quorum_policy="split"))


def test_sample_quorums_include_self_and_respect_mask():
    rng = np.random.default_rng(0)
    allowed = np.ones((4, 4), dtype=bool)
    allowed[:2, 2:] = False
    allowed[2:, :2] = False
    idx = _sample_quorums(rng, 50, allowed, 2)
    for s in range(50):
        for i in range(4):
            assert i in idx[s, i]
            side = set(range(2)) if i < 2 else set(range(2, 4))
            assert set(idx[s, i]) <= side
    batch._require_reachable(allowed, 2, "algorithm.quorum", "units")
    with pytest.raises(ConfigError, match="fewer than 3 reachable units"):
        batch._require_reachable(allowed, 3, "algorithm.quorum", "units")


def _argsort_lowest(keys, count):
    """The index-sort expression _lowest stands in for."""
    return np.sort(np.argsort(keys, axis=-1, kind="stable")[..., :count], axis=-1)


def _count_argsorts(monkeypatch):
    calls = []
    real = np.argsort

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


# row widths 2 to 6 take _lowest's counting marks, 7 and 8 its sort marks
@pytest.mark.parametrize("shape", [(40, 7, 7), (6, 5, 4, 4), (50, 2, 2), (40, 3, 3),
                                   (20, 8, 8)])
def test_lowest_matches_argsort_on_distinct_keys_without_argsort(shape, monkeypatch):
    rng = np.random.default_rng(11)
    units = shape[-1]
    keys = rng.random(shape)
    diag = np.arange(units)
    keys[..., diag, diag] = -1.0
    allowed = rng.random((units, units)) < 0.7
    allowed[diag, diag] = True
    cut = keys.copy()
    cut[..., ~allowed] = np.inf  # never the cut while count <= the fewest allowed
    wants = {count: (_argsort_lowest(keys, count), _argsort_lowest(cut, count))
             for count in range(1, units + 1)}
    calls = _count_argsorts(monkeypatch)
    for count, (want, want_cut) in wants.items():
        assert _lowest(keys, count).tobytes() == want.tobytes()
        if count <= allowed.sum(axis=1).min():
            assert _lowest(cut, count).tobytes() == want_cut.tobytes()
    assert calls == []


@pytest.mark.parametrize("shape", [(30, 6, 6), (4, 3, 5, 5), (60, 2, 2), (40, 3, 3),
                                   (30, 4, 4), (20, 8, 8)])
def test_lowest_falls_back_to_argsort_on_ties(shape, monkeypatch):
    rng = np.random.default_rng(12)
    units = shape[-1]
    ties = rng.integers(0, 3, size=shape).astype(np.float64)
    cut = rng.random(shape)
    cut[..., :2, units - 2:] = np.inf  # receivers 0 and 1 hear units - 2 senders
    wants = [(keys, count, _argsort_lowest(keys, count))
             for keys in (ties, cut) for count in range(1, units + 1)]
    calls = _count_argsorts(monkeypatch)
    for keys, count, want in wants:
        assert _lowest(keys, count).tobytes() == want.tobytes()
    # integer keys tie at the cut for every count below units; the inf keys
    # only at units - 1, above the units - 2 senders receivers 0 and 1 hear
    assert len(calls) == (units - 1) + 1


def _edge_keys(rng, shape):
    """Keys with ties, NaN, +-inf, signed zeros and a -1 diagonal."""
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 0.25])
    keys = np.where(rng.random(shape) < 0.4, pool[rng.integers(len(pool), size=shape)],
                    rng.random(shape))
    diag = np.arange(shape[-1])
    keys[..., diag, diag] = -1.0
    return keys


def test_lowest_matches_argsort_with_nan_keys():
    rng = np.random.default_rng(13)
    for units in (2, 3, 4, 5, 8):  # counting marks up to 6 keys, sort marks at 8
        keys = rng.random((20, units))
        keys[3, 1] = keys[7, 0] = keys[7, units - 1] = np.nan
        for k in (keys, _edge_keys(rng, (30, units, units))):
            for count in range(1, units + 1):
                got, want = _lowest(k, count), _argsort_lowest(k, count)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (units, count)


@pytest.mark.parametrize("units", range(1, 7))
def test_count_marks_equal_the_sort_cut_marks(units):
    rng = np.random.default_rng(15)
    for keys in (_edge_keys(rng, (200, units, units)),
                 rng.integers(0, 3, size=(200, units)).astype(np.float64)):
        for count in range(1, units + 1):
            want = ~(keys > np.sort(keys, axis=-1)[..., count - 1:count])
            assert np.array_equal(batch._count_marks(keys, count), want)


def test_sample_quorums_draw_one_key_array_from_the_stream():
    allowed = np.ones((5, 5), dtype=bool)
    allowed[0, 3:] = False
    rng = np.random.default_rng(14)
    reference = np.random.default_rng(14)
    idx = _sample_quorums(rng, 9, allowed, 3)
    keys = reference.random((9, 5, 5))
    assert rng.bit_generator.state == reference.bit_generator.state
    keys[:, np.arange(5), np.arange(5)] = -1.0
    keys[:, ~allowed] = np.inf
    assert idx.shape == (9, 5, 3)
    assert idx.tobytes() == _argsort_lowest(keys, 3).tobytes()


def _no_draw(*args, **kwargs):
    raise AssertionError("noise drawn before the quorums were checked")


def _cut_run(q, from_event):
    """Three two-member clusters cut one against two, cluster quorum 2: no
    exchange round can run once the cut is on (iteration from_event, T = 4)."""
    topo = sim.Topology(n=6, clusters=((0, 1), (2, 3), (4, 5)))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=4, quorum=1,
                     x1=(0.0,), lr=LrSchedule(kind="constant", value=0.01),
                     agreement_q=q, cluster_quorum=2)
    cut = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3, 4, 5), from_event=from_event)
    return batch.run_ensemble(topo, conf, spec, BatchOptions(seeds=2, seed_root=3), cut)


def test_unreachable_cluster_quorum_raises_before_any_draw(monkeypatch):
    monkeypatch.setattr(batch, "_predraw_noise", _no_draw)
    for from_event in (0, 4):
        with pytest.raises(ConfigError, match="fewer than 2 reachable clusters"):
            _cut_run(0.5, from_event)


def test_unreachable_quorum_raises_before_any_draw(monkeypatch):
    monkeypatch.setattr(batch, "_predraw_noise", _no_draw)
    topo = sim.Topology(n=4, clusters=((0,), (1,), (2,), (3,)))
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=3, quorum=3,
                     x1=(0.5, 0.5), lr=LrSchedule(kind="constant", value=0.1))
    cut = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3), from_event=3)
    with pytest.raises(ConfigError, match="fewer than 3 reachable units"):
        batch.run_ensemble(topo, conf, QUAD, BatchOptions(seeds=2, seed_root=3), cut)


def test_cut_masks_that_are_never_used_do_not_raise():
    _cut_run(0.5, 5)  # the cut starts after the last iteration
    _cut_run(1.0, 0)  # q = 1 needs no exchange round


def test_sm_maps_are_convex_and_exact():
    rng = np.random.default_rng(11)
    maps = _compose_sm_maps(rng, 20, 3, 4, 14)
    assert maps.shape == (4, 2, 20, 3)
    assert ((maps >= 0) & (maps <= 1)).all()  # weights (w, 1 - w): convex
    scaled = maps * 2.0 ** 14  # dyadic with at most one halving per stage
    assert np.array_equal(scaled, np.round(scaled))
    assert np.array_equal((1.0 - maps) + maps, np.ones_like(maps))


def _reference_sm_maps(rng, seeds, clusters, rounds_outer, rounds_sm):
    """The stage maps as (..., 2, 2) matrices composed with @."""
    picks = rng.integers(0, 3, size=(seeds, clusters, rounds_outer, rounds_sm),
                         dtype=np.int8)
    mats = _SM_PATTERNS[picks]
    total = np.broadcast_to(np.eye(2), (seeds, clusters, rounds_outer, 2, 2)).copy()
    for r in range(rounds_sm):
        total = mats[:, :, :, r] @ total
    return total


@pytest.mark.parametrize("rounds_sm", [1, 2, 14, 53, 54, 73])
def test_sm_weight_pairs_match_composed_matrices(rounds_sm):
    shape = (30, 3, 7, rounds_sm)
    maps = _compose_sm_maps(np.random.default_rng(rounds_sm), *shape)
    ref = _reference_sm_maps(np.random.default_rng(rounds_sm), *shape)
    ref = ref.transpose(2, 3, 0, 1, 4)  # exchange round, then member, like the maps
    assert maps.tobytes() == np.ascontiguousarray(ref[..., 0]).tobytes()
    assert (1.0 - maps).tobytes() == np.ascontiguousarray(ref[..., 1]).tobytes()


def _stage_loop_maps(picks):
    """The weight pairs of stage-first picks composed one stage at a time."""
    w0 = np.ones(picks.shape[1:])
    w1 = np.zeros(picks.shape[1:])
    for pick in picks:
        avg = (w0 + w1) * 0.5
        w0 = np.where(pick == 1, w0, avg)
        w1 = np.where(pick == 2, w1, avg)
    return np.stack([w0, w1], axis=-1)


def _nonzero_prefix_picks(stages, prefix, rows=40, seed=3):
    """(stages, rows) picks whose rows 0-2 pick 1 or 2 at their first `prefix`
    stages and then 0: at random, always 1 (w0 stays 1) and always 2 (the
    weights shrink to 2^-prefix). The other rows are random."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 3, size=(stages, rows), dtype=np.int8)
    picks[:prefix, 0] = rng.integers(1, 3, size=prefix)
    picks[:prefix, 1] = 1
    picks[:prefix, 2] = 2
    if prefix < stages:
        picks[prefix, :3] = 0
    return picks


def _compose_counting_fallbacks(monkeypatch, picks):
    calls = []
    loop = batch._compose_stage_loop
    monkeypatch.setattr(batch, "_compose_stage_loop",
                        lambda p: calls.append(p.shape) or loop(p))
    return batch._compose_picks(picks), len(calls)


@pytest.mark.parametrize("prefix, fallbacks", [(52, 0), (53, 1)])
def test_sm_maps_fall_back_only_past_52_stages_before_both_average(
        monkeypatch, prefix, fallbacks):
    picks = _nonzero_prefix_picks(73, prefix)  # approach-extreme's stage count
    maps, calls = _compose_counting_fallbacks(monkeypatch, picks)
    assert calls == fallbacks
    assert maps.tobytes() == _stage_loop_maps(picks).tobytes()


def test_sm_maps_without_both_average_stay_exact_at_53_stages(monkeypatch):
    picks = _nonzero_prefix_picks(53, 53)
    maps, calls = _compose_counting_fallbacks(monkeypatch, picks)
    assert calls == 0
    assert maps.tobytes() == _stage_loop_maps(picks).tobytes()
    assert maps[1].tolist() == [1.0, 1.0 - 2.0 ** -53]
    assert maps[2].tolist() == [2.0 ** -53, 0.0]


def test_sm_maps_allocate_less_than_a_float_copy_of_their_picks():
    shape = (100, 3, 98, 14)  # batch-agree: seeds, clusters, rounds, stages
    rng = np.random.default_rng(0)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _compose_sm_maps(rng, *shape)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < math.prod(shape) * 8


def test_sm_pattern_matrices_implement_the_three_outcomes():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.standard_normal(2) * rng.uniform(0.1, 100)
        pair = np.array([a, b])
        mid = (a + b) / 2.0
        got_bb = _SM_PATTERNS[0] @ pair
        got_ob = _SM_PATTERNS[1] @ pair
        got_bo = _SM_PATTERNS[2] @ pair
        assert got_bb[0] == mid and got_bb[1] == mid
        assert got_ob[0] == a and got_ob[1] == mid
        assert got_bo[0] == mid and got_bo[1] == b


def test_agreement_diameter_envelope_smoke():
    topo = sim.Topology(n=6, clusters=((0, 1), (2, 3), (4, 5)))
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.3, mu=1.0, lipschitz=4.0)
    eta = 0.05
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=8, quorum=2,
                     x1=(1.0, 1.0), lr=LrSchedule(kind="constant", value=eta))
    result = batch.run_ensemble(topo, conf, spec, BatchOptions(seeds=30, seed_root=1))
    envelope = 2 * spec.sigma ** 2 * eta ** 3 / conf.quorum
    diam = result.series["diam_sq"][1:]  # entering iterations 2..T+1
    assert (diam <= envelope).all()


def test_partitioned_sides_diverge_more_than_healthy():
    topo = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=60, quorum=2,
                     x1=(0.0,), lr=LrSchedule(kind="constant", value=0.01),
                     agreement_q=0.5, cluster_quorum=1)
    cut = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3), from_event=0)
    options = BatchOptions(seeds=40, seed_root=6)
    healthy = batch.run_ensemble(topo, conf, spec, options)
    parted = batch.run_ensemble(topo, conf, spec, options, cut)
    gap_part = np.abs(parted.finals[:, 0, 0] - parted.finals[:, 2, 0]).mean()
    gap_heal = np.abs(healthy.finals[:, 0, 0] - healthy.finals[:, 2, 0]).mean()
    assert gap_part > 5 * gap_heal


def test_taus_reproduce_the_event_stream_draw():
    topo = sim.Topology(n=2, clusters=((0, 1),))
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=16, quorum=1,
                     x1=(0.0, 0.0), lr=LrSchedule(kind="constant", value=0.05),
                     agreement_q=1.0)
    result = batch.run_ensemble(topo, conf, QUAD, BatchOptions(seeds=8, seed_root=44))
    for s in range(8):
        streams = sim.derive_streams([44, s], 2)
        assert result.taus[s] == streams.tau.integers(1, 17)


def test_fixed_tau_leaves_the_trajectory_of_a_drawn_tau():
    # noise never reads the tau child, so fixing tau only moves the outputs
    topo = sim.Topology(n=6, clusters=((0, 1), (2, 3), (4, 5)))
    spec = OracleSpec(kind="double_well", dim=2, sigma=0.3, radius=1.25)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=12, quorum=2,
                     x1=(0.25, 0.25), lr=LrSchedule(kind="constant", value=0.0625),
                     lr_check="warn")
    options = BatchOptions(seeds=6, seed_root=31)
    drawn = batch.run_ensemble(topo, conf, spec, options)
    fixed = batch.run_ensemble(topo, dataclasses.replace(conf, tau=5), spec, options)
    assert fixed.finals.tobytes() == drawn.finals.tobytes()
    assert fixed.taus.dtype == np.int64 and (fixed.taus == 5).all()
    assert not (drawn.taus == 5).all()


def test_batch_options_validation():
    with pytest.raises(ConfigError):
        BatchOptions(seeds=0, seed_root=1)
    with pytest.raises(ConfigError):
        BatchOptions(seeds=1, seed_root=1, quorum_policy="clever")


def test_batch_rejects_large_clusters_for_agreement():
    topo = sim.Topology(n=6, clusters=((0, 1, 2), (3, 4, 5)))
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=2, quorum=2,
                     x1=(0.0, 0.0), lr=LrSchedule(kind="constant", value=0.05))
    with pytest.raises(ConfigError):
        batch.run_ensemble(topo, conf, QUAD, BatchOptions(seeds=2, seed_root=1))


# ---------------------------------------------------------------------------
# The point-major iteration loop that the coordinate-major one replaced,
# kept as the reference it must equal bitwise: its noise predraw, series
# row and quorum mean, both tails, and the agreement round kernels
# ---------------------------------------------------------------------------


def _point_major_predraw_noise(n, dim, iterations, options, want_tau):
    """Noise (T, S, n, d) and taus (S,) when wanted, drawn one seed at a time."""
    noise = np.empty((iterations, options.seeds, n, dim))
    taus = np.empty(options.seeds, dtype=np.int64) if want_tau else None
    buf = np.empty((n, iterations, dim))
    outs = list(buf)
    children = [*range(2, n + 2), 1] if want_tau else range(2, n + 2)
    streams = sim.seed_streams(options.seed_root, children, range(options.seeds))
    for s, rngs in enumerate(streams):
        for rng, out in zip(rngs, outs):
            rng.standard_normal(out=out)
        noise[:, s] = buf.transpose(1, 0, 2)
        if want_tau:
            taus[s] = rngs[n].integers(1, iterations + 1)
    return noise, taus


def _point_major_record_head(series, t, X, g):
    """The series row of (S, n, d) iterates X and gradients g."""
    if not series:
        return
    series["diam_sq"][t - 1] = vecmath.diameter_sq(X)
    if t <= series["grad_norm_sq"].shape[0]:
        series["grad_norm_sq"][t - 1] = np.einsum("spd,spd->sp", g, g).mean(axis=1)


def _point_major_quorum_mean(values, idx):
    """Mean of each (seed, process)'s quorum rows of (S, n, d) values, gathered
    (S, n, N, d) and summed left to right over the N senders."""
    S, n, d = values.shape
    gathered = values.reshape(S * n, d).take(idx + (np.arange(S) * n)[:, None, None], axis=0)
    total = gathered[..., 0, :].copy()
    for j in range(1, gathered.shape[-2]):
        total += gathered[..., j, :]
    return total / gathered.shape[-2]


# one NaN and one infinite noise coordinate: (iteration index, seed, process, coordinate)
_POISON = (((1, 3, 0, -1), np.nan), ((2, 5, 1, 0), np.inf))


def _point_major_noise(n, dim, iterations, options, want_tau, poison):
    noise, taus = _point_major_predraw_noise(n, dim, iterations, options, want_tau)
    for (t, s, p, c), value in _POISON if poison else ():
        noise[t, s, p, c] = value
    return noise, taus


def _poison_noise(monkeypatch):
    """Put _POISON into run_ensemble's (T, d, n, S) noise."""
    predraw = batch._predraw_noise

    def poisoned(*args, **kwargs):
        noise, taus = predraw(*args, **kwargs)
        for (t, s, p, c), value in _POISON:
            noise[t, c, p, s] = value
        return noise, taus

    monkeypatch.setattr(batch, "_predraw_noise", poisoned)


def _point_major_convex(topology, conf, spec, options, partition=None, poison=False):
    """run_ensemble's strongly convex variant on (S, n, d) iterates;
    (outputs, finals, series)."""
    sched_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([options.seed_root, batch.BATCH_SCHEDULE_TAG])))
    S, n, d, T = options.seeds, topology.n, spec.dim, conf.iterations
    start, proc_side = batch._partition(topology, partition, T)
    split_idx = None
    if options.quorum_policy == "split":
        split_idx = batch._split_quorums(n, conf.quorum, proc_side)
    allowed = batch._side_masks(proc_side)
    noise, _ = _point_major_noise(n, d, T, options, False, poison)
    X = np.broadcast_to(np.asarray(conf.x1, dtype=np.float64), (S, n, d)).copy()
    series = batch._series_store(options.record_series, T, S)
    for t in range(1, T + 1):
        G = grad(spec, X)
        _point_major_record_head(series, t, X, G)
        cut = t >= start
        G = G + noise[t - 1] * spec.noise_scale
        y = X - conf.lr.eta(t) * G
        idx = (batch._sample_quorums(sched_rng, S, allowed[cut], conf.quorum)
               if split_idx is None else split_idx)
        X = _point_major_quorum_mean(y, idx)
    _point_major_record_head(series, T + 1, X, None)
    return X, X, series


def _point_major_mid_extremes(points):
    """Midpoint of each set's extreme pair; (S, k, d) -> (S, d)."""
    s, _, d = points.shape
    a, b, d2 = vecmath._scan(points)
    pairs = d2.shape[1]
    best = d2.argmax(axis=1) + np.arange(0, s * pairs, pairs)
    mid = a.reshape(-1, d).take(best, axis=0) + b.reshape(-1, d).take(best, axis=0)
    return np.divide(mid, 2.0, out=mid)


def _point_major_approach_extreme(points, anchors):
    """points (S, k, d), anchors (S, a, d) -> (S, a, d)."""
    s, k, d = points.shape
    far = vecmath.farthest_index(points[:, None], anchors) + np.arange(0, s * k, k)[:, None]
    return (anchors + points.reshape(-1, d).take(far, axis=0)) / 2.0


def _point_major_non_convex(topology, conf, spec, options, partition=None, poison=False):
    """run_ensemble's non-convex variant, with a drawn tau, holding the rounds
    as (S, m, k, d) values and (S * m, P, d) held sets; (outputs, finals, series)."""
    sched_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([options.seed_root, batch.BATCH_SCHEDULE_TAG])))
    S, n, d, T, m = options.seeds, topology.n, spec.dim, conf.iterations, topology.m
    members, k = batch._cluster_table(topology)
    quorum_clusters = topology.cluster_quorum(conf.cluster_quorum)
    start, proc_side = batch._partition(topology, partition, T)
    allowed = batch._side_masks(proc_side)
    allowed_c = batch._side_masks(proc_side[members[:, 0]])
    sm_rounds = required_rounds(STAGE_TARGET[conf.maa_rule], conf.maa_rule, "shared")
    noise, taus = _point_major_noise(n, d, T, options, True, poison)
    X = np.broadcast_to(np.asarray(conf.x1, dtype=np.float64), (S, n, d)).copy()
    series = batch._series_store(options.record_series, T, S)
    outputs = np.empty_like(X)
    seed_base = (np.arange(S) * m)[None, :, None, None]
    for t in range(1, T + 1):
        G = grad(spec, X)
        _point_major_record_head(series, t, X, G)
        captured = taus == t
        if captured.any():
            outputs[captured] = X[captured]
        cut = t >= start
        G = G + noise[t - 1] * spec.noise_scale
        idx = batch._sample_quorums(sched_rng, S, allowed[cut], conf.quorum)
        g = _point_major_quorum_mean(G, idx)
        y = X - conf.lr.eta(t) * g
        rounds = required_rounds(conf.q_at(t), conf.maa_rule, "cluster")
        if rounds == 0:
            X = clamp(spec, y)
            continue
        if k == 2:
            on0 = _compose_sm_maps(sched_rng, S, m, rounds, sm_rounds).transpose(0, 2, 3, 1)
            on0 = on0[..., None]
            on1 = 1.0 - on0
        ex_idx = _lowest(batch._quorum_keys(sched_rng, (S, rounds), allowed_c[cut]),
                         quorum_clusters)
        ex_rows = (ex_idx.transpose(1, 0, 2, 3) + seed_base).reshape(rounds, -1)
        V = y[:, members]
        for r in range(rounds):
            if k == 2:
                V = on0[r] * V[:, :, :1] + on1[r] * V[:, :, -1:]
            held = V.reshape(S * m, k * d).take(ex_rows[r], axis=0).reshape(S * m, -1, d)
            if conf.maa_rule is AggregationRule.MID_EXTREMES:
                V = _point_major_mid_extremes(held).reshape(S, m, 1, d)
            else:
                V = _point_major_approach_extreme(held, V.reshape(S * m, k, d)).reshape(S, m, k, d)
        X = np.empty_like(y)
        X[:, members] = V
        X = clamp(spec, X)
    _point_major_record_head(series, T + 1, X, None)
    return outputs, X, series


def _assert_equal_runs(got, want):
    assert got.outputs.tobytes() == want[0].tobytes()
    assert got.finals.tobytes() == want[1].tobytes()
    assert got.series.keys() == want[2].keys()
    for key, values in want[2].items():
        assert got.series[key].tobytes() == values.tobytes(), key


_SINGLES8 = sim.Topology(n=8, clusters=tuple((i,) for i in range(8)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("policy", ["random", "split"])
@pytest.mark.parametrize("partition", [
    None,
    sim.PartitionSpec(side_a=(0, 1, 2, 3), side_b=(4, 5, 6, 7), from_event=3),
], ids=["whole", "partitioned"])
def test_coordinate_major_loop_equals_the_point_major_convex_loop_bitwise(
        partition, policy, d, monkeypatch):
    spec = OracleSpec(kind="quadratic", dim=d, sigma=0.7, mu=1.0 if d == 1 else 0.5,
                      lipschitz=1.0 if d == 1 else 4.0, x_star=(0.5,) * d)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=6, quorum=4,
                     x1=(0.3,) * d, lr=LrSchedule(kind="constant", value=0.1),
                     lr_check="warn")
    options = BatchOptions(seeds=12, seed_root=70 + d, quorum_policy=policy)
    _poison_noise(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        want = _point_major_convex(_SINGLES8, conf, spec, options, partition, poison=True)
        got = batch.run_ensemble(_SINGLES8, conf, spec, options, partition)
    _assert_equal_runs(got, want)
    assert got.outputs.flags.c_contiguous and got.outputs.shape == (12, 8, d)
    assert np.isnan(got.finals[3]).any() and np.isfinite(got.finals[0]).all()
    assert not np.isfinite(got.series["diam_sq"][-1, 5])


_PAIRS3 = sim.Topology(n=6, clusters=((0, 1), (2, 3), (4, 5)))
_SINGLES4 = sim.Topology(n=4, clusters=((0,), (1,), (2,), (3,)))


@pytest.mark.parametrize("rule", list(AggregationRule))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("topology,partition", [
    (_PAIRS3, None),
    (_SINGLES4, None),
    (_PAIRS3, sim.PartitionSpec(side_a=(0, 1, 2, 3), side_b=(4, 5), from_event=3)),
], ids=["pairs", "singletons", "pairs-partitioned"])
def test_coordinate_major_rounds_equal_the_point_major_loop_bitwise(
        topology, partition, d, rule, monkeypatch):
    spec = OracleSpec(kind="double_well", dim=d, sigma=0.3, radius=1.25)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=6, quorum=2,
                     x1=(0.25,) * d, lr=LrSchedule(kind="constant", value=0.25),
                     maa_rule=rule, cluster_quorum=1 if partition else None,
                     lr_check="warn")
    options = BatchOptions(seeds=12, seed_root=50 + d)
    _poison_noise(monkeypatch)
    ties = []
    kernel = batch.batched_mid_extremes

    def spied(held):  # whether some held set lists two equal points
        ties.append(bool((held[:, :1] == held[:, 1:2]).all(axis=0).any()))
        return kernel(held)

    monkeypatch.setattr(batch, "batched_mid_extremes", spied)
    with np.errstate(invalid="ignore", over="ignore"):
        want = _point_major_non_convex(topology, conf, spec, options, partition, poison=True)
        got = batch.run_ensemble(topology, conf, spec, options, partition)
    _assert_equal_runs(got, want)
    assert np.isnan(got.finals[3]).any() and not np.isnan(got.finals[0]).any()
    if rule is AggregationRule.MID_EXTREMES and topology is _PAIRS3:
        assert any(ties)


def test_exchange_holds_each_partners_members_together(monkeypatch):
    # Two clusters of two start at x1 = 0, where the double well's gradient
    # is 0, and the noise steps the four processes to P0..P3 below. With
    # identity stage maps the exchange round holds the four values. Its pairs
    # (P0, P1) and (P0, P2) tie at squared distance 25, ahead of (P1, P2) at
    # 20, and their midpoints differ, so the first maximum of the pair list
    # decides: partner-major (P0, P1, P2, P3) lists (P0, P1) first, where a
    # member-major set (P0, P2, P1, P3) would list (P0, P2).
    points = np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0], [3.0, 1.0]])
    spec = OracleSpec(kind="double_well", dim=2, sigma=float(np.sqrt(2.0)), radius=10.0)
    assert spec.noise_scale == 1.0
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=1, quorum=1, x1=(0.0, 0.0),
                     lr=LrSchedule(kind="constant", value=0.25), agreement_q=0.5,
                     maa_rule=AggregationRule.MID_EXTREMES, lr_check="warn")
    predraw = batch._predraw_noise

    def steps_to_points(*args, **kwargs):
        noise, taus = predraw(*args, **kwargs)
        noise[0] = (-4.0 * points).T[..., None]  # y = x1 - 0.25 * noise
        return noise, taus

    def identity(rng, seeds, clusters, rounds_outer, rounds_sm):
        maps = np.zeros((rounds_outer, 2, seeds, clusters))
        maps[:, 0] = 1.0  # each member keeps its own value
        return maps

    monkeypatch.setattr(batch, "_predraw_noise", steps_to_points)
    monkeypatch.setattr(batch, "_compose_sm_maps", identity)
    held = []
    kernel = batch.batched_mid_extremes
    monkeypatch.setattr(batch, "batched_mid_extremes",
                        lambda sets: held.append(sets.copy()) or kernel(sets))
    result = batch.run_ensemble(sim.Topology(4, ((0, 1), (2, 3))), conf, spec,
                                BatchOptions(seeds=3, seed_root=8))
    assert held[0][:, :, 0].T.tolist() == points.tolist()  # one round's set, cluster 0
    assert result.finals.tolist() == [[[1.5, 2.0]] * 4] * 3
