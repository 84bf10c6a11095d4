"""Vectorized driver: stream alignment, cross-driver equivalence, policies."""

import numpy as np
import pytest

from asgd import batch, sim
from asgd.batch import BatchOptions, _SM_PATTERNS, _compose_sm_maps, _sample_quorums
from asgd.oracle import OracleSpec, grad, sequential_sgd
from asgd.sgd import ConfigError, LrSchedule, SgdConfig, Variant

QUAD = OracleSpec(kind="quadratic", dim=2, sigma=0.7, mu=1.0, lipschitz=4.0)
PAIR = sim.Topology(n=2, clusters=((0, 1),))
FAST = sim.Schedule(max_delay=3)


def test_chunked_normal_draws_match_sequential_draws():
    # the noise predraw asks for (T, d) in one call; the event driver draws
    # one length-d vector per iteration from the same stream
    ss = np.random.SeedSequence([4, 2])
    chunked = np.random.Generator(np.random.PCG64(ss)).standard_normal((5, 3))
    gen = np.random.Generator(np.random.PCG64(ss))
    single = np.stack([gen.standard_normal(3) for _ in range(5)])
    assert chunked.tobytes() == single.tobytes()


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
    expect = sequential_sgd(quiet, np.array([2.0, 1.0]), 6, 0.2, 1,
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
    with pytest.raises(ConfigError):
        _sample_quorums(rng, 1, allowed, 3)


def test_sm_maps_are_convex_and_exact():
    rng = np.random.default_rng(11)
    maps = _compose_sm_maps(rng, 20, 3, 4, 14)
    assert maps.shape == (4, 20, 3, 2)
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


@pytest.mark.parametrize("rounds_sm", [1, 2, 14, 53])
def test_sm_weight_pairs_match_composed_matrices(rounds_sm):
    shape = (30, 3, 7, rounds_sm)
    maps = _compose_sm_maps(np.random.default_rng(rounds_sm), *shape)
    ref = _reference_sm_maps(np.random.default_rng(rounds_sm), *shape)
    ref = ref.transpose(2, 0, 1, 3, 4)  # exchange round first, like the maps
    assert maps.tobytes() == np.ascontiguousarray(ref[..., 0]).tobytes()
    assert (1.0 - maps).tobytes() == np.ascontiguousarray(ref[..., 1]).tobytes()


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
    healthy = batch.run_ensemble(topo, conf, spec,
                                 BatchOptions(seeds=40, seed_root=6))
    parted = batch.run_ensemble(topo, conf, spec,
                                BatchOptions(seeds=40, seed_root=6, partition=cut))
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
