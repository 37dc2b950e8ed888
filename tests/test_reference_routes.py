"""Exact equality of the merged engines with the loop implementations they
replaced (``oracles`` reference routes): same floats, same rng stream."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    ConvexGenerator,
    DimensionMismatch,
    EffortStrategy,
    NonBinaryAlphabet,
    PairwisePrior,
    ReportMatrix,
    Scenario,
    ScoringRule,
    ca_expected_reward,
    ca_payments,
    md_payments,
    mip_expected_payments,
    random_strategy,
    sampling,
    sppm_expected_payments,
)
from peerlab.mechanisms import _average_over_peers
from peerlab.probability import rng_from_seed

import oracles

KINDS = ("dense", "sparse", "permutation", "constant")
PAIRINGS = ("all-pairs-average", "seeded-random-reference")
MEASURES = tuple(ConvexGenerator) + tuple(ScoringRule)
seeds = st.integers(0, 2**32 - 1)


def assert_same_report(got, want):
    for name in ("payments", "effort_costs", "utilities"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b), name
    assert (got.mechanism, got.mode, got.measure, got.seed, got.metadata) == (
        want.mechanism, want.mode, want.measure, want.seed, want.metadata)


@st.composite
def masked_reports(draw, alphabet=None):
    m = alphabet or draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    T = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(seeds))
    entries = rng.integers(0, m, (n, T))
    mask = rng.random((n, T)) < draw(st.floats(0.3, 1.0))
    return ReportMatrix(entries, mask, m)


class TestSubsetEngines:
    @given(masked_reports(alphabet=2), st.integers(1, 3), st.sampled_from(PAIRINGS), seeds)
    @settings(max_examples=80, deadline=None)
    def test_md_matches_loop(self, reports, d, pairing, seed):
        assert_same_report(md_payments(reports, d, seed, pairing),
                           oracles.md_payments(reports, d, seed, pairing))

    @given(masked_reports(), st.integers(1, 3), st.sampled_from(PAIRINGS), seeds)
    @settings(max_examples=80, deadline=None)
    def test_ca_matches_loop(self, reports, d, pairing, seed):
        assert_same_report(ca_payments(reports, d, seed, pairing),
                           oracles.ca_payments(reports, d, seed, pairing))

    def test_md_rejects_non_binary_like_loop(self):
        reports = ReportMatrix.full(np.array([[0, 1, 2], [2, 1, 0]]), 3)
        for fn in (md_payments, oracles.md_payments):
            with pytest.raises(NonBinaryAlphabet):
                fn(reports, 1, 0)


class TestStrategySampler:
    @given(seeds, st.integers(2, 5), st.sampled_from(KINDS))
    @settings(max_examples=150, deadline=None)
    def test_random_strategy_matches_loop(self, seed, m, kind):
        got, want = random_strategy(seed, m, kind), oracles.random_strategy(seed, m, kind)
        assert np.array_equal(got.channel.rows, want.channel.rows)
        assert got.label == want.label

    @given(seeds, st.integers(2, 5), st.lists(st.sampled_from(KINDS + (None,)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_mixed_strategy_stream_matches_loop(self, seed, m, kinds):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        for kind in kinds:
            got = sampling.random_mixed_strategy(rng_a, m, kind)
            want = oracles.random_strategy_rng(
                rng_b, m, kind or sampling.random_strategy_kind(rng_b)
            )
            assert np.array_equal(got.channel.rows, want.channel.rows)
            assert got.label == want.label
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_unknown_kind(self):
        with pytest.raises(DimensionMismatch):
            random_strategy(0, 3, "diagonal")
        with pytest.raises(ValueError):
            sampling.random_channel(rng_from_seed(0), 3, kind="diagonal")


def random_scenario(seed: int, n: int, efforts: bool) -> Scenario:
    rng = rng_from_seed(seed)
    m = int(rng.integers(2, 4))
    mode = int(rng.integers(3))
    if mode == 0:
        prior = sampling.random_world_model(rng, int(rng.integers(1, 4)), m)
    elif mode == 1:
        prior = sampling.random_full_joint_prior(rng, n, m)
    else:
        prior = sampling.random_pairwise_symmetric_prior(rng, m)
    strategies = tuple(sampling.random_mixed_strategy(rng, m) for _ in range(n))
    effort_profile = None
    if efforts:
        effort_profile = tuple(
            EffortStrategy(float(rng.uniform()), float(rng.uniform(0, 0.5)),
                           None if rng.random() < 0.5 else sampling.random_distribution(rng, m))
            for _ in range(n)
        )
    return Scenario(prior, strategies, effort_profile)


class TestExactPairLoop:
    @given(seeds, st.integers(2, 6), st.booleans(), st.sampled_from(MEASURES))
    @settings(max_examples=80, deadline=None)
    def test_mip_matches_loop(self, seed, n, efforts, measure):
        scenario = random_scenario(seed, n, efforts)
        assert_same_report(mip_expected_payments(scenario, measure),
                           oracles.mip_expected_payments(scenario, measure))

    @given(seeds, st.integers(2, 6), st.booleans(), st.sampled_from(tuple(ScoringRule)))
    @settings(max_examples=80, deadline=None)
    def test_sppm_matches_loop(self, seed, n, efforts, rule):
        scenario = random_scenario(seed, n, efforts)
        known = PairwisePrior(scenario.prior.pair_joint(0, 1), symmetric=False)
        assert_same_report(sppm_expected_payments(scenario, known, rule),
                           oracles.sppm_expected_payments(scenario, known, rule))

    @given(seeds, st.integers(2, 3), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_agreement_matches_loop_up_to_three_agents(self, seed, n, efforts):
        scenario = random_scenario(seed, n, efforts)
        assert np.array_equal(_average_over_peers(scenario, ca_expected_reward),
                              oracles.agreement_expected(scenario))


@given(seeds, st.integers(1, 4), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_world_model_pair_joint_matches_state_loop(seed, k, m):
    world = sampling.random_world_model(rng_from_seed(seed), k, m)
    table = np.zeros((m, m))
    for pw, omega in zip(world.state_probs.weights, world.states):
        table += float(pw) * np.outer(omega.weights, omega.weights)
    assert np.array_equal(world.pair_joint(0, 1).table, table)
    assert np.array_equal(world.signal_pair_tensor().table.sum(axis=0), table)
