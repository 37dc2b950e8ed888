"""The merged and batched engines against the loop implementations they
replaced (``oracles`` reference routes).  The md/ca engines and the strategy
sampler must match exactly: same floats, same rng stream.  The pair-table
routes (exact and empirical all-pairs payments, single-table measures) sum
cells and pairs in another order, so they must match to
|got - want| <= 1e-12 * max(1, |want|), with equal infinities and the same
exception type on both sides."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    ConvexGenerator,
    DimensionMismatch,
    EffortStrategy,
    JointDistribution,
    NonBinaryAlphabet,
    PairwisePrior,
    ReportMatrix,
    Scenario,
    ScoringRule,
    bmi_mechanism_payments,
    bregman_mi,
    ca_payments,
    conditional_mi,
    empirical_pair_joint,
    f_divergence,
    f_mutual_information,
    fmi_mechanism_payments,
    make_distribution,
    md_payments,
    mip_expected_payments,
    mutual_information,
    random_strategy,
    report_joint,
    sampling,
    sppm_expected_payments,
    sppm_payments,
)
from peerlab.errors import PeerLabError
from peerlab.mechanisms import _agreement_rewards, _exact_joints, _peer_means
from peerlab.probability import rng_from_seed

import oracles

REL_TOL = 1e-12

KINDS = ("dense", "sparse", "permutation", "constant")
PAIRINGS = ("all-pairs-average", "seeded-random-reference")
MEASURES = tuple(ConvexGenerator) + tuple(ScoringRule)
seeds = st.integers(0, 2**32 - 1)


def assert_close(got, want):
    """Equal infinities; finite entries within REL_TOL * max(1, |want|)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    inf = np.isinf(want)
    assert np.array_equal(got[inf], want[inf]) and not np.any(np.isinf(got[~inf]))
    gap = np.abs(got[~inf] - want[~inf])
    assert np.all(gap <= REL_TOL * np.maximum(1.0, np.abs(want[~inf]))), (got, want)


def assert_same_report(got, want, exact=True):
    for name in ("payments", "effort_costs", "utilities"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            if exact:
                assert np.array_equal(a, b), name
            else:
                assert_close(a, b)
    assert (got.mechanism, got.mode, got.measure, got.seed, got.metadata) == (
        want.mechanism, want.mode, want.measure, want.seed, want.metadata)


def outcome(fn, *args):
    """(value, None) on success, (None, exception type) on a PeerLabError."""
    try:
        return fn(*args), None
    except PeerLabError as exc:
        return None, type(exc)


def assert_same_outcome(got, want, compare):
    """Both routes raise the same exception type, or both return and match."""
    (got_value, got_error), (want_value, want_error) = got, want
    assert got_error == want_error
    if want_error is None:
        compare(got_value, want_value)


def assert_close_report(got, want):
    assert_same_report(got, want, exact=False)


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
    mode = int(rng.integers(4))
    if mode == 0:
        prior = sampling.random_world_model(rng, int(rng.integers(1, 4)), m)
    elif mode == 1:
        prior = sampling.random_full_joint_prior(rng, n, m)
    elif mode == 2:
        prior = sampling.random_pairwise_symmetric_prior(rng, m)
    else:
        prior = PairwisePrior(sampling.random_joint(rng, m, m), symmetric=False)
    strategies = tuple(sampling.random_mixed_strategy(rng, m) for _ in range(n))
    effort_profile = None
    if efforts:
        effort_profile = tuple(
            EffortStrategy(float(rng.uniform()), float(rng.uniform(0, 0.5)),
                           None if rng.random() < 0.5 else sampling.random_distribution(rng, m))
            for _ in range(n)
        )
    return Scenario(prior, strategies, effort_profile)


def sparse_known_prior(scenario: Scenario, rng) -> PairwisePrior:
    """The scenario's pair-(0, 1) prior, with one cell zeroed half the time so
    that log-rule shifted scores can be undefined."""
    table = scenario.prior.pair_joint(0, 1).table.copy()
    if rng.random() < 0.5:
        table[tuple(rng.integers(0, table.shape[0], 2))] = 0.0
    return PairwisePrior(JointDistribution(table / table.sum()), symmetric=False)


class TestExactPairLoop:
    @given(seeds, st.integers(2, 6), st.booleans(), st.sampled_from(MEASURES))
    @settings(max_examples=80, deadline=None)
    def test_mip_matches_loop(self, seed, n, efforts, measure):
        scenario = random_scenario(seed, n, efforts)
        assert_close_report(mip_expected_payments(scenario, measure),
                            oracles.mip_expected_payments(scenario, measure))

    @given(seeds, st.integers(2, 6), st.booleans(), st.sampled_from(tuple(ScoringRule)))
    @settings(max_examples=80, deadline=None)
    def test_sppm_matches_loop(self, seed, n, efforts, rule):
        scenario = random_scenario(seed, n, efforts)
        known = sparse_known_prior(scenario, rng_from_seed(seed, 1))
        assert_same_outcome(outcome(sppm_expected_payments, scenario, known, rule),
                            outcome(oracles.sppm_expected_payments, scenario, known, rule),
                            assert_close_report)

    @given(seeds, st.integers(2, 6), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_agreement_matches_loop(self, seed, n, efforts):
        scenario = random_scenario(seed, n, efforts)
        assert_close(_peer_means(_exact_joints(scenario), _agreement_rewards),
                     oracles.agreement_expected(scenario))

    @given(seeds, st.integers(2, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_report_joint_matches_loop(self, seed, n, efforts):
        scenario = random_scenario(seed, n, efforts)
        i, j = rng_from_seed(seed, 2).choice(n, size=2, replace=False).tolist()
        args = (scenario.prior, i, j, scenario.strategies[i], scenario.strategies[j],
                scenario.effort(i), scenario.effort(j))
        assert_close(report_joint(*args).table, oracles.loop_report_joint(*args).table)

    @given(seeds, st.integers(2, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_report_joint_over_references_stacks_pair_joints(self, seed, n, efforts):
        scenario = random_scenario(seed, n, efforts)
        i = int(rng_from_seed(seed, 3).integers(n))
        refs = [j for j in range(n) if j != i][::-1]
        s, e, prior = scenario.strategies, scenario.effort, scenario.prior
        got = report_joint(prior, i, refs, s[i], [s[j] for j in refs], e(i), [e(j) for j in refs])
        want = [oracles.loop_report_joint(prior, i, j, s[i], s[j], e(i), e(j)).table for j in refs]
        assert_close(got.table, np.array(want) / len(refs))


class TestEmpiricalPairLoop:
    @given(masked_reports(), st.sampled_from(tuple(ConvexGenerator)), st.sampled_from(PAIRINGS),
           seeds)
    @settings(max_examples=100, deadline=None)
    def test_fmi_matches_loop(self, reports, f, pairing, seed):
        assert_same_outcome(
            outcome(fmi_mechanism_payments, reports, f, pairing, seed),
            outcome(oracles.loop_empirical_mi_payments, reports, f, pairing, seed, "fmi"),
            assert_close_report)

    @given(masked_reports(), st.sampled_from(tuple(ScoringRule)), st.sampled_from(PAIRINGS),
           seeds)
    @settings(max_examples=100, deadline=None)
    def test_bmi_matches_loop(self, reports, rule, pairing, seed):
        assert_same_outcome(
            outcome(bmi_mechanism_payments, reports, rule, pairing, seed),
            outcome(oracles.loop_empirical_mi_payments, reports, rule, pairing, seed, "bmi"),
            assert_close_report)

    @given(masked_reports(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_counts_match_loop(self, reports, data):
        i = data.draw(st.integers(0, reports.n_agents - 1))
        j = data.draw(st.integers(0, reports.n_agents - 1))
        got = outcome(empirical_pair_joint, reports, i, j)
        want = outcome(oracles.loop_empirical_pair_joint, reports, i, j)
        assert_same_outcome(got, want, lambda a, b: np.testing.assert_array_equal(a.table, b.table))

    @given(masked_reports(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_counts_over_references_stack_pair_counts(self, reports, data):
        agents = st.integers(0, reports.n_agents - 1)
        i, refs = data.draw(agents), data.draw(st.lists(agents, min_size=1, max_size=4))

        def loop_stack():
            tables = [oracles.loop_empirical_pair_joint(reports, i, j).table for j in refs]
            return np.array(tables) / len(refs)

        assert_same_outcome(outcome(empirical_pair_joint, reports, i, refs), outcome(loop_stack),
                            lambda a, b: np.testing.assert_array_equal(a.table, b))

    def test_no_overlap_raises_like_loop(self):
        mask = np.array([[True, True, False, False], [False, False, True, True], [True] * 4])
        reports = ReportMatrix(np.zeros((3, 4), dtype=int), mask, 2)
        for f in ConvexGenerator:
            got = outcome(fmi_mechanism_payments, reports, f)
            assert got[1] is not None
            assert got[1] == outcome(oracles.loop_empirical_mi_payments,
                                     reports, f, "all-pairs-average", None, "fmi")[1]

    @given(st.integers(2, 4), st.integers(3, 8), st.sampled_from(tuple(ScoringRule)),
           st.sampled_from(PAIRINGS), seeds)
    @settings(max_examples=80, deadline=None)
    def test_realized_sppm_matches_loop(self, m, n, rule, pairing, seed):
        rng = rng_from_seed(seed)
        table = rng.dirichlet(np.ones(m * m)).reshape(m, m)
        table[tuple(rng.integers(0, m, 2))] = 0.0
        known = PairwisePrior(JointDistribution(table / table.sum()), symmetric=False)
        signals = rng.integers(0, m, n)
        got = outcome(sppm_payments, signals, known, rule, pairing, seed)
        want = outcome(oracles.sppm_payments, signals, known, rule, pairing, seed)
        assert_same_outcome(got, want, assert_close_report)


@st.composite
def sparse_tables(draw, rank=2):
    """A random table of the given rank with some cells (or, for rank 3, some
    whole slices) set to zero."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    rng = np.random.default_rng(draw(seeds))
    table = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    table[rng.random(shape) < draw(st.floats(0.0, 0.6))] = 0.0
    if rank == 3 and shape[0] > 1:
        table[rng.random(shape[0]) < 0.4] = 0.0
    if table.sum() <= 0.0:
        table.flat[0] = 1.0
    return JointDistribution(table / table.sum())


class TestSingleTableLoop:
    @given(sparse_tables(), st.sampled_from(tuple(ConvexGenerator)))
    @settings(max_examples=200, deadline=None)
    def test_f_mutual_information_matches_loop(self, joint, f):
        got = f_mutual_information(joint, f)
        assert_close(got, oracles.loop_f_mutual_information(joint, f))
        assert_close(got, oracles.f_mutual_information(joint.table.tolist(), f.value))
        assert_close(mutual_information(joint, f), got)

    @given(sparse_tables(), st.sampled_from(tuple(ScoringRule)))
    @settings(max_examples=200, deadline=None)
    def test_bregman_mi_matches_loop(self, joint, rule):
        got = bregman_mi(joint, rule)
        assert_close(got, oracles.loop_bregman_mi(joint, rule))
        assert_close(got, oracles.bregman_mi(joint.table.tolist(), rule.value))
        assert_close(mutual_information(joint, rule), got)

    @given(sparse_tables(rank=3), st.sampled_from(MEASURES))
    @settings(max_examples=200, deadline=None)
    def test_conditional_mi_matches_loop(self, tensor, measure):
        assert_close(conditional_mi(tensor, measure), oracles.loop_conditional_mi(tensor, measure))

    @given(st.integers(1, 5), seeds, st.sampled_from(tuple(ConvexGenerator)))
    @settings(max_examples=200, deadline=None)
    def test_f_divergence_matches_loop(self, m, seed, f):
        rng = np.random.default_rng(seed)
        p, q = rng.dirichlet(np.ones(m), size=2)
        p[rng.random(m) < 0.3] = 0.0
        q[rng.random(m) < 0.3] = 0.0
        p[np.argmax(p)] += 1e-3
        q[np.argmax(q)] += 1e-3
        p, q = make_distribution(p), make_distribution(q)
        want = oracles.loop_f_divergence_raw(p.weights, q.weights, f)
        assert_close(f_divergence(p, q, f), want)
        assert_close(want, oracles.f_divergence(p.weights.tolist(), q.weights.tolist(), f.value))

    def test_chi_squared_meets_cell_where_only_v_has_mass(self):
        joint = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert f_mutual_information(joint, ConvexGenerator.CHI_SQUARED) == math.inf
        assert oracles.loop_f_mutual_information(joint, ConvexGenerator.CHI_SQUARED) == math.inf
        assert f_mutual_information(joint, ConvexGenerator.KL) == pytest.approx(math.log(2.0))


@given(seeds, st.integers(1, 4), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_world_model_pair_joint_matches_state_loop(seed, k, m):
    world = sampling.random_world_model(rng_from_seed(seed), k, m)
    table = np.zeros((m, m))
    for pw, omega in zip(world.state_probs.weights, world.states):
        table += float(pw) * np.outer(omega.weights, omega.weights)
    assert np.array_equal(world.pair_joint(0, 1).table, table)
    assert np.array_equal(world.signal_pair_tensor().table.sum(axis=0), table)
