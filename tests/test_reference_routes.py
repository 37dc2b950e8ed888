"""The merged and batched engines against the loop implementations they
replaced (``oracles`` reference routes).  The md/ca engines, the strategy
sampler, the seeded reference draw, the kind and tuple draws and the private
array samplers must match exactly: same floats, same rng stream.  The
pair-table routes (exact and empirical all-pairs payments,
single-table measures) and the closed-form signal-plus-prediction scores sum
cells and pairs in another order, so they must match to
|got - want| <= 1e-12 * max(1, |want|), with equal infinities and the same
exception type on both sides (and, for the scores, the same message).  The
md/ca oracles take each pair's comparison subsets from the engine's batched
draw, whose law ``TestSubsetDraws`` checks against exact enumeration.  The
stacked measure kernels must give each table of a stack the exact bits of its
public single-table function, and the one-table suites and the effort suite,
which check each shape's stack of instances whole, the exact verdict JSON of their
per-instance parts (and bregman-quasi that of its per-chunk grouped route, with
stacks checked at the cap).  Block reads and their stacks must give the list-form
route's bits.  So must the report-joint core on a stack and on the exact
engines' blocks of agents (against ``report_joint`` per pair), the effort suite's
stacked payments (against ``oracles.effort_utility``) and the scenario-equivalence
suite's one stack of a scenario and its twins (against
``oracles.equivalence_payment_vectors``, and its joints against
``oracles.stacked_exact_joints``), its gathered twins' joints and world tensors (against the
per-twin ``permute_scenario`` route, ``oracles.twin_route``), and each prior mode's pair-table
body on a stack (against ``oracles.agent_pair_tables``).  The exact report tables with each
agent's effort folded into her channel must match the four-term effort mixture they replaced
(``oracles.mixture_report_tables``) bit for bit at full effort, else to 1e-12.  Last, the scores and the shifted-score
table must match their one-signal and one-cell loops bit for bit, and the log-score
gain, the reported world states and the optimal predictions their per-atom,
per-state and per-signal loops to 1e-12."""

import collections
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    BtsReportProfile,
    ConvexGenerator,
    Distribution,
    DimensionMismatch,
    EffortStrategy,
    FullJointPrior,
    JointDistribution,
    NoOverlap,
    NonBinaryAlphabet,
    PairwisePrior,
    PermutationList,
    ReportMatrix,
    Scenario,
    ScoringRule,
    Strategy,
    WorldModelPrior,
    bmi_mechanism_payments,
    bregman_mi,
    bts_idealized_scores,
    bts_payments,
    ca_payments,
    conditional_mi,
    default_config,
    divergence_monotonicity_witness,
    empirical_pair_joint,
    f_divergence,
    f_mutual_information,
    fmi_mechanism_payments,
    generate_reports,
    is_fine_grained,
    log_score_accuracy_gain,
    make_distribution,
    md_payments,
    mip_expected_payments,
    mutual_information,
    permute_scenario,
    product_of_marginals,
    push_first,
    push_second,
    random_strategy,
    replay_violation,
    report_joint,
    reported_world_states,
    run_suite,
    sampling,
    scenario_to_dict,
    shannon_mi,
    sppm_expected_payments,
    sppm_payments,
    verify,
    world_tensor,
)
from peerlab import agents as agents_module
from peerlab import cli
from peerlab import measures as measures_module
from peerlab.agents import _count_tables, _effort_rows, _inverse_cdf, _report_tables
from peerlab.errors import LogOfZero, PeerLabError, ZeroFrequency
from peerlab.mechanisms import (
    _agreement_rewards, _comparison_subsets, _empirical_joints, _empirical_mi_payments,
    _exact_inputs, _exact_joints, _peer_means, _reference_sets,
    _score_shifts, optimal_predictions,
)
from peerlab.measures import (
    _log_score_gains, _mi_kernel, _row_sums, _shannon_mi, _slice_mean,
)
from peerlab.probability import (
    TransitionMatrix, _identity_mask, _instance_rngs, _push_first, _validated_tables,
    identity_channel, rng_from_seed, uniform_distribution,
)

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


def chi2_sf(stat, df):
    """Upper tail of the chi-squared law, 1 - P(df/2, stat/2), with the regularized
    lower incomplete gamma P summed as its power series."""
    a, x = df / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return max(0.0, 1.0 - total * math.exp(a * math.log(x) - x - math.lgamma(a)))


class _FixedChoice:
    """An rng whose first ``choice`` returns the given subset and whose later
    ones return the pool's first entries."""

    def __init__(self, subset):
        self.subset = subset
        self.pools = []

    def choice(self, pool, size, replace):
        self.pools.append(pool)
        return self.subset if len(self.pools) == 1 else pool[:size]


# (own, peer, k, d): the questions each agent answered, the reward question, the
# subset size.  A never meets peer; A meets peer in part; k at the low and the high
# end of both pools; A's pool exactly d; B's pool exactly d on some rows; no B on
# some rows.
DRAW_PATTERNS = {
    "no-overlap": ([0, 1, 2, 3, 4], [4, 5, 6, 7], 4, 2),
    "partial-overlap": ([0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 8], 4, 2),
    "k-low": ([2, 3, 4, 5], [2, 3, 4, 5, 6], 2, 2),
    "k-high": ([0, 1, 2, 3, 6], [1, 2, 3, 6], 6, 1),
    "a-pool-exactly-d": ([0, 1, 2], [0, 1, 2, 3, 4, 5], 1, 2),
    "b-pool-exactly-d": ([0, 1, 2, 3], [1, 2, 3, 4, 5], 1, 2),
    "some-rows-without-b": ([0, 1, 2, 3, 4], [0, 1, 2, 4], 0, 2),
}


def enumerate_draws(own, peer, k, d):
    """Exact law of the (A, B) draw: {(A, B or None): probability}."""
    law = {}
    pool_a = [q for q in own if q != k]
    subsets_a = list(itertools.combinations(pool_a, d))
    for a in subsets_a:
        pool_b = [q for q in peer if q != k and q not in a]
        subsets_b = list(itertools.combinations(pool_b, d)) or [None]
        for b in subsets_b:
            law[(a, b)] = 1.0 / (len(subsets_a) * len(subsets_b))
    return law


class TestSubsetDraws:
    """The batched draw's law, at fixed seeds: each row's (A, B) is uniform over
    disjoint d-subsets of own \\ {k} and peer \\ ({k} u A), and a row has a B
    exactly when the per-question draw would have found one."""

    @staticmethod
    def rows(own, peer, shared, d, seed):
        """Per row, (k, A, B or None) from one batched draw."""
        ok, a, b = _comparison_subsets(np.random.default_rng(seed), np.asarray(own),
                                       np.asarray(peer), np.asarray(shared), d)
        assert a.shape == (len(shared), d) and b.shape == (int(ok.sum()), d)
        b_rows = iter(b.tolist())
        return [(k, row, next(b_rows) if good else None)
                for k, row, good in zip(list(shared), a.tolist(), ok.tolist())]

    @staticmethod
    def assert_valid_rows(own, peer, d, rows):
        for k, a, b in rows:
            assert len(set(a)) == d and set(a) <= set(own) - {k}
            old = _FixedChoice(np.array(a))
            assert (b is not None) == (
                oracles._draw_disjoint_subsets(old, np.asarray(own), np.asarray(peer), k, d)
                is not None)
            assert set(a) <= set(old.pools[0].tolist())
            if b is not None:
                assert len(set(b)) == d and set(b) <= set(peer) - {k} - set(a)

    @pytest.mark.parametrize("seed, name", enumerate(sorted(DRAW_PATTERNS)))
    def test_pair_frequencies_match_enumeration(self, seed, name):
        own, peer, k, d = DRAW_PATTERNS[name]
        law = enumerate_draws(own, peer, k, d)
        draws = 20_000
        rows = self.rows(own, peer, [k] * draws, d, seed)
        self.assert_valid_rows(own, peer, d, rows)
        counts = collections.Counter(
            (tuple(sorted(a)), None if b is None else tuple(sorted(b))) for _, a, b in rows)
        assert set(counts) <= set(law)
        expected = np.array([law[key] * draws for key in law])
        observed = np.array([counts[key] for key in law])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, len(law) - 1) > 1e-3, (name, stat, len(law))

    @pytest.mark.parametrize("seed", range(40))
    def test_rows_are_disjoint_subsets_of_their_pools(self, seed):
        rng = np.random.default_rng(seed)
        shared = own = np.zeros(0)
        while shared.size == 0 or own.size <= d:  # redraw until the pair has rows to draw
            T, d = int(rng.integers(2, 25)), int(rng.integers(1, 4))
            mask = rng.random((2, T)) < rng.uniform(0.3, 1.0)
            own, peer = np.flatnonzero(mask[0]), np.flatnonzero(mask[1])
            shared = np.intersect1d(own, peer)
        self.assert_valid_rows(own.tolist(), peer.tolist(), d,
                               self.rows(own, peer, shared, d, seed))

    def test_chi2_tail_matches_known_quantiles(self):
        # chi-squared 0.999 quantiles: df 1 -> 10.828, df 10 -> 29.588
        assert chi2_sf(10.828, 1) == pytest.approx(1e-3, rel=1e-3)
        assert chi2_sf(29.588, 10) == pytest.approx(1e-3, rel=1e-3)
        assert chi2_sf(10.0, 10) == pytest.approx(0.44049, rel=1e-4)


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


class TestStreamEqualDraws:
    """The one-integer pick and the bisected kind draw give the value of the ``rng.choice`` they
    replaced and leave the generator where it left it; each private array sampler gives the
    array of its public wrapper, with the same rng calls, and ``rng.uniform(0.0, h)`` is
    ``h * rng.random()``, which lets the effort suite scale its cost draw after the fact.
    "Where it left it" is the whole ``bit_generator.state``: a next ``rng.random()`` reads a
    fresh 64-bit word and cannot see a stray draw from PCG64's buffered 32-bit half."""

    @given(seeds, st.sampled_from([(2, 3, 4), (2, 3), (5,), tuple(range(10))]))
    @settings(max_examples=300, deadline=None)
    def test_pick_matches_choice(self, seed, seq):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        assert sampling._pick(rng_a, seq) == oracles.choice_pick(rng_b, seq)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(seeds, st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_strategy_kind_matches_choice(self, seed, draws):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        got = [sampling.random_strategy_kind(rng_a) for _ in range(draws)]
        assert got == [oracles.choice_strategy_kind(rng_b) for _ in range(draws)]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("kind", KINDS + (None,))
    @pytest.mark.parametrize("m_in, m_out", [(3, None), (3, 3), (2, 4), (4, 2), (1, 3)])
    @pytest.mark.parametrize("floor_frac", [0.0, sampling._FLOOR_FRAC])
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_channel_rows_equal_random_channel(self, kind, m_in, m_out, floor_frac, seed):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        rows = sampling._channel_rows(rng_a, m_in, m_out, kind, floor_frac)
        channel = sampling.random_channel(rng_b, m_in, m_out, kind, floor_frac)
        assert type(rows) is np.ndarray and np.array_equal(rows, channel.rows)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        if kind == "permutation" and m_in != (m_out or m_in):
            rng_c = rng_from_seed(seed)
            assert np.array_equal(rows, sampling._channel_rows(rng_c, m_in, m_out, "sparse",
                                                               floor_frac))

    @given(seeds, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from((0.0, sampling._FLOOR_FRAC)))
    @settings(max_examples=150, deadline=None)
    def test_tables_equal_public_samplers(self, seed, mz, mx, my, floor_frac):
        routes = [
            (lambda r: sampling._ci_tables(r.standard_exponential(mz * (1 + mx + my)),
                                           mz, mx, my),
             lambda r: JointDistribution(oracles.ci_table(r, mz, mx, my)).table),
            (lambda r: sampling._floored(r, (mz, mx, my)),
             lambda r: sampling.random_conditional_tensor(r, mz, mx, my).table),
            (lambda r: sampling._floored(r, (mx, my)),
             lambda r: sampling.random_joint(r, mx, my).table),
            (lambda r: sampling._floored(r, (mx,), floor_frac),
             lambda r: sampling.random_distribution(r, mx, floor_frac).weights),
        ]
        for raw, public in routes:
            rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
            table = raw(rng_a)
            assert type(table) is np.ndarray and np.array_equal(table, public(rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(seeds, st.one_of(st.just(1.5e-3), st.floats(0.0, 10.0)))
    @settings(max_examples=300, deadline=None)
    def test_uniform_from_zero_is_scaled_unit_draw(self, seed, h):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        assert np.array_equal(rng_a.uniform(0.0, h), h * rng_b.random())
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("kind", KINDS + (None,))
    @given(seeds, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_mixed_rows_equal_random_mixed_strategy(self, kind, seed, m):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        rows = sampling._channel_rows(rng_a, m, None, kind or sampling.random_strategy_kind(rng_a),
                                      0.0)
        strategy = sampling.random_mixed_strategy(rng_b, m, kind)
        assert type(rows) is np.ndarray and np.array_equal(rows, strategy.channel.rows)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(seeds, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_symmetrized_table_equals_symmetric_prior(self, seed, m):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        table = sampling._symmetrized(sampling._floored(rng_a, (m, m)))
        prior = sampling.random_pairwise_symmetric_prior(rng_b, m)
        assert type(table) is np.ndarray and np.array_equal(table, prior.joint.table)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def assert_same_stream(rng, want):
    """``rng`` and ``want`` in one state, and still so after floats, 32-bit integers (an odd
    count leaves a buffered half) and exponentials drawn from each."""
    assert rng.bit_generator.state == want.bit_generator.state
    assert rng.random(3).tolist() == want.random(3).tolist()
    assert rng.integers(5, size=3).tolist() == want.integers(5, size=3).tolist()
    assert rng.standard_exponential(3).tolist() == want.standard_exponential(3).tolist()
    assert rng.bit_generator.state == want.bit_generator.state


class TestInstanceRngs:
    """The suites' one-hash-per-chunk generators against ``rng_from_seed``, numpy's own
    SeedSequence and PCG64: each yielded generator starts in the state of
    ``rng_from_seed(seed, idx)``, whatever chunk the index comes in."""

    @given(st.integers(0, 2**63 - 1),
           st.lists(st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 2**33)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_states_and_draws_equal_rng_from_seed(self, seed, indices):
        # one and two words of index in one chunk: missing pool words hash as 0
        indices = [2**32 - 1, *indices, 2**32]
        yielded = 0
        for idx, rng in zip(indices, _instance_rngs(seed, indices)):
            assert_same_stream(rng, rng_from_seed(seed, idx))
            yielded += 1
        assert yielded == len(indices)

    @pytest.mark.parametrize("seed, indices", [
        (2**63, [0, 2**63 - 1]), (2**64 - 1, [2**32]), (2**64, [0, 2**32 - 1]),
        (2**96 - 1, [7]),
    ], ids=["2**63", "2**64-1", "3-word-seed", "3-word-seed-max"])
    def test_seeds_past_two_words_up_to_four_words_of_entropy(self, seed, indices):
        for idx, rng in zip(indices, _instance_rngs(seed, indices)):
            assert_same_stream(rng, rng_from_seed(seed, idx))

    @pytest.mark.parametrize("seed, indices", [
        (2**64, [2**32]), (2**64, [1, 2**40]), (2**96, [0]),
    ], ids=["3+2-words", "3+2-words-late", "4+1-words"])
    def test_entropy_past_four_words_raises(self, seed, indices):
        with pytest.raises(DimensionMismatch, match="4 words"):
            list(_instance_rngs(seed, indices))

    @given(st.integers(0, 2**63 - 1), st.integers(0, 2 * verify._CHUNK))
    @settings(max_examples=50, deadline=None)
    def test_chunk_of_one_has_the_state_of_the_full_run(self, seed, idx):
        # replay re-runs one instance as a chunk of one
        chunk = list(range(idx - idx % verify._CHUNK, idx - idx % verify._CHUNK + verify._CHUNK))
        states = [rng.bit_generator.state for rng in _instance_rngs(seed, chunk)]
        (alone,) = [rng.bit_generator.state for rng in _instance_rngs(seed, [idx])]
        assert alone == states[chunk.index(idx)] == rng_from_seed(seed, idx).bit_generator.state


class TestExponentialDraws:
    """The private samplers draw unit exponentials where they drew ``rng.dirichlet``, and the
    CI table draws one run of them where it looped over z: the arrays of the ``rng.dirichlet``
    forms, bit for bit, and the generator left where those forms left it.  Sparse rows take
    the bounded integers ``rng.choice(m_out, k, replace=False)`` takes, which read 32-bit
    halves, so the whole generator state is compared, buffered half included."""

    @given(seeds, st.lists(st.integers(1, 12), min_size=1, max_size=3),
           st.sampled_from((0.0, sampling._FLOOR_FRAC)))
    @settings(max_examples=300, deadline=None)
    def test_floored_equals_dirichlet_form(self, seed, shape, floor_frac):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        got = sampling._floored(rng_a, tuple(shape), floor_frac)
        assert np.array_equal(got, oracles.dirichlet_floored(rng_b, tuple(shape), floor_frac))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(seeds, st.sampled_from(KINDS + (None,)), st.integers(1, 10),
           st.one_of(st.none(), st.integers(1, 10)), st.sampled_from((0.0, sampling._FLOOR_FRAC)))
    @settings(max_examples=400, deadline=None)
    def test_channel_rows_equal_dirichlet_form(self, seed, kind, m_in, m_out, floor_frac):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        got = sampling._channel_rows(rng_a, m_in, m_out, kind, floor_frac)
        want = oracles.dirichlet_channel_rows(rng_b, m_in, m_out, kind, floor_frac)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(seeds, st.integers(1, 6), st.integers(1, 12), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_sparse_rows_equal_choice_form_after_32_bit_draws(self, seed, m_in, m_out, lead):
        # ``lead`` 32-bit draws first: an odd count leaves PCG64 holding a buffered half, which
        # the row draws' bounded integers must read as ``rng.choice`` reads it
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        for rng in (rng_a, rng_b):
            rng.integers(7, size=lead, dtype=np.uint32)
        got = sampling._channel_rows(rng_a, m_in, m_out, "sparse", 0.0)
        want = oracles.dirichlet_channel_rows(rng_b, m_in, m_out, "sparse", 0.0)
        assert np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert np.all((got > 0.0).sum(axis=1) <= 2) and np.all(got.sum(axis=1) > 1.0 - 1e-15)

    @given(seeds, st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_ci_table_equals_loop(self, seed, mz, mx, my):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        got = sampling._ci_tables(rng_a.standard_exponential(mz * (1 + mx + my)), mz, mx, my)
        assert np.array_equal(got, oracles.loop_ci_table(rng_b, mz, mx, my))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_bregman_quasi_check_per_joint_shape_equals_per_shape_and_rule(self, seed):
        # one stack per joint shape, every rule's BMI on one stack, against one group per
        # (joint shape, rule, Y channel shape) of the per-instance draws
        stacks = stacks_of(verify._bregman_quasi_read, seed, range(700))
        drawn = [oracles.bregman_quasi_draw(rng_from_seed(seed, idx)) for idx in range(700)]
        want = oracles.grouped(drawn, lambda d: (d[0].shape, d[1], d[3].shape),
                               oracles.shape_rule_bregman_quasi_check)
        for stack in stacks.values():
            columns = [col.tolist() for col in verify._bregman_quasi_check(stack)[3:]]
            assert list(zip(*columns)) == [want[idx] for idx in rows_of(stack)]
        assert {d[1] for d in drawn} == set(ScoringRule)


# one bounded or 64-bit draw of the emulation tests: (kind, bound or size)
halves_ops = st.lists(st.one_of(
    st.tuples(st.just("integers"), st.integers(1, 5) | st.sampled_from((7, 2**31 + 1, 3 * 2**30))),
    st.tuples(st.just("permutation"), st.integers(0, 9)),
    st.tuples(st.just("random"), st.just(1)),
    st.tuples(st.just("exponential"), st.integers(1, 4)),
), max_size=25)


def assert_same_128_bit_state(rng, want):
    """The two PCG64 states agree, the buffered 32-bit half aside."""
    assert rng.bit_generator.state["state"] == want.bit_generator.state["state"]


def stacks_of(read, seed: int, indices) -> dict:
    """The pending shape stacks of a suite's ``read`` over ``indices``, each instance read from
    its fresh generator and none checked."""
    stacks: dict = {}
    for idx in indices:
        read(stacks, idx, rng_from_seed(seed, idx))
    return stacks


def rows_of(stack) -> list:
    """The instance index of each row of a pending stack."""
    return stack.idx[:stack.size].tolist()


class TestReadsAndStacks:
    """The bounded draws of ``sampling._Halves`` against numpy's ``integers`` and
    ``permutation`` on the same stream, and the read + stack route of each table against the
    per-instance bodies it replaced (``oracles.channel_rows``, ``bregman_quasi_draw``,
    ``accuracy_gain_draw``, ``effort_draw``): the same bits and the same stream position, and
    for a public sampler the whole generator state, so that the caller's next numpy draws
    match; and the block reads and stacks against the list-form ones they replaced
    (``oracles.list_channel_read``, ``list_channel_stack``)."""

    @given(seeds, st.integers(0, 3), halves_ops)
    @settings(max_examples=400, deadline=None)
    def test_halves_draw_numpys_bounded_integers(self, seed, lead, ops):
        # ``lead`` 32-bit draws first: an odd count leaves a buffered half for the next bounded
        # draw; 64-bit draws in between neither read nor clear it
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        draws = sampling._Halves(rng_a)
        assert [draws.integers(7) for _ in range(lead)] == rng_b.integers(7, size=lead).tolist()
        for op, arg in ops:
            if op == "integers":
                assert draws.integers(arg) == int(rng_b.integers(arg))
            elif op == "permutation":
                assert draws.permutation(arg) == rng_b.permutation(arg).tolist()
            elif op == "random":
                assert draws.random() == rng_b.random()
            else:
                assert np.array_equal(draws.standard_exponential(arg),
                                      rng_b.standard_exponential(arg))
        want = rng_b.bit_generator.state
        assert (int(draws._has), draws._half) == (want["has_uint32"], want["uinteger"])
        assert_same_128_bit_state(rng_a, rng_b)

    @given(seeds, st.sampled_from(KINDS + (None,)), st.integers(1, 6),
           st.one_of(st.none(), st.integers(1, 6)), st.sampled_from((0.0, sampling._FLOOR_FRAC)),
           st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_channel_rows_equal_per_instance_body(self, seed, kind, m_in, m_out, floor_frac,
                                                  lead):
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        for rng in (rng_a, rng_b):
            rng.integers(7, size=lead, dtype=np.uint32)
        got = sampling._channel_rows(rng_a, m_in, m_out, kind, floor_frac)
        want = oracles.channel_rows(rng_b, m_in, m_out, kind, floor_frac)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert_same_stream(rng_a, rng_b)

    @given(seeds, st.integers(1, 5), st.integers(1, 5),
           st.lists(st.sampled_from(KINDS + (None,)), min_size=1, max_size=12),
           st.sampled_from((0.0, sampling._FLOOR_FRAC)))
    @settings(max_examples=300, deadline=None)
    def test_channel_stack_equals_each_channel_alone(self, seed, m_in, m_out, kinds, floor_frac):
        blocks = np.zeros((len(kinds), m_in, m_out))
        floored = np.array([sampling._channel_read(sampling._Halves(rng_from_seed(seed, pos)),
                                                   blocks[pos], kind)
                            for pos, kind in enumerate(kinds)])
        got = sampling._channel_stack(blocks, floored, floor_frac)
        alone = [oracles.channel_rows(rng_from_seed(seed, pos), m_in, m_out, kind, floor_frac)
                 for pos, kind in enumerate(kinds)]
        dirichlet = [oracles.dirichlet_channel_rows(rng_from_seed(seed, pos), m_in, m_out, kind,
                                                    floor_frac) for pos, kind in enumerate(kinds)]
        assert np.array_equal(got, np.stack(alone)) and np.array_equal(got, np.stack(dirichlet))

    @given(seeds, st.integers(1, 5), st.integers(1, 5),
           st.lists(st.sampled_from(KINDS + (None,)), min_size=1, max_size=12),
           st.sampled_from((0.0, sampling._FLOOR_FRAC)))
    @settings(max_examples=300, deadline=None)
    def test_block_reads_and_stacks_equal_list_route(self, seed, m_in, m_out, kinds,
                                                      floor_frac):
        # each block read leaves the stream where the list-form read left it, and the stack of
        # the blocks, of one read alone or of all of them, is the list-form stack bit for bit
        blocks, floored, reads = np.zeros((len(kinds), m_in, m_out)), [], []
        for pos, kind in enumerate(kinds):
            rng_a, rng_b = rng_from_seed(seed, pos), rng_from_seed(seed, pos)
            draws_a, draws_b = sampling._Halves(rng_a), sampling._Halves(rng_b)
            floored.append(sampling._channel_read(draws_a, blocks[pos], kind))
            reads.append(oracles.list_channel_read(draws_b, m_in, m_out, kind))
            assert (draws_a._has, draws_a._half) == (draws_b._has, draws_b._half)
            assert_same_128_bit_state(rng_a, rng_b)
        floored = np.array(floored)
        got = sampling._channel_stack(blocks, floored, floor_frac)
        assert np.array_equal(got, oracles.list_channel_stack(reads, m_in, m_out, floor_frac))
        for pos, read in enumerate(reads):
            alone = sampling._channel_stack(blocks[pos:pos + 1], floored[pos:pos + 1], floor_frac)
            assert np.array_equal(alone,
                                  oracles.list_channel_stack([read], m_in, m_out, floor_frac))

    @given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bregman_quasi_stacks_equal_per_instance_draws(self, seed, indices):
        for stack in stacks_of(verify._bregman_quasi_read, seed, indices).values():
            drawn = [oracles.bregman_quasi_draw(rng_from_seed(seed, idx))
                     for idx in rows_of(stack)]
            assert [sampling._RULES[r] for r in stack.rule[:stack.size]] == [d[1] for d in drawn]
            for got, pos in zip(verify._bregman_quasi_check(stack)[:3], (0, 2, 3)):
                assert np.array_equal(got, np.stack([d[pos] for d in drawn]))

    @given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_gain_stacks_equal_per_instance_draws(self, seed, indices):
        for stack in stacks_of(verify._accuracy_gain_read, seed, indices).values():
            drawn = [oracles.accuracy_gain_draw(rng_from_seed(seed, idx), idx)
                     for idx in rows_of(stack)]
            assert np.array_equal(verify._accuracy_gain_tensors(stack), np.stack(drawn))

    @given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_effort_stacks_equal_per_instance_draws(self, seed, indices):
        for (m, n), stack in stacks_of(verify._effort_read, seed, indices).items():
            size = stack.size
            drawn = [oracles.effort_draw(rng_from_seed(seed, idx)) for idx in rows_of(stack)]
            assert [d[0] for d in drawn] == [n] * size
            assert [sampling._GENERATORS[g] for g in stack.gen[:size]] == [d[2] for d in drawn]
            assert stack.cost_unit[:size].tolist() == [d[3] for d in drawn]
            assert stack.lam[:size].tolist() == [d[4] for d in drawn]
            joints = sampling._floored_tables(stack.joint[:size])
            assert np.array_equal(joints, np.stack([d[1] for d in drawn]))
            rows = sampling._channel_stack(stack.rows[:size], stack.floored[:size], 0.0)
            assert np.array_equal(rows, np.stack([d[5] for d in drawn]))

    @given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_effort_group_check_equals_per_generator_groups(self, seed, indices):
        # one stack per (alphabet, peer count) mixes generators; each generator's rows of
        # every column must be the bits of the check of that generator's instances alone
        for stack in stacks_of(verify._effort_read, seed, indices).values():
            got = verify._effort_check(stack)
            assert len(got) == 7 and all(len(col) == stack.size for col in got)
            drawn = [oracles.effort_draw(rng_from_seed(seed, idx)) for idx in rows_of(stack)]
            assert np.array_equal(got[0], sampling._symmetrized(np.stack([d[1] for d in drawn])))
            gens = stack.gen[:stack.size]
            for code in set(gens.tolist()):
                at = gens == code
                want = oracles.generator_effort_check([d for d, here in zip(drawn, at) if here])
                for column, alone in zip(got[1:], want):
                    assert np.array_equal(column[at], alone)

    @pytest.mark.parametrize("suite", ["bregman-quasi", "accuracy-gain", "effort"])
    def test_reads_leave_the_stream_where_the_draws_left_it(self, suite):
        read, draw = {
            "bregman-quasi": (lambda r: verify._bregman_quasi_read({}, 0, r),
                              oracles.bregman_quasi_draw),
            "accuracy-gain": (lambda r: verify._accuracy_gain_read({}, 4, r),
                              lambda r: oracles.accuracy_gain_draw(r, 4)),
            "effort": (lambda r: verify._effort_read({}, 0, r), oracles.effort_draw),
        }[suite]
        for idx in range(200):
            rng_a, rng_b = rng_from_seed(3, idx), rng_from_seed(3, idx)
            read(rng_a)
            draw(rng_b)
            assert_same_128_bit_state(rng_a, rng_b)


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
        assert_close(_peer_means(_exact_joints(*_exact_inputs(scenario)), _agreement_rewards)[0],
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
        m = scenario.alphabet_size
        a = _effort_rows(s[i].channel.rows, e(i).full_effort_prob,
                         e(i).resolve_no_effort(m).weights)
        b = _effort_rows(np.array([s[j].channel.rows for j in refs]),
                         np.array([e(j).full_effort_prob for j in refs])[:, None, None],
                         np.array([e(j).resolve_no_effort(m).weights for j in refs]))
        got = _report_tables(a, b, oracles.agent_pair_tables(prior, i, refs))
        want = [oracles.loop_report_joint(prior, i, j, s[i], s[j], e(i), e(j)).table for j in refs]
        assert_close(got, np.array(want) / len(refs))


class TestExactBlocks:
    """The exact engines build a block of agents per report-table call, of about
    ``COUNT_CELLS`` cells; each agent's (J, report_i, report_J) table must have the bits of
    the per-pair public joints divided by n - 1, whatever the blocks."""

    @staticmethod
    def per_pair_tables(scenario):
        s, e, n, prior = scenario.strategies, scenario.effort, scenario.n_agents, scenario.prior
        return np.array([[report_joint(prior, i, j, s[i], s[j], e(i), e(j)).table / (n - 1)
                          for j in range(n) if j != i] for i in range(n)])

    @staticmethod
    def blocks(scenario, cells):
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            blocks = list(_exact_joints(*_exact_inputs(scenario)))
        assert all(b.shape[0] == 1 for b in blocks)  # a stack of one scenario
        return [b[0] for b in blocks]

    @given(st.sampled_from((1, 40, agents_module.COUNT_CELLS)), seeds, st.integers(2, 6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_per_pair_joints(self, cells, seed, n, efforts):
        scenario = random_scenario(seed, n, efforts)
        blocks = self.blocks(scenario, cells)
        size = max(cells // ((n - 1) * scenario.alphabet_size**2), 1)
        assert [len(b) for b in blocks] == [len(range(n)[k:k + size]) for k in range(0, n, size)]
        assert np.array_equal(np.concatenate(blocks), self.per_pair_tables(scenario))

    @given(st.sampled_from((1, 40, agents_module.COUNT_CELLS)), seeds, st.integers(2, 6),
           st.booleans(), st.sampled_from(tuple(ConvexGenerator)))
    @settings(max_examples=100, deadline=None)
    def test_first_block_gives_agent0_engine_payment(self, cells, seed, n, efforts, gen):
        # sweep --kind fmi-gap reads agent 0 from the first block alone, exact and counted
        scenario = random_scenario(seed, n, efforts)
        m = scenario.alphabet_size
        reports = ReportMatrix.full(rng_from_seed(seed).integers(m, size=(n, 100)), m)
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            blocks = _exact_joints(*_exact_inputs(scenario))
            exact = cli._agent0_payment((b[0] for b in blocks), gen)
            assert exact == mip_expected_payments(scenario, gen).payments[0]
            counted = cli._agent0_payment(_empirical_joints(reports, PAIRINGS[0], None), gen)
            assert counted == fmi_mechanism_payments(reports, gen).payments[0]

    def test_module_sizes_split_into_blocks(self):
        # 130 agents of 4 signals: blocks of 131072 // (129 * 16) = 63 agents, then 4
        rng = rng_from_seed(13)
        prior = sampling.random_world_model(rng, 3, 4)
        strategies = tuple(sampling.random_mixed_strategy(rng, 4) for _ in range(130))
        efforts = tuple(EffortStrategy(float(rng.uniform())) for _ in range(130))
        scenario = Scenario(prior, strategies, efforts)
        blocks = self.blocks(scenario, agents_module.COUNT_CELLS)
        assert [len(b) for b in blocks] == [63, 63, 4]
        assert np.array_equal(np.concatenate(blocks), self.per_pair_tables(scenario))


class TestAgentZeroRoute:
    """The effort oracle reads agent 0's payment from the all-agents engine; its utility,
    payment - lam * cost, must be the very float the engine's utilities give."""

    @given(seeds, st.integers(2, 5), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
           st.sampled_from(MEASURES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_effort_utility_equals_engine(self, seed, n, lam, cost, measure, data):
        prior = random_scenario(seed, n, False).prior
        m = prior.alphabet_size
        active = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        peers = [EffortStrategy(1.0 if active is None or k < active else 0.0, 0.0)
                 for k in range(n - 1)]
        scenario = Scenario(prior, tuple(Strategy(identity_channel(m)) for _ in range(n)),
                            (EffortStrategy(lam, cost), *peers))
        want = mip_expected_payments(scenario, measure).utilities[0]
        assert oracles.effort_utility(prior, n, m, lam, cost, measure, active) == want


class TestReportStacks:
    """The report-joint core pays a whole stack at once (an effort grid, a stack of channels);
    each table of the stack must have the bits of the public per-pair calls on its slice,
    divided by the k reference agents."""

    @given(seeds, st.sampled_from((2, 3, 4)), st.integers(2, 4), st.integers(1, 3),
           st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_leading_axes_equal_per_slice_calls(self, seed, m, n, lead, own_stacked,
                                                peers_stacked, data):
        rng = rng_from_seed(seed)
        prior = (sampling.random_full_joint_prior(rng, n, m) if data.draw(st.booleans())
                 else sampling.random_pairwise_symmetric_prior(rng, m))
        refs, k = list(range(1, n)), n - 1

        def agent():
            lam = data.draw(st.sampled_from([0.0, 1.0, float(rng.uniform())]))
            return (sampling.random_mixed_strategy(rng, m),
                    EffortStrategy(lam, 0.0, sampling.random_distribution(rng, m)))

        # agent 0's inputs, and its peers', either carry the leading axis or are one shared slice
        own = [agent() for _ in range(lead if own_stacked else 1)]
        peers = [[agent() for _ in refs] for _ in range(lead if peers_stacked else 1)]
        a = np.array([s.channel.rows for s, _ in own])[:, None]
        li = np.array([e.full_effort_prob for _, e in own])[:, None, None, None]
        xi = np.array([e.no_effort_report.weights for _, e in own])[:, None]
        b = np.array([[s.channel.rows for s, _ in row] for row in peers])
        lj = np.array([[e.full_effort_prob for _, e in row] for row in peers])[..., None, None]
        xj = np.array([[e.no_effort_report.weights for _, e in row] for row in peers])
        got = _report_tables(_effort_rows(a, li, xi), _effort_rows(b, lj, xj),
                             oracles.agent_pair_tables(prior, 0, refs))
        assert got.shape == (max(len(own), len(peers)), k, m, m)
        for t, table in enumerate(got):
            (s_i, e_i), row = own[min(t, len(own) - 1)], peers[min(t, len(peers) - 1)]
            want = [report_joint(prior, 0, j, s_i, s_j, e_i, e_j).table / k
                    for j, (s_j, e_j) in zip(refs, row)]
            assert np.array_equal(table, want)


class TestEffortStacks:
    """The effort suite pays each grid, each list of active-peer counts and each mixture
    triple from one stack; every value must be the very float of the one-scenario-per-point
    route it replaced (``oracles.effort_utility``, one ``report_joint`` per mixture joint)."""

    @given(seeds, st.sampled_from((2, 3, 4)), st.sampled_from((2, 3)),
           st.sampled_from(MEASURES), st.floats(0.0, 2.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_grid_and_active_peers_equal_reference(self, seed, m, n, measure, cost, canonical):
        if canonical:
            prior, m = PairwisePrior(JointDistribution(verify._CANONICAL_BINARY)), 2
        else:
            prior = sampling.random_pairwise_symmetric_prior(rng_from_seed(seed), m)
        grid = verify._EFFORT_GRID
        q = prior._pairs([0], [range(1, n)])[0, 0]
        pay, active = (_slice_mean(t, _mi_kernel(measure))[:, 0]
                       for t in verify._effort_tables(q[None]))
        want = [oracles.effort_utility(prior, n, m, float(lam), cost, measure) for lam in grid]
        assert np.array_equal(pay - grid * cost, want)
        want = [oracles.effort_utility(prior, n, m, 1.0, 0.0, measure, a) for a in range(n)]
        assert np.array_equal(active, want)

    @given(seeds, st.sampled_from((2, 3, 4)), st.sampled_from(MEASURES),
           st.sampled_from(KINDS), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_mixture_triple_equals_reference(self, seed, m, measure, kind, lam):
        rng = rng_from_seed(seed)
        prior = sampling.random_pairwise_symmetric_prior(rng, m)
        strat = sampling.random_mixed_strategy(rng, m, kind)
        li = np.array([1.0, 0.0, lam])[:, None, None, None]
        mixed = _effort_rows(strat.channel.rows, li, uniform_distribution(m).weights)
        joints = _report_tables(mixed, np.eye(m), prior._pairs([0], [[1]])[0, 0])[:, 0]
        truth = Strategy(identity_channel(m))
        want = [report_joint(prior, 0, 1, strat, truth, EffortStrategy(l), EffortStrategy(1.0))
                for l in (1.0, 0.0, lam)]
        assert np.array_equal(joints, [w.table for w in want])
        assert np.array_equal(_mi_kernel(measure)(joints),
                              [mutual_information(w, measure) for w in want])


class TestFoldedEffort:
    """Each agent's effort folded into her channel (``agents._effort_rows``), then one aᵀ q b,
    against the four-term mixture over the effort coins it replaced
    (``oracles.mixture_report_tables``): bit for bit where every effort probability is 1, else
    to REL_TOL, on stacks of channels, on the effort suite's grid and active-peer broadcasts
    and on the exact engines' stacks of scenarios, whatever the blocks."""

    @staticmethod
    def assert_matches(got, want, full):
        if full:
            assert np.array_equal(got, want)
        else:
            assert_close(got, want)

    @given(seeds, st.sampled_from((2, 3, 4)), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_mixture(self, seed, m, k, lead, full, data):
        rng = rng_from_seed(seed)

        def channels(*shape):
            return np.array([sampling.random_mixed_strategy(rng, m).channel.rows
                             for _ in range(math.prod(shape))]).reshape(*shape, m, m)

        def probs(*shape):
            levels = [1.0] if full else [0.0, 1.0, float(rng.uniform())]
            return np.array(data.draw(st.lists(st.sampled_from(levels), min_size=math.prod(shape),
                                               max_size=math.prod(shape)))).reshape(*shape, 1, 1)

        def weights(*shape):
            return np.array([sampling.random_distribution(rng, m).weights
                             for _ in range(math.prod(shape))]).reshape(*shape, m)

        a, b, q = channels(lead, 1), channels(lead, k), channels(k) / m  # q: tables of mass 1
        li, lj, xi, xj = probs(lead, 1), probs(lead, k), weights(lead, 1), weights(lead, k)
        got = _report_tables(_effort_rows(a, li, xi), _effort_rows(b, lj, xj), q)
        self.assert_matches(got, oracles.mixture_report_tables(a, b, q, li, lj, xi, xj), full)

    @given(seeds, st.sampled_from((2, 3, 4)), st.sampled_from((2, 3)), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_effort_grid_and_active_peers_equal_mixture(self, seed, m, n, size):
        rng = rng_from_seed(seed)
        priors = [sampling.random_pairwise_symmetric_prior(rng, m) for _ in range(size)]
        q = np.stack([p._pairs([0], [range(1, n)])[0, 0] for p in priors])
        eye, x, k = np.eye(m), uniform_distribution(m).weights, n - 1
        grid, active = verify._effort_tables(q)
        lam = verify._EFFORT_GRID[:, None, None, None, None]
        want = oracles.mixture_report_tables(eye, eye, q, lam, 1.0, x, x[None])
        self.assert_matches(grid[-1], want[-1], True)  # the grid's last level is 1
        assert_close(grid, want)
        peers = np.tri(k + 1, k, -1)[:, None, :, None, None]
        want = oracles.mixture_report_tables(eye, eye, q, 1.0, peers, x, x[None])
        self.assert_matches(active[-1], want[-1], True)  # the last row has every peer investing
        assert_close(active, want)

    @given(seeds, st.sampled_from(("full", "pairwise", "world")), st.sampled_from((2, 3, 5)),
           st.sampled_from((2, 3)), st.lists(st.booleans(), min_size=1, max_size=6),
           st.sampled_from((1, 40, agents_module.COUNT_CELLS)))
    @settings(max_examples=100, deadline=None)
    def test_exact_joint_stacks_equal_mixture(self, seed, mode, n, m, efforts, cells):
        rng = rng_from_seed(seed)
        scenarios = [mode_scenario(rng, mode, n, m, e, states=3) for e in efforts]
        pairs = functools.partial(scenarios[0].prior._pairs,
                                  stack=prior_stack([s.prior for s in scenarios]))
        rows = np.concatenate([_exact_inputs(s)[1] for s in scenarios])
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            got = np.concatenate(list(_exact_joints(pairs, rows)), axis=1)
        refs = _reference_sets(n, PAIRINGS[0], None)
        own = [[s.effort(i) for i in range(n)] for s in scenarios]
        probs = np.array([[e.full_effort_prob for e in row] for row in own])[..., None, None]
        lazy = np.array([[e.resolve_no_effort(m).weights for e in row] for row in own])
        channels = np.array([[strat.channel.rows for strat in s.strategies] for s in scenarios])
        want = oracles.mixture_report_tables(
            channels[:, :, None], channels[:, refs], pairs(np.arange(n), refs),
            probs[:, :, None], probs[:, refs], lazy[:, :, None], lazy[:, refs])
        for t, effort in enumerate(efforts):
            self.assert_matches(got[t], want[t], not effort)


def mode_scenario(rng, mode: str, n: int, m: int, efforts: bool, states=None,
                  symmetric=True) -> Scenario:
    """A scenario of the scenario-equivalence suite's kind under one prior mode; a world model
    has 2 or 3 states, drawn, unless ``states`` fixes the count, and a pairwise prior is
    symmetric unless ``symmetric`` is cleared, so that a transposed table shows."""
    if mode == "full":
        prior = sampling.random_full_joint_prior(rng, n, m)
    elif mode == "pairwise" and not symmetric:
        prior = PairwisePrior(sampling.random_joint(rng, m, m), symmetric=False)
    elif mode == "pairwise":
        prior = sampling.random_pairwise_symmetric_prior(rng, m)
    else:
        prior = sampling.random_world_model(
            rng, int(rng.integers(2, 4)) if states is None else states, m)
    strategies = tuple(sampling.random_mixed_strategy(rng, m) for _ in range(n))
    profile = tuple(EffortStrategy(float(rng.uniform()), float(rng.uniform(0, 0.5)))
                    for _ in range(n)) if efforts else None
    return Scenario(prior, strategies, profile)


def prior_stack(priors) -> tuple:
    """The raw arrays of priors of one mode and shape, as one stack."""
    stacks = [p._stack() for p in priors]
    return {name: np.concatenate([stack[name] for stack in stacks]) for name in stacks[0]}


class TestPairBlocks:
    """Each prior mode's one pair-table body, over a stack of priors and a block of agents,
    must give each prior the very tables of the per-agent body it replaced
    (``oracles.agent_pair_tables``), whatever the agents, their reference rows and, for the
    full-joint marginals and the world-model state sums, the number of terms summed."""

    @given(seeds, st.sampled_from(("full", "pairwise", "world")), st.integers(2, 5),
           st.sampled_from((2, 3, 4)), st.integers(1, 4), st.integers(1, 10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_equals_per_agent_bodies(self, seed, mode, n, m, size, states, data):
        rng = rng_from_seed(seed)
        priors = [mode_scenario(rng, mode, n, m, False, states, symmetric=False).prior
                  for _ in range(size)]
        own = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        refs = np.array([data.draw(st.permutations([j for j in range(n) if j != i]))
                         for i in own])
        got = priors[0]._pairs(own, refs, prior_stack(priors))
        assert got.shape == (size, len(own), n - 1, m, m)
        for s, prior in enumerate(priors):
            assert np.array_equal(prior._pairs(own, refs)[0], got[s])
            for a, i in enumerate(own):
                assert np.array_equal(got[s, a], oracles.agent_pair_tables(prior, i, refs[a]))
            i, j = own[0], refs[0, 0]
            assert np.array_equal(prior.pair_joint(i, j).table,
                                  oracles.agent_pair_tables(prior, i, [j])[0])


class TestEquivalenceStack:
    """The scenario-equivalence suite pays a scenario and its ten relabeled twins as one stack
    of gathered arrays; each kernel's payments and both bts scores must be the very floats of
    the one-scenario-at-a-time route it replaced (``oracles.equivalence_payment_vectors``),
    under every prior mode of the suite, and a violation must name its own mechanism's
    payments; the gathered twins' joints and world tensors those of
    the per-twin ``permute_scenario`` route (``oracles.twin_route``); and the joints of any
    stack of scenarios those of ``oracles.stacked_exact_joints``, whatever the blocks."""

    @given(seeds, st.sampled_from((2, 3)), st.sampled_from((2, 3)),
           st.sampled_from(("full", "pairwise", "world")), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_scenario_route(self, seed, m, n, mode, efforts):
        rng = rng_from_seed(seed)
        scenario = mode_scenario(rng, mode, n, m, efforts)
        stacks, gains, maps = [], [], []
        slice_mean, log_gains, random_maps = (verify._slice_mean, verify._log_score_gains,
                                              verify._random_maps)

        def spied_mean(tables, per_slice):
            stacks.append(slice_mean(tables, per_slice))
            return stacks[-1]

        def spied_gains(tensors):
            gains.append(log_gains(tensors))
            return gains[-1]

        def spied_maps(*args):
            maps.append(random_maps(*args))
            return maps[-1]

        config = default_config("scenario-equivalence", instances=1)
        with mock.patch.object(verify, "_random_equivalence_scenario",
                               return_value=(scenario, None)), \
                mock.patch.object(verify, "_slice_mean", spied_mean), \
                mock.patch.object(verify, "_log_score_gains", spied_gains), \
                mock.patch.object(verify, "_random_maps", spied_maps):
            verify._scenario_equivalence_instance(verify._Recorder(config), config, 0, rng)
        kernels = verify._equivalence_kernels(PairwisePrior(scenario.prior.pair_joint(0, 1),
                                                            symmetric=False))
        world = mode == "world"
        # one slice mean of every kernel's stacked payments, then the bts information score on
        # a world model
        assert (len(stacks), len(gains), len(maps)) == (1 + world, int(world),
                                                        verify._PERM_LISTS)
        stacked = stacks[0]
        assert stacked.shape == (len(kernels), 1 + verify._PERM_LISTS, n)
        twins = [oracles.matrix_permute_scenario(scenario, p) for p in maps]
        for t, paid in enumerate([scenario] + twins):
            want = oracles.equivalence_payment_vectors(paid, kernels)
            for name, got in zip(kernels, stacked):
                assert np.array_equal(got[t], want[name]), name
            if world:
                assert stacks[-1][t] == want["bts-idealized-information"][0]
                assert -gains[0][t] == want["bts-idealized-prediction"][0]

    @given(seeds, st.sampled_from((2, 3)), st.sampled_from((2, 3)),
           st.sampled_from(("full", "pairwise", "world")), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_violations_name_each_kernel_payment(self, seed, m, n, mode, efforts):
        # the twins' joints are another scenario's, so payments differ: each violation must
        # carry its own mechanism's largest difference, as the per-scenario route gives it
        rng = rng_from_seed(seed)
        scenario, other = (mode_scenario(rng, mode, n, m, efforts) for _ in range(2))
        twins, maps = verify._equivalence_twins, []

        def other_twins(base, twin_maps):
            maps.extend(twin_maps)
            stack, channels, tables, tensors = twins(base, twin_maps)
            return stack, channels, np.concatenate([tables[:1], twins(other, twin_maps)[2][1:]]), \
                tensors

        config = default_config("scenario-equivalence", instances=1)
        rec = verify._Recorder(config)
        with mock.patch.object(verify, "_random_equivalence_scenario",
                               return_value=(scenario, None)), \
                mock.patch.object(verify, "_equivalence_twins", other_twins):
            verify._scenario_equivalence_instance(rec, config, 0, rng)
        kernels = verify._equivalence_kernels(PairwisePrior(scenario.prior.pair_joint(0, 1),
                                                            symmetric=False))
        base = oracles.equivalence_payment_vectors(scenario, kernels)
        want = []
        for twin_maps in maps[1:]:
            paid = oracles.equivalence_payment_vectors(
                oracles.matrix_permute_scenario(other, twin_maps), kernels)
            diffs = {name: float(np.abs(paid[name] - base[name]).max()) for name in kernels}
            want += [(name, diffs[name]) for name in sorted(kernels) if diffs[name] > 1e-12]
        got = [(v["data"]["mechanism"], v["data"]["difference"]) for v in rec.violations
               if v["claim"] == "payments_identical" and v["data"]["mechanism"] in kernels]
        assert got == want and len(want) > 0

    @given(seeds, st.sampled_from(("full", "pairwise", "world")), st.sampled_from((2, 3, 5)),
           st.sampled_from((2, 3)), st.booleans(), st.booleans(), st.integers(1, 11),
           st.sampled_from((1, 40, agents_module.COUNT_CELLS)))
    @settings(max_examples=150, deadline=None)
    def test_gathered_twins_equal_per_twin_route(self, seed, mode, n, m, efforts, shared, count,
                                                 cells):
        # per-agent maps only where the prior allows them, under a full joint
        rng = rng_from_seed(seed)
        scenario = mode_scenario(rng, mode, n, m, efforts, symmetric=False)
        rows = 1 if shared or mode != "full" else n
        maps = np.array([np.resize([rng.permutation(m) for _ in range(rows)], (n, m))
                         for _ in range(count)])
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            stack, channels, tables, tensors = verify._equivalence_twins(scenario, maps)
            twins, want_tables, want_tensors = oracles.twin_route(scenario, maps)
        assert np.array_equal(tables, want_tables)
        assert (tensors is None) == (want_tensors is None) == (mode != "world")
        if tensors is not None:  # and the scores read from them, which can see their layout
            kl = _mi_kernel(ConvexGenerator.KL)
            assert np.array_equal(tensors, want_tensors)
            assert np.array_equal(_slice_mean(tensors, kl), _slice_mean(want_tensors, kl))
            assert np.array_equal(_log_score_gains(tensors), _log_score_gains(want_tensors))
        for t, twin in enumerate(twins):
            assert np.array_equal(channels[t], [s.channel.rows for s in twin.strategies])
            for name, want in twin.prior._stack().items():
                assert np.array_equal(stack[name][t], want[0])

    @given(seeds, st.sampled_from(("full", "pairwise", "world")), st.sampled_from((2, 3, 5)),
           st.sampled_from((2, 3)), st.lists(st.booleans(), min_size=2, max_size=11),
           st.sampled_from((1, 40, 300, agents_module.COUNT_CELLS)))
    @settings(max_examples=120, deadline=None)
    def test_joint_stack_equals_per_scenario_route(self, seed, mode, n, m, efforts, cells):
        # scenarios of one (n, m), each with no efforts or drawn ones; small budgets split the
        # agents into several blocks of the whole stack
        rng = rng_from_seed(seed)
        scenarios = [mode_scenario(rng, mode, n, m, e, states=3) for e in efforts]
        pairs = functools.partial(scenarios[0].prior._pairs,
                                  stack=prior_stack([s.prior for s in scenarios]))
        rows = np.concatenate([_exact_inputs(s)[1] for s in scenarios])
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            blocks = list(_exact_joints(pairs, rows))
            want = oracles.stacked_exact_joints(scenarios)
        size = max(cells // (len(scenarios) * (n - 1) * m * m), 1)
        assert [b.shape[:2] for b in blocks] == [(len(scenarios), len(range(n)[k:k + size]))
                                                 for k in range(0, n, size)]
        assert np.array_equal(np.concatenate(blocks, axis=1), want)


def assert_same_scenario(got, want):
    assert scenario_to_dict(got) == scenario_to_dict(want)


class TestMatrixRelabelRoute:
    """Relabeling by index maps gives the very scenario the permutation-matrix route gave."""

    @given(seeds, st.integers(2, 4), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_maps_match_matrix_route(self, seed, n, efforts, data):
        scenario = random_scenario(seed, n, efforts)
        m = scenario.alphabet_size
        maps = [data.draw(st.permutations(range(m))) for _ in range(n)]
        if not isinstance(scenario.prior, FullJointPrior) and data.draw(st.booleans()):
            maps = [maps[0]] * n
        perms = PermutationList(maps)
        got = outcome(permute_scenario, scenario, perms)
        want = outcome(oracles.matrix_permute_scenario, scenario, maps)
        assert_same_outcome(got, want, assert_same_scenario)
        assert perms.inverse().maps.tolist() == oracles.matrix_inverse_maps(maps)
        if got[0] is not None:
            assert_same_scenario(permute_scenario(got[0], perms.inverse()), scenario)


@pytest.mark.parametrize("make", [uniform_distribution, identity_channel])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_shared_constants_are_read_only(make, m):
    value = make(m)
    assert make(m) is value
    array = value.weights if make is uniform_distribution else value.rows
    with pytest.raises(ValueError):
        array[0] = 0.5
    assert np.array_equal(array, np.full(m, 1.0 / m) if make is uniform_distribution else np.eye(m))


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
            return np.array([oracles.loop_empirical_pair_joint(reports, i, j).table for j in refs])

        def kernel_stack():
            (tables,) = _count_tables(reports, np.array([i]), np.array([refs]))
            return tables[0]

        assert_same_outcome(outcome(kernel_stack), outcome(loop_stack),
                            lambda a, b: np.testing.assert_array_equal(a, b))

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
def bts_profiles(draw):
    """A signal/prediction profile with n in 3..12 and m in 2..4, optionally with one
    agent alone with its signal, and with zero prediction cells on some agents' own
    signal, on a signal nobody reports, or on a reported signal."""
    n, m = draw(st.integers(3, 12)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(seeds))
    zeros = draw(st.sets(st.sampled_from(("own", "unreported", "reported"))))
    reported = m - 1 if "unreported" in zeros else m
    signals = rng.integers(0, reported, n)
    if draw(st.booleans()):  # a lone dissenter
        signals[:] = signals[0]
        signals[rng.integers(n)] = (signals[0] + 1) % reported
    preds = rng.dirichlet(np.ones(m), size=n)
    rate = draw(st.floats(0.0, 0.6))
    if "own" in zeros:
        hit = rng.random(n) < rate
        preds[hit, signals[hit]] = 0.0
    if "unreported" in zeros:
        preds[rng.random(n) < rate, reported:] = 0.0
    if "reported" in zeros:
        preds[rng.random(n) < rate, signals[rng.integers(n)]] = 0.0
    preds[preds.sum(axis=1) <= 0.0] = 1.0
    preds /= preds.sum(axis=1, keepdims=True)
    return BtsReportProfile(signals, tuple(Distribution(p) for p in preds))


def outcome_with_message(fn, *args):
    """(value, None) on success, (None, (exception type, message)) on a PeerLabError."""
    try:
        return fn(*args), None
    except PeerLabError as exc:
        return None, (type(exc), str(exc))


def assert_close_scores(got, want):
    assert_close_report(got, want)
    assert_close(got.information_scores, want.information_scores)
    assert_close(got.prediction_scores, want.prediction_scores)
    assert np.all(np.isfinite(got.payments))


class TestGramCounts:
    """The Gram count kernel against the bincount route it replaced and the per-pair loop,
    bit for bit.  ``COUNT_CELLS`` is patched small so that the examples split the agents
    into several blocks and the 64-question words into several steps; T falls below, on
    and past the word and step edges, and on both sides of the edges where the count store
    widens from uint8 to uint16 and from uint16 to uint32."""

    @staticmethod
    def bincount_route(reports, refs):
        return [oracles.bincount_empirical_pair_joint(reports, i, row).table
                for i, row in enumerate(refs)]

    @given(st.sampled_from((1, 8, 40, 300, agents_module.COUNT_CELLS)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_joints_match_bincount_and_loop(self, cells, data):
        m = data.draw(st.integers(2, 4))
        n = data.draw(st.sampled_from((2, 3)) | st.integers(4, 9))
        T = data.draw(st.sampled_from((1, 63, 64, 65, 128, 129, 255, 256, 300, 320))
                      | st.sampled_from((65535, 65536, 70000)) | st.integers(1, 400))
        rng = np.random.default_rng(data.draw(seeds))
        entries = rng.integers(0, m, (n, T))
        mask = rng.random((n, T)) < data.draw(st.floats(0.2, 1.0))
        entries[~mask] = rng.integers(-3, m + 3, int((~mask).sum()))  # never read
        reports = ReportMatrix(entries, mask, m)
        pairing, seed = data.draw(st.sampled_from(PAIRINGS)), data.draw(seeds)
        refs = _reference_sets(n, pairing, seed)
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            got = outcome_with_message(lambda: np.concatenate(list(
                _empirical_joints(reports, pairing, seed))))
        want = outcome_with_message(self.bincount_route, reports, refs)
        assert got[1] == want[1]
        if want[1] is None:
            assert np.array_equal(got[0], np.array(want[0]))
            loop = [[oracles.loop_empirical_pair_joint(reports, i, j).table / len(row)
                     for j in row] for i, row in enumerate(refs)]
            assert np.array_equal(got[0], np.array(loop))

    @given(masked_reports(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_public_forms_match_bincount(self, reports, data):
        who = st.integers(0, reports.n_agents - 1)
        i = data.draw(who)
        j = data.draw(who)
        got = outcome_with_message(empirical_pair_joint, reports, i, j)
        want = outcome_with_message(oracles.bincount_empirical_pair_joint, reports, i, j)
        assert got[1] == want[1]
        if want[1] is None:
            assert np.array_equal(got[0].table, want[0].table)

    @pytest.mark.parametrize("pairing", PAIRINGS)
    def test_module_sizes_match_bincount(self, pairing):
        # all-pairs: 130 agents of 129 references span three blocks, 200 questions four words
        # (one step each)
        n, T, m = 130, 200, 4
        rng = np.random.default_rng(11)
        reports = ReportMatrix(rng.integers(0, m, (n, T)), rng.random((n, T)) < 0.7, m)
        refs = _reference_sets(n, pairing, 5)
        got = np.concatenate(list(_empirical_joints(reports, pairing, 5)))
        assert np.array_equal(got, np.array(self.bincount_route(reports, refs)))

    @given(masked_reports(), st.sampled_from(MEASURES), st.sampled_from(PAIRINGS), seeds)
    @settings(max_examples=100, deadline=None)
    def test_payments_are_the_per_agent_bits(self, reports, measure, pairing, seed):
        # one kernel call per block of agents gives each agent the bits of its own call
        refs = _reference_sets(reports.n_agents, pairing, seed)
        got = outcome(_empirical_mi_payments, reports, measure, pairing, seed, "x")
        want = outcome(lambda: np.array([_slice_mean(table, _mi_kernel(measure)) for table in
                                         self.bincount_route(reports, refs)]))
        assert_same_outcome(got, want, lambda a, b: np.testing.assert_array_equal(a.payments, b))

    def test_no_overlap_names_first_agent_and_reference(self):
        # agents 0 and 2 answer the last two questions, 1 and 4 the first two, 3 none
        mask = np.array([[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 0, 0]],
                        dtype=bool)
        reports = ReportMatrix(np.zeros((5, 4), dtype=int), mask, 2)
        for pairing in PAIRINGS:
            refs = _reference_sets(5, pairing, 3)
            with mock.patch.object(agents_module, "COUNT_CELLS", 8):  # blocks of one or two agents
                got = outcome_with_message(lambda: list(_empirical_joints(reports, pairing, 3)))
            want = outcome_with_message(self.bincount_route, reports, refs)
            assert want[1] is not None and got[1] == want[1]
        with pytest.raises(NoOverlap, match="agents 0 and 1 share"):
            empirical_pair_joint(reports, 0, 1)


class TestUnorderedCounts:
    """The count kernel, which counts each unordered agent pair once and reads the reverse
    pair transposed, against the ordered-pair route it replaced: block for block and bit
    for bit, or the same NoOverlap message.  ``COUNT_CELLS`` is patched small so that steps
    split: at 1, 8 and 40 cells a step holds one key and splits the 64-question words, at
    300 and 1000 the lower agents' partner runs are cut into pieces and several pieces,
    padded to the longest, share a step; agent blocks and the packing's row blocks split
    too.  Both pairings and drawn agent lists are covered, with report masks that have
    holes, T off the multiples of 64 or 0 (no word at all), and an empty list of agents (no
    key at all).  References repeat, include the agent itself, and hold (i, j) beside
    (j, i)."""

    @staticmethod
    def both_routes(reports, agent_list, refs, cells):
        with mock.patch.object(agents_module, "COUNT_CELLS", cells):
            got = outcome_with_message(lambda: list(_count_tables(reports, agent_list, refs)))
            want = outcome_with_message(
                lambda: list(oracles.ordered_count_tables(reports, agent_list, refs)))
        assert got[1] == want[1]
        if want[1] is None:
            assert len(got[0]) == len(want[0])
            for a, b in zip(got[0], want[0]):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @given(st.sampled_from((1, 8, 40, 300, 1000, agents_module.COUNT_CELLS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_ordered_route(self, cells, data):
        m = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(2, 9))
        T = data.draw(st.sampled_from((0, 1, 63, 64, 65, 128, 129, 320)) | st.integers(1, 400))
        rng = np.random.default_rng(data.draw(seeds))
        entries = rng.integers(0, m, (n, T))
        mask = rng.random((n, T)) < data.draw(st.floats(0.05, 1.0))
        entries[~mask] = rng.integers(-3, m + 3, int((~mask).sum()))  # never read
        reports = ReportMatrix(entries, mask, m)
        who = st.integers(0, n - 1)
        form = data.draw(st.sampled_from(PAIRINGS + ("drawn", "empty")))
        if form == "empty":
            agent_list, refs = np.zeros(0, dtype=np.intp), np.zeros((0, 2), dtype=np.intp)
        elif form == "drawn":  # any agents, in any order, with repeats and self-references
            agent_list = np.array(data.draw(st.lists(who, min_size=1, max_size=2 * n)))
            k = data.draw(st.integers(1, 4))
            refs = np.array(data.draw(st.lists(st.lists(who, min_size=k, max_size=k),
                                               min_size=len(agent_list),
                                               max_size=len(agent_list))))
        else:
            agent_list = np.arange(n)
            refs = np.array(_reference_sets(n, form, data.draw(seeds)), dtype=np.intp)
        self.both_routes(reports, agent_list, refs, cells)

    @pytest.mark.parametrize("pairing", PAIRINGS)
    @pytest.mark.parametrize("cells", (40, 300, 1000))
    def test_step_boundaries(self, cells, pairing):
        # m = 3 and T = 129 give 3 words of 15 cells each: at 40 cells a step holds one key
        # and 2 of its 3 words; at 300, pieces of at most 6 keys, so all-pairs cuts the runs
        # of agents 0 and 1 and steps pair pieces of 3 and 2 keys, padded; at 1000, pieces
        # of up to 22 keys, so no run is cut and short runs share padded steps
        n, m, T = 9, 3, 129
        rng = np.random.default_rng(8)
        reports = ReportMatrix(rng.integers(0, m, (n, T)), rng.random((n, T)) < 0.9, m)
        refs = np.array(_reference_sets(n, pairing, 6), dtype=np.intp)
        self.both_routes(reports, np.arange(n), refs, cells)

    @pytest.mark.parametrize("cells", (1, 8, 40, 300, agents_module.COUNT_CELLS))
    def test_seeded_mirror_pairs_and_self_references(self, cells):
        # seed 4 pairs agents 2 and 3 both ways; then rows that repeat a reference and
        # name the agent itself
        n, m, T = 5, 3, 200
        rng = np.random.default_rng(3)
        reports = ReportMatrix(rng.integers(0, m, (n, T)), rng.random((n, T)) < 0.8, m)
        refs = np.array(_reference_sets(n, "seeded-random-reference", 4), dtype=np.intp)
        pairs = {(i, int(j)) for i, (j,) in enumerate(refs)}
        assert any((j, i) in pairs for i, j in pairs)
        self.both_routes(reports, np.arange(n), refs, cells)
        mixed = np.array([[1, 0, 0, 3], [0, 1, 1, 4], [3, 2, 2, 1], [2, 3, 0, 3]])
        self.both_routes(reports, np.array([0, 1, 2, 3]), mixed, cells)

    def test_no_overlap_names_a_transposed_reference_in_agent_order(self):
        # agents 1 and 3 share no answered question; the pair is stored as (1, 3) and read
        # transposed for agent 3, whose message still names it first
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=bool)
        reports = ReportMatrix(np.zeros((4, 4), dtype=int), mask, 2)
        for agent_list, refs in (([3], [[1]]), ([2, 3], [[0, 3], [0, 1]]), ([3, 1], [[1], [3]])):
            with pytest.raises(NoOverlap, match="^agents 3 and 1 share"):
                list(_count_tables(reports, np.array(agent_list), np.array(refs)))
            self.both_routes(reports, np.array(agent_list), np.array(refs), 8)
        with pytest.raises(NoOverlap, match="^agents 3 and 1 share"):
            empirical_pair_joint(reports, 3, 1)
        with pytest.raises(NoOverlap, match="^agents 1 and 3 share"):
            fmi_mechanism_payments(reports, ConvexGenerator.TVD)


class TestColumnwiseSampling:
    """``generate_reports`` against the sampler that gathered each draw's weights before
    taking their cumulative sums: the same rng calls, the same entries."""

    @given(seeds, st.integers(2, 5), st.booleans(), st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_entries_match_gathered_sampler(self, seed, n, efforts, T):
        scenario = random_scenario(seed, n, efforts)
        got = outcome(generate_reports, scenario, T, seed)
        want = outcome(oracles.gathered_generate_reports, scenario, T, seed)
        assert_same_outcome(got, want, lambda a, b: np.testing.assert_array_equal(a.entries, b))

    @pytest.mark.parametrize("mode", ("world", "full", "pairwise"))
    def test_each_prior_mode_with_effort_coins(self, mode):
        rng = rng_from_seed(4)
        n = 2 if mode == "pairwise" else 3
        prior = {"world": lambda: sampling.random_world_model(rng, 3, 3),
                 "full": lambda: sampling.random_full_joint_prior(rng, n, 3),
                 "pairwise": lambda: PairwisePrior(sampling.random_joint(rng, 3, 3), False)}[mode]()
        strategies = tuple(sampling.random_mixed_strategy(rng, 3, "dense") for _ in range(n))
        efforts = (EffortStrategy(0.5, 0.1, sampling.random_distribution(rng, 3)),
                   EffortStrategy(0.0, 0.0)) + (EffortStrategy(0.7, 0.0),) * (n - 2)
        scenario = Scenario(prior, strategies, efforts)
        reports = generate_reports(scenario, 3000, 8)
        assert np.array_equal(reports.entries,
                              oracles.gathered_generate_reports(scenario, 3000, 8))
        # agent 1 never invests: its reports are its uniform no-effort draws
        assert set(np.unique(reports.entries[1])) == {0, 1, 2}

    def test_weights_just_under_one_stay_in_alphabet(self):
        weights = np.array([0.25, 0.25, 0.5]) * (1.0 - 1e-9)  # sums to 1 - 1e-9
        u = np.concatenate([np.linspace(0.0, 1.0, 10_001)[:-1], [1.0 - 2**-53, 1.0 - 1e-10]])
        for rows in (None, np.zeros(u.size, dtype=np.intp)):
            draws = _inverse_cdf(weights if rows is None else weights[None], u, rows)
            assert draws.min() == 0 and draws.max() == 2
            assert np.array_equal(draws, oracles.gathered_inverse_cdf(weights, u))
        channel = TransitionMatrix(np.tile(weights, (3, 1)))
        world = WorldModelPrior(Distribution(np.ones(2) / 2), (Distribution(weights),) * 2)
        scenario = Scenario(world, (Strategy(channel),) * 3,
                            (EffortStrategy(0.5, 0.0, Distribution(weights)),) * 3)
        entries = generate_reports(scenario, 5000, 1).entries
        assert entries.min() >= 0 and entries.max() <= 2

    @pytest.mark.parametrize("m", (255, 256, 257))
    def test_wide_alphabets_stay_in_alphabet(self, m):
        # the count type widens from uint8 at m = 256; u just under 1 reaches the last column
        weights = np.full(m, (1.0 - 1e-9) / m)
        assert abs(weights.sum() - (1.0 - 1e-9)) < 1e-15
        u = np.concatenate([np.linspace(0.0, 1.0, 4001)[:-1], [1.0 - 2**-53]])
        for rows in (None, np.arange(u.size) % 2):
            table = weights if rows is None else np.stack([weights, weights[::-1]])
            draws = _inverse_cdf(table, u, rows)
            assert draws.dtype == np.intp
            assert draws.min() == 0 and draws.max() == m - 1 and draws[-1] == m - 1
            gathered = table if rows is None else table[rows]
            assert np.array_equal(draws, oracles.gathered_inverse_cdf(gathered, u))


class TestBtsPairLoop:
    @given(bts_profiles(), st.floats(-5.0, 5.0), st.sampled_from(PAIRINGS),
           st.sampled_from((0.0, 0.0, 1e-3, 0.5, 2.0)), seeds)
    @settings(max_examples=400, deadline=None)
    def test_closed_form_matches_loop(self, profile, alpha, pairing, smoothing, seed):
        args = (profile, alpha, pairing, seed, smoothing)
        assert_same_outcome(outcome_with_message(bts_payments, *args),
                            outcome_with_message(oracles.loop_bts_payments, *args),
                            assert_close_scores)

    @pytest.mark.parametrize("signals,preds,smoothing,error", [
        # agent 1 is alone and predicts zero on agent 0's signal: LogOfZero comes first
        ([0, 1, 0, 0], [[0.5, 0.5], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]], 0.0, LogOfZero),
        # agent 0 predicts zero on its own signal, which nobody else reports: under smoothing
        # no score reads it, and agent 2's zero on a reported signal is the first error
        ([1, 0, 0, 0], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5]], 0.5, LogOfZero),
        ([1, 0, 0, 0], [[1.0, 0.0], [0.6, 0.4], [0.7, 0.3], [0.5, 0.5]], 0.5, None),
        ([2, 0, 1, 0, 1, 1], [[0.4, 0.4, 0.2]] * 6, 0.0, ZeroFrequency),
        ([0, 1, 0, 1, 0, 1], [[0.5, 0.3, 0.2]] * 4 + [[0.0, 0.6, 0.4]] * 2, 0.0, LogOfZero),
    ])
    def test_hand_built_profiles_match_loop(self, signals, preds, smoothing, error):
        profile = BtsReportProfile(np.array(signals),
                                   tuple(Distribution(np.array(p)) for p in preds))
        for pairing, seed in [(p, s) for p in PAIRINGS for s in range(4)]:
            args = (profile, 2.0, pairing, seed, smoothing)
            want = outcome_with_message(oracles.loop_bts_payments, *args)
            assert pairing != PAIRINGS[0] or (want[1] and want[1][0]) == error
            assert_same_outcome(outcome_with_message(bts_payments, *args), want,
                                assert_close_scores)

    @pytest.mark.parametrize("pairing,seed", [("seeded-random-reference", None), ("nosuch", 0)])
    def test_pairing_errors_match_loop(self, pairing, seed):
        profile = BtsReportProfile(np.array([0, 0, 1, 1]),
                                   tuple(Distribution(np.array([0.5, 0.5])) for _ in range(4)))
        got = outcome_with_message(bts_payments, profile, 2.0, pairing, seed)
        assert got[1] is not None
        assert got == outcome_with_message(oracles.loop_bts_payments, profile, 2.0, pairing, seed)


@given(st.integers(2, 3), st.integers(2, 4), seeds, st.integers(3, 60), seeds)
@settings(max_examples=100, deadline=None)
def test_bts_population_gap_matches_sweep_cell(n_states, m, world_seed, n_agents, seed):
    """The population draw the bts suite and ``sweep --kind bts-gap`` share gives the
    sweep's old per-cell draw exactly, on random worlds."""
    world = sampling.random_world_model(rng_from_seed(world_seed), n_states, m)
    ideal = bts_idealized_scores(world).information_score
    preds = np.stack([p.weights for p in optimal_predictions(world)])
    got = verify._bts_population_gap(world, n_agents, preds, ideal, rng_from_seed(seed))
    assert got == oracles.bts_gap_cell(world, n_agents, seed, ideal, 3.0)


@given(st.integers(2, 50), seeds)
@settings(max_examples=300, deadline=None)
def test_seeded_reference_draw_matches_list_form(n, seed):
    for pairing in PAIRINGS:
        refs = _reference_sets(n, pairing, seed)
        assert refs.dtype == np.intp
        assert np.array_equal(refs, oracles.loop_reference_sets(n, pairing, seed))


@given(seeds, st.integers(2, 5), st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_validated_stack_bits_do_not_depend_on_layout(seed, m, worlds):
    # an 11-table stack of (m, worlds, m) tensors built as a swapaxes view, not C-ordered: once
    # validated, the stacked kernel reads it with the bits of its C-ordered copy
    rng = np.random.default_rng(seed)
    a, b = rng.random((11, worlds, m)), rng.random((11, worlds, m))
    tensors = a[..., None] * b[..., None, :]
    view = (tensors / tensors.sum(axis=(1, 2, 3), keepdims=True)).swapaxes(1, 2)
    got = _validated_tables(view, rank=3)
    assert got.flags.c_contiguous
    kernel = _mi_kernel(ConvexGenerator.KL)
    want = _slice_mean(_validated_tables(np.ascontiguousarray(view), rank=3), kernel)
    assert np.array_equal(_slice_mean(got, kernel), want)


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


@st.composite
def table_stacks(draw, rank=2):
    """A stack of 1-5 random tables of one shape (each axis 1-4), each of mass 1, with some
    cells (and, for rank 3, some whole slices) set to zero."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(seeds))
    stack = rng.dirichlet(np.ones(math.prod(shape)), size=k).reshape((k,) + shape)
    stack[rng.random(stack.shape) < draw(st.floats(0.0, 0.6))] = 0.0
    if rank == 3:
        stack[rng.random((k, shape[0])) < 0.4] = 0.0
    cells = stack.reshape(k, -1)
    cells[cells.sum(axis=1) <= 0.0, 0] = 1.0
    return stack / cells.sum(axis=1).reshape((k,) + (1,) * rank)


def unchecked_channel(rows) -> TransitionMatrix:
    """A TransitionMatrix holding ``rows`` as given, bypassing the row-sum validation."""
    channel = object.__new__(TransitionMatrix)
    object.__setattr__(channel, "rows", np.asarray(rows, dtype=np.float64))
    return channel


# allclose's edge on a diagonal entry (b = 1): |a - b| <= atol + rtol * |b|
RTOL_EDGE = 1e-12 + 1e-5
IDENTITY_OFFSETS = (0.0, 1e-13, -1e-13, 2e-12, 5e-10, -RTOL_EDGE,
                    np.nextafter(-RTOL_EDGE, 0.0), np.nextafter(-RTOL_EDGE, -1.0), 0.5)


@st.composite
def fine_grained_candidates(draw):
    """Tables of 1-4 x 1-4 cells, dense, integer-valued with zeros, symmetric or a product
    of their marginals, so that cell masses and likelihood ratios tie now and then."""
    mx, my = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(("dense", "integer", "symmetric", "product")))
    if kind == "dense":
        table = rng.dirichlet(np.ones(mx * my)).reshape(mx, my)
    elif kind == "integer":
        table = rng.integers(0, 4, (mx, my)).astype(float)
        table[0, 0] += 1.0
    elif kind == "symmetric":
        table = rng.dirichlet(np.ones(mx * mx)).reshape(mx, mx)
        table += table.T
    else:
        table = np.outer(rng.dirichlet(np.ones(mx)), rng.dirichlet(np.ones(my)))
    return JointDistribution(table / table.sum())


class TestFineGrainedPairs:
    """``is_fine_grained`` compares the cell pairs a block of rows at a time, of about
    ``_PAIR_CELLS`` pairs; its decision and first witness must be the pair loop's."""

    @given(fine_grained_candidates(), st.sampled_from((1e-9, 1e-2)),
           st.sampled_from((1, 5, measures_module._PAIR_CELLS)))
    @settings(max_examples=300, deadline=None)
    def test_pair_comparison_matches_loop(self, joint, tol, pair_cells):
        with mock.patch.object(measures_module, "_PAIR_CELLS", pair_cells):
            got = is_fine_grained(joint, tol)
        assert got == oracles.loop_is_fine_grained(joint, tol)
        assert got.witness is None or all(type(v) is int for cell in got.witness for v in cell)

    @pytest.mark.parametrize("pair_cells", (1, 5000, measures_module._PAIR_CELLS))
    def test_large_table_finds_the_closest_pair(self, pair_cells):
        # 40 x 40: 1600 cells, in blocks of 1, 3 and 40 rows; at a tol just above the smallest
        # gap between two cells' likelihood ratios that pair is the only tie, below it none
        table = np.random.default_rng(40).dirichlet(np.ones(1600)).reshape(40, 40)
        joint = JointDistribution(table)
        r = (product_of_marginals(joint).table / table).ravel()
        gaps = np.triu(np.abs(r[:, None] - r[None, :]), 1) + np.tril(np.full((1600, 1600), np.inf))
        a, b = np.unravel_index(np.argmin(gaps), gaps.shape)
        cells = [(x, y) for x in range(40) for y in range(40)]
        with mock.patch.object(measures_module, "_PAIR_CELLS", pair_cells):
            assert is_fine_grained(joint, np.nextafter(gaps[a, b], -np.inf))
            got = is_fine_grained(joint, gaps[a, b])
        assert not got and got.witness == (cells[a], cells[b])


@st.composite
def witness_stacks(draw):
    """1-4 triples (p, q, theta) of one shape (m = 1-4 inputs, 1-4 outputs): p with zero
    cells, q dense, equal to p or sparse, theta with zeros; and a tol of 0, 1e-9 or 1e-3,
    or exactly one signal pair's ratio gap, or the float just below it."""
    m, m_out, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))

    def simplex(shape, zeros):
        t = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        t[rng.random(t.shape) < zeros] = 0.0
        t[..., 0] += t.sum(axis=-1) <= 0.0
        return t / t.sum(axis=-1, keepdims=True)

    p = simplex((k, m), draw(st.floats(0.0, 0.6)))
    q = {"dense": simplex((k, m), 0.0), "equal": p.copy(),
         "sparse": simplex((k, m), 0.5)}[draw(st.sampled_from(("dense", "equal", "sparse")))]
    rows = simplex((k, m, m_out), draw(st.floats(0.0, 0.6)))
    tol = draw(st.sampled_from((0.0, 1e-9, 1e-3, "gap", "below")))
    live = np.flatnonzero(p[0] > 0.0)
    if isinstance(tol, str):
        if live.size < 2:
            tol = 0.0
        else:
            s1, s2 = sorted(draw(st.permutations(live.tolist()))[:2])
            gap = abs(q[0, s1] / p[0, s1] - q[0, s2] / p[0, s2])
            tol = gap if tol == "gap" else np.nextafter(gap, -np.inf)
    return p, q, rows, float(tol)


class TestWitnessMask:
    """The broadcast witness mask gives each (p, q, theta) of a stack the signal-pair loop's
    decision, with ratio gaps at and just under ``tol``, zero-mass cells and rectangular
    channels; the public form wraps it."""

    @given(witness_stacks())
    @settings(max_examples=400, deadline=None)
    def test_mask_matches_loop(self, stack):
        p, q, rows, tol = stack
        want = [oracles.loop_divergence_monotonicity_witness(
            Distribution(pk), Distribution(qk), TransitionMatrix(rk), tol)
            for pk, qk, rk in zip(p, q, rows)]
        assert measures_module._witness_mask(p, q, rows, tol).tolist() == want
        got = divergence_monotonicity_witness(
            Distribution(p[0]), Distribution(q[0]), TransitionMatrix(rows[0]), tol)
        assert got is want[0]

    def test_gap_at_tol_is_not_a_witness(self):
        p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        rows = np.full((2, 2), 0.5)
        gap = abs(q[0] / p[0] - q[1] / p[1])
        assert not measures_module._witness_mask(p, q, rows, gap)
        assert measures_module._witness_mask(p, q, rows, np.nextafter(gap, -np.inf))


class TestStackedKernels:
    """Each stacked kernel gives every table of a stack the bits that its public single-table
    function gives that table alone, and that the single-table code gave before it took
    stacks (``oracles.masked_*``, ``rows.T @ table``, ``np.allclose``)."""

    @given(table_stacks())
    @settings(max_examples=200, deadline=None)
    def test_shannon(self, stack):
        got = _shannon_mi(stack)
        assert np.array_equal(got, [shannon_mi(JointDistribution(t)) for t in stack])
        assert np.array_equal(got, [oracles.masked_shannon_mi(t) for t in stack])

    @given(table_stacks(rank=3), st.sampled_from(MEASURES))
    @settings(max_examples=200, deadline=None)
    def test_conditional_mi(self, stack, measure):
        got = _slice_mean(stack, _mi_kernel(measure))
        assert np.array_equal(got, [conditional_mi(JointDistribution(t), measure) for t in stack])
        assert np.array_equal(got, [oracles.masked_slice_mean(t, _mi_kernel(measure))
                                    for t in stack])

    @given(st.integers(1, 4), st.lists(st.integers(1, 4), max_size=3), st.integers(0, 20),
           st.floats(0.0, 1.0), st.booleans(), seeds)
    @settings(max_examples=200, deadline=None)
    def test_row_sums_over_leading_axes(self, k, lead, width, density, empty_row, seed):
        # K stacked rows of compact entries over one mask (1-D when ``lead`` is empty) whose
        # rows hold several counts of entries, among them all-False rows: each of the K
        # results has the bits of that row alone, and each sum those of np.sum
        rng = np.random.default_rng(seed)
        mask = rng.random((*lead, width)) < density
        if empty_row and mask.ndim > 1:
            mask[(0,) * (mask.ndim - 1)] = False
        compact = rng.standard_normal((k, int(mask.sum()))) * 10.0 ** rng.integers(-9, 9, (k, 1))
        got = _row_sums(compact, mask)
        assert got.shape == (k, *lead)
        ends = np.cumsum(mask.sum(axis=-1).ravel())
        for row, sums in zip(compact, got):
            assert np.array_equal(sums, _row_sums(row, mask))
            alone = [np.sum(part) for part in np.split(row, ends[:-1])]
            assert np.array_equal(np.ravel(sums), alone)

    @given(table_stacks(), st.integers(1, 4), seeds)
    @settings(max_examples=200, deadline=None)
    def test_pushes(self, stack, m_out, seed):
        rng = np.random.default_rng(seed)
        k, mx, my = stack.shape
        first = rng.dirichlet(np.ones(m_out), size=(k, mx))
        second = rng.dirichlet(np.ones(m_out), size=(k, my))
        first[:, 0] = np.eye(m_out)[rng.integers(m_out, size=k)]  # one-hot rows too
        got_first, got_second = _push_first(stack, first), stack @ second
        for i, table in enumerate(stack):
            joint = JointDistribution(table)
            assert np.array_equal(got_first[i], push_first(joint, TransitionMatrix(first[i])).table)
            assert np.array_equal(got_first[i], first[i].T @ table)
            assert np.array_equal(got_second[i],
                                  push_second(joint, TransitionMatrix(second[i])).table)

    @given(st.integers(1, 4), st.integers(1, 4),
           st.lists(st.tuples(st.sampled_from(IDENTITY_OFFSETS), st.integers(0, 15)),
                    min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_identity_mask(self, m, m_out, offsets):
        stack = np.tile(np.eye(m, m_out), (len(offsets), 1, 1))
        for table, (offset, cell) in zip(stack, offsets):
            table.flat[cell % table.size] += offset
        got = _identity_mask(stack)
        assert got.shape == (len(offsets),)
        for table, flag in zip(stack, got.tolist()):
            assert flag == unchecked_channel(table).is_identity
            assert flag == (m == m_out and np.allclose(table, np.eye(m), atol=1e-12))

    def test_identity_mask_edges(self):
        # a few floats either side of allclose's edge on a diagonal entry, and atol's edge
        near = 1.0 - RTOL_EDGE
        diagonal = [near]
        for _ in range(3):
            diagonal = [np.nextafter(diagonal[0], 0.0), *diagonal, np.nextafter(diagonal[-1], 2.0)]
        cases = [np.diag([d, 1.0]) for d in diagonal]
        cases += [np.eye(2) + [[0.0, off], [0.0, 0.0]] for off in (1e-13, 1e-12, 2e-12)]
        got = _identity_mask(np.stack(cases)).tolist()
        assert got == [bool(np.allclose(rows, np.eye(2), atol=1e-12)) for rows in cases]
        assert got == [unchecked_channel(rows).is_identity for rows in cases]
        assert True in got[:7] and False in got[:7] and got[-3:] == [True, True, False]
        assert TransitionMatrix(np.diag([1.0 - 5e-10, 1.0])).is_identity


ONE_TABLE = {"bregman-quasi": oracles.bregman_quasi_instance,
             "accuracy-gain": oracles.accuracy_gain_instance,
             "effort": oracles.effort_instance}
ONE_STACK = {"md-equivalence": oracles.md_equivalence_instance,
             "bts": oracles.bts_instance}
CHUNK = verify._CHUNK


def reference_verdict(config) -> str:
    """The verdict JSON of ``config`` with the global part, if any, first and then every
    instance drawn and checked on its own, in index order, as the suites ran before their
    check took chunks (``ONE_TABLE``) or each instance's pairs took one stack
    (``ONE_STACK``)."""
    rec = verify._Recorder(config)
    setup = verify._PARTS[config.suite][0]
    if setup is not None:
        setup(rec, config)
    instance = {**ONE_TABLE, **ONE_STACK}[config.suite]
    for idx in range(config.instances):
        instance(rec, config, idx, rng_from_seed(config.seed, idx))
    return rec.verdict().to_json()


class TestOneTableSuites:
    @pytest.mark.parametrize("suite", sorted(ONE_TABLE))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
    def test_verdict_equals_reference(self, suite, seed, count):
        config = default_config(suite, instances=count, seed=seed)
        assert run_suite(config).to_json() == reference_verdict(config)

    @pytest.mark.parametrize("suite", sorted(ONE_TABLE))
    @pytest.mark.parametrize("seed", [3, 13])
    def test_forced_violations_equal_reference_and_replay(self, suite, seed):
        config = default_config(suite, instances=CHUNK + 1, seed=seed, equality_tol=1e-300)
        verdict = run_suite(config)
        assert verdict.to_json() == reference_verdict(config)
        assert len(verdict.violations) > 0
        for violation in verdict.violations:
            assert replay_violation(violation, config)

    def test_stacks_checked_at_the_cap_equal_chunk_route(self):
        # about 667 instances per joint shape: each shape's stack is checked whenever it holds
        # _CHUNK rows, out of index order, and its rest at the end; every violation carries
        # its payload, and the verdict is the per-chunk grouped route's, byte for byte
        config = default_config("bregman-quasi", instances=6000, seed=0, equality_tol=1e-300)
        shapes = collections.Counter(oracles.bregman_quasi_draw(rng_from_seed(0, idx))[0].shape
                                     for idx in range(6000))
        assert len(shapes) == 9 and min(shapes.values()) > 2 * verify._CHUNK
        assert run_suite(config).to_json() == oracles.chunk_bregman_quasi_verdict(config)


@st.composite
def known_priors(draw):
    """A pairwise known prior over 1-5 signals with some cells, and sometimes whole rows,
    of zero mass."""
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(seeds))
    table = rng.dirichlet(np.ones(m * m)).reshape(m, m)
    table[rng.random((m, m)) < draw(st.floats(0.0, 0.6))] = 0.0
    if draw(st.booleans()):
        table[rng.integers(m)] = 0.0
    if table.sum() <= 0.0:
        table[-1, -1] = 1.0
    return PairwisePrior(JointDistribution(table / table.sum()), symmetric=False)


@st.composite
def world_profiles(draw):
    """A world model of 1-8 states over 2-8 signals, with some state probabilities and some
    signals of every state set to zero, and None or 1-11 random strategies."""
    k, m = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(seeds))
    probs, states = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m), size=k)
    probs[rng.random(k) < draw(st.floats(0.0, 0.4))] = 0.0
    states[:, rng.random(m) < draw(st.floats(0.0, 0.4))] = 0.0
    states[states.sum(axis=1) <= 0.0, 0] = 1.0
    probs[np.argmax(probs)] += probs.sum() <= 0.0
    world = WorldModelPrior(make_distribution(probs),
                            tuple(make_distribution(s) for s in states))
    if draw(st.booleans()):
        return world, None
    return world, tuple(sampling.random_mixed_strategy(rng, m)
                        for _ in range(draw(st.integers(1, 11))))


def assert_close_distributions(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_close(g.weights, w.weights)


class TestArrayBodies:
    """The one-array bodies of the score, the shifted-score table, the log-score gain, the
    reported world states and the optimal predictions against the one-cell loops they
    replaced: the scores and the shift table bit for bit, with LogOfZero in the same cells;
    the others to REL_TOL, with the same exception and message."""

    @given(st.integers(1, 6), seeds, st.sampled_from(tuple(ScoringRule)))
    @settings(max_examples=200, deadline=None)
    def test_score_matches_loop(self, m, seed, rule):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(m))
        q[rng.random(m) < 0.3] = 0.0
        q[np.argmax(q)] += 1.0
        report = make_distribution(q)
        for b in range(m):
            got = outcome(rule.score, b, report)
            want = outcome(oracles.loop_score, rule, b, report)
            assert got[1] == want[1]
            assert want[1] is not None or np.array_equal(got[0], want[0])

    @given(known_priors(), st.sampled_from(tuple(ScoringRule)))
    @settings(max_examples=300, deadline=None)
    def test_shift_table_matches_loop(self, known, rule):
        """The kernel on the one-cell report table of each cell (a, b) reads S[a, b] exactly,
        and raises LogOfZero where the loop left S[a, b] undefined."""
        want = oracles.loop_score_shifts(known, rule)
        expected_shift = _score_shifts(known, rule)
        m = want.shape[0]
        cells = np.eye(m * m).reshape(m * m, m, m)
        finite = ~np.isnan(want).ravel()
        assert np.array_equal(expected_shift(cells[finite]), want.ravel()[finite])
        for cell in cells[~finite]:
            with pytest.raises(LogOfZero):
                expected_shift(cell[None])

    @given(table_stacks(rank=3))
    @settings(max_examples=300, deadline=None)
    def test_log_score_gain_matches_loop(self, stack):
        want = [oracles.loop_log_score_accuracy_gain(JointDistribution(t)) for t in stack]
        assert_close(_log_score_gains(stack), want)
        assert_close([log_score_accuracy_gain(JointDistribution(t)) for t in stack], want)
        assert_close(want, [oracles.accuracy_gain(t.tolist()) for t in stack])

    @given(table_stacks(rank=3))
    @settings(max_examples=300, deadline=None)
    def test_suite_gain_stack_equals_wrapper(self, stack):
        # the accuracy-gain suite's left side, one stack per shape group, reads each tensor's
        # log_score_accuracy_gain bit for bit
        lhs = verify._accuracy_gain_check(list(stack))[0]
        assert lhs.tolist() == [log_score_accuracy_gain(JointDistribution(t)) for t in stack]

    @given(world_profiles())
    @settings(max_examples=300, deadline=None)
    def test_reported_world_states_match_loop(self, profile):
        assert_close_distributions(reported_world_states(*profile),
                                   oracles.loop_reported_world_states(*profile))

    @given(world_profiles())
    @settings(max_examples=300, deadline=None)
    def test_optimal_predictions_match_loop(self, profile):
        assert_same_outcome(outcome_with_message(optimal_predictions, *profile),
                            outcome_with_message(oracles.loop_optimal_predictions, *profile),
                            assert_close_distributions)


class TestOneStackInstances:
    """md-equivalence pays each instance's truthful, drawn and flipped report pairs, and bts
    scores its truthful and played world tensors, from one stack: the verdict JSON must be
    that of the per-pair routes they replaced, and each stacked table or score the bits of
    its public single-pair function."""

    @pytest.mark.parametrize("suite", sorted(ONE_STACK))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_verdict_equals_reference(self, suite, seed):
        config = default_config(suite, seed=seed)
        assert run_suite(config).to_json() == reference_verdict(config)

    def test_forced_md_violations_equal_reference_and_replay(self):
        config = default_config("md-equivalence", instances=300, seed=3, equality_tol=1e-300)
        verdict = run_suite(config)
        assert verdict.to_json() == reference_verdict(config)
        assert len(verdict.violations) > 0
        for violation in verdict.violations:
            assert replay_violation(violation, config)

    @given(seeds, st.sampled_from((2, 3)), st.sampled_from((2, 3, 4)), st.sampled_from(KINDS),
           st.sampled_from(KINDS), st.sampled_from(MEASURES))
    @settings(max_examples=150, deadline=None)
    def test_agent0_pair_equals_report_joint(self, seed, n, m, kind_a, kind_b, measure):
        rng = rng_from_seed(seed)
        prior = verify._pair_prior_for(rng, n, m)
        a = sampling.random_mixed_strategy(rng, m, kind_a)
        b = sampling.random_mixed_strategy(rng, m, kind_b)
        q = prior._pairs([0], [range(1, n)])[0, 0]
        got = _report_tables(a.channel.rows, b.channel.rows[None], q[:1])[0]
        want = report_joint(prior, 0, 1, a, b)
        assert np.array_equal(got, want.table)
        assert np.array_equal(_mi_kernel(measure)(got), mutual_information(want, measure))

    @given(world_profiles(), st.sampled_from(tuple(ConvexGenerator)))
    @settings(max_examples=200, deadline=None)
    def test_stacked_world_tensor_scores_equal_public(self, profile, gen):
        world, strategies = profile
        tensors = np.stack([world_tensor(world).table, world_tensor(world, strategies).table])
        info = _slice_mean(tensors, _mi_kernel(ConvexGenerator.KL))
        pred = -_log_score_gains(tensors)
        f_scores = _slice_mean(tensors, _mi_kernel(gen))
        for row, played in enumerate((None, strategies)):
            want = bts_idealized_scores(world, played)
            assert np.array_equal([info[row], pred[row]],
                                  [want.information_score, want.prediction_score])
            assert f_scores[row] == bts_idealized_scores(world, played, gen).information_score
