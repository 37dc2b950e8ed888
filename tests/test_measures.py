import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    ConvexGenerator,
    Distribution,
    JointDistribution,
    LogOfZero,
    ScoringRule,
    TransitionMatrix,
    bregman_divergence,
    bregman_mi,
    check_dpi,
    conditional_mi,
    divergence_monotonicity_witness,
    f_divergence,
    f_mutual_information,
    identity_channel,
    is_fine_grained,
    log_score_accuracy_gain,
    permutation_channel,
    push_first,
    shannon_mi,
)
from peerlab.measures import _divergence_decrease_bound

import oracles

KL = ConvexGenerator.KL
TVD = ConvexGenerator.TVD
CHI2 = ConvexGenerator.CHI_SQUARED
HELLINGER = ConvexGenerator.SQUARED_HELLINGER

# frozen via the plain-python oracle, see test_frozen_constants_match_oracle
KL_HALF_VS_QUARTER = 0.1438410362258904
CANONICAL_KL_MI = 0.1927447570217575
TWO_STATE_INFO = 0.1264670340342384


def test_frozen_constants_match_oracle():
    assert oracles.f_divergence([0.5, 0.5], [0.25, 0.75], "kl") == pytest.approx(
        KL_HALF_VS_QUARTER, abs=1e-12
    )
    assert oracles.shannon_mi([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
        CANONICAL_KL_MI, abs=1e-12
    )
    assert oracles.bts_truth_information_score(
        [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]]
    ) == pytest.approx(TWO_STATE_INFO, abs=1e-12)


def dists(m=None):
    sizes = st.just(m) if m else st.integers(2, 4)
    return sizes.flatmap(
        lambda k: st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    ).map(lambda w: Distribution(np.array(w) / np.sum(w)))


def joints():
    return st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
        lambda s: st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        )
    ).map(lambda rows: JointDistribution(np.array(rows) / np.sum(rows)))


def channels(m_in, m_out=None):
    m_out = m_out or m_in
    return st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=m_out, max_size=m_out),
        min_size=m_in,
        max_size=m_in,
    ).map(lambda rows: TransitionMatrix(np.array(rows) / np.sum(rows, axis=1, keepdims=True)))


class TestFDivergence:
    def test_identical_is_zero(self):
        p = Distribution(np.array([0.5, 0.5]))
        assert f_divergence(p, p, KL) == pytest.approx(0.0, abs=1e-15)

    def test_kl_value(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([0.25, 0.75]))
        assert f_divergence(p, q, KL) == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-6)

    def test_tvd_is_unhalved_l1(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([0.25, 0.75]))
        assert f_divergence(p, q, TVD) == pytest.approx(0.5, abs=1e-12)

    def test_kl_infinite_on_missing_support(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([1.0, 0.0]))
        assert f_divergence(p, q, KL) == math.inf

    def test_tvd_l1_identity_with_zero_cells(self):
        p = Distribution(np.array([1.0, 0.0]))
        q = Distribution(np.array([0.25, 0.75]))
        assert f_divergence(p, q, TVD) == pytest.approx(
            float(np.abs(p.weights - q.weights).sum()), abs=1e-12
        )

    @given(dists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_non_negative_and_zero_iff_equal(self, p, data):
        q = data.draw(dists(p.size))
        for gen in (KL, CHI2, HELLINGER):
            d = f_divergence(p, q, gen)
            assert d >= -1e-15
            if np.max(np.abs(p.weights - q.weights)) > 1e-6:
                assert d > 0

    @given(dists(), st.data(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_joint_convexity(self, p1, data, lam):
        m = p1.size
        p2, q1, q2 = (data.draw(dists(m)) for _ in range(3))
        for gen in ConvexGenerator:
            mix_p = Distribution(lam * p1.weights + (1 - lam) * p2.weights)
            mix_q = Distribution(lam * q1.weights + (1 - lam) * q2.weights)
            lhs = f_divergence(mix_p, mix_q, gen)
            rhs = lam * f_divergence(p1, q1, gen) + (1 - lam) * f_divergence(p2, q2, gen)
            assert lhs <= rhs + 1e-10

    @given(dists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_information_monotonicity(self, p, data):
        q = data.draw(dists(p.size))
        theta = data.draw(channels(p.size))
        for gen in ConvexGenerator:
            before = f_divergence(p, q, gen)
            after = f_divergence(
                Distribution(theta.rows.T @ p.weights),
                Distribution(theta.rows.T @ q.weights),
                gen,
            )
            assert after <= before + 1e-10
            if gen.strictly_convex and divergence_monotonicity_witness(p, q, theta):
                # the decrease reaches the proved Jensen bound; it must exceed the
                # strictness tolerance only where the bound does
                bound = _divergence_decrease_bound(p.weights, q.weights, theta.rows, gen)
                assert before - after >= bound * (1.0 - 1e-9)
                assert bound <= 1e-10 or before - after > 1e-10

    def test_decrease_bound_exact_for_chi_squared(self):
        p, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
        theta = np.array([[0.7, 0.3], [0.4, 0.6], [0.0, 1.0]])
        for gen in (CHI2, KL, HELLINGER):
            drop = f_divergence(Distribution(p), Distribution(q), gen) - f_divergence(
                Distribution(theta.T @ p), Distribution(theta.T @ q), gen)
            bound = _divergence_decrease_bound(p, q, theta, gen)
            if gen is CHI2:
                assert bound == pytest.approx(drop, rel=1e-12)
            else:
                assert 0.0 < bound < drop

    @given(dists(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_oracle(self, p, data):
        q = data.draw(dists(p.size))
        for gen, name in ((KL, "kl"), (TVD, "tvd"), (CHI2, "chi2"), (HELLINGER, "hellinger")):
            assert f_divergence(p, q, gen) == pytest.approx(
                oracles.f_divergence(p.weights.tolist(), q.weights.tolist(), name), abs=1e-12
            )


class TestProperScore:
    def test_log_point_mass(self):
        assert ScoringRule.LOG.score(1, Distribution(np.array([0.0, 1.0]))) == 0.0

    def test_log_half(self):
        val = ScoringRule.LOG.score(0, Distribution(np.array([0.5, 0.5])))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_quadratic_perfect(self):
        assert ScoringRule.QUADRATIC.score(0, Distribution(np.array([1.0, 0.0]))) == 1.0

    def test_log_of_zero(self):
        with pytest.raises(LogOfZero):
            ScoringRule.LOG.score(0, Distribution(np.array([0.0, 1.0])))

    @given(dists(), st.data(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_linear_in_first_extended_argument(self, p1, data, lam):
        p2 = data.draw(dists(p1.size))
        q = data.draw(dists(p1.size))
        for rule in ScoringRule:
            mix = Distribution(lam * p1.weights + (1 - lam) * p2.weights)
            lhs = rule.expected_score(mix, q)
            rhs = lam * rule.expected_score(p1, q) + (1 - lam) * rule.expected_score(p2, q)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(dists(3))
    @settings(max_examples=30, deadline=None)
    def test_strictly_proper_on_grid(self, p):
        grid = np.linspace(0.05, 0.9, 8)
        for rule in ScoringRule:
            best = rule.expected_score(p, p)
            for a in grid:
                for b in grid:
                    if a + b >= 0.99:
                        continue
                    q = Distribution(np.array([a, b, 1 - a - b]))
                    other = rule.expected_score(p, q)
                    assert other <= best + 1e-12
                    if np.max(np.abs(q.weights - p.weights)) > 0.05:
                        assert other < best


class TestBregmanDivergence:
    def test_zero_at_equality(self):
        p = Distribution(np.array([0.3, 0.7]))
        for rule in ScoringRule:
            assert bregman_divergence(p, p, rule) == pytest.approx(0.0, abs=1e-15)

    def test_log_rule_equals_kl(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([0.25, 0.75]))
        assert bregman_divergence(p, q, ScoringRule.LOG) == pytest.approx(
            f_divergence(p, q, KL), abs=1e-12
        )

    def test_quadratic_is_squared_distance(self):
        p = Distribution(np.array([1.0, 0.0]))
        q = Distribution(np.array([0.0, 1.0]))
        assert bregman_divergence(p, q, ScoringRule.QUADRATIC) == pytest.approx(2.0, abs=1e-12)


class TestMutualInformation:
    def test_independent_zero_for_every_generator(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        for gen in ConvexGenerator:
            assert f_mutual_information(j, gen) == pytest.approx(0.0, abs=1e-12)

    def test_tvd_canonical(self, canonical_joint):
        assert f_mutual_information(canonical_joint, TVD) == pytest.approx(0.6, abs=1e-12)

    def test_kl_canonical(self, canonical_joint):
        assert f_mutual_information(canonical_joint, KL) == pytest.approx(
            CANONICAL_KL_MI, abs=1e-6
        )

    def test_diagonal_tvd_is_one(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert f_mutual_information(j, TVD) == pytest.approx(1.0, abs=1e-12)

    @given(joints())
    @settings(max_examples=60, deadline=None)
    def test_shannon_equals_kl_route(self, j):
        assert shannon_mi(j) == pytest.approx(f_mutual_information(j, KL), abs=1e-12)

    @given(joints())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_under_transpose(self, j):
        for gen in ConvexGenerator:
            assert f_mutual_information(j, gen) == pytest.approx(
                f_mutual_information(j.transpose(), gen), abs=1e-12
            )

    @given(joints(), st.data(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mixture_convexity_with_common_y_marginal(self, j1, data, lam):
        # second joint shares the Y marginal so the product coupling mixes too
        my = j1.table.sum(axis=0)
        mx = j1.shape[0]
        rows = data.draw(
            st.lists(
                st.lists(st.floats(0.01, 1.0), min_size=mx, max_size=mx),
                min_size=j1.shape[1],
                max_size=j1.shape[1],
            )
        )
        cond = np.array(rows).T
        cond = cond / cond.sum(axis=0, keepdims=True)
        j2 = JointDistribution(cond * my)
        mix = JointDistribution(lam * j1.table + (1 - lam) * j2.table)
        for gen in ConvexGenerator:
            lhs = f_mutual_information(mix, gen)
            rhs = lam * f_mutual_information(j1, gen) + (1 - lam) * f_mutual_information(j2, gen)
            assert lhs <= rhs + 1e-10


class TestConditionalMI:
    def test_conditionally_independent_is_zero(self):
        t = np.zeros((2, 2, 2))
        t[0] = 0.6 * np.outer([0.3, 0.7], [0.5, 0.5])
        t[1] = 0.4 * np.outer([0.8, 0.2], [0.1, 0.9])
        tensor = JointDistribution(t)
        assert conditional_mi(tensor, KL) == pytest.approx(0.0, abs=1e-12)

    def test_two_state_example(self, two_state_world):
        from peerlab import world_tensor

        tensor = world_tensor(two_state_world)
        assert conditional_mi(tensor, KL) == pytest.approx(TWO_STATE_INFO, abs=1e-6)
        assert conditional_mi(tensor, KL) == pytest.approx(
            oracles.conditional_shannon_mi(tensor.table.tolist()), abs=1e-12
        )

    def test_degenerate_z_equals_unconditional(self, canonical_joint):
        tensor = JointDistribution(canonical_joint.table[None, :, :].copy())
        assert conditional_mi(tensor, KL) == pytest.approx(shannon_mi(canonical_joint), abs=1e-12)

    def test_zero_slices_contribute_nothing(self):
        t = np.zeros((2, 2, 2))
        t[0] = np.array([[0.4, 0.1], [0.1, 0.4]])
        tensor = JointDistribution(t)
        assert conditional_mi(tensor, KL) == pytest.approx(CANONICAL_KL_MI, abs=1e-6)


class TestBregmanMI:
    def test_independent_is_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for rule in ScoringRule:
            assert bregman_mi(j, rule) == pytest.approx(0.0, abs=1e-12)

    def test_log_equals_shannon_canonical(self, canonical_joint):
        assert bregman_mi(canonical_joint, ScoringRule.LOG) == pytest.approx(
            CANONICAL_KL_MI, abs=1e-6
        )

    def test_quadratic_canonical(self, canonical_joint):
        assert bregman_mi(canonical_joint, ScoringRule.QUADRATIC) == pytest.approx(0.18, abs=1e-12)

    @given(joints())
    @settings(max_examples=80, deadline=None)
    def test_log_bridge_identity(self, j):
        assert bregman_mi(j, ScoringRule.LOG) == pytest.approx(shannon_mi(j), abs=1e-10)

    @given(joints(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_entry_processing_inequality(self, j, data):
        ch = data.draw(channels(j.shape[0]))
        for rule in ScoringRule:
            assert bregman_mi(push_first(j, ch), rule) <= bregman_mi(j, rule) + 1e-10

    @given(joints())
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_oracle(self, j):
        for rule, name in ((ScoringRule.LOG, "log"), (ScoringRule.QUADRATIC, "quadratic")):
            assert bregman_mi(j, rule) == pytest.approx(
                oracles.bregman_mi(j.table.tolist(), name), abs=1e-12
            )


class TestConditionalBregman:
    def test_log_matches_conditional_shannon(self, two_state_world):
        from peerlab import world_tensor

        tensor = world_tensor(two_state_world)
        assert conditional_mi(tensor, ScoringRule.LOG) == pytest.approx(
            conditional_mi(tensor, KL), abs=1e-10
        )

    def test_slicewise_oracle(self, rng):
        t = rng.dirichlet(np.ones(18)).reshape(2, 3, 3)
        tensor = JointDistribution(t)
        expect = sum(
            t[z].sum() * oracles.bregman_mi((t[z] / t[z].sum()).tolist(), "quadratic")
            for z in range(2)
        )
        assert conditional_mi(tensor, ScoringRule.QUADRATIC) == pytest.approx(
            expect, abs=1e-12
        )


class TestFineGrained:
    def test_symmetric_canonical_not_fine_grained(self, canonical_joint):
        report = is_fine_grained(canonical_joint)
        assert not report
        assert report.witness == ((0, 0), (1, 1))

    def test_exhaustive_scan_example(self):
        j = JointDistribution(np.array([[0.5, 0.2], [0.1, 0.2]]))
        report = is_fine_grained(j)
        # decide by the exhaustive pair scan oracle
        table = j.table
        v = np.outer(table.sum(axis=1), table.sum(axis=0))
        ratios = (v / table).reshape(-1)
        expected = len(set(np.round(ratios, 12))) == ratios.size
        assert bool(report) == expected

    def test_zero_cell_fails(self):
        j = JointDistribution(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert not is_fine_grained(j)


class TestCheckDpi:
    def test_identity_channel_equal(self, canonical_joint):
        rep = check_dpi(canonical_joint, identity_channel(2), KL)
        assert rep.before == pytest.approx(rep.after, abs=1e-15)
        assert rep.holds

    def test_full_garbling_tvd(self, canonical_joint):
        garble = TransitionMatrix(np.full((2, 2), 0.5))
        rep = check_dpi(canonical_joint, garble, TVD)
        assert rep.before == pytest.approx(0.6, abs=1e-12)
        assert rep.after == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_permutation_equal(self, canonical_joint):
        rep = check_dpi(canonical_joint, permutation_channel([1, 0]), CHI2)
        assert abs(rep.before - rep.after) <= 1e-12


class TestAccuracyGain:
    def test_matches_atom_oracle(self, rng):
        t = rng.dirichlet(np.ones(12)).reshape(3, 2, 2)
        tensor = JointDistribution(t)
        assert log_score_accuracy_gain(tensor) == pytest.approx(
            oracles.accuracy_gain(t.tolist()), abs=1e-12
        )

    def test_equals_conditional_mi(self, rng):
        for _ in range(25):
            t = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
            tensor = JointDistribution(t)
            assert log_score_accuracy_gain(tensor) == pytest.approx(
                conditional_mi(tensor, KL), abs=1e-10
            )
