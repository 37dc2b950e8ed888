import math

import numpy as np
import pytest

from peerlab import (
    ALL_PAIRS,
    BtsReportProfile,
    ConvexGenerator,
    DimensionMismatch,
    Distribution,
    EffortStrategy,
    JointDistribution,
    NonBinaryAlphabet,
    PairwisePrior,
    PaymentReport,
    ReportMatrix,
    Scenario,
    ScoringRule,
    Strategy,
    TransitionMatrix,
    ZeroFrequency,
    agent_welfare,
    bmi_mechanism_payments,
    bregman_mi,
    bts_idealized_scores,
    bts_payments,
    ca_expected_reward,
    ca_payments,
    constant_channel,
    f_mutual_information,
    fmi_mechanism_payments,
    generate_reports,
    md_payments,
    mip_expected_payments,
    permutation_channel,
    sppm_expected_payments,
    sppm_payments,
    truth_telling,
    truthful_scenario,
    uniform_distribution,
)
from peerlab.mechanisms import optimal_predictions

import oracles

KL = ConvexGenerator.KL
TVD = ConvexGenerator.TVD
SWAP = Strategy(permutation_channel([1, 0]), label="swap")


def constant_strategy(m, sigma=0):
    w = np.zeros(m)
    w[sigma] = 1.0
    return Strategy(constant_channel(m, Distribution(w)), label="constant")


class TestMipExpectedPayments:
    def test_canonical_tvd(self, canonical_prior):
        rep = mip_expected_payments(truthful_scenario(canonical_prior, 2), TVD)
        assert np.allclose(rep.payments, [0.6, 0.6], atol=1e-12)

    def test_constant_strategy_pays_zero(self, canonical_prior):
        scn = Scenario(canonical_prior, (constant_strategy(2), truth_telling(2)))
        rep = mip_expected_payments(scn, TVD)
        assert rep.payments[0] == pytest.approx(0.0, abs=1e-12)

    def test_permutation_strategy_pays_like_truth(self, canonical_prior):
        truth = mip_expected_payments(truthful_scenario(canonical_prior, 2), KL)
        swapped = mip_expected_payments(Scenario(canonical_prior, (SWAP, truth_telling(2))), KL)
        assert swapped.payments[0] == pytest.approx(truth.payments[0], abs=1e-12)

    def test_claim_six_seven_factor(self, canonical_prior):
        rep = mip_expected_payments(truthful_scenario(canonical_prior, 2), TVD)
        assert rep.payments[0] == pytest.approx(
            2.0 * ca_expected_reward(canonical_prior.joint), abs=1e-12
        )

    def test_utilities_with_efforts(self, canonical_prior):
        efforts = (EffortStrategy(1.0, 0.2), EffortStrategy(1.0, 0.0))
        scn = Scenario(canonical_prior, (truth_telling(2), truth_telling(2)), efforts)
        rep = mip_expected_payments(scn, TVD)
        assert rep.utilities[0] == pytest.approx(0.6 - 0.2, abs=1e-12)
        assert np.allclose(rep.utilities, rep.payments - rep.effort_costs, atol=1e-12)

    def test_three_agents_average_pairs(self, two_state_world):
        rep = mip_expected_payments(truthful_scenario(two_state_world, 3), KL)
        pair_mi = f_mutual_information(two_state_world.pair_joint(0, 1), KL)
        assert np.allclose(rep.payments, pair_mi, atol=1e-12)


class TestEmpiricalMechanisms:
    def test_identical_half_split_tvd_pays_one(self):
        rows = np.array([[0, 1] * 10, [0, 1] * 10])
        rep = fmi_mechanism_payments(ReportMatrix.full(rows, 2), TVD)
        assert np.allclose(rep.payments, [1.0, 1.0], atol=1e-12)

    def test_constant_reporter_pays_zero(self):
        rows = np.array([[0] * 20, [0, 1] * 10])
        rep = fmi_mechanism_payments(ReportMatrix.full(rows, 2), TVD)
        assert rep.payments[0] == pytest.approx(0.0, abs=1e-12)

    def test_bmi_log_equals_fmi_kl(self, canonical_prior):
        reports = generate_reports(truthful_scenario(canonical_prior, 2), 500, seed=4)
        log_pay = bmi_mechanism_payments(reports, ScoringRule.LOG).payments
        kl_pay = fmi_mechanism_payments(reports, KL).payments
        assert np.allclose(log_pay, kl_pay, atol=1e-10)

    def test_identical_half_split_log_pays_ln2(self):
        rows = np.array([[0, 1] * 10, [0, 1] * 10])
        rep = bmi_mechanism_payments(ReportMatrix.full(rows, 2), ScoringRule.LOG)
        assert rep.payments[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_seeded_reference_deterministic(self):
        rows = np.array([[0, 1, 0, 1], [0, 1, 1, 1], [1, 1, 0, 0]])
        matrix = ReportMatrix.full(rows, 2)
        a = fmi_mechanism_payments(matrix, TVD, pairing="seeded-random-reference", seed=5)
        b = fmi_mechanism_payments(matrix, TVD, pairing="seeded-random-reference", seed=5)
        assert np.array_equal(a.payments, b.payments)


def md_enumeration_expectation(rows, d):
    """Expected reward of agent 0 under uniform (A, B) subset choice, d=1."""
    assert d == 1
    T = rows.shape[1]
    total = 0.0
    for k in range(T):
        acc = []
        for a in range(T):
            if a == k:
                continue
            for b in range(T):
                if b in (k, a):
                    continue
                si, sj = float(rows[0, k]), float(rows[1, k])
                abar, bbar = float(rows[0, a]), float(rows[1, b])
                agree = si * sj + (1 - si) * (1 - sj)
                base = abar * bbar + (1 - abar) * (1 - bbar)
                acc.append(agree - base)
        total += float(np.mean(acc))
    return total / T


class TestMdPayments:
    def test_matches_enumeration_expectation(self):
        rows = np.array([[1, 0, 1, 1, 0], [1, 0, 1, 0, 0]])
        matrix = ReportMatrix.full(rows, 2)
        expect = md_enumeration_expectation(rows, d=1)
        sims = [float(md_payments(matrix, 1, seed=s).payments[0]) for s in range(400)]
        assert abs(float(np.mean(sims)) - expect) < 0.02

    def test_agreeing_nonconstant_reward_formula(self):
        rows = np.array([[0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1]])
        matrix = ReportMatrix.full(rows, 2)
        rep = md_payments(matrix, 2, seed=7)
        assert rep.payments[0] >= 0.0

    def test_independent_uniform_centers_on_zero(self, rng):
        sims = []
        for s in range(60):
            rows = np.random.Generator(np.random.PCG64(s)).integers(0, 2, size=(2, 200))
            sims.append(float(md_payments(ReportMatrix.full(rows, 2), 2, seed=s).payments[0]))
        mean = float(np.mean(sims))
        half_width = 1.96 * float(np.std(sims, ddof=1)) / math.sqrt(len(sims))
        assert abs(mean) <= half_width + 1e-6

    def test_too_few_questions_pays_zero(self):
        rows = np.array([[1, 0], [1, 1]])
        rep = md_payments(ReportMatrix.full(rows, 2), 2, seed=1)
        assert np.allclose(rep.payments, 0.0)

    def test_non_binary_rejected(self):
        rows = np.array([[0, 1, 2], [2, 1, 0]])
        with pytest.raises(NonBinaryAlphabet):
            md_payments(ReportMatrix.full(rows, 3), 1, seed=0)


class TestMdExpectedReward:
    def test_canonical(self, canonical_joint):
        assert ca_expected_reward(canonical_joint) == pytest.approx(0.3, abs=1e-12)
        assert ca_expected_reward(canonical_joint) == pytest.approx(
            0.5 * f_mutual_information(canonical_joint, TVD), abs=1e-12
        )

    def test_independent_zero(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        assert ca_expected_reward(j) == pytest.approx(0.0, abs=1e-15)

    def test_anticorrelated_below_half_tvd(self):
        j = JointDistribution(np.array([[0.1, 0.4], [0.4, 0.1]]))
        reward = ca_expected_reward(j)
        assert reward == pytest.approx(-0.3, abs=1e-12)
        assert reward <= 0.5 * f_mutual_information(j, TVD)

    def test_matches_loop_oracle(self, rng):
        t = rng.dirichlet(np.ones(4)).reshape(2, 2)
        j = JointDistribution(t)
        assert ca_expected_reward(j) == pytest.approx(
            oracles.agreement_reward(t.tolist()), abs=1e-12
        )


class TestCaPayments:
    def test_binary_matches_md_in_expectation(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        md_sims, ca_sims = [], []
        for s in range(40):
            matrix = generate_reports(scn, 400, seed=1000 + s)
            md_sims.append(float(md_payments(matrix, 2, seed=s).payments[0]))
            ca_sims.append(float(ca_payments(matrix, 2, seed=s).payments[0]))
        expected = ca_expected_reward(canonical_prior.joint)
        assert abs(float(np.mean(md_sims)) - expected) < 0.03
        assert abs(float(np.mean(ca_sims)) - expected) < 0.03

    def test_identical_constant_reports_zero(self):
        rows = np.zeros((2, 8), dtype=int)
        rep = ca_payments(ReportMatrix.full(rows, 2), 2, seed=3)
        assert np.allclose(rep.payments, 0.0)

    def test_three_symbol_agreement_positive(self):
        rows = np.array([[0, 1, 2, 0, 1, 2, 0, 1, 2]] * 2)
        sims = [float(ca_payments(ReportMatrix.full(rows, 3), 2, seed=s).payments[0])
                for s in range(200)]
        assert float(np.mean(sims)) > 0.2


@pytest.mark.parametrize("fn", [md_payments, ca_payments])
@pytest.mark.parametrize("d", [0, -1])
def test_subset_size_below_one_rejected(fn, d):
    rows = np.array([[0, 1, 0, 1, 1, 0], [0, 1, 1, 1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        fn(ReportMatrix.full(rows, 2), d, seed=0)


class TestSppm:
    def test_truth_expectation_equals_bregman_mi(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        rep = sppm_expected_payments(scn, canonical_prior, ScoringRule.LOG)
        assert rep.payments[0] == pytest.approx(0.1927448, abs=1e-6)
        assert rep.payments[0] == pytest.approx(
            bregman_mi(canonical_prior.joint, ScoringRule.LOG), abs=1e-10
        )

    def test_quadratic_truth_expectation(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        rep = sppm_expected_payments(scn, canonical_prior, ScoringRule.QUADRATIC)
        assert rep.payments[0] == pytest.approx(0.18, abs=1e-12)

    def test_uninformative_prior_pays_zero(self):
        prior = PairwisePrior(JointDistribution(np.outer([0.5, 0.5], [0.5, 0.5])))
        pay = sppm_payments([0, 0], prior, ScoringRule.LOG)
        assert np.allclose(pay.payments, 0.0, atol=1e-15)

    def test_shift_is_strategy_independent(self, canonical_prior):
        # the deviator's payment change equals the unshifted score change
        q, posteriors = canonical_prior.joint.table.sum(axis=0), None
        prior_dist = Distribution(q)
        for report_i in (0, 1):
            post = Distribution(
                canonical_prior.joint.table[report_i]
                / canonical_prior.joint.table[report_i].sum()
            )
            shifted = sppm_payments([report_i, 1], canonical_prior, ScoringRule.LOG).payments[0]
            unshifted = ScoringRule.LOG.score(1, post)
            shift = ScoringRule.LOG.score(1, prior_dist)
            assert shifted == pytest.approx(unshifted - shift, abs=1e-12)

    def test_realized_payment_hand_check(self, canonical_prior):
        pay = sppm_payments([0, 1], canonical_prior, ScoringRule.LOG).payments
        assert pay[0] == pytest.approx(math.log(0.2) - math.log(0.5), abs=1e-12)


def bts_oracle(signals, predictions, alpha):
    """Plain-loop double implementation of the finite-n scores."""
    n = len(signals)
    info, pred = [], []
    for i in range(n):
        others = [signals[k] for k in range(n) if k != i]
        fr_own = others.count(signals[i]) / (n - 1)
        vals_i, vals_p = [], []
        for j in range(n):
            if j == i:
                continue
            vals_i.append(math.log(fr_own) - math.log(predictions[j][signals[i]]))
            others_j = [signals[k] for k in range(n) if k != j]
            fr_j = others_j.count(signals[j]) / (n - 1)
            vals_p.append(math.log(predictions[i][signals[j]]) - math.log(fr_j))
        info.append(sum(vals_i) / len(vals_i))
        pred.append(sum(vals_p) / len(vals_p))
    return [p + alpha * s for p, s in zip(pred, info)], info, pred


class TestBtsPayments:
    def test_unanimous_point_predictions_score_zero(self):
        profile = BtsReportProfile(
            np.zeros(4, dtype=int), tuple(Distribution(np.array([1.0, 0.0])) for _ in range(4))
        )
        rep = bts_payments(profile, alpha=2.0)
        assert np.allclose(rep.information_scores, 0.0, atol=1e-15)
        assert np.allclose(rep.prediction_scores, 0.0, atol=1e-15)

    def test_lone_dissenter_zero_frequency(self):
        profile = BtsReportProfile(
            np.array([0, 0, 0, 1]),
            tuple(Distribution(np.array([0.7, 0.3])) for _ in range(4)),
        )
        with pytest.raises(ZeroFrequency):
            bts_payments(profile, alpha=2.0)

    def test_smoothing_rescues_degenerate_profile(self):
        profile = BtsReportProfile(
            np.array([0, 0, 0, 1]),
            tuple(Distribution(np.array([0.7, 0.3])) for _ in range(4)),
        )
        rep = bts_payments(profile, alpha=2.0, smoothing=0.5)
        assert np.all(np.isfinite(rep.payments))

    def test_six_agent_profile_matches_hand_table(self):
        signals = [0, 1, 0, 2, 1, 2]
        preds = [
            [0.5, 0.3, 0.2],
            [0.2, 0.6, 0.2],
            [0.4, 0.4, 0.2],
            [0.3, 0.3, 0.4],
            [0.25, 0.5, 0.25],
            [0.6, 0.2, 0.2],
        ]
        profile = BtsReportProfile(
            np.array(signals), tuple(Distribution(np.array(p)) for p in preds)
        )
        rep = bts_payments(profile, alpha=3.0)
        expect_pay, expect_info, expect_pred = bts_oracle(signals, preds, 3.0)
        assert np.allclose(rep.payments, expect_pay, atol=1e-12)
        assert np.allclose(rep.information_scores, expect_info, atol=1e-12)
        assert np.allclose(rep.prediction_scores, expect_pred, atol=1e-12)

    def test_needs_three_agents(self):
        profile = BtsReportProfile(
            np.array([0, 1]), tuple(Distribution(np.array([0.5, 0.5])) for _ in range(2))
        )
        with pytest.raises(DimensionMismatch):
            bts_payments(profile, alpha=2.0)

    def test_alpha_warning_flag(self):
        profile = BtsReportProfile(
            np.zeros(3, dtype=int), tuple(Distribution(np.array([1.0, 0.0])) for _ in range(3))
        )
        assert bts_payments(profile, alpha=0.5).metadata["alpha_warning"]
        assert not bts_payments(profile, alpha=2.0).metadata["alpha_warning"]

    @pytest.mark.parametrize("alpha,smoothing", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
        (2.0, math.nan), (2.0, math.inf), (2.0, -0.5),
    ])
    def test_rejects_non_finite_alpha_and_bad_smoothing(self, alpha, smoothing):
        profile = BtsReportProfile(
            np.array([0, 0, 1, 1]), tuple(Distribution(np.array([0.6, 0.4])) for _ in range(4))
        )
        with pytest.raises(DimensionMismatch):
            bts_payments(profile, alpha=alpha, smoothing=smoothing)


class TestBtsIdealized:
    def test_truth_scores(self, two_state_world):
        scores = bts_idealized_scores(two_state_world)
        assert scores.information_score == pytest.approx(0.1264670, abs=1e-6)
        assert scores.prediction_score == pytest.approx(-scores.information_score, abs=1e-12)

    def test_constant_reporting_scores_zero(self, two_state_world):
        strategies = tuple(constant_strategy(2) for _ in range(3))
        scores = bts_idealized_scores(two_state_world, strategies)
        assert scores.information_score == pytest.approx(0.0, abs=1e-12)
        assert scores.prediction_score == pytest.approx(0.0, abs=1e-12)

    def test_shared_permutation_ties_truth(self, two_state_world):
        scores = bts_idealized_scores(two_state_world, (SWAP, SWAP, SWAP))
        truth = bts_idealized_scores(two_state_world)
        assert scores.information_score == pytest.approx(truth.information_score, abs=1e-12)

    def test_f_measure_variant(self, two_state_world):
        tvd_truth = bts_idealized_scores(two_state_world, None, TVD)
        assert tvd_truth.information_score > 0
        garbled = bts_idealized_scores(two_state_world, tuple(constant_strategy(2) for _ in range(3)), TVD)
        assert garbled.information_score == pytest.approx(0.0, abs=1e-12)

    def test_optimal_predictions_truth(self, two_state_world):
        preds = optimal_predictions(two_state_world)
        assert np.allclose(preds[0].weights, [0.68, 0.32], atol=1e-12)
        assert np.allclose(preds[1].weights, [0.32, 0.68], atol=1e-12)


class TestWelfareAndReports:
    def test_welfare_sums_payments(self):
        rep = PaymentReport("mip", "exact", np.array([0.25, 0.5, 0.25]))
        assert agent_welfare(rep) == pytest.approx(1.0, abs=1e-15)

    def test_welfare_empty(self):
        rep = PaymentReport("mip", "exact", np.zeros(0))
        assert agent_welfare(rep) == 0.0

    def test_bts_welfare_decomposition(self):
        signals = [0, 1, 0, 1]
        preds = [[0.6, 0.4], [0.4, 0.6], [0.5, 0.5], [0.3, 0.7]]
        profile = BtsReportProfile(
            np.array(signals), tuple(Distribution(np.array(p)) for p in preds)
        )
        rep = bts_payments(profile, alpha=2.5)
        assert agent_welfare(rep) == pytest.approx(
            float(np.sum(rep.prediction_scores + 2.5 * rep.information_scores)), abs=1e-12
        )

    def test_utility_invariant_enforced(self):
        with pytest.raises(DimensionMismatch):
            PaymentReport(
                "mip",
                "exact",
                np.array([1.0]),
                effort_costs=np.array([0.3]),
                utilities=np.array([0.5]),
            )

    def test_csv_and_dict_serialization(self, canonical_prior):
        efforts = (EffortStrategy(1.0, 0.2), EffortStrategy(1.0, 0.0))
        scn = Scenario(canonical_prior, (truth_telling(2), truth_telling(2)), efforts)
        rep = mip_expected_payments(scn, TVD)
        from peerlab import payment_report_csv, payment_report_dict

        csv_text = payment_report_csv(rep)
        assert csv_text.splitlines()[0] == (
            "agent,payment,information_score,prediction_score,effort_cost,utility"
        )
        assert len(csv_text.splitlines()) == 3
        d = payment_report_dict(rep)
        assert d["payments"] == [0.6000000000000001, 0.6000000000000001]
        assert d["mechanism"] == "mip"
