import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    DimensionMismatch,
    Distribution,
    EffortStrategy,
    FullJointPrior,
    JointDistribution,
    ModeMismatch,
    NegativeWeight,
    NoOverlap,
    PairwisePrior,
    PeerLabError,
    PermutationList,
    ReportMatrix,
    Scenario,
    Strategy,
    TransitionMatrix,
    UnsupportedPriorMode,
    empirical_pair_joint,
    generate_reports,
    load_scenario,
    permutation_channel,
    permute_scenario,
    random_strategy,
    report_joint,
    reported_world_states,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    truth_telling,
    truthful_scenario,
    world_tensor,
    ZeroMass,
)
from peerlab import agents
from peerlab.agents import _inverse_cdf

SWAP = Strategy(permutation_channel([1, 0]), label="swap")


class TestPriors:
    def test_symmetric_flag_enforced(self):
        with pytest.raises(ModeMismatch):
            PairwisePrior(JointDistribution(np.array([[0.5, 0.2], [0.1, 0.2]])), symmetric=True)

    @given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)), st.booleans(),
           st.one_of(st.floats(0.5, 1.5), st.sampled_from((1.0, 1.0 - 1e-9, 1.0 + 1e-9))),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_rule_is_allclose(self, seed, m, zero_cell, factor, negative):
        # one off-diagonal cell moved to about the bound 1e-12 + 1e-5 * |mirror| from its
        # mirror (mass kept by its row's diagonal): accepted exactly when np.allclose accepts
        rng = np.random.default_rng(seed)
        x = rng.random((m, m)) + 0.1
        x = x + x.T
        a, b = rng.choice(m, size=2, replace=False).tolist()
        if zero_cell:
            x[a, b] = x[b, a] = 0.0
        x /= x.sum()
        step = (1e-12 + 1e-5 * x[b, a]) * factor
        new = max(x[b, a] - step, 0.0) if negative else x[b, a] + step
        x[a, a] -= new - x[a, b]
        x[a, b] = new
        joint = JointDistribution(x)
        accepted = np.allclose(joint.table, joint.table.T, atol=1e-12)
        if factor <= 1.0 - 1e-6 or (factor >= 1.0 + 1e-6 and new > 0.0):
            assert accepted == (factor < 1.0)
        if accepted:
            PairwisePrior(joint)
        else:
            with pytest.raises(ModeMismatch, match="prior flagged symmetric but table is not"):
                PairwisePrior(joint)
        assert not PairwisePrior(joint, symmetric=False).symmetric

    def test_pair_joint_transposes_for_reversed_order(self):
        q = JointDistribution(np.array([[0.5, 0.2], [0.1, 0.2]]))
        prior = PairwisePrior(q, symmetric=False)
        assert np.array_equal(prior.pair_joint(1, 0).table, q.table.T)

    def test_full_joint_pair_marginal(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 0.5
        prior = FullJointPrior(t)
        assert np.allclose(prior.pair_joint(0, 2).table, [[0.5, 0], [0, 0.5]])

    def test_world_model_pair_joint(self, two_state_world):
        expect = 0.5 * np.outer([0.8, 0.2], [0.8, 0.2]) + 0.5 * np.outer([0.2, 0.8], [0.2, 0.8])
        assert np.allclose(two_state_world.pair_joint(0, 1).table, expect, atol=1e-12)

    def test_full_joint_agent_guard(self):
        with pytest.raises(UnsupportedPriorMode):
            FullJointPrior(np.full((2,) * 7, 1.0 / 128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_full_joint_rejects_non_finite(self, bad):
        t = np.full((2, 2), 0.25)
        t[0, 1] = bad
        with pytest.raises(PeerLabError):
            FullJointPrior(t)

    def test_full_joint_rejects_negative_entry(self):
        with pytest.raises(NegativeWeight):
            FullJointPrior(np.array([[0.5, -0.1], [0.3, 0.3]]))

    def test_full_joint_rejects_bad_mass(self):
        with pytest.raises(ZeroMass):
            FullJointPrior(np.full((2, 2), 0.3))


class TestReportJoint:
    def test_truth_full_effort_is_prior(self, canonical_prior):
        j = report_joint(canonical_prior, 0, 1, truth_telling(2), truth_telling(2))
        assert np.allclose(j.table, canonical_prior.joint.table, atol=1e-15)

    def test_no_effort_gives_product(self, canonical_prior):
        lazy = EffortStrategy(0.0, 0.0, Distribution(np.array([0.3, 0.7])))
        j = report_joint(canonical_prior, 0, 1, truth_telling(2), truth_telling(2), lazy, None)
        assert np.allclose(j.table, np.outer([0.3, 0.7], [0.5, 0.5]), atol=1e-12)

    def test_swap_matches_channel_push(self, canonical_prior):
        j = report_joint(canonical_prior, 0, 1, SWAP, truth_telling(2))
        assert np.allclose(j.table, [[0.1, 0.4], [0.4, 0.1]], atol=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mixture_law_in_each_effort(self, li, lj):
        prior = PairwisePrior(JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]])))
        strat = Strategy(TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]])))

        def joint(a, b):
            return report_joint(
                prior, 0, 1, strat, SWAP, EffortStrategy(a, 0.0), EffortStrategy(b, 0.0)
            ).table

        mixed = joint(li, lj)
        along_i = li * joint(1.0, lj) + (1 - li) * joint(0.0, lj)
        along_j = lj * joint(li, 1.0) + (1 - lj) * joint(li, 0.0)
        assert np.allclose(mixed, along_i, atol=1e-12)
        assert np.allclose(mixed, along_j, atol=1e-12)


class TestWorldTensor:
    def test_truth_keeps_states(self, two_state_world):
        reported = reported_world_states(two_state_world, None)
        assert np.allclose(reported[0].weights, [0.8, 0.2])
        assert np.allclose(reported[1].weights, [0.2, 0.8])

    def test_swap_relabels_states(self, two_state_world):
        reported = reported_world_states(two_state_world, [SWAP, SWAP, SWAP])
        assert np.allclose(reported[0].weights, [0.2, 0.8], atol=1e-12)
        assert np.allclose(reported[1].weights, [0.8, 0.2], atol=1e-12)

    def test_mixed_profile_averages_channels(self, two_state_world):
        reported = reported_world_states(two_state_world, [SWAP, truth_telling(2)])
        assert np.allclose(reported[0].weights, [0.5, 0.5], atol=1e-12)

    def test_tensor_mass_and_shape(self, two_state_world):
        tensor = world_tensor(two_state_world, [truth_telling(2)] * 3)
        assert tensor.shape == (2, 2, 2)
        assert abs(tensor.table.sum() - 1.0) <= 1e-12

    def test_mode_guard(self, canonical_prior):
        with pytest.raises(ModeMismatch):
            world_tensor(canonical_prior)


class TestGenerateReports:
    def test_point_mass_prior_constant(self):
        table = np.zeros((2, 2))
        table[1, 1] = 1.0
        scn = truthful_scenario(PairwisePrior(JointDistribution(table)), 2)
        reports = generate_reports(scn, 7, seed=5)
        assert np.array_equal(reports.entries, np.ones((2, 7), dtype=int))

    def test_zero_questions(self, canonical_prior):
        reports = generate_reports(truthful_scenario(canonical_prior, 2), 0, seed=1)
        assert reports.entries.shape == (2, 0)

    def test_deterministic_per_seed(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        a = generate_reports(scn, 500, seed=11)
        b = generate_reports(scn, 500, seed=11)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, generate_reports(scn, 500, seed=12).entries)

    def test_empirical_joint_converges(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        reports = generate_reports(scn, 100_000, seed=3)
        emp = empirical_pair_joint(reports, 0, 1)
        assert np.max(np.abs(emp.table - canonical_prior.joint.table)) < 0.01

    def test_convergence_trend_over_seeds(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        medians = []
        for T in (1000, 10_000, 100_000):
            gaps = []
            for s in range(20):
                emp = empirical_pair_joint(generate_reports(scn, T, seed=100 + s), 0, 1)
                gaps.append(float(np.max(np.abs(emp.table - canonical_prior.joint.table))))
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]

    def test_pairwise_prior_not_generative_beyond_two(self, canonical_prior):
        scn = Scenario(canonical_prior, tuple(truth_telling(2) for _ in range(3)))
        with pytest.raises(UnsupportedPriorMode):
            generate_reports(scn, 10, seed=0)

    def test_no_effort_reports_ignore_signals(self, canonical_prior):
        lazy = EffortStrategy(0.0, 0.0, Distribution(np.array([1.0, 0.0])))
        scn = Scenario(
            canonical_prior,
            (truth_telling(2), truth_telling(2)),
            (lazy, EffortStrategy(1.0, 0.0)),
        )
        reports = generate_reports(scn, 50, seed=2)
        assert np.array_equal(reports.entries[0], np.zeros(50, dtype=int))

    def test_world_model_sampling(self, two_state_world):
        scn = truthful_scenario(two_state_world, 4)
        reports = generate_reports(scn, 20_000, seed=9)
        emp = empirical_pair_joint(reports, 0, 3)
        assert np.max(np.abs(emp.table - two_state_world.pair_joint(0, 3).table)) < 0.02


class TestReportMatrixArrays:
    """A writeable input array is copied, so the caller's stays writeable; a read-only one
    is shared, and the report paths hand over read-only arrays, so they copy nothing."""

    def test_writeable_inputs_are_copied(self):
        entries, mask = np.zeros((2, 3), np.intp), np.ones((2, 3), bool)
        reports = ReportMatrix(entries, mask, 2)
        entries[0, 0] = 1
        mask[0, 0] = False
        assert reports.entries[0, 0] == 0 and reports.mask[0, 0]
        assert not (reports.entries.flags.writeable or reports.mask.flags.writeable)
        int_mask = np.ones((2, 3), np.int64)
        ReportMatrix(entries, int_mask, 2)
        int_mask[0, 0] = 0
        view = np.zeros((4, 3), np.intp)[::2]
        ReportMatrix(view, mask, 2)
        view[1, 2] = 1

    def test_read_only_inputs_are_shared(self):
        entries, mask = np.zeros((2, 3), np.intp), np.ones((2, 3), bool)
        entries.setflags(write=False)
        mask.setflags(write=False)
        reports = ReportMatrix(entries, mask, 2)
        assert reports.entries is entries and reports.mask is mask
        assert ReportMatrix.full(entries, 2).entries is entries

    def test_report_paths_copy_nothing(self, monkeypatch, two_state_world):
        read_only = agents._read_only

        def shared(arr, given):
            out = read_only(arr, given)
            assert out is arr
            return out

        monkeypatch.setattr(agents, "_read_only", shared)
        scn = Scenario(two_state_world, tuple(truth_telling(2) for _ in range(4)))
        reports = generate_reports(scn, 200, seed=4)
        assert not reports.entries.flags.writeable and not reports.mask.flags.writeable
        ReportMatrix.full(np.array([[0, 1], [1, 0]]).astype(np.int32), 2)


class TestEmpiricalPairJoint:
    def test_perfect_agreement(self):
        rows = np.array([[0, 1, 0, 1], [0, 1, 0, 1]])
        emp = empirical_pair_joint(ReportMatrix.full(rows, 2), 0, 1)
        assert np.allclose(emp.table, [[0.5, 0], [0, 0.5]])

    def test_perfect_disagreement(self):
        rows = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])
        emp = empirical_pair_joint(ReportMatrix.full(rows, 2), 0, 1)
        assert np.allclose(emp.table, [[0, 0.5], [0.5, 0]])

    def test_matches_hand_counter(self, rng):
        entries = rng.integers(0, 3, size=(2, 40))
        emp = empirical_pair_joint(ReportMatrix.full(entries, 3), 0, 1)
        counts = np.zeros((3, 3))
        for a, b in zip(entries[0], entries[1]):
            counts[a, b] += 1
        assert np.allclose(emp.table, counts / 40, atol=1e-15)

    def test_mask_restricts_to_overlap(self):
        entries = np.array([[0, 1, 1], [1, 1, 0]])
        mask = np.array([[True, True, False], [False, True, True]])
        emp = empirical_pair_joint(ReportMatrix(entries, mask, 2), 0, 1)
        assert np.allclose(emp.table, [[0, 0], [0, 1.0]])

    def test_no_overlap(self):
        entries = np.array([[0, 1], [1, 0]])
        mask = np.array([[True, False], [False, True]])
        with pytest.raises(NoOverlap):
            empirical_pair_joint(ReportMatrix(entries, mask, 2), 0, 1)


class TestPermuteScenario:
    def test_identity_list_fixed_point(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        perms = PermutationList.symmetric([0, 1], 2)
        assert scenario_to_dict(permute_scenario(scn, perms)) == scenario_to_dict(scn)

    def test_symmetric_swap_on_symmetric_prior(self, canonical_prior):
        strat = Strategy(TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]])))
        scn = Scenario(canonical_prior, (strat, truth_telling(2)))
        twin = permute_scenario(scn, PermutationList.symmetric([1, 0], 2))
        # symmetric prior is a fixed point; strategy rows are relabeled
        assert np.allclose(twin.prior.joint.table, canonical_prior.joint.table)
        assert np.allclose(twin.strategies[0].channel.rows, [[0.3, 0.7], [0.9, 0.1]])

    def test_order_two_involution(self, canonical_prior):
        strat = Strategy(TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]])))
        scn = Scenario(canonical_prior, (strat, SWAP))
        perms = PermutationList.symmetric([1, 0], 2)
        back = permute_scenario(permute_scenario(scn, perms), perms)
        assert scenario_to_dict(back) == scenario_to_dict(scn)

    def test_inverse_undoes_exactly(self, rng):
        prior = FullJointPrior(rng.dirichlet(np.ones(27)).reshape(3, 3, 3))
        strategies = tuple(random_strategy(seed=i, m=3, kind="dense") for i in range(3))
        scn = Scenario(prior, strategies)
        perms = PermutationList([[1, 2, 0], [2, 0, 1], [0, 2, 1]])
        back = permute_scenario(permute_scenario(scn, perms), perms.inverse())
        assert scenario_to_dict(back) == scenario_to_dict(scn)

    def test_defining_identity_per_signal(self, rng):
        # permuted strategy at the relabeled signal reproduces the original rows
        strat = random_strategy(seed=77, m=3, kind="dense")
        scn = Scenario(
            FullJointPrior(rng.dirichlet(np.ones(9)).reshape(3, 3)), (strat, truth_telling(3))
        )
        pmap = [2, 0, 1]
        perms = PermutationList([pmap, [0, 1, 2]])
        twin = permute_scenario(scn, perms)
        inv = np.argsort(pmap)
        for sigma in range(3):
            assert np.allclose(
                twin.strategies[0].channel.rows[inv[sigma]],
                strat.channel.rows[sigma],
                atol=1e-15,
            )

    def test_report_distribution_preserved(self, rng):
        prior = FullJointPrior(0.9 * rng.dirichlet(np.ones(8)).reshape(2, 2, 2) + 0.1 / 8)
        strategies = tuple(random_strategy(seed=10 + i, m=2, kind="dense") for i in range(3))
        scn = Scenario(prior, strategies)
        perms = PermutationList([[1, 0], [0, 1], [1, 0]])
        twin = permute_scenario(scn, perms)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                a = report_joint(scn.prior, i, j, scn.strategies[i], scn.strategies[j])
                b = report_joint(twin.prior, i, j, twin.strategies[i], twin.strategies[j])
                assert np.allclose(a.table, b.table, atol=1e-12)

    def test_asymmetric_list_needs_full_joint(self, canonical_prior):
        scn = truthful_scenario(canonical_prior, 2)
        with pytest.raises(UnsupportedPriorMode):
            permute_scenario(scn, PermutationList([[1, 0], [0, 1]]))

    def test_world_model_symmetric_relabel(self, two_state_world):
        scn = truthful_scenario(two_state_world, 3)
        twin = permute_scenario(scn, PermutationList.symmetric([1, 0], 3))
        assert np.allclose(twin.prior.states[0].weights, [0.2, 0.8])


class TestRandomStrategy:
    def test_binary_permutation_is_identity_or_swap(self):
        for seed in range(10):
            s = random_strategy(seed, 2, kind="permutation")
            assert s.is_permutation

    def test_constant_rows_equal(self):
        s = random_strategy(3, 4, kind="constant")
        assert np.allclose(s.channel.rows, s.channel.rows[0])

    def test_dense_rows_normalized(self):
        s = random_strategy(4, 5, kind="dense")
        assert np.allclose(s.channel.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = random_strategy(9, 3, kind="sparse")
        b = random_strategy(9, 3, kind="sparse")
        assert np.array_equal(a.channel.rows, b.channel.rows)


class TestScenarioFiles:
    def test_round_trip_lossless(self, tmp_path, rng):
        prior = FullJointPrior(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        strategies = tuple(random_strategy(seed=i, m=2, kind="dense") for i in range(3))
        efforts = tuple(
            EffortStrategy(float(rng.uniform()), float(rng.uniform()),
                           Distribution(rng.dirichlet(np.ones(2))))
            for _ in range(3)
        )
        scn = Scenario(prior, strategies, efforts)
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.prior.tensor, prior.tensor)
        for a, b in zip(loaded.strategies, strategies):
            assert np.array_equal(a.channel.rows, b.channel.rows)
        for a, b in zip(loaded.efforts, efforts):
            assert a.full_effort_prob == b.full_effort_prob
            assert a.cost == b.cost
            assert np.array_equal(a.no_effort_report.weights, b.no_effort_report.weights)

    def test_schema_version_present(self, tmp_path, canonical_prior):
        path = tmp_path / "s.json"
        save_scenario(truthful_scenario(canonical_prior, 2), path)
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_world_model_round_trip(self, tmp_path, two_state_world):
        scn = truthful_scenario(two_state_world, 3)
        path = tmp_path / "w.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert np.array_equal(
            loaded.prior.state_probs.weights, two_state_world.state_probs.weights
        )

    def test_dict_round_trip_identity(self, canonical_prior):
        scn = Scenario(canonical_prior, (SWAP, truth_telling(2)),
                       (EffortStrategy(0.5, 0.25), EffortStrategy(1.0, 0.0)))
        assert scenario_to_dict(scenario_from_dict(scenario_to_dict(scn))) == scenario_to_dict(scn)


class TestEffortValidation:
    @pytest.mark.parametrize("cost", [np.nan, np.inf, -0.1])
    def test_rejects_bad_cost(self, cost):
        with pytest.raises(DimensionMismatch):
            EffortStrategy(1.0, cost)

    @pytest.mark.parametrize("prob", [np.nan, -0.1, 1.5])
    def test_rejects_bad_full_effort_prob(self, prob):
        with pytest.raises(DimensionMismatch):
            EffortStrategy(prob, 0.0)


class TestInverseCdf:
    def test_weights_just_under_one_stay_in_alphabet(self):
        weights = np.array([0.25, 0.25, 0.5 - 5e-10])
        TransitionMatrix(np.tile(weights, (3, 1)))  # accepted within NORM_TOL
        u = np.array([1.0 - 1e-12])
        assert _inverse_cdf(weights, u).tolist() == [2]
        rows = np.tile(weights, (4, 1))
        assert _inverse_cdf(rows, np.full(4, 1.0 - 1e-12)).tolist() == [2] * 4

    def test_in_range_draws_unchanged(self):
        weights = np.array([0.2, 0.3, 0.5])
        u = np.array([0.0, 0.1, 0.2, 0.25, 0.5, 0.7, 0.9999])
        expect = (u[:, None] > np.cumsum(weights)[None, :]).sum(axis=1)
        assert np.array_equal(_inverse_cdf(weights, u), expect)


class TestScenarioValidation:
    def test_alphabet_mismatch(self, canonical_prior):
        with pytest.raises(DimensionMismatch):
            Scenario(canonical_prior, (truth_telling(2), truth_telling(3)))

    def test_full_joint_agent_count_must_match(self, rng):
        prior = FullJointPrior(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        with pytest.raises(DimensionMismatch):
            Scenario(prior, (truth_telling(2), truth_telling(2)))

    def test_effort_count_must_match(self, canonical_prior):
        with pytest.raises(DimensionMismatch):
            Scenario(
                canonical_prior,
                (truth_telling(2), truth_telling(2)),
                (EffortStrategy(1.0, 0.0),),
            )
