"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion stops the line from printing and fails the
test).
"""

import json
import time

import numpy as np
import pytest

from peerlab import (
    ConvexGenerator,
    JointDistribution,
    PairwisePrior,
    ScoringRule,
    bregman_mi,
    bts_idealized_scores,
    ca_expected_reward,
    conditional_mi,
    default_config,
    f_mutual_information,
    fmi_mechanism_payments,
    generate_reports,
    log_score_accuracy_gain,
    mip_expected_payments,
    run_suite,
    sampling,
    save_scenario,
    shannon_mi,
    truthful_scenario,
)
from peerlab.cli import main
from peerlab.probability import rng_from_seed
from peerlab.verify import CANONICAL_WORLD

import oracles

KL = ConvexGenerator.KL
TVD = ConvexGenerator.TVD
CANONICAL = np.array([[0.4, 0.1], [0.1, 0.4]])


def _report(num, name, elapsed, limit):
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s < {limit}s)")


def test_criterion_01_agreement_reward_identity():
    start = time.perf_counter()
    q = JointDistribution(CANONICAL.copy())
    assert ca_expected_reward(q) == pytest.approx(0.3, abs=1e-12)
    assert 0.5 * f_mutual_information(q, TVD) == pytest.approx(0.3, abs=1e-12)
    assert abs(ca_expected_reward(q) - 0.5 * f_mutual_information(q, TVD)) <= 1e-12
    for idx in range(1000):
        rng = rng_from_seed(101, idx)
        prior = sampling.random_positively_correlated_binary_joint(rng)
        gap = abs(ca_expected_reward(prior) - 0.5 * f_mutual_information(prior, TVD))
        assert gap <= 1e-12
    _report(1, "agreement reward = half TVD information on correlated binary priors",
            time.perf_counter() - start, 1.0)


def test_criterion_02_log_rule_bridge():
    start = time.perf_counter()
    for idx in range(1000):
        rng = rng_from_seed(202, idx)
        mx = int(rng.choice([2, 3, 4]))
        my = int(rng.choice([2, 3, 4]))
        joint = sampling.random_joint(rng, mx, my)
        a = bregman_mi(joint, ScoringRule.LOG)
        b = shannon_mi(joint)
        c = f_mutual_information(joint, KL)
        assert abs(a - b) <= 1e-10
        assert abs(b - c) <= 1e-10
    _report(2, "log-rule accuracy gain = Shannon information (three routes)",
            time.perf_counter() - start, 5.0)


def test_criterion_03_accuracy_gain_identity():
    start = time.perf_counter()
    for idx in range(1000):
        rng = rng_from_seed(303, idx)
        dims = [int(rng.choice([2, 3, 4])) for _ in range(3)]
        tensor = sampling.random_conditional_tensor(rng, *dims)
        lhs = log_score_accuracy_gain(tensor)
        rhs = conditional_mi(tensor, KL)
        assert abs(lhs - rhs) <= 1e-10
    _report(3, "expected accuracy gain = conditional information on random tensors",
            time.perf_counter() - start, 10.0)


def test_criterion_04_data_processing_inequality():
    start = time.perf_counter()
    verdict = run_suite(default_config("dpi", instances=10_000, seed=404))
    assert verdict.passed, verdict.violations[:3]
    claims = {c["name"]: c for c in verdict.claims}
    assert claims["mi_dpi"]["instances"] == 10_000
    assert claims["mi_dpi"]["violations"] == 0
    assert claims["mi_dpi_strict"]["instances"] > 0
    assert claims["mi_dpi_strict"]["violations"] == 0
    assert claims["divergence_monotonicity"]["violations"] == 0
    assert verdict.strictness["min"] > 1e-10
    _report(4, "data processing inequality, strict on separated joints",
            time.perf_counter() - start, 30.0)


def test_criterion_05_dominant_truthfulness():
    start = time.perf_counter()
    verdict = run_suite(default_config("dominant-truthfulness", instances=1000, seed=505))
    assert verdict.passed, verdict.violations[:3]
    claims = {c["name"]: c for c in verdict.claims}
    assert claims["truth_dominates"]["instances"] == 1000
    assert claims["truth_dominates"]["violations"] == 0
    assert claims["permutation_ties"]["violations"] == 0
    assert claims["non_permutation_strictly_below"]["instances"] > 0
    assert claims["non_permutation_strictly_below"]["violations"] == 0
    _report(5, "truth-telling dominant in exact payments",
            time.perf_counter() - start, 30.0)


def test_criterion_06_effort_structure():
    start = time.perf_counter()
    verdict = run_suite(default_config("effort", instances=1000, seed=606))
    assert verdict.passed, verdict.violations[:3]
    claims = {c["name"]: c for c in verdict.claims}
    assert claims["canonical_pure_effort"]["violations"] == 0
    assert claims["effort_monotone"]["instances"] == 1000
    assert claims["effort_monotone"]["violations"] == 0
    assert claims["mixture_convexity"]["violations"] == 0
    _report(6, "pure effort optimal, effort-monotone, mixture-convex",
            time.perf_counter() - start, 30.0)


def test_criterion_07_empirical_payment_convergence():
    start = time.perf_counter()
    prior = PairwisePrior(JointDistribution(CANONICAL.copy()))
    scenario = truthful_scenario(prior, 2)
    exact = float(mip_expected_payments(scenario, TVD).payments[0])
    assert exact == pytest.approx(0.6, abs=1e-12)
    medians = []
    for gi, T in enumerate((1000, 10_000, 100_000)):
        gaps = []
        for s in range(20):
            reports = generate_reports(scenario, T, seed=707_000 + gi * 1000 + s)
            emp = float(fmi_mechanism_payments(reports, TVD).payments[0])
            gaps.append(abs(emp - exact))
        medians.append(float(np.median(gaps)))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] < 0.02
    _report(7, f"empirical payment gap medians decrease {[round(m, 4) for m in medians]}",
            time.perf_counter() - start, 120.0)


def test_criterion_08_signal_prediction_scores():
    start = time.perf_counter()
    # brute-force enumeration over the 8-atom joint, features before trusting
    oracle_value = oracles.bts_truth_information_score([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
    assert oracle_value == pytest.approx(0.1264670, abs=1e-6)
    truth = bts_idealized_scores(CANONICAL_WORLD)
    assert truth.information_score == pytest.approx(oracle_value, abs=1e-12)
    assert truth.information_score == pytest.approx(0.1264670, abs=1e-6)
    assert abs(truth.prediction_score + truth.information_score) <= 1e-12
    for idx in range(1000):
        rng = rng_from_seed(808, idx)
        n = int(rng.integers(3, 6))
        strategies = tuple(sampling.random_mixed_strategy(rng, 2) for _ in range(n))
        played = bts_idealized_scores(CANONICAL_WORLD, strategies)
        assert played.information_score <= truth.information_score + 1e-10
        assert abs(played.prediction_score + played.information_score) <= 1e-12
    _report(8, "idealized scores: oracle value, ordering, prediction negation",
            time.perf_counter() - start, 60.0)


def test_criterion_09_scenario_relabeling_equivalence():
    start = time.perf_counter()
    verdict = run_suite(default_config("scenario-equivalence", instances=100, seed=909))
    assert verdict.passed, verdict.violations[:3]
    claims = {c["name"]: c for c in verdict.claims}
    assert claims["payments_identical"]["violations"] == 0
    assert claims["payments_identical"]["instances"] >= 100 * 10
    _report(9, "relabeled scenario twins pay identically (all exact mechanisms)",
            time.perf_counter() - start, 60.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"schema_version": 1, "table": CANONICAL.tolist()}))
    scenario = tmp_path / "scenario.json"
    save_scenario(truthful_scenario(PairwisePrior(JointDistribution(CANONICAL.copy())), 2),
                  scenario)
    runs = {
        "measure": ["measure", "--mi", "kl", "--joint", str(joint)],
        "mechanism": ["mechanism", "--mechanism", "fmi", "--measure", "tvd",
                      "--scenario", str(scenario), "-T", "2000", "--seed", "5"],
        "verify": ["verify", "accuracy-gain", "--instances", "30", "--seed", "1"],
        "sweep": ["sweep", "--kind", "fmi-gap", "--scenario", str(scenario),
                  "--grid", "500,1000", "--seeds", "3"],
    }
    for name, args in runs.items():
        a, b = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name} output not byte-identical"
    _report(10, "CLI runs reproduce byte-identical outputs",
            time.perf_counter() - start, 60.0)
