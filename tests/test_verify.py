import collections
import json
import math
from unittest import mock

import numpy as np
import pytest

from peerlab import (
    DimensionMismatch,
    JointDistribution,
    NegativeWeight,
    SuiteConfig,
    TransitionMatrix,
    ZeroMass,
    default_config,
    permutation_channel,
    replay_violation,
    run_suite,
)
from peerlab import mechanisms, sampling, verify
from peerlab.measures import ScoringRule
from peerlab.probability import rng_from_seed
from peerlab.verify import SUITES

SMALL = {
    "dpi": 400,
    "dominant-truthfulness": 60,
    "truth-monotone": 60,
    "effort": 30,
    "bregman-quasi": 300,
    "accuracy-gain": 80,
    "md-equivalence": 120,
    "bts": 40,
    "scenario-equivalence": 4,
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_at_small_scale(suite):
    verdict = run_suite(default_config(suite, instances=SMALL[suite], seed=13))
    assert verdict.passed, verdict.violations[:2]
    assert verdict.instances == SMALL[suite]
    for claim in verdict.claims:
        assert claim["violations"] == 0


@pytest.mark.parametrize("suite", ["dpi", "bts", "scenario-equivalence"])
def test_verdict_bytes_deterministic(suite):
    config = default_config(suite, instances=SMALL[suite] // 2 or 1, seed=5)
    a = run_suite(config).to_json()
    b = run_suite(config).to_json()
    assert a == b


def test_verdict_schema_fields():
    verdict = run_suite(default_config("accuracy-gain", instances=20, seed=1))
    doc = verdict.to_dict()
    for key in ("suite", "config", "instances", "violations", "strictness",
                "strictness_histogram", "claims", "pass"):
        assert key in doc
    assert doc["pass"] is True
    json.dumps(doc)  # JSON-serializable without custom encoders


def test_convergence_claims_tagged():
    verdict = run_suite(default_config("bts", instances=10, seed=2))
    kinds = {c["name"]: c["kind"] for c in verdict.claims}
    assert kinds["finite_population_convergence"] == "convergence"
    assert kinds["information_score_ordering"] == "inequality"
    verdict = run_suite(default_config("md-equivalence", instances=210, seed=2))
    kinds = {c["name"]: c["kind"] for c in verdict.claims}
    assert kinds["agreement_variant_interval"] == "convergence"
    assert kinds["truth_identity"] == "equality"


def test_strictness_statistics_populated():
    verdict = run_suite(default_config("dpi", instances=500, seed=3))
    assert verdict.strictness["count"] > 0
    assert verdict.strictness["min"] > 1e-10
    assert sum(verdict.strictness_histogram.values()) == verdict.strictness["count"]


def test_second_entry_findings_recorded_not_failed():
    verdict = run_suite(default_config("bregman-quasi", instances=2000, seed=0))
    assert verdict.passed
    assert len(verdict.findings) > 0
    for finding in verdict.findings:
        assert finding["kind"] == "second_entry_increase"
        assert finding["after"] > finding["before"]


STRICT_CLAIMS = {
    "dpi": {"mi_dpi_strict", "divergence_strict"},
    "dominant-truthfulness": {"non_permutation_strictly_below"},
    "truth-monotone": {"peer_payment_drops_strictly"},
}


@pytest.mark.parametrize("suite", sorted(STRICT_CLAIMS))
def test_forced_violations_replay(suite):
    # a bound no decrease reaches forces "missing strict decrease" records, whose witnesses
    # must reproduce standalone; no tolerance forces them, as each decrease reaches its bound
    config = default_config(suite, instances=SMALL[suite], seed=13)
    with mock.patch.object(verify, "_divergence_decrease_bound", return_value=1e3):
        verdict = run_suite(config)
        assert {v["claim"] for v in verdict.violations} == STRICT_CLAIMS[suite]
        for violation in verdict.violations:
            assert replay_violation(violation, config)
    assert not any(replay_violation(v, config) for v in verdict.violations)


@pytest.mark.parametrize("seed,idx", [(129, 145), (14100072004, 152)])
def test_divergence_strict_holds_where_p_is_close_to_q(seed, idx):
    # Hellinger with p close to q: the decreases, 1.08e-12 and 9.4e-11, lie below
    # strictness_tol, and so does the proved bound they reach; the uncentred variance
    # overstates that bound at seed 129
    rec = verify._run(SuiteConfig("dpi", instances=2500, seed=seed), [idx])
    assert rec.claims["divergence_strict"]["instances"] == 1
    assert not rec.violations


@pytest.mark.parametrize("suite,seed,idx,claim", [
    ("truth-monotone", 14, 984, "peer_payment_drops_strictly"),
    ("dominant-truthfulness", 255, 513, "non_permutation_strictly_below"),
])
def test_payment_strict_drop_holds_below_the_tolerance(suite, seed, idx, claim):
    # chi^2 and Hellinger on fine-grained pairs of f-MI near 1e-10: the payment drops, 3.0e-11
    # and 6.2e-11, lie below strictness_tol, and so does the pair's bound over n - 1; at seed 14
    # the payment difference reads (1 - 1.2e-7) times that bound, which the pair's drop reaches
    rec = verify._run(SuiteConfig(suite, instances=1000, seed=seed), [idx])
    assert rec.claims[claim]["instances"] == 1
    assert not rec.violations


def test_strict_violations_carry_the_bound():
    config = default_config("dpi", instances=20, seed=13)
    with mock.patch.object(verify, "_divergence_decrease_bound", return_value=1e3):
        violations = verify._run(config).violations
    assert {v["claim"] for v in violations} == {"divergence_strict", "mi_dpi_strict"}
    assert all(v["data"]["bound"] == 1e3 for v in violations)
    assert all(v["data"]["certified"] == v["data"]["before"] - v["data"]["after"]
               for v in violations if v["claim"] == "mi_dpi_strict")


@pytest.mark.parametrize("drop,passes", [(3e-11 - 1e-13, True), (3e-11 - 2e-12, False),
                                         (0.0, False), (-1e-11, False)])
def test_strict_drop_must_reach_its_certified_value(drop, passes):
    # below strictness_tol the bound asks nothing of the drop itself; the certified value, a
    # lower bound of the drop in exact arithmetic, still does, up to a float tie
    rec = verify._Recorder(default_config("truth-monotone"))
    rec.strict_drop("peer_payment_drops_strictly", 0, drop, 3e-11, 2e-11, dict)
    assert rec.claims["peer_payment_drops_strictly"]["violations"] == (0 if passes else 1)
    assert rec.margins == [drop]
    if not passes:
        assert rec.violations[0]["data"] == {"certified": 3e-11, "bound": 2e-11}


def test_witness_payloads_are_built_only_for_failed_claims():
    rec, built = verify._Recorder(default_config("truth-monotone")), []

    def payload():
        built.append(len(built))
        return {"witness": len(built)}

    rec.check("held", "equality", True, 0, payload)
    rec.strict_drop("dropped", 0, 2e-10, 2e-10, 1e-10, payload)
    assert built == [] and not rec.violations
    rec.check("held", "equality", False, 1, payload)
    rec.strict_drop("dropped", 2, 0.0, 2e-10, 1e-10, payload)
    assert built == [0, 1]
    assert rec.violations == [
        {"instance": 1, "claim": "held", "data": {"witness": 1}},
        {"instance": 2, "claim": "dropped", "data": {"witness": 2, "certified": 2e-10,
                                                     "bound": 1e-10}}]
    # a passing suite run writes no witness payload at all
    with mock.patch.object(verify, "_jl", side_effect=AssertionError("payload built")):
        assert run_suite(default_config("accuracy-gain", instances=600)).passed


def test_mi_dpi_strict_bound_is_exact_for_chi_squared():
    # f-MI is D_f(J, V) on cells, which M on X moves through M (x) I, and a peer's S on Y through
    # I (x) S: there the Jensen bound is exact for chi^2 and below the decrease for KL and
    # Hellinger.  A payment's certified value, its moved pair's drop over n - 1, is at most the
    # payment drop, and equal to it where no other peer term moves: one peer, or truth-monotone,
    # whose bystander's term stays; for dpi it is the recorded drop itself
    seen, strict_drop = [], verify._Recorder.strict_drop

    def spied(rec, name, idx, drop, certified, bound, data):
        witness = data()
        n = len(witness["scenario"]["strategies"]) if "scenario" in witness else 2
        seen.append((name, witness.get("generator", witness.get("measure")), n, drop, certified,
                     bound))
        return strict_drop(rec, name, idx, drop, certified, bound, data)

    with mock.patch.object(verify._Recorder, "strict_drop", spied):
        for suite, instances in (("dpi", 300), ("dominant-truthfulness", 60),
                                 ("truth-monotone", 60)):
            assert run_suite(default_config(suite, instances=instances, seed=13)).passed
    for claim in ("mi_dpi_strict", "non_permutation_strictly_below",
                  "peer_payment_drops_strictly"):
        mi = [entry[1:] for entry in seen if entry[0] == claim]
        assert {gen for gen, *_ in mi} == {"kl", "chi2", "hellinger"}
        for gen, n, drop, certified, bound in mi:
            if gen == "chi2":
                assert bound == pytest.approx(certified, rel=1e-9)
            else:
                assert 0.0 < bound <= certified
            if claim == "non_permutation_strictly_below" and n == 3:
                assert certified <= drop + 1e-15
            else:
                assert certified == pytest.approx(drop, rel=1e-9, abs=1e-15)


# a tight equality tolerance forces violations; strict claims are certified by their Jensen
# bounds, which no tolerance can force
@pytest.mark.parametrize("suite", ["dpi", "dominant-truthfulness", "truth-monotone",
                                   "accuracy-gain", "bregman-quasi", "md-equivalence"])
def test_every_forced_violation_replays(suite):
    config = default_config(suite, instances=SMALL[suite], seed=13, equality_tol=1e-300)
    verdict = run_suite(config)
    assert not verdict.passed
    relaxed = default_config(suite, instances=SMALL[suite], seed=13)
    for violation in verdict.violations:
        assert replay_violation(violation, config)
        assert not replay_violation(violation, relaxed)


# claims recorded by a suite's global part, at instance -1
GLOBAL_CLAIMS = {
    "effort": {"canonical_pure_effort", "canonical_boundary_tie"},
    "bts": {"cross_oracle_identity", "prediction_negates_information",
            "finite_population_convergence"},
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_claim_replays_without_violation(suite):
    config = default_config(suite, instances=SMALL[suite], seed=13)
    verdict = run_suite(config)
    assert verdict.passed
    for claim in verdict.claims:
        instance = -1 if claim["name"] in GLOBAL_CLAIMS.get(suite, ()) else 1
        violation = {"instance": instance, "claim": claim["name"], "data": {}}
        assert replay_violation(violation, config) is False


def test_replay_from_verdict_json_alone():
    config = default_config("truth-monotone", instances=30, seed=13)
    with mock.patch.object(verify, "_divergence_decrease_bound", return_value=1e3):
        raw = json.loads(run_suite(config).to_json())
        violation = next(v for v in raw["violations"]
                         if v["claim"] == "peer_payment_drops_strictly")
        assert replay_violation(violation, SuiteConfig(**raw["config"]))
    assert not replay_violation(violation, SuiteConfig(**raw["config"]))


def test_replay_of_serialized_violation():
    config = default_config("dpi", instances=200, seed=6)
    with mock.patch.object(verify, "_divergence_decrease_bound", return_value=1e3):
        raw = json.loads(run_suite(config).to_json())
        violation = next(v for v in raw["violations"] if v["claim"] == "mi_dpi_strict")
        assert replay_violation(violation, config)


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        SuiteConfig(suite="dpi", instances=0)
    with pytest.raises(DimensionMismatch):
        SuiteConfig(suite="dpi", equality_tol=0.0)
    with pytest.raises(DimensionMismatch):
        SuiteConfig(suite="dpi", monte_carlo_ci=1.5)


@pytest.mark.parametrize("tols", [
    {"equality_tol": math.inf},
    {"equality_tol": math.nan},
    {"strictness_tol": math.inf},
    {"strictness_tol": math.nan},
])
def test_non_finite_tolerances_rejected(tols):
    with pytest.raises(DimensionMismatch):
        SuiteConfig(suite="dpi", **tols)


def test_negative_seed_rejected():
    with pytest.raises(DimensionMismatch, match="seed must be >= 0"):
        SuiteConfig(suite="dpi", seed=-1)


def test_default_instance_counts():
    assert {suite: default_config(suite).instances for suite in SUITES} == {
        "dpi": 10000,
        "dominant-truthfulness": 1000,
        "truth-monotone": 1000,
        "effort": 1000,
        "bregman-quasi": 10000,
        "accuracy-gain": 1000,
        "md-equivalence": 1000,
        "bts": 1000,
        "scenario-equivalence": 100,
    }


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        default_config("nosuch")
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(suite="nosuch"))


@pytest.fixture
def call_counts(monkeypatch):
    """Calls of ``_exact_joints``, ``report_joint``, the report-table core ``_report_tables``
    and ``_score_shifts``, through whichever of the two modules holds the name."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (mechanisms, verify):
        for name in ("_exact_joints", "report_joint", "_report_tables", "_score_shifts"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_equivalence_instance_builds_each_joint_once(call_counts):
    # n <= 3 agents: the scenario and its 10 twins build every agent's joints with one
    # report-table call, and one score-shift kernel per rule pays the whole stack
    config = default_config("scenario-equivalence", instances=1)
    for stream in range(1, 7):
        assert verify._random_equivalence_scenario(rng_from_seed(0, stream))[0].n_agents <= 3
        call_counts.clear()
        verify._scenario_equivalence_instance(verify._Recorder(config), config, stream,
                                              rng_from_seed(0, stream))
        assert call_counts == {"_exact_joints": 1, "_report_tables": 1, "_score_shifts": 2}


def test_equivalence_instance_builds_score_shifts_once(call_counts):
    # one kernel per scoring rule, shared by the scenario and its relabeled twins
    config = default_config("scenario-equivalence", instances=1)
    verify._scenario_equivalence_instance(verify._Recorder(config), config, 0,
                                          rng_from_seed(0, 0))
    assert call_counts["_score_shifts"] == len(ScoringRule)


def test_forced_equivalence_violation_keeps_matrix_payload_and_replays(monkeypatch):
    config = default_config("scenario-equivalence", instances=1, seed=3)
    joints, draw, random_maps = (verify._exact_joints, verify._random_equivalence_scenario,
                                 verify._random_maps)
    scenarios, maps = [], []

    def skewed(*args):
        # the base scenario leads the stack; the first twin's joints get extra agreement
        blocks = list(joints(*args))
        blocks[0] = blocks[0].copy()
        blocks[0][1] += 0.1 * np.eye(blocks[0].shape[-1])
        return blocks

    def drawn(rng):
        scenarios.append(draw(rng)[0])
        return scenarios[-1], None

    def recorded(*args):
        maps.append(random_maps(*args))
        return maps[-1]

    monkeypatch.setattr(verify, "_exact_joints", skewed)
    monkeypatch.setattr(verify, "_random_equivalence_scenario", drawn)
    monkeypatch.setattr(verify, "_random_maps", recorded)
    verdict = run_suite(config)
    violations = [v for v in verdict.violations if v["claim"] == "payments_identical"]
    assert violations and not verdict.passed
    # the scenario draw makes one map list of its own before the ten of the twins
    assert len(maps) == 1 + verify._PERM_LISTS
    want = [permutation_channel(row).rows.tolist() for row in maps[1]]
    scenario = verify.scenario_to_dict(scenarios[0])
    for v in violations:
        assert set(v["data"]) == {"mechanism", "scenario", "perms", "difference"}
        assert v["data"]["perms"] == want and v["data"]["scenario"] == scenario
        assert v["data"]["difference"] > 1e-12
    assert {v["data"]["mechanism"] for v in violations} >= {"mip-kl", "agreement-expected"}
    assert replay_violation(violations[0], config)
    monkeypatch.undo()
    assert not replay_violation(violations[0], config)


CYCLE = [1, 2, 0]  # a 3-cycle: unlike a swap of two signals, not its own inverse


@pytest.fixture(params=["full", "pairwise", "world"])
def cycled_instance(request, monkeypatch):
    """A function running one scenario-equivalence instance, with the checks it recorded, of
    a 3-agent, 3-signal scenario under each prior mode whose ten twins all relabel every
    agent's signals by the 3-cycle."""
    rng = rng_from_seed(0)
    prior = {"full": lambda: sampling.random_full_joint_prior(rng, 3, 3),
             "pairwise": lambda: sampling.random_pairwise_symmetric_prior(rng, 3),
             "world": lambda: sampling.random_world_model(rng, 2, 3)}[request.param]()
    scenario = verify.Scenario(prior, tuple(sampling.random_mixed_strategy(rng, 3)
                                            for _ in range(3)))
    monkeypatch.setattr(verify, "_random_equivalence_scenario", lambda rng: (scenario, None))
    monkeypatch.setattr(verify, "_random_maps", lambda *args: np.array([CYCLE] * 3))

    def run():
        config = default_config("scenario-equivalence", instances=1)
        rec = verify._Recorder(config)
        verify._scenario_equivalence_instance(rec, config, 0, rng_from_seed(0, 0))
        return rec
    return run


def violated(rec, claim: str) -> list:
    return [v for v in rec.violations if v["claim"] == claim]


def test_inverse_roundtrip_fails_with_the_forward_maps(cycled_instance, monkeypatch):
    rec = cycled_instance()
    assert rec.claims["inverse_roundtrip"]["instances"] == verify._PERM_LISTS
    assert not rec.violations
    monkeypatch.setattr(verify, "_inverse_maps", lambda maps: maps)  # mutant: no inverse
    assert len(violated(cycled_instance(), "inverse_roundtrip")) == verify._PERM_LISTS


def test_payments_differ_when_twins_keep_the_base_prior(cycled_instance, monkeypatch):
    rec = cycled_instance()
    scenario = verify._random_equivalence_scenario(None)[0]
    assert not rec.violations

    def unrelabeled(self, maps, stack=None):  # mutant: the prior's arrays are not gathered
        return {name: np.broadcast_to(a, (len(maps), *a.shape[1:]))
                for name, a in (stack or self._stack()).items()}

    monkeypatch.setattr(type(scenario.prior), "_relabel", unrelabeled)
    assert {v["data"]["mechanism"] for v in violated(cycled_instance(), "payments_identical")}


def test_bts_population_streams_never_meet_instance_streams(monkeypatch):
    # the finite-population reps draw from spawn-keyed streams; the (seed, 900000 + ...)
    # streams they once read are instance streams, and tuples padded with zero words
    # such as (seed, 900000, pos, rep) would collide with them as well
    states, gap = [], verify._bts_population_gap

    def spied(world, n_agents, preds, ideal, rng):
        states.append(rng.bit_generator.state)
        return gap(world, n_agents, preds, ideal, rng)

    monkeypatch.setattr(verify, "_bts_population_gap", spied)
    config = default_config("bts", instances=1, seed=5)
    verify._bts_global(verify._Recorder(config), config)
    reps = [(pos, rep) for pos in range(len(verify._POPULATION_SIZES))
            for rep in range(verify._POPULATION_REPS)]
    assert states == [np.random.PCG64(np.random.SeedSequence(5, spawn_key=(900000, *key))).state
                      for key in reps]
    padded = rng_from_seed(5, 900000, 0, 0).bit_generator.state
    assert padded == rng_from_seed(5, 900000).bit_generator.state
    instance = [rng_from_seed(5, 900000 + pos * 1000 + rep).bit_generator.state
                for pos, rep in reps]
    assert not any(state in instance for state in states)


def test_effort_suite_pays_each_list_from_one_stack(call_counts):
    # no report_joint per grid point or per instance: the canonical grid and active-peer list,
    # then per (alphabet, peer count, generator) group of the chunk its grids, its active-peer
    # lists and its mixture triples, one core call each
    reads = [verify._effort_read(rng_from_seed(0, idx)) for idx in range(60)]
    groups = {(d[1].shape, d[0], d[2]) for d in reads}
    assert run_suite(default_config("effort", instances=60)).passed
    assert call_counts["report_joint"] == call_counts["_exact_joints"] == 0
    assert call_counts["_report_tables"] == 2 + 3 * len(groups) <= 2 + 3 * 24 < 2 + 3 * 60


# (suite, stack builder, which call of it, which table of that call's stack): bregman-quasi's
# joints, X channels and Y channels (each group builds its X channels, then its Y channels:
# calls 2 and 3 are the second group's); accuracy-gain's floored and CI tensors; effort's
# joints and mixed strategies
SPOILED_TABLES = [
    ("bregman-quasi", "_floored_tables", 1, -1),
    ("bregman-quasi", "_channel_stack", 2, -1),
    ("bregman-quasi", "_channel_stack", 3, -1),
    ("accuracy-gain", "_floored_tables", 2, -1),
    ("accuracy-gain", "_ci_tables", 1, -1),
    ("effort", "_floored_tables", 2, -1),
    ("effort", "_channel_stack", 1, -1),
]


@pytest.mark.parametrize("suite, name, call, at", SPOILED_TABLES)
@pytest.mark.parametrize("offset, error", [(1e-6, ZeroMass), (math.nan, NegativeWeight)])
def test_stacked_validation_rejects_one_spoiled_draw(monkeypatch, suite, name, call, at,
                                                     offset, error):
    # one table of a stack built from a chunk's reads is off by 1e-6 in mass, or holds a NaN:
    # the suite raises what the validated object of that table raises
    build, calls, spoiled = getattr(sampling, name), [], []

    def spoiling(*args, **kwargs):
        out = build(*args, **kwargs)
        calls.append(out)
        if len(calls) == call + 1:
            out[at].flat[0] += offset
            spoiled.append(out[at].copy())
        return out

    monkeypatch.setattr(sampling, name, spoiling)
    with pytest.raises(error):
        run_suite(default_config(suite, instances=12))
    assert len(spoiled) == 1
    make = TransitionMatrix if name == "_channel_stack" else JointDistribution
    with pytest.raises(error):
        make(spoiled[0])
    monkeypatch.undo()
    assert run_suite(default_config(suite, instances=12)).passed
