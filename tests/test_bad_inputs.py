"""Public constructors and integer size parameters fed finite, non-finite and
non-integral values, or a list where one size or one Distribution belongs:
each gives a valid object or a PeerLabError, never a bare numpy or Python
error and never a silent NaN.  The same holds for the empirical payment
engines given a single agent, for strategies whose channels do not share one
shape on a world's signals, for the exported strategy sampler's size and seed,
for the table samplers' sizes, and for signal indices and seeds, and for agent indices, where a negative value
never counts from the end, in the empirical and in every prior mode's pair joints.  Tables that do not
convert to real arrays (ragged, complex), priors built from lists and relabelings of anything but a
Scenario by a PermutationList raise a PeerLabError too, as do complex arrays, scenario
documents without a required key or with a node of the wrong JSON type (the error names
the key, or the node and the type it needs), effort strategies whose probability or cost is
not one real number or whose no-effort report is not a Distribution, pairwise
priors whose ``symmetric`` is not a bool, strategies whose label is not a str, and unknown
suite names.  A scenario document writes numpy effort numbers as JSON floats.  Report masks hold
bools or 0/1 integers.  The seeds of the samplers and of the payment engines, all-pairs engines that only record one included, are non-negative
integers of any size; a suite's seed stays in the intp range."""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    BtsReportProfile,
    ConvexGenerator,
    DimensionMismatch,
    Distribution,
    EffortStrategy,
    FullJointPrior,
    JointDistribution,
    ModeMismatch,
    PairwisePrior,
    PermutationList,
    ReportMatrix,
    Scenario,
    SUITES,
    SuiteConfig,
    ScoringRule,
    Strategy,
    TransitionMatrix,
    WorldModelPrior,
    bmi_mechanism_payments,
    bts_payments,
    ca_payments,
    condition_on,
    constant_channel,
    divergence_monotonicity_witness,
    empirical_pair_joint,
    fmi_mechanism_payments,
    generate_reports,
    identity_channel,
    make_distribution,
    md_payments,
    permutation_channel,
    permute_scenario,
    point_mass,
    random_strategy,
    report_joint,
    reported_world_states,
    default_config,
    run_suite,
    sppm_payments,
    truth_telling,
    truthful_scenario,
    uniform_distribution,
)
from peerlab import sampling
from peerlab.agents import scenario_from_dict, scenario_to_dict
from peerlab.cli import main
from peerlab.errors import (
    MissingField, PeerLabError, UnknownSuite, UnsupportedPriorMode, WrongFieldType,
)
from peerlab.probability import rng_from_seed, sample

import oracles

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2.5, -1.0, 0.0, 3.0])
# Kept small: an accepted size parameter is used, and a huge one would only
# measure allocation.
VALUES = st.one_of(st.integers(-3, 40), st.floats(-3.0, 40.0), SPECIAL)
WEIGHTS = st.one_of(st.floats(-1.0, 2.0), SPECIAL)

PRIOR = PairwisePrior(JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]])))
SCENARIO = truthful_scenario(PRIOR, 2)
REPORTS = ReportMatrix.full(np.array([[0, 1, 1, 0, 1, 0], [0, 1, 0, 0, 1, 1]]), 2)


def built(build):
    """The object ``build`` returns, or None when it raises a PeerLabError;
    any other exception fails the test."""
    try:
        return build()
    except PeerLabError:
        return None


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


@given(WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_weight_constructors(x):
    for obj, values in (
        (built(lambda: Distribution(np.array([x, 1.0 - x]))), "weights"),
        (built(lambda: make_distribution([x, 1.0])), "weights"),
        (built(lambda: JointDistribution(np.array([[x, 0.5 - x], [0.25, 0.25]]))), "table"),
        (built(lambda: TransitionMatrix(np.array([[x, 1.0 - x], [0.5, 0.5]]))), "rows"),
        (built(lambda: FullJointPrior(np.array([[x, 0.5 - x], [0.25, 0.25]]))), "tensor"),
    ):
        assert obj is None or finite(getattr(obj, values))


@given(WEIGHTS, WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_effort_strategy(p, cost):
    eff = built(lambda: EffortStrategy(p, cost))
    assert eff is None or (0.0 <= eff.full_effort_prob <= 1.0 and math.isfinite(eff.cost))


@pytest.mark.parametrize("field", ["full_effort_prob", "cost"])
@pytest.mark.parametrize("value", [None, "x", [0.5], np.array([0.5, 0.5]), np.array(0.5), True],
                         ids=["None", "str", "list", "array", "0-d-array", "bool"])
def test_effort_strategy_needs_real_numbers(field, value):
    with pytest.raises(DimensionMismatch, match=f"^{field} must be a real number"):
        EffortStrategy(**{field: value})


def test_effort_strategy_accepts_numpy_scalars():
    eff = EffortStrategy(np.float64(0.5), np.float32(0.25))
    assert (eff.full_effort_prob, eff.cost) == (0.5, 0.25)
    assert EffortStrategy(np.int64(1), np.int32(0)).full_effort_prob == 1


@pytest.mark.parametrize("report", [[0.5, 0.5], np.array([0.5, 0.5]), 0.5],
                         ids=["list", "array", "number"])
def test_effort_strategy_needs_a_distribution(report):
    with pytest.raises(ModeMismatch, match="must be a Distribution or None"):
        EffortStrategy(0.5, 0.0, report)


@pytest.mark.parametrize("value", ["yes", 1, None, np.array(True)],
                         ids=["str", "int", "None", "0-d-array"])
def test_pairwise_prior_symmetric_must_be_a_bool(value):
    with pytest.raises(ModeMismatch, match="^symmetric must be a bool, not "):
        PairwisePrior(PRIOR.joint, symmetric=value)
    assert PairwisePrior(PRIOR.joint, symmetric=np.True_).symmetric


@pytest.mark.parametrize("value", [5, None, b"dense", ["dense"]],
                         ids=["int", "None", "bytes", "list"])
def test_strategy_label_must_be_a_str(value):
    with pytest.raises(ModeMismatch, match="^label must be a str, not "):
        Strategy(identity_channel(2), label=value)


def test_scenario_document_writes_numpy_effort_scalars_as_floats():
    efforts = (EffortStrategy(np.float32(0.5), np.float32(0.1)),
               EffortStrategy(np.int64(1), np.float16(0.25), HALF))
    scenario = Scenario(PRIOR, (truth_telling(2),) * 2, efforts)
    doc = scenario_to_dict(scenario)
    assert all(type(e[field]) is float for e in doc["efforts"]
               for field in ("full_effort_prob", "cost"))
    back = scenario_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal([[e.full_effort_prob, e.cost] for e in back.efforts],
                          [[e.full_effort_prob, e.cost] for e in efforts])
    assert np.array_equal(back.efforts[1].no_effort_report.weights, HALF.weights)
    assert np.array_equal(back.prior.joint.table, PRIOR.joint.table)


@given(VALUES, WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_suite_config(instances, tol):
    config = built(lambda: SuiteConfig("dpi", instances=instances))
    assert config is None or (isinstance(config.instances, int) and config.instances >= 1)
    for field in ("equality_tol", "strictness_tol", "monte_carlo_ci"):
        config = built(lambda: SuiteConfig("dpi", **{field: tol}))
        assert config is None or math.isfinite(getattr(config, field))


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_report_matrix(v):
    entries = np.array([[0, 1], [1, 0]])
    matrix = built(lambda: ReportMatrix(entries, np.ones((2, 2), dtype=bool), v))
    assert matrix is None or matrix.alphabet_size == v
    matrix = built(lambda: ReportMatrix.full(np.array([[v, 0], [1, 0]]), 2))
    assert matrix is None or set(matrix.entries.ravel().tolist()) <= {0, 1}


@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_integer_size_parameters(v):
    reports = built(lambda: generate_reports(SCENARIO, v, 0))
    assert reports is None or reports.n_questions == v
    for engine in (md_payments, ca_payments):
        report = built(lambda: engine(REPORTS, v, 0))
        assert report is None or (report.metadata["d"] == v and finite(report.payments))
    draws = built(lambda: sample(Distribution(np.array([0.5, 0.5])), 0, v))
    assert draws is None or draws.shape == (v,)


HALF = Distribution(np.array([0.5, 0.5]))
TENSOR = JointDistribution(np.full((2, 2, 2), 0.125))


@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_indices_and_seeds(v):
    for obj in (built(lambda: point_mass(3, v)), built(lambda: condition_on(TENSOR, v)),
                built(lambda: sample(HALF, v, 3)), built(lambda: HALF[v]),
                built(lambda: ScoringRule.LOG.score(v, HALF)),
                built(lambda: ScoringRule.QUADRATIC.score(v, HALF)),
                built(lambda: random_strategy(v, 2))):
        assert obj is None or v >= 0


@pytest.mark.parametrize("call", [
    lambda: condition_on(TENSOR, -1), lambda: condition_on(TENSOR, 2),
    lambda: condition_on(TENSOR, 0.5), lambda: point_mass(3, -1), lambda: point_mass(3, 3),
    lambda: point_mass(3, 1.5), lambda: sample(HALF, -1, 3), lambda: sample(HALF, 1.5, 3),
    lambda: sample(HALF, [1, 2], 3), lambda: Distribution(np.array([0.2, 0.8]))[-1],
    lambda: HALF[2], lambda: HALF[0.5],
    lambda: SuiteConfig(suite="bregman-quasi", instances=2, seed=1.5),
    lambda: SuiteConfig(suite="bregman-quasi", instances=2, seed=[1, 2]),
    lambda: SuiteConfig(suite="dpi", seed=2**63),
    lambda: SuiteConfig(suite="dpi", instances=[1, 2]),
    lambda: ReportMatrix.full(np.array([[np.uint64(2**63), 0], [1, 0]], dtype=np.uint64), 2),
    lambda: ScoringRule.LOG.score(1.5, HALF), lambda: ScoringRule.QUADRATIC.score("1", HALF),
    lambda: random_strategy(-1, 3), lambda: random_strategy(1.5, 3),
], ids=["z=-1", "z=2", "z=0.5", "sigma=-1", "sigma=3", "sigma=1.5", "seed=-1", "seed=1.5",
        "seed=list", "getitem=-1", "getitem=2", "getitem=0.5", "suite-seed=1.5",
        "suite-seed=list", "suite-seed=2**63", "suite-instances=list", "report-entry=2**63",
        "score=1.5", "score=str", "strategy-seed=-1", "strategy-seed=1.5"])
def test_index_or_seed_out_of_range(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize("call", [
    lambda: uniform_distribution(0), lambda: uniform_distribution(2.5),
    lambda: uniform_distribution(-1), lambda: identity_channel(2.5),
    lambda: constant_channel(-1, HALF), lambda: permutation_channel([0.5, 1.2]),
    lambda: permutation_channel(["a", "b"]), lambda: permutation_channel(1),
    lambda: ReportMatrix(np.array([[0, 1]]), np.ones((1, 2), dtype=bool), [2]),
    lambda: divergence_monotonicity_witness(HALF, HALF, TransitionMatrix(np.eye(3))),
    lambda: uniform_distribution([1, 2]), lambda: identity_channel([2]),
    lambda: random_strategy(1, 0), lambda: random_strategy(1, -1),
    lambda: random_strategy(1, 2.5), lambda: sampling.random_channel(rng_from_seed(0), 3, 0),
    *[lambda size=size: sampling.random_distribution(rng_from_seed(0), size)
      for size in (0, -1, 2.5)],
    *[lambda size=size: sampling.random_joint(rng_from_seed(0), 2, size) for size in (0, -1, 2.5)],
    *[lambda size=size: sampling.random_conditional_tensor(rng_from_seed(0), size, 2, 2)
      for size in (0, -1, 2.5)],
], ids=["uniform-0", "uniform-2.5", "uniform-(-1)", "identity-2.5", "constant-(-1)",
        "permutation-floats", "permutation-strings", "permutation-scalar",
        "report-alphabet-list", "witness-sizes", "uniform-list", "identity-list",
        "strategy-0", "strategy-(-1)", "strategy-2.5", "channel-m_out-0",
        *[f"{name}-{size}" for name in ("distribution", "joint-my", "tensor-mz")
          for size in ("0", "(-1)", "2.5")]])
def test_bad_alphabet_sizes_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_reported_world_states_need_one_channel_shape():
    # a (3, 2) channel beside a (3, 3) one on a 3-signal world, and a channel on 2 signals
    world = WorldModelPrior(Distribution(np.array([1.0])), (uniform_distribution(3),))
    three, narrow = Strategy(identity_channel(3)), Strategy(TransitionMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])))
    for strategies in ((three, narrow), (narrow, three), (truth_telling(2),), ()):
        with pytest.raises(DimensionMismatch, match="one channel shape"):
            reported_world_states(world, strategies)


def test_scenario_refuses_an_unknown_prior():
    # duck-typed: it has an alphabet size, but is none of the three prior modes
    with pytest.raises(UnsupportedPriorMode, match="unknown prior SimpleNamespace"):
        Scenario(types.SimpleNamespace(alphabet_size=2), (truth_telling(2), truth_telling(2)))


def test_constant_channel_needs_a_distribution():
    # a list of weights is not a Distribution, though it would make one
    with pytest.raises(ModeMismatch, match="constant_channel needs a Distribution"):
        constant_channel(2, [0.5, 0.5])


def test_point_mass_on_empty_alphabet_names_the_size():
    with pytest.raises(DimensionMismatch, match=r"m must be >= 1, got 0"):
        point_mass(0, 0)


@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_alphabet_sizes(v):
    for obj in (built(lambda: uniform_distribution(v)), built(lambda: identity_channel(v)),
                built(lambda: constant_channel(v, HALF)), built(lambda: point_mass(v, 0)),
                built(lambda: random_strategy(0, v))):
        assert obj is None or (v >= 1 and v == int(v))


def test_suite_config_whole_float_seed():
    verdict = run_suite(SuiteConfig(suite="bregman-quasi", instances=2, seed=2.0)).to_json()
    seed = json.loads(verdict)["config"]["seed"]
    assert type(seed) is int and seed == 2
    assert verdict == run_suite(SuiteConfig(suite="bregman-quasi", instances=2, seed=2)).to_json()


@given(VALUES, WEIGHTS, WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_bts_profile_and_weights(signal, alpha, smoothing):
    preds = tuple(Distribution(np.array([0.6, 0.4])) for _ in range(4))
    profile = built(lambda: BtsReportProfile(np.array([signal, 0, 1, 1]), preds))
    assert profile is None or set(profile.signals.tolist()) <= {0, 1}
    profile = BtsReportProfile(np.array([0, 0, 1, 1]), preds)
    report = built(lambda: bts_payments(profile, alpha, smoothing=smoothing))
    assert report is None or finite(report.payments)


@pytest.mark.parametrize("maps", [
    [], [[]], [0, 1],  # empty, or not one map per agent
    [[0, 1], [0, 1, 2]], [[0, 1], [[0], [1]]],  # ragged
    [[0, 0], [1, 0]],  # repeated entry
    [[0, 2]], [[-1, 0]],  # out of range
    [[0.5, 1.0]], [["a", "b"]], [[None, 0]],  # not integers
])
def test_permutation_list_rejects_bad_maps(maps):
    with pytest.raises(DimensionMismatch):
        PermutationList(maps)


@given(st.lists(st.lists(VALUES, min_size=0, max_size=4), min_size=0, max_size=3))
@settings(max_examples=150, deadline=None)
def test_permutation_list(maps):
    perms = built(lambda: PermutationList(maps))
    if perms is not None:
        m = perms.alphabet_size
        assert perms.maps.shape == (len(maps), m) and perms.maps.dtype == np.intp
        assert np.array_equal(np.sort(perms.maps, axis=1), np.tile(np.arange(m), (len(maps), 1)))
        with pytest.raises(ValueError):
            perms.maps[0, 0] = 0


def test_permutation_list_maps_read_only():
    perms = PermutationList([[1, 0, 2], [2, 0, 1]])
    for maps in (perms.maps, perms.inverse().maps, PermutationList.symmetric([1, 0], 3).maps):
        with pytest.raises(ValueError):
            maps[0, 0] = 0


ONE_AGENT = ReportMatrix.full(np.array([[0, 1, 1, 0, 1, 0]]), 2)


@pytest.mark.parametrize("pairing", ["all-pairs-average", "seeded-random-reference"])
@pytest.mark.parametrize("pay", [
    lambda pairing: md_payments(ONE_AGENT, 1, 0, pairing),
    lambda pairing: ca_payments(ONE_AGENT, 1, 0, pairing),
    lambda pairing: fmi_mechanism_payments(ONE_AGENT, ConvexGenerator.TVD, pairing, 0),
    lambda pairing: bmi_mechanism_payments(ONE_AGENT, ScoringRule.LOG, pairing, 0),
    lambda pairing: sppm_payments([0], PRIOR, ScoringRule.LOG, pairing, 0),
], ids=["md", "ca", "fmi", "bmi", "sppm"])
def test_empirical_engines_need_two_agents(pay, pairing):
    with pytest.raises(DimensionMismatch, match="payments need at least 2 agents"):
        pay(pairing)


THREE_AGENTS = ReportMatrix.full(np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]), 2)
TRUTH = truth_telling(2)


@pytest.mark.parametrize("call", [
    lambda: empirical_pair_joint(THREE_AGENTS, -1, 0),
    lambda: empirical_pair_joint(THREE_AGENTS, 0, -1),
    lambda: empirical_pair_joint(THREE_AGENTS, 0, 3),
    lambda: empirical_pair_joint(THREE_AGENTS, 3, 0),
    lambda: empirical_pair_joint(THREE_AGENTS, 0.5, 1),
    lambda: empirical_pair_joint(THREE_AGENTS, 0, [1, 2]),
    lambda: report_joint(PRIOR, 0, [1], TRUTH, TRUTH),
    lambda: report_joint(PRIOR, 0, [1, 2], TRUTH, [TRUTH, TRUTH]),
], ids=["i=-1", "j=-1", "j=n", "i=n", "i=0.5", "j=list", "report-j=[1]", "report-j=list"])
def test_agent_index_out_of_range_or_not_one(call):
    with pytest.raises(DimensionMismatch):
        call()



WORLD = WorldModelPrior(Distribution(np.array([0.3, 0.7])),
                        (Distribution(np.array([0.9, 0.1])), Distribution(np.array([0.2, 0.8]))))
FULL = FullJointPrior(np.full((2, 2, 2), 0.125))


@pytest.mark.parametrize("prior", [PRIOR, WORLD, FULL], ids=["pairwise", "world", "full"])
@pytest.mark.parametrize("i, j", [(0.5, 1), (-1, 0), (0, -3), (1, 1), (0, [1]), (np.int64(-1), 0)],
                         ids=["i=0.5", "i=-1", "j=-3", "i=j", "j=list", "i=int64(-1)"])
def test_pair_joint_needs_two_distinct_agent_indices(prior, i, j):
    # no prior mode counts a negative index from the end or reads a fraction
    match = "two distinct agents" if i == j else None
    with pytest.raises(DimensionMismatch, match=match):
        prior.pair_joint(i, j)
    with pytest.raises(DimensionMismatch, match=match):
        report_joint(prior, i, j, TRUTH, TRUTH)


def test_full_joint_pair_joint_needs_agents_below_n():
    for i, j in ((0, 3), (3, 0)):
        with pytest.raises(DimensionMismatch, match=r"0\.\.2"):
            FULL.pair_joint(i, j)
    assert FULL.pair_joint(np.int64(2), 1.0).table.shape == (2, 2)


RAGGED = [[0.5, 0.5], [1.0]]


@pytest.mark.parametrize("call", [
    lambda: Distribution(RAGGED), lambda: Distribution([0.5 + 0j, 0.5]),
    lambda: Distribution(["a", "b"]), lambda: make_distribution(RAGGED),
    lambda: JointDistribution(RAGGED), lambda: TransitionMatrix(RAGGED),
    lambda: FullJointPrior(RAGGED), lambda: FullJointPrior([[0.5 + 0j, 0.5], [0.0, 0.0]]),
    lambda: Distribution(np.array([0.5 + 0.3j, 0.5])),
    lambda: JointDistribution(np.full((2, 2), 0.25 + 0j)),
    lambda: make_distribution(np.array([1.0, 1.0], dtype=np.complex64)),
    lambda: TransitionMatrix([np.array([0.5 + 0.3j, 0.5]), np.array([0.5, 0.5])]),
], ids=["distribution-ragged", "distribution-complex", "distribution-strings",
        "make-distribution-ragged", "joint-ragged", "channel-ragged", "full-joint-ragged",
        "full-joint-complex", "distribution-complex-array", "joint-complex-array",
        "make-distribution-complex-array", "channel-complex-rows"])
@pytest.mark.filterwarnings("error")  # complex input raises at any depth; it never casts
def test_unconvertible_tables_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="rectangular array of real numbers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: PairwisePrior([[0.25, 0.25], [0.25, 0.25]]),
    lambda: PairwisePrior(np.full((2, 2), 0.25)),
    lambda: WorldModelPrior([1.0], ([0.5, 0.5],)),
    lambda: WorldModelPrior(Distribution(np.array([1.0])), ([0.5, 0.5],)),
    lambda: permute_scenario(truthful_scenario(PRIOR, 3), [[1, 0], [1, 0], [1, 0]]),
    lambda: permute_scenario(PRIOR, PermutationList([[1, 0], [1, 0]])),
], ids=["pairwise-list", "pairwise-array", "world-lists", "world-state-lists",
        "permute-list", "permute-prior"])
def test_prior_and_relabeling_inputs_need_their_types(call):
    with pytest.raises(ModeMismatch):
        call()


SEEDED = "seeded-random-reference"


@pytest.mark.parametrize("seed", [-1, 1.5, None, np.int64(-2)], ids=["-1", "1.5", "None", "int64"])
@pytest.mark.parametrize("call", [
    lambda seed: generate_reports(SCENARIO, 5, seed),
    lambda seed: fmi_mechanism_payments(REPORTS, ConvexGenerator.TVD, SEEDED, seed),
    lambda seed: bmi_mechanism_payments(REPORTS, ScoringRule.LOG, SEEDED, seed),
    lambda seed: md_payments(REPORTS, 1, seed),
    lambda seed: ca_payments(REPORTS, 1, seed),
    lambda seed: sample(HALF, seed, 3),
    lambda seed: random_strategy(seed, 2),
], ids=["generate_reports", "fmi", "bmi", "md", "ca", "sample", "random_strategy"])
def test_bad_seeds_raise_dimension_mismatch(call, seed):
    with pytest.raises(DimensionMismatch, match="seed"):
        call(seed)


BTS_PROFILE = BtsReportProfile(np.array([0, 0, 1, 1]), (HALF,) * 4)

_HALVES = [[0.5, 0.5]] * 4
# Each case spoils the predictions of a four-agent profile; where two predictions fail, the
# first one in agent order must be the one named, though a stacked check meets the other first.
BAD_PREDICTIONS = {
    "ragged": _HALVES[:3] + [[0.5, [0.25, 0.25]]],
    "2-d": _HALVES[:3] + [[[0.5, 0.5], [0.5, 0.5]]],
    "all-2-d": [[[0.25, 0.25], [0.25, 0.25]]] * 4,
    "scalars": [0.5] * 4,
    "nan": _HALVES[:3] + [[0.5, math.nan]],
    "negative": _HALVES[:3] + [[1.5, -0.5]],
    "negative-before-nan": _HALVES[:1] + [[1.5, -0.5], [0.5, math.nan]] + _HALVES[:1],
    "mass-off-1e-6": _HALVES[:3] + [[0.5, 0.500001]],
    "first-off-mass-not-worst": _HALVES[:1] + [[0.5, 0.500001], [0.5, 0.6]] + _HALVES[:1],
    "two-lengths": _HALVES[:3] + [[0.2, 0.3, 0.5]],
    "empty": [],
    "three": _HALVES[:3],
    "distribution-tuple": (HALF,) * 4,
    "array": np.array(_HALVES),
    "three-signals": [[0.2, 0.3, 0.5]] * 4,
}


def _outcome(build):
    """(value, None) on success, (None, (type, message)) on a PeerLabError."""
    try:
        return build(), None
    except PeerLabError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("signals", [[0, 0, 1, 1], [0.5, 0, 1, 1], [0, 0, 1], [0, 0, 1, 2]],
                         ids=["signals", "fractional-signal", "three-signals", "signal-2"])
@pytest.mark.parametrize("preds", BAD_PREDICTIONS.values(), ids=BAD_PREDICTIONS.keys())
def test_bts_profile_errors_match_one_distribution_each(preds, signals):
    """The stacked predictions raise what one Distribution per prediction raised, then the
    profile's own checks, in the same order and with the same message, and otherwise hold
    the same weights, as one read-only (n, m) float64 array."""
    got = _outcome(lambda: BtsReportProfile(np.array(signals), preds))
    want = _outcome(lambda: oracles.object_bts_profile(np.array(signals), preds))
    assert got[1] == want[1]
    if want[1] is None:
        stack = got[0].predictions
        assert stack.dtype == np.float64 and not stack.flags.writeable
        assert np.array_equal(got[0].signals, want[0][0]) and np.array_equal(stack, want[0][1])


@pytest.mark.parametrize("seed", [-1.5, -1, 1.5, "7", np.int64(-2)],
                         ids=["-1.5", "-1", "1.5", "str", "int64"])
@pytest.mark.parametrize("call", [
    lambda seed: fmi_mechanism_payments(REPORTS, ConvexGenerator.TVD, seed=seed),
    lambda seed: bmi_mechanism_payments(REPORTS, ScoringRule.LOG, seed=seed),
    lambda seed: sppm_payments([0, 1, 1], PRIOR, ScoringRule.LOG, seed=seed),
    lambda seed: bts_payments(BTS_PROFILE, 2.0, seed=seed),
], ids=["fmi", "bmi", "sppm", "bts"])
def test_all_pairs_engines_check_a_seed_they_record(call, seed):
    # all-pairs pairing draws nothing, but the report records the seed; None records none
    with pytest.raises(DimensionMismatch, match="seed"):
        call(seed)
    assert call(None).seed is None and call(2**63).seed == 2**63


@pytest.mark.parametrize("seed", [0, True, np.uint64(2**63), 2**63, 2**80])
def test_seeds_past_the_intp_range_are_accepted(seed):
    assert generate_reports(SCENARIO, 5, seed).n_questions == 5
    assert sample(HALF, seed, 3).shape == (3,)
    assert random_strategy(seed, 2).channel.shape == (2, 2)
    for pay in (lambda: fmi_mechanism_payments(REPORTS, ConvexGenerator.TVD, SEEDED, seed),
                lambda: bmi_mechanism_payments(REPORTS, ScoringRule.LOG, SEEDED, seed),
                lambda: md_payments(REPORTS, 1, seed), lambda: ca_payments(REPORTS, 1, seed)):
        assert finite(pay().payments)


@pytest.mark.parametrize("mask", [
    np.full((2, 2), 0.5), np.array([[1.0, np.nan], [1.0, 1.0]]), np.array([[1, 2], [1, 1]]),
    np.array([[1, -1], [1, 1]]), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([["1", "1"]] * 2),
], ids=["0.5", "nan", "2", "-1", "float-ones", "strings"])
def test_report_mask_must_be_bool_or_zero_one(mask):
    with pytest.raises(DimensionMismatch, match="mask"):
        ReportMatrix(np.array([[0, 1], [1, 0]]), mask, 2)


def test_zero_one_integer_mask_reads_as_bool():
    entries = np.array([[0, 1, 5], [1, 0, -2]])  # the unanswered entries are never read
    ints = ReportMatrix(entries, np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8), 2)
    bools = ReportMatrix(entries, np.array([[True, True, False]] * 2), 2)
    assert ints.mask.dtype == bool and np.array_equal(ints.mask, bools.mask)
    assert np.array_equal(empirical_pair_joint(ints, 0, 1).table,
                          empirical_pair_joint(bools, 0, 1).table)


def _without(doc: dict, path: tuple) -> dict:
    """A copy of the JSON document ``doc`` with the key at ``path`` removed."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    del node[key]
    return doc


SCENARIO_DOC = scenario_to_dict(Scenario(PRIOR, (truth_telling(2),) * 2,
                                         (EffortStrategy(0.5, 0.1),) * 2))
WORLD_DOC = scenario_to_dict(truthful_scenario(WorldModelPrior(HALF, (HALF, HALF)), 2))
FULL_DOC = scenario_to_dict(truthful_scenario(FULL, 3))


@pytest.mark.parametrize("doc, path", [
    (SCENARIO_DOC, ("strategies",)), (SCENARIO_DOC, ("prior",)),
    (SCENARIO_DOC, ("strategies", 1, "channel")), (SCENARIO_DOC, ("efforts", 0, "cost")),
    (SCENARIO_DOC, ("efforts", 1, "full_effort_prob")), (SCENARIO_DOC, ("prior", "table")),
    (FULL_DOC, ("prior", "tensor")), (WORLD_DOC, ("prior", "state_probs")),
    (WORLD_DOC, ("prior", "states")),
], ids=["strategies", "prior", "channel", "cost", "full-effort-prob", "pairwise-table",
        "full-joint-tensor", "world-state-probs", "world-states"])
def test_scenario_document_names_a_missing_key(doc, path):
    assert scenario_from_dict(doc).n_agents >= 2
    with pytest.raises(MissingField, match=f"has no '{path[-1]}' key"):
        scenario_from_dict(_without(doc, path))


def test_cli_names_a_missing_scenario_key(tmp_path, capsys):
    path = tmp_path / "bad1.json"
    path.write_text(json.dumps(_without(SCENARIO_DOC, ("strategies",))))
    assert main(["mechanism", "--mechanism", "mip", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"peerlab: {path}: scenario has no 'strategies' key\n"


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "scenario must be a JSON object, not list"),
    ({"prior": 5, "strategies": []}, "prior must be a JSON object, not int"),
    ({**SCENARIO_DOC, "strategies": [5]}, "strategy must be a JSON object, not int"),
    ({**SCENARIO_DOC, "efforts": [1]}, "effort must be a JSON object, not int"),
    ({**SCENARIO_DOC, "strategies": 5}, "scenario 'strategies' must be a JSON array, not int"),
    ({**SCENARIO_DOC, "efforts": "none"}, "scenario 'efforts' must be a JSON array, not str"),
    ({**WORLD_DOC, "prior": {**WORLD_DOC["prior"], "states": 2}},
     "world-model prior 'states' must be a JSON array, not int"),
    ({**SCENARIO_DOC, "prior": {**SCENARIO_DOC["prior"], "symmetric": "yes"}},
     "pairwise prior 'symmetric' must be a JSON boolean, not str"),
    ({**SCENARIO_DOC, "strategies": [{**SCENARIO_DOC["strategies"][0], "label": 5}] * 2},
     "strategy 'label' must be a JSON string, not int"),
], ids=["scenario-list", "prior-int", "strategy-int", "effort-int", "strategies-int",
        "efforts-str", "world-states-int", "symmetric-str", "label-int"])
def test_scenario_document_names_a_node_of_the_wrong_type(doc, message):
    with pytest.raises(WrongFieldType) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message and isinstance(info.value, PeerLabError)


@pytest.mark.parametrize("field, value", [("cost", None), ("full_effort_prob", "x"), ("cost", [0.5])],
                         ids=["cost-null", "prob-str", "cost-list"])
def test_scenario_document_names_an_effort_field_that_is_no_number(field, value):
    efforts = [{**SCENARIO_DOC["efforts"][0], field: value}] * 2
    with pytest.raises(DimensionMismatch, match=f"^{field} must be a real number"):
        scenario_from_dict({**SCENARIO_DOC, "efforts": efforts})


def test_cli_names_a_scenario_node_of_the_wrong_type(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({**SCENARIO_DOC, "strategies": [5]}))
    assert main(["mechanism", "--mechanism", "mip", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"peerlab: {path}: strategy must be a JSON object, not int\n"


def test_unknown_suite_is_a_peerlab_error_and_a_key_error():
    # existing ``except KeyError`` callers still catch it; str() is the message itself
    for call in (lambda: default_config("nope"),
                 lambda: run_suite(SuiteConfig(suite="nope", instances=1))):
        with pytest.raises(KeyError) as info:
            call()
        assert isinstance(info.value, UnknownSuite) and isinstance(info.value, PeerLabError)
        assert str(info.value) == f"unknown suite 'nope'; known: {sorted(SUITES)}"
