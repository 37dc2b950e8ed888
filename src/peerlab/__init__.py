"""peerlab: mutual-information peer prediction over finite signal alphabets.

A numpy library for scoring unverifiable reports by the information they
carry about a peer's reports, together with an executable verification
harness for the framework's guarantees (data processing, dominant
truthfulness, effort structure, scenario-relabeling equivalence).
"""

from .errors import (
    DimensionMismatch,
    EmptyAlphabet,
    InadmissibleSupport,
    LogOfZero,
    ModeMismatch,
    NegativeWeight,
    NoOverlap,
    NonBinaryAlphabet,
    PeerLabError,
    UnsupportedPriorMode,
    WrongRank,
    ZeroConditioningEvent,
    ZeroFrequency,
    ZeroMass,
)
from .probability import (
    Distribution,
    JointDistribution,
    RngSeed,
    TransitionMatrix,
    apply_channel,
    condition_on,
    constant_channel,
    identity_channel,
    make_distribution,
    marginals,
    permutation_channel,
    point_mass,
    product_of_marginals,
    push_first,
    push_second,
    rng_from_seed,
    sample,
    uniform_distribution,
    z_marginal,
)
from .measures import (
    ConvexGenerator,
    DpiReport,
    FineGrainedReport,
    Measure,
    ScoringRule,
    bregman_divergence,
    bregman_mi,
    check_dpi,
    conditional_mi,
    divergence_monotonicity_witness,
    f_divergence,
    f_mutual_information,
    is_fine_grained,
    log_score_accuracy_gain,
    mutual_information,
    shannon_mi,
)
from .agents import (
    EffortStrategy,
    FullJointPrior,
    PairwisePrior,
    PermutationList,
    Prior,
    ReportMatrix,
    Scenario,
    Strategy,
    WorldModelPrior,
    empirical_pair_joint,
    generate_reports,
    load_scenario,
    permute_scenario,
    report_joint,
    reported_world_states,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    truth_telling,
    truthful_scenario,
    world_tensor,
)
from .sampling import random_strategy
from .mechanisms import (
    ALL_PAIRS,
    SEEDED_RANDOM,
    BtsReportProfile,
    IdealizedBtsScores,
    PaymentReport,
    agent_welfare,
    bmi_mechanism_payments,
    bts_idealized_scores,
    bts_payments,
    ca_expected_reward,
    ca_payments,
    fmi_mechanism_payments,
    md_payments,
    mip_expected_payments,
    payment_report_csv,
    payment_report_dict,
    sppm_expected_payments,
    sppm_payments,
)
from .verify import (
    SUITES,
    SuiteConfig,
    SuiteVerdict,
    default_config,
    replay_violation,
    run_suite,
)

__version__ = "0.1.0"
