"""Public constructors and integer size parameters fed finite, non-finite and
non-integral values: each gives a valid object or a PeerLabError, never a
bare numpy or Python error and never a silent NaN."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from peerlab import (
    BtsReportProfile,
    Distribution,
    EffortStrategy,
    FullJointPrior,
    JointDistribution,
    PairwisePrior,
    ReportMatrix,
    SuiteConfig,
    TransitionMatrix,
    bts_payments,
    ca_payments,
    generate_reports,
    make_distribution,
    md_payments,
    truthful_scenario,
)
from peerlab.errors import PeerLabError
from peerlab.probability import sample

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


@given(VALUES, WEIGHTS, WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_bts_profile_and_weights(signal, alpha, smoothing):
    preds = tuple(Distribution(np.array([0.6, 0.4])) for _ in range(4))
    profile = built(lambda: BtsReportProfile(np.array([signal, 0, 1, 1]), preds))
    assert profile is None or set(profile.signals.tolist()) <= {0, 1}
    profile = BtsReportProfile(np.array([0, 0, 1, 1]), preds)
    report = built(lambda: bts_payments(profile, alpha, smoothing=smoothing))
    assert report is None or finite(report.payments)
