"""Payment engines.

Exact expected payments for the pay-mutual-information rule, empirical
mechanisms over report matrices (f-mutual-information, Bregman, the binary
correlation mechanism and its agreement variant), the shifted peer prediction
method for a known prior, and signal-plus-prediction scoring (idealized and
finite-n).

The all-pairs engines (mip, fmi, bmi, both sppm engines and the expected
agreement reward) read one report joint per agent i: the conditional-mode
joint of (J, report_i, report_J) with the reference agent J uniform over i's
reference agents, exact (:func:`report_joint`) or counted
(:func:`empirical_pair_joint`).  Its slices are i's report-pair tables; one
stacked kernel (f-MI, BMI, score shift or agreement) runs over them and is
averaged with the weights Pr[J=j], so a mutual-information payment is
MI(report_i; report_J | J).

Reference-agent handling defaults to ``all-pairs-average`` (the exact
expectation over a uniformly random reference agent, which keeps theorem
checks deterministic); ``seeded-random-reference`` reproduces the literal
single-reference payment.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .agents import (
    PairwisePrior,
    ReportMatrix,
    Scenario,
    Strategy,
    WorldModelPrior,
    empirical_pair_joint,
    report_joint,
    reported_world_states,
    world_tensor,
)
from .errors import (
    DimensionMismatch,
    LogOfZero,
    NonBinaryAlphabet,
    ZeroFrequency,
)
from .measures import (
    ConvexGenerator,
    Measure,
    ScoringRule,
    _slice_mean,
    conditional_mi,
    log_score_accuracy_gain,
)
from .probability import Distribution, JointDistribution, RngSeed, _integers, rng_from_seed

ALL_PAIRS = "all-pairs-average"
SEEDED_RANDOM = "seeded-random-reference"


def _reference_sets(n: int, pairing: str, seed: RngSeed | None):
    """Per agent, the reference agents to average over."""
    if pairing == ALL_PAIRS:
        return [[j for j in range(n) if j != i] for i in range(n)]
    if pairing == SEEDED_RANDOM:
        if seed is None:
            raise DimensionMismatch("seeded-random-reference pairing needs a seed")
        rng = rng_from_seed(seed, 17)
        out = []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            out.append([others[int(rng.integers(len(others)))]])
        return out
    raise DimensionMismatch(f"unknown pairing {pairing!r}")


@dataclass(frozen=True)
class PaymentReport:
    """Per-agent payments with an optional score decomposition.

    When effort costs are present, ``utilities = payments - effort_costs``
    with ``effort_costs[i] = full_effort_prob_i * cost_i``.
    """

    mechanism: str
    mode: str  # "exact" | "empirical"
    payments: np.ndarray
    information_scores: np.ndarray | None = None
    prediction_scores: np.ndarray | None = None
    effort_costs: np.ndarray | None = None
    utilities: np.ndarray | None = None
    measure: str | None = None
    seed: RngSeed | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pay = np.asarray(self.payments, dtype=np.float64)
        pay.setflags(write=False)
        object.__setattr__(self, "payments", pay)
        for name in ("information_scores", "prediction_scores", "effort_costs", "utilities"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.utilities is not None and self.effort_costs is not None:
            if not np.allclose(self.utilities, self.payments - self.effort_costs, atol=1e-12):
                raise DimensionMismatch("utilities must equal payments - effort costs")

    @property
    def n_agents(self) -> int:
        return self.payments.shape[0]


def agent_welfare(report: PaymentReport) -> float:
    """Sum of per-agent payments."""
    return float(report.payments.sum())


# ---------------------------------------------------------------------------
# Exact pay-mutual-information payments
# ---------------------------------------------------------------------------


def _exact_joints(scenario: Scenario):
    """Per agent i, the exact conditional-mode joint of (J, report_i, report_J) with the
    reference agent J uniform over the other agents."""
    s = scenario.strategies
    for i, refs in enumerate(_reference_sets(scenario.n_agents, ALL_PAIRS, None)):
        yield report_joint(scenario.prior, i, refs, s[i], [s[j] for j in refs],
                           scenario.effort(i), [scenario.effort(j) for j in refs])


def _empirical_joints(reports: ReportMatrix, pairing: str, seed: RngSeed | None):
    """Per agent i, the empirical conditional-mode joint of (J, report_i, report_J) with J
    uniform over i's reference agents."""
    refs = _reference_sets(reports.n_agents, pairing, seed)
    return (empirical_pair_joint(reports, i, row) for i, row in enumerate(refs))


def _peer_means(joints, per_table) -> np.ndarray:
    """Per agent, ``per_table`` of its pair joints averaged over its reference agents J,
    from its (J, report_i, report_J) joint, as :func:`conditional_mi` averages MI."""
    return np.array([_slice_mean(joint.table, per_table) for joint in joints])


def mip_expected_payments(scenario: Scenario, measure: Measure) -> PaymentReport:
    """Exact expected payments when each agent is paid the mutual information
    between her report and a uniformly random peer's report.

    payment_i = (1 / (n-1)) * sum_{j != i} MI(report_i ; report_j).
    """
    payments = np.array([conditional_mi(joint, measure) for joint in _exact_joints(scenario)])
    effort_costs = utilities = None
    if scenario.efforts is not None:
        effort_costs = np.array(
            [e.full_effort_prob * e.cost for e in scenario.efforts], dtype=np.float64
        )
        utilities = payments - effort_costs
    return PaymentReport(
        mechanism="mip",
        mode="exact",
        payments=payments,
        effort_costs=effort_costs,
        utilities=utilities,
        measure=_measure_name(measure),
    )


def _measure_name(measure: Measure) -> str:
    return measure.value


# ---------------------------------------------------------------------------
# Empirical mutual-information mechanisms
# ---------------------------------------------------------------------------


def fmi_mechanism_payments(
    reports: ReportMatrix,
    f: ConvexGenerator,
    pairing: str = ALL_PAIRS,
    seed: RngSeed | None = None,
) -> PaymentReport:
    """Pay each agent the f-mutual information of her empirical pair joint
    with the reference agent's reports."""
    return _empirical_mi_payments(reports, f, pairing, seed, mechanism="fmi")


def bmi_mechanism_payments(
    reports: ReportMatrix,
    rule: ScoringRule,
    pairing: str = ALL_PAIRS,
    seed: RngSeed | None = None,
) -> PaymentReport:
    """As :func:`fmi_mechanism_payments` with the Bregman measure."""
    return _empirical_mi_payments(reports, rule, pairing, seed, mechanism="bmi")


def _empirical_mi_payments(reports, measure, pairing, seed, mechanism) -> PaymentReport:
    joints = _empirical_joints(reports, pairing, seed)
    payments = np.array([conditional_mi(joint, measure) for joint in joints])
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        measure=_measure_name(measure),
        seed=seed,
        metadata={"pairing": pairing, "T": reports.n_questions},
    )


# ---------------------------------------------------------------------------
# Binary correlation mechanism and its agreement variant
# ---------------------------------------------------------------------------


def _draw_disjoint_subsets(rng, own: np.ndarray, peer: np.ndarray, k: int, d: int, T: int):
    """A from own \\ {k}, then B from peer \\ ({k} u A), both of size d."""
    pool_a = own[own != k]
    if pool_a.size < d:
        return None
    a = rng.choice(pool_a, size=d, replace=False)
    blocked = np.zeros(T, dtype=bool)
    blocked[a] = True
    blocked[k] = True
    pool_b = peer[~blocked[peer]]
    if pool_b.size < d:
        return None
    b = rng.choice(pool_b, size=d, replace=False)
    return a, b


def _average_answer_term(rng, x: np.ndarray, y: np.ndarray, k: int, a, b) -> float:
    """Agreement on question k minus the agreement rate of the average answers
    over the comparison subsets (binary reports)."""
    si = float(x[k])
    sj = float(y[k])
    abar = float(x[a].mean())
    bbar = float(y[b].mean())
    agree = si * sj + (1.0 - si) * (1.0 - sj)
    base = abar * bbar + (1.0 - abar) * (1.0 - bbar)
    return agree - base


def _random_pair_term(rng, x: np.ndarray, y: np.ndarray, k: int, a, b) -> float:
    """1(agree on question k) minus 1(agree on one random question pair drawn
    from the comparison subsets)."""
    la = int(a[int(rng.integers(a.size))])
    lb = int(b[int(rng.integers(b.size))])
    return float(x[k] == y[k]) - float(x[la] == y[lb])


def _subset_payments(
    reports: ReportMatrix, d: int, seed: RngSeed, pairing: str, mechanism: str, stream: int, term
) -> PaymentReport:
    """Per reward question shared with a reference agent, ``term`` of the two
    report rows, the question and disjoint comparison subsets of size d
    (reward 0 when no such subsets exist); averaged over questions, then over
    reference agents.  Subsets are sampled without replacement from rng
    ``stream`` of the seed."""
    d = int(_integers(d, "comparison-subset size d"))
    if d < 1:
        raise DimensionMismatch(f"comparison-subset size d must be >= 1, got {d}")
    n = reports.n_agents
    T = reports.n_questions
    refs = _reference_sets(n, pairing, seed)
    rng = rng_from_seed(seed, stream)
    payments = np.zeros(n)
    for i in range(n):
        own = reports.answered(i)
        per_ref = []
        for j in refs[i]:
            peer = reports.answered(j)
            rewards = []
            for k in np.intersect1d(own, peer):
                pick = _draw_disjoint_subsets(rng, own, peer, int(k), d, T)
                if pick is None:
                    rewards.append(0.0)
                else:
                    rewards.append(term(rng, reports.entries[i], reports.entries[j], k, *pick))
            per_ref.append(float(np.mean(rewards)) if rewards else 0.0)
        payments[i] = float(np.mean(per_ref))
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        seed=seed,
        metadata={"d": d, "pairing": pairing, "T": T},
    )


def md_payments(
    reports: ReportMatrix,
    d: int,
    seed: RngSeed,
    pairing: str = ALL_PAIRS,
) -> PaymentReport:
    """Binary correlation payments: per reward question, agreement on the
    question minus the agreement rate of the agents' average answers over
    disjoint comparison subsets of size d (reward 0 when no such subsets
    exist).  Subsets are sampled uniformly without replacement per seed.
    """
    if reports.alphabet_size != 2:
        raise NonBinaryAlphabet("this mechanism is binary-only")
    return _subset_payments(reports, d, seed, pairing, "md", 1, _average_answer_term)


def ca_payments(
    reports: ReportMatrix,
    d: int,
    seed: RngSeed,
    pairing: str = ALL_PAIRS,
) -> PaymentReport:
    """Agreement-indicator payments for any finite alphabet: per reward
    question, 1(reports agree on the question) minus 1(reports agree on a
    random question pair drawn from the two comparison subsets)."""
    return _subset_payments(reports, d, seed, pairing, "ca", 2, _random_pair_term)


def ca_expected_reward(pair: JointDistribution) -> float:
    """Expected per-question agreement reward on any alphabet:
    sum_s (Pr[s, s] - Pr_i[s] Pr_j[s])."""
    return float(_agreement_rewards(pair._require_pairwise("ca_expected_reward")))


def _agreement_rewards(tables: np.ndarray) -> np.ndarray:
    """:func:`ca_expected_reward` of each table of a stack shaped (..., m, m)."""
    marginals = tables.sum(axis=-1) * tables.sum(axis=-2)
    return np.trace(tables, axis1=-2, axis2=-1) - marginals.sum(axis=-1)


# ---------------------------------------------------------------------------
# Shifted peer prediction (known prior)
# ---------------------------------------------------------------------------


def _score_shifts(known_prior: PairwisePrior, rule: ScoringRule):
    """Expected shifted score sum_{a,b} R[a, b] S[a, b] of each report table R of a stack, with
    S[a, b] = PS(b, q_a) - PS(b, q) from the known prior's posteriors q_a and prediction q.
    Cells of zero mass are skipped; a live cell without a finite S raises LogOfZero."""
    table = known_prior.joint.table
    q = Distribution(table.sum(axis=0))
    shift = np.full(table.shape, np.nan)
    for a, row in enumerate(table):
        if row.sum() > 0.0:
            posterior = Distribution(row / float(row.sum()))
            for b in range(q.size):
                with contextlib.suppress(LogOfZero):
                    shift[a, b] = rule.score(b, posterior) - rule.score(b, q)

    def expected_shift(tables: np.ndarray) -> np.ndarray:
        live = tables > 0.0
        if np.any(live & np.isnan(shift)):
            _, a, b = np.argwhere(live & np.isnan(shift))[0]
            raise LogOfZero(f"the known prior gives zero mass to report pair ({a}, {b})")
        return np.where(live, tables * shift, 0.0).sum(axis=(-2, -1))

    return expected_shift


def sppm_payments(
    signals: Sequence[int],
    known_prior: PairwisePrior,
    rule: ScoringRule,
    pairing: str = ALL_PAIRS,
    seed: RngSeed | None = None,
) -> PaymentReport:
    """Realized shifted-peer-prediction payments: the accuracy of the posterior
    derived from agent i's report, minus that of the prior, both scored
    against the reference agent's report."""
    reports = ReportMatrix.full(np.asarray(signals)[:, None], known_prior.alphabet_size)
    return PaymentReport(
        mechanism="sppm",
        mode="empirical",
        payments=_peer_means(
            _empirical_joints(reports, pairing, seed), _score_shifts(known_prior, rule)
        ),
        measure=rule.value,
        seed=seed,
        metadata={"pairing": pairing},
    )


def sppm_expected_payments(
    scenario: Scenario, known_prior: PairwisePrior, rule: ScoringRule
) -> PaymentReport:
    """Exact expected shifted-peer-prediction payments under a scenario.

    The mechanism's prediction tables are fixed by ``known_prior``; under
    truth-telling on the same prior each payment equals the Bregman mutual
    information of the prior pair joint.
    """
    payments = _peer_means(_exact_joints(scenario), _score_shifts(known_prior, rule))
    return PaymentReport(
        mechanism="sppm", mode="exact", payments=payments, measure=rule.value
    )


# ---------------------------------------------------------------------------
# Signal-plus-prediction scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BtsReportProfile:
    """Per-agent reported signal and reported prediction of peers' reports."""

    signals: np.ndarray
    predictions: tuple[Distribution, ...]

    def __post_init__(self):
        sig = _integers(self.signals, "signals")
        preds = tuple(self.predictions)
        if sig.ndim != 1 or sig.shape[0] != len(preds):
            raise DimensionMismatch("one prediction per reported signal")
        sizes = {p.size for p in preds}
        if len(sizes) != 1:
            raise DimensionMismatch("predictions must share one alphabet")
        m = sizes.pop()
        if sig.size and (sig.min() < 0 or sig.max() >= m):
            raise DimensionMismatch("signal outside the prediction alphabet")
        sig.setflags(write=False)
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "predictions", preds)

    @property
    def n_agents(self) -> int:
        return self.signals.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.predictions[0].size


def _peer_frequency(
    counts: np.ndarray, signals: np.ndarray, exclude: int, sigma: int, smoothing: float
) -> float:
    m = counts.shape[0]
    count = float(counts[sigma]) - float(signals[exclude] == sigma)
    n_others = signals.shape[0] - 1
    return (count + smoothing) / (n_others + smoothing * m)


def bts_payments(
    profile: BtsReportProfile,
    alpha: float,
    pairing: str = ALL_PAIRS,
    seed: RngSeed | None = None,
    smoothing: float = 0.0,
) -> PaymentReport:
    """Finite-n signal-plus-prediction payments: prediction score plus alpha
    times information score.

    The information score is the log-ratio of the realized peer frequency of
    the agent's reported signal to the reference agent's predicted
    probability of it; the prediction score is the log accuracy of the
    agent's prediction on the reference agent's report, baselined by that
    report's realized peer frequency.  Realized frequencies always exclude
    the agent whose report is being scored.

    Zero realized frequencies raise :class:`ZeroFrequency` unless an additive
    ``smoothing`` pseudo-count is supplied (a documented deviation from the
    infinite-population model this scoring idealizes).
    """
    n = profile.n_agents
    if n < 3:
        raise DimensionMismatch("signal-plus-prediction scoring needs n >= 3")
    if not (math.isfinite(alpha) and math.isfinite(smoothing) and smoothing >= 0.0):
        raise DimensionMismatch("alpha must be finite, smoothing finite and >= 0")
    m = profile.alphabet_size
    sig = profile.signals
    counts = np.bincount(sig, minlength=m).astype(np.float64)
    refs = _reference_sets(n, pairing, seed)
    info = np.zeros(n)
    pred = np.zeros(n)
    for i in range(n):
        vals_info, vals_pred = [], []
        fr_own = _peer_frequency(counts, sig, i, int(sig[i]), smoothing)
        if fr_own <= 0.0:
            raise ZeroFrequency(
                f"agent {i}'s reported signal {int(sig[i])} has zero peer frequency"
            )
        for j in refs[i]:
            pj = profile.predictions[j][int(sig[i])]
            if pj <= 0.0:
                raise LogOfZero(f"agent {j} predicted zero mass on signal {int(sig[i])}")
            vals_info.append(math.log(fr_own) - math.log(pj))
            fr_ref = _peer_frequency(counts, sig, j, int(sig[j]), smoothing)
            if fr_ref <= 0.0:
                raise ZeroFrequency(
                    f"agent {j}'s reported signal {int(sig[j])} has zero peer frequency"
                )
            pi = profile.predictions[i][int(sig[j])]
            if pi <= 0.0:
                raise LogOfZero(f"agent {i} predicted zero mass on signal {int(sig[j])}")
            vals_pred.append(math.log(pi) - math.log(fr_ref))
        info[i] = float(np.mean(vals_info))
        pred[i] = float(np.mean(vals_pred))
    return PaymentReport(
        mechanism="bts",
        mode="empirical",
        payments=pred + alpha * info,
        information_scores=info,
        prediction_scores=pred,
        seed=seed,
        metadata={
            "alpha": alpha,
            "alpha_warning": alpha <= 1.0,
            "pairing": pairing,
            "smoothing": smoothing,
        },
    )


def optimal_predictions(
    world: WorldModelPrior, strategies: Sequence[Strategy] | None = None
) -> tuple[Distribution, ...]:
    """Per private signal, the posterior report distribution of a random peer.

    Entry sigma is Pr[peer report | own signal = sigma]: the state posterior
    from the true signal model, pushed through the per-state report
    distributions of the strategy profile (truthful when None).  These are
    the prediction reports a score-maximizing agent submits.
    """
    reported = reported_world_states(world, strategies)
    true_states = np.stack([s.weights for s in world.states])
    reported_states = np.stack([s.weights for s in reported])
    pw = world.state_probs.weights
    out = []
    for sigma in range(world.alphabet_size):
        post_w = pw * true_states[:, sigma]
        total = float(post_w.sum())
        if total <= 0.0:
            raise ZeroFrequency(f"signal {sigma} has zero prior probability")
        out.append(Distribution((post_w / total) @ reported_states))
    return tuple(out)


@dataclass(frozen=True)
class IdealizedBtsScores:
    """Population-limit expected average scores for a strategy profile."""

    information_score: float
    prediction_score: float


def bts_idealized_scores(
    world: WorldModelPrior,
    strategies: Sequence[Strategy] | None = None,
    measure: Measure | str = "shannon",
) -> IdealizedBtsScores:
    """Expected average information and prediction scores in the population
    limit, where realized report frequencies equal the per-state report
    distributions.

    The information score is the conditional mutual information (under the
    chosen measure) between the reported-state variable and a random agent's
    report, given a reference agent's private signal; the prediction score is
    the negated log-score accuracy gain computed by direct enumeration, an
    independent route that must agree with the Shannon information score up
    to sign.
    """
    tensor = world_tensor(world, strategies)
    if isinstance(measure, str):
        if measure != "shannon":
            raise DimensionMismatch(f"unknown measure {measure!r}")
        info = conditional_mi(tensor, ConvexGenerator.KL)
    else:
        info = conditional_mi(tensor, measure)
    prediction = -log_score_accuracy_gain(tensor)
    return IdealizedBtsScores(information_score=info, prediction_score=prediction)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("agent", "payment", "information_score", "prediction_score", "effort_cost", "utility")


def payment_report_csv(report: PaymentReport) -> str:
    """One row per agent; absent decomposition columns are left empty."""
    lines = [",".join(_CSV_COLUMNS)]
    for i in range(report.n_agents):
        row = [str(i), repr(float(report.payments[i]))]
        for arr in (
            report.information_scores,
            report.prediction_scores,
            report.effort_costs,
            report.utilities,
        ):
            row.append("" if arr is None else repr(float(arr[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def payment_report_dict(report: PaymentReport) -> dict:
    def listify(arr):
        return None if arr is None else [float(v) for v in arr]

    return {
        "mechanism": report.mechanism,
        "mode": report.mode,
        "measure": report.measure,
        "seed": report.seed,
        "payments": listify(report.payments),
        "information_scores": listify(report.information_scores),
        "prediction_scores": listify(report.prediction_scores),
        "effort_costs": listify(report.effort_costs),
        "utilities": listify(report.utilities),
        "metadata": report.metadata,
    }
