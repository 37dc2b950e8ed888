"""Payment engines.

Exact expected payments for the pay-mutual-information rule, empirical
mechanisms over report matrices (f-mutual-information, Bregman, the binary
correlation mechanism and its agreement variant), the shifted peer prediction
method for a known prior, and signal-plus-prediction scoring (idealized and
finite-n).

The all-pairs engines (mip, fmi, bmi, both sppm engines and the expected
agreement reward) share one form, joints -> kernel.  Per agent i, the joint of
(J, report_i, report_J) with J uniform over i's reference agents is exact or
counted, one call of the core of :func:`report_joint` or :func:`empirical_pair_joint`
per block of agents of about ``agents.COUNT_CELLS`` cells.  Exact blocks take each agent's
channel with its effort folded in by ``agents._folded_rows``, the one fold that sampled
reports are drawn through too, and span a stack of scenarios of one (n, m), such as a
scenario and its relabeled twins.  Counted joints are read from the
store of ``agents._count_tables``, which counts each unordered agent pair once; one stacked
kernel (f-MI, BMI, score shift or agreement) runs over its report-pair slices,
averaged with the weights Pr[J=j], so a mutual-information payment is
MI(report_i; report_J | J).  The blocks can be built once for many kernels.  Finite-n
signal-plus-prediction scores (:func:`bts_payments`) need no joint: with P the profile's
(n, m) prediction array, they are closed forms info_i = log fr_i - mean_j log P[j, s_i] and
pred_i = mean_j log P[i, s_j] - mean_j log fr_j, O(n·m) array operations over
the signal counts.  Errors are those of the first failing (i, j) pair in agent
order: fr_i, then per reference j, P[j, s_i], fr_j and P[i, s_j].

Reference-agent handling defaults to ``all-pairs-average`` (the exact
expectation over a uniformly random reference agent, which keeps theorem
checks deterministic); ``seeded-random-reference`` reproduces the literal
single-reference payment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import agents
from .agents import (
    PairwisePrior,
    ReportMatrix,
    Scenario,
    Strategy,
    WorldModelPrior,
    _count_tables,
    _folded_rows,
    _report_tables,
    reported_world_states,
    world_tensor,
)
from .errors import (
    DimensionMismatch,
    LogOfZero,
    NonBinaryAlphabet,
    PeerLabError,
    ZeroFrequency,
)
from .measures import (
    ConvexGenerator,
    Measure,
    ScoringRule,
    _mi_kernel,
    _slice_mean,
    conditional_mi,
    log_score_accuracy_gain,
)
from .probability import (
    Distribution, JointDistribution, RngSeed, _check_seed, _int_at_least, _integers,
    _validated_tables, rng_from_seed,
)
report_joint = agents.report_joint  # not called here; still importable from this module

ALL_PAIRS = "all-pairs-average"
SEEDED_RANDOM = "seeded-random-reference"


def _reference_sets(n: int, pairing: str, seed: RngSeed | None) -> np.ndarray:
    """Per agent i, a row of the reference agents to average over, (n, k): each j != i, or
    under seeded pairing one draw per agent in agent order, k uniform on 0..n-2 mapped past i
    as j = k + (k >= i)."""
    if n < 2:
        raise DimensionMismatch("payments need at least 2 agents")
    if pairing == ALL_PAIRS:
        k = np.arange(n - 1)
        return k + (k >= np.arange(n)[:, None])
    if pairing == SEEDED_RANDOM:
        if seed is None:
            raise DimensionMismatch("seeded-random-reference pairing needs a seed")
        _check_seed(seed)
        rng = rng_from_seed(seed, 17)
        k = np.array([int(rng.integers(n - 1)) for _ in range(n)], dtype=np.intp)
        return (k + (k >= np.arange(n)))[:, None]
    raise DimensionMismatch(f"unknown pairing {pairing!r}")


_REPORT_ARRAYS = ("payments", "information_scores", "prediction_scores", "effort_costs", "utilities")


@dataclass(frozen=True)
class PaymentReport:
    """Per-agent payments with an optional score decomposition.

    When effort costs are present, ``utilities = payments - effort_costs``
    with ``effort_costs[i] = full_effort_prob_i * cost_i``.  A seed, where an
    engine records one, passes :func:`_check_seed`.
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
        for name in _REPORT_ARRAYS:
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.utilities is not None and self.effort_costs is not None:
            if not np.allclose(self.utilities, self.payments - self.effort_costs, atol=1e-12):
                raise DimensionMismatch("utilities must equal payments - effort costs")
        if self.seed is not None:
            _check_seed(self.seed)

    @property
    def n_agents(self) -> int:
        return self.payments.shape[0]


def agent_welfare(report: PaymentReport) -> float:
    """Sum of per-agent payments."""
    return float(report.payments.sum())


# ---------------------------------------------------------------------------
# Exact pay-mutual-information payments
# ---------------------------------------------------------------------------


def _exact_joints(pairs, rows):
    """Per block of agents, in agent order, the tables of the exact conditional-mode joints
    of (J, report_i, report_J) with J uniform over each agent i's other agents, in each of a
    stack of S scenarios of one (n, m), shaped (S, agents in the block, n-1, m, m).  The stack
    is arrays, as :func:`_exact_inputs` gives them for S = 1: a prior's ``_pairs`` on its
    stack and report channels (S, n, m, m).  One :func:`_report_tables` call per block of
    about ``agents.COUNT_CELLS`` cells, counted over the stack too (the count kernel's budget)."""
    s, n, m = rows.shape[:3]
    refs = _reference_sets(n, ALL_PAIRS, None)
    block = max(agents.COUNT_CELLS // (s * refs.shape[1] * m * m), 1)
    for own in np.array_split(np.arange(n), range(block, n, block)):
        yield _report_tables(rows[:, own, None], rows[:, refs[own]], pairs(own, refs[own]))


def _exact_inputs(scenario: Scenario) -> tuple:
    """The :func:`_exact_joints` arguments of one scenario, a stack of one: its prior's
    ``_pairs`` and each agent's channel with its effort folded in (:func:`_folded_rows`)."""
    return scenario.prior._pairs, _folded_rows(scenario.strategies, scenario.efforts)[None]


def _empirical_joints(reports: ReportMatrix, pairing: str, seed: RngSeed | None):
    """Per block of agents, in agent order, the tables of the empirical conditional-mode
    joints of (J, report_i, report_J) with J uniform over each agent i's reference agents,
    shaped (agents in the block, k, m, m)."""
    refs = _reference_sets(reports.n_agents, pairing, seed)
    blocks = _count_tables(reports, np.arange(reports.n_agents), refs)
    return (tables / refs.shape[1] for tables in blocks)


def _peer_means(tables, per_table) -> np.ndarray:
    """Per agent, ``per_table`` of its pair joints averaged over its reference agents J,
    from its (J, report_i, report_J) table, as :func:`conditional_mi` averages MI.
    ``tables`` yields, in agent order, blocks of agents' tables (..., agents, k, m, m), with
    any leading axes (a scenario stack) the same in each block; the result is (..., n)."""
    return np.concatenate([_slice_mean(t, per_table) for t in tables], axis=-1)


def mip_expected_payments(scenario: Scenario, measure: Measure) -> PaymentReport:
    """Exact expected payments when each agent is paid the mutual information
    between her report and a uniformly random peer's report.

    payment_i = (1 / (n-1)) * sum_{j != i} MI(report_i ; report_j).
    """
    payments = _peer_means(_exact_joints(*_exact_inputs(scenario)), _mi_kernel(measure))[0]
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
        measure=measure.value,
    )


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
    payments = _peer_means(_empirical_joints(reports, pairing, seed), _mi_kernel(measure))
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        measure=measure.value,
        seed=seed,
        metadata={"pairing": pairing, "T": reports.n_questions},
    )


# ---------------------------------------------------------------------------
# Binary correlation mechanism and its agreement variant
# ---------------------------------------------------------------------------


def _draw_subsets(rng, pool: np.ndarray, holes: np.ndarray, d: int) -> np.ndarray:
    """Per row of ``holes`` (ascending positions in the sorted ``pool``, padded with pool.size),
    a uniform d-subset of ``pool`` without them.  Floyd's algorithm: column c draws a rank in
    0..top (top = size - d + c), top if already drawn; ranks then skip the holes in order."""
    size = pool.size - (holes < pool.size).sum(axis=1)
    ranks = np.empty((holes.shape[0], d), dtype=np.intp)
    for c in range(d):
        top = size - d + c
        r = rng.integers(0, top + 1)
        ranks[:, c] = np.where((ranks[:, :c] == r[:, None]).any(axis=1), top, r)
    for h in holes.T:
        ranks += ranks >= h[:, None]
    return pool[ranks]


def _comparison_subsets(rng, own: np.ndarray, peer: np.ndarray, shared: np.ndarray, d: int):
    """Per shared question k, uniform d-subsets A of own \\ {k} and B of peer \\ ({k} u A)
    (own must hold more than d): the rows that have a B, A on every row, B on those rows."""
    a = _draw_subsets(rng, own, np.searchsorted(own, shared)[:, None], d)
    at = np.full(max(own[-1], peer[-1]) + 1, peer.size)  # position in peer, peer.size if absent
    at[peer] = np.arange(peer.size)
    holes = np.column_stack([at[shared], at[a]])
    ok = peer.size - (holes < peer.size).sum(axis=1) >= d
    return ok, a, _draw_subsets(rng, peer, np.sort(holes[ok], axis=1), d)


def _average_answer_terms(rng, x: np.ndarray, y: np.ndarray, k, a, b) -> np.ndarray:
    """Agreement on question k minus the agreement rate of the average answers
    over the comparison subsets (binary reports), per row."""
    abar, bbar = x[a].mean(axis=1), y[b].mean(axis=1)
    return (x[k] == y[k]) - (abar * bbar + (1.0 - abar) * (1.0 - bbar))


def _random_pair_terms(rng, x: np.ndarray, y: np.ndarray, k, a, b) -> np.ndarray:
    """1(agree on question k) minus 1(agree on one random question pair drawn
    from the comparison subsets), per row."""
    la = a[np.arange(k.size), rng.integers(a.shape[1], size=k.size)]
    lb = b[np.arange(k.size), rng.integers(b.shape[1], size=k.size)]
    return (x[k] == y[k]) - (x[la] == y[lb]).astype(np.float64)


def _subset_payments(
    reports: ReportMatrix, d: int, seed: RngSeed, pairing: str, mechanism: str, stream: int, term
) -> PaymentReport:
    """Per reward question shared with a reference agent, ``term`` of the two
    report rows, the question and disjoint comparison subsets of size d
    (reward 0 when no such subsets exist); averaged over questions, then over
    reference agents.  Each pair's subsets are drawn at once from rng ``stream``
    of the seed (:func:`_comparison_subsets`)."""
    d = _int_at_least(d, 1, "comparison-subset size d")
    _check_seed(seed)
    n = reports.n_agents
    refs = _reference_sets(n, pairing, seed)
    rng = rng_from_seed(seed, stream)
    payments = np.zeros(n)
    for i in range(n):
        own = reports.answered(i)
        per_ref = []
        for j in refs[i]:
            peer = reports.answered(j)
            shared = np.flatnonzero(reports.mask[i] & reports.mask[j])
            rewards = np.zeros(shared.size)
            if shared.size and own.size > d:
                ok, a, b = _comparison_subsets(rng, own, peer, shared, d)
                rewards[ok] = term(rng, reports.entries[i], reports.entries[j], shared[ok], a[ok], b)
            per_ref.append(float(rewards.mean()) if shared.size else 0.0)
        payments[i] = float(np.mean(per_ref))
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        seed=seed,
        metadata={"d": d, "pairing": pairing, "T": reports.n_questions},
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
    exist).  Subsets are uniform per seed: Floyd's algorithm per column,
    vectorized over the shared questions."""
    if reports.alphabet_size != 2:
        raise NonBinaryAlphabet("this mechanism is binary-only")
    return _subset_payments(reports, d, seed, pairing, "md", 1, _average_answer_terms)


def ca_payments(
    reports: ReportMatrix,
    d: int,
    seed: RngSeed,
    pairing: str = ALL_PAIRS,
) -> PaymentReport:
    """Agreement-indicator payments for any finite alphabet: per reward
    question, 1(reports agree on the question) minus 1(reports agree on a
    random question pair of the two comparison subsets, drawn as in md)."""
    return _subset_payments(reports, d, seed, pairing, "ca", 2, _random_pair_terms)


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
    S is NaN on rows of zero mass and, under the log rule, where q_a is 0.  Cells of zero mass
    are skipped; a live cell without a finite S raises LogOfZero."""
    table = known_prior.joint.table
    mass = table.sum(axis=1, keepdims=True)
    posteriors = np.divide(table, mass, out=np.full(table.shape, np.nan), where=mass > 0.0)
    shift = rule._scores(posteriors) - rule._scores(table.sum(axis=0))

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
    joints = _exact_joints(*_exact_inputs(scenario))
    payments = _peer_means(joints, _score_shifts(known_prior, rule))[0]
    return PaymentReport(
        mechanism="sppm", mode="exact", payments=payments, measure=rule.value
    )


# ---------------------------------------------------------------------------
# Signal-plus-prediction scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BtsReportProfile:
    """Per-agent reported signal and reported prediction of peers' reports: ``predictions``
    is one read-only (n, m) float64 array, given as such or as rows or :class:`Distribution`s
    and validated as one stack, raising the first failing prediction's own error."""

    signals: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        preds = self.predictions
        if not isinstance(preds, np.ndarray) or preds.ndim != 2:
            preds = [p.weights if isinstance(p, Distribution) else p for p in preds]
        try:
            stack = _validated_tables(preds, 1, "weights")
        except PeerLabError:
            stack = np.empty(0)
        if stack.ndim != 2:  # each alone raises the first failing prediction's error
            tuple(map(Distribution, preds))
        sig = _integers(self.signals, "signals")
        if sig.ndim != 1 or sig.shape[0] != len(preds):
            raise DimensionMismatch("one prediction per reported signal")
        if stack.ndim != 2:  # none failed alone: no predictions, or of several sizes
            raise DimensionMismatch("predictions must share one alphabet")
        if sig.size and (sig.min() < 0 or sig.max() >= stack.shape[1]):
            raise DimensionMismatch("signal outside the prediction alphabet")
        sig.setflags(write=False)
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "predictions", stack)

    @property
    def n_agents(self) -> int:
        return self.signals.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.predictions.shape[1]


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

    Both scores are means over the reference agents j, so they take O(n·m) array
    operations in closed form.  With P the stacked (n, m) predictions, c the signal
    counts, L = log P (0 where P = 0) and fr_i = (c[s_i] - 1 + smoothing) /
    (n - 1 + smoothing·m), all-pairs pairing gives
    info_i = log fr_i - (sum_j L[j, s_i] - L[i, s_i]) / (n-1) and
    pred_i = (L[i]·c - L[i, s_i]) / (n-1) - (sum_j log fr_j - log fr_i) / (n-1);
    seeded pairing gathers L and fr through one reference j(i) per agent.

    Zero realized frequencies raise :class:`ZeroFrequency` unless an additive
    ``smoothing`` pseudo-count is supplied (a documented deviation from the
    infinite-population model this scoring idealizes); a zero prediction that a
    score needs raises :class:`LogOfZero`.  The error raised is the first met in
    agent order i, checking fr_i, then per reference j in order P[j, s_i], fr_j and
    P[i, s_j]; per-agent failure counts find i, and only its references are scanned.
    """
    n = profile.n_agents
    if n < 3:
        raise DimensionMismatch("signal-plus-prediction scoring needs n >= 3")
    if not (math.isfinite(alpha) and math.isfinite(smoothing) and smoothing >= 0.0):
        raise DimensionMismatch("alpha must be finite, smoothing finite and >= 0")
    m, sig, agents = profile.alphabet_size, profile.signals, np.arange(n)
    counts = np.bincount(sig, minlength=m)
    fr = (counts[sig] - 1.0 + smoothing) / (n - 1 + smoothing * m)
    zero, lone = profile.predictions <= 0.0, fr <= 0.0
    logs, log_fr = np.log(np.where(zero, 1.0, profile.predictions)), np.log(np.where(lone, 1.0, fr))
    if pairing == ALL_PAIRS:
        refs, own, zero_own = None, logs[agents, sig], zero[agents, sig]
        failing = (lone | (lone.sum() > lone) | (zero.sum(axis=0)[sig] > zero_own)
                   | (zero @ counts > zero_own))
        info = log_fr - (logs.sum(axis=0)[sig] - own) / (n - 1)
        pred = (logs @ counts - own - log_fr.sum() + log_fr) / (n - 1)
    elif pairing == SEEDED_RANDOM:
        refs = _reference_sets(n, pairing, seed)[:, 0]
        failing = lone | lone[refs] | zero[refs, sig] | zero[agents, sig[refs]]
        info = log_fr - logs[refs, sig]
        pred = logs[agents, sig[refs]] - log_fr[refs]
    else:
        raise DimensionMismatch(f"unknown pairing {pairing!r}")
    if failing.any():
        i = int(np.argmax(failing))
        if lone[i]:
            raise ZeroFrequency(f"agent {i}'s reported signal {sig[i]} has zero peer frequency")
        for j in (agents[agents != i] if refs is None else refs[i:i + 1]).tolist():
            if zero[j, sig[i]]:
                raise LogOfZero(f"agent {j} predicted zero mass on signal {sig[i]}")
            if lone[j]:
                raise ZeroFrequency(f"agent {j}'s reported signal {sig[j]} has zero peer frequency")
            if zero[i, sig[j]]:
                raise LogOfZero(f"agent {i} predicted zero mass on signal {sig[j]}")
    return PaymentReport(
        mechanism="bts", mode="empirical", payments=pred + alpha * info,
        information_scores=info, prediction_scores=pred, seed=seed,
        metadata={"alpha": alpha, "alpha_warning": alpha <= 1.0, "pairing": pairing,
                  "smoothing": smoothing},
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
    table = _predictive_table(world, strategies)
    if np.isnan(table).any():
        raise ZeroFrequency(f"signal {np.argmax(np.isnan(table[:, 0]))} has zero prior probability")
    return tuple(Distribution(row) for row in table)


def _predictive_table(world: WorldModelPrior, strategies=None) -> np.ndarray:
    """:func:`optimal_predictions` as one table, with NaN rows for signals of zero prior mass."""
    reported = np.stack([r.weights for r in reported_world_states(world, strategies)])
    joint = world.state_probs.weights[:, None] * np.stack([s.weights for s in world.states])
    total = joint.sum(axis=0)
    return np.divide(joint, total, out=np.full(joint.shape, np.nan), where=total > 0.0).T @ reported


@dataclass(frozen=True)
class IdealizedBtsScores:
    """Population-limit expected average scores for a strategy profile."""

    information_score: float
    prediction_score: float


def bts_idealized_scores(
    world: WorldModelPrior,
    strategies: Sequence[Strategy] | None = None,
    measure: Measure = ConvexGenerator.KL,
) -> IdealizedBtsScores:
    """Expected average information and prediction scores in the population
    limit, where realized report frequencies equal the per-state report
    distributions.

    The information score is the conditional mutual information (under
    ``measure``, Shannon by default) between the reported-state variable and
    a random agent's report, given a reference agent's private signal; the
    prediction score is the negated log-score accuracy gain computed by direct
    enumeration, an independent route that must agree with the Shannon
    information score up to sign.
    """
    tensor = world_tensor(world, strategies)
    return IdealizedBtsScores(conditional_mi(tensor, measure), -log_score_accuracy_gain(tensor))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("agent", "payment", "information_score", "prediction_score", "effort_cost", "utility")


def payment_report_csv(report: PaymentReport) -> str:
    """One row per agent; absent decomposition columns are left empty."""
    lines = [",".join(_CSV_COLUMNS)]
    arrays = [getattr(report, name) for name in _REPORT_ARRAYS]
    for i in range(report.n_agents):
        cells = ["" if arr is None else repr(float(arr[i])) for arr in arrays]
        lines.append(",".join([str(i), *cells]))
    return "\n".join(lines) + "\n"


def payment_report_dict(report: PaymentReport) -> dict:
    def listify(arr):
        return None if arr is None else [float(v) for v in arr]

    return {
        "mechanism": report.mechanism,
        "mode": report.mode,
        "measure": report.measure,
        "seed": report.seed,
        **{name: listify(getattr(report, name)) for name in _REPORT_ARRAYS},
        "metadata": report.metadata,
    }
