"""Independent reference implementations used to freeze expected values.

The measure oracles are written with plain Python loops and math functions,
deliberately avoiding the library's own vectorized code paths, so tests can
cross-check the two routes against each other.  The reference routes at the
end are the payment loops, the four-term effort mixture of the exact report tables
(before each agent's effort was folded into her channel), the one-scenario-per-effort-level
utility, the one-scenario-at-a-time exact joints and payments of the scenario-equivalence suite,
the per-agent pair-table bodies of the three prior modes, the exact joints of a list of
scenario objects and the suite's per-twin ``permute_scenario`` route (before one body per
mode took a block of agents over a stack of priors and the twins became array gathers),
and the strategy sampler that the library's merged engines and stacks replaced, kept
as they were, with the ``rng.dirichlet`` draws of the floored table, the channel
rows and the CI table that the private samplers made before they took unit
exponentials; the md/ca loops take their comparison subsets from the engine's
batched draw and apply the per-question rewards.
The one-table suites' per-instance parts, which drew through those ``rng.dirichlet``
forms and checked one table at a time through the public single-table functions,
the bregman-quasi check per joint shape, rule and Y channel shape, the effort
suite's per-instance part, which drew one prior, strategy and cost through those
forms and paid each instance from stacks of one, the md-equivalence and bts per-instance parts,
which paid each report pair and scored each world tensor on its own through the
public single-pair functions, and the masked sums the Shannon and slice-mean
code used before it took stacks follow.  The file closes
with the bincount route of the empirical pair counts, the report sampler that
gathered each draw's weights before its cumulative sums, the two-``isclose``
permutation test, the cell-pair loop of the fine-grained test and the signal-pair loop of
the divergence witness, as they were before the Gram kernel, the column-wise inverse
CDF, the direct tolerance test, the all-pairs comparison and the broadcast witness mask
replaced them, then the ``rng.choice`` draws of a strategy kind and of one item of
a tuple, as the samplers and suites took them before the bisect and the one-integer pick.
Last come the one-signal form of ``ScoringRule.score`` and the per-cell, per-atom,
per-state and per-signal loops of the shifted-score table, the log-score gain, the
reported world states and the optimal predictions, as they were before each got one
array body.  The two per-signal scores, ``log_score`` and ``quadratic_score``, take
numpy's scalar log and ``np.dot``, so that the score routes give the library's bits.
The file ends with the per-instance draws of the one-table suites and effort and the channel
rows and CI table they drew, each table built on its own with numpy's bounded draws, before
the suites kept raw reads and built each shape group's tables as one stack, and with the
checks of a signal-plus-prediction profile, one ``Distribution`` per prediction, before
``BtsReportProfile`` validated its predictions as one stack, and with the effort check of a
group of one alphabet, peer count and generator, which built its tables per generator,
before one group per alphabet and peer count ran each generator's kernel on its own rows.
Last come the list-form channel read and stack, the per-chunk grouping and the bregman-quasi
route over them (reads kept as tuples, one check per joint shape of each 512-instance chunk,
instances recorded one by one), as they ran before each read went into a compact per-shape
stack that is checked whole.
"""

import math
import statistics

import numpy as np

from peerlab.agents import (
    FULL_EFFORT,
    EffortStrategy,
    FullJointPrior,
    PairwisePrior,
    Scenario,
    Strategy,
    WorldModelPrior,
    generate_reports,
    report_joint,
    truth_telling,
    world_tensor,
)
from peerlab.errors import (
    DimensionMismatch,
    InadmissibleSupport,
    LogOfZero,
    NoOverlap,
    NonBinaryAlphabet,
    UnsupportedPriorMode,
    ZeroFrequency,
)
from peerlab import agents, measures, mechanisms, sampling, verify
from peerlab.measures import ConvexGenerator, ScoringRule
from peerlab.mechanisms import (
    ALL_PAIRS,
    SEEDED_RANDOM,
    BtsReportProfile,
    PaymentReport,
    _draw_subsets,
    _reference_sets,
    bts_payments,
    optimal_predictions,
)
from peerlab.probability import (
    Distribution,
    JointDistribution,
    RngSeed,
    TransitionMatrix,
    _identity_mask,
    _instance_rngs,
    _integers,
    _push_first,
    _validated_tables,
    condition_on,
    permutation_channel,
    product_of_marginals,
    push_first,
    push_second,
    rng_from_seed,
    uniform_distribution,
    z_marginal,
)
from peerlab.verify import _AGENT_COUNTS, _ALPHABET_SIZES, _jl


def f_value(kind, x):
    if kind == "kl":
        return -math.log(x)
    if kind == "tvd":
        return abs(x - 1.0)
    if kind == "chi2":
        return (x - 1.0) ** 2
    if kind == "hellinger":
        return (math.sqrt(x) - 1.0) ** 2
    raise ValueError(kind)


_AT_ZERO = {"kl": math.inf, "tvd": 1.0, "chi2": 1.0, "hellinger": 1.0}
_SLOPE_INF = {"kl": 0.0, "tvd": 1.0, "chi2": math.inf, "hellinger": 1.0}


def f_divergence(p, q, kind):
    """sum p f(q/p) with the standard conventions at zero cells."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0 and qi > 0:
            total += pi * f_value(kind, qi / pi)
        elif pi > 0:
            if _AT_ZERO[kind] == math.inf:
                return math.inf
            total += pi * _AT_ZERO[kind]
        elif qi > 0:
            if _SLOPE_INF[kind] == math.inf:
                return math.inf
            total += qi * _SLOPE_INF[kind]
    return total


def row_sums(table):
    return [sum(row) for row in table]


def col_sums(table):
    return [sum(row[y] for row in table) for y in range(len(table[0]))]


def outer(u, v):
    return [[a * b for b in v] for a in u]


def flatten(table):
    return [cell for row in table for cell in row]


def f_mutual_information(table, kind):
    v = outer(row_sums(table), col_sums(table))
    return f_divergence(flatten(table), flatten(v), kind)


def shannon_mi(table):
    mx, my = row_sums(table), col_sums(table)
    total = 0.0
    for x, row in enumerate(table):
        for y, u in enumerate(row):
            if u > 0:
                total += u * math.log(u / (mx[x] * my[y]))
    return total


def conditional_shannon_mi(tensor):
    """sum_z Pr[z] * MI of the renormalized z-slice."""
    total = 0.0
    for sl in tensor:
        pz = sum(flatten(sl))
        if pz <= 0:
            continue
        norm = [[c / pz for c in row] for row in sl]
        total += pz * shannon_mi(norm)
    return total


def accuracy_gain(tensor):
    """sum P(z,x,y) log( P(y|x,z) / P(y|z) ), enumerated atom by atom."""
    total = 0.0
    for sl in tensor:
        pz = sum(flatten(sl))
        if pz <= 0:
            continue
        for x, row in enumerate(sl):
            px = sum(row)
            for y, atom in enumerate(row):
                if atom <= 0:
                    continue
                p_y_given_xz = atom / px
                p_y_given_z = sum(r[y] for r in sl) / pz
                total += atom * math.log(p_y_given_xz / p_y_given_z)
    return total


def log_score(sigma, q):
    """numpy's scalar log, which gives the library's bits where ``math.log`` may not."""
    return float(np.log(q[sigma]))


def quadratic_score(sigma, q):
    """2 q[sigma] - |q|^2, with the norm as one ``np.dot``: the bits of the library's score."""
    return float(2.0 * q[sigma] - np.dot(q, q))


def expected_score(p, q, rule):
    score = log_score if rule == "log" else quadratic_score
    return sum(pi * score(i, q) for i, pi in enumerate(p) if pi > 0)


def bregman_divergence(p, q, rule):
    return expected_score(p, p, rule) - expected_score(p, q, rule)


def bregman_mi(table, rule):
    mx = row_sums(table)
    prior_y = col_sums(table)
    total = 0.0
    for x, row in enumerate(table):
        if mx[x] <= 0:
            continue
        posterior = [c / mx[x] for c in row]
        total += mx[x] * bregman_divergence(posterior, prior_y, rule)
    return total


def agreement_reward(table):
    """sum_s (Pr[s,s] - Pr_row[s] Pr_col[s])."""
    mx, my = row_sums(table), col_sums(table)
    return sum(table[s][s] - mx[s] * my[s] for s in range(len(table)))


def world_model_atoms(state_probs, states):
    """8-atom style enumeration: Pr[w, sig_i, sig_j] for iid signals given w."""
    atoms = {}
    for w, pw in enumerate(state_probs):
        for si, psi in enumerate(states[w]):
            for sj, psj in enumerate(states[w]):
                atoms[(w, si, sj)] = pw * psi * psj
    return atoms


def bts_truth_information_score(state_probs, states):
    """I(W; signal_i | signal_j) by direct enumeration over the atom table."""
    atoms = world_model_atoms(state_probs, states)
    m = len(states[0])
    k = len(state_probs)
    total = 0.0
    for sj in range(m):
        pz = sum(atoms[(w, si, sj)] for w in range(k) for si in range(m))
        if pz <= 0:
            continue
        for w in range(k):
            for si in range(m):
                a = atoms[(w, si, sj)] / pz
                if a <= 0:
                    continue
                pw = sum(atoms[(w, s, sj)] for s in range(m)) / pz
                psig = sum(atoms[(u, si, sj)] for u in range(k)) / pz
                total += pz * a * math.log(a / (pw * psig))
    return total


# ---------------------------------------------------------------------------
# Reference routes: the loop implementations that the library's merged and
# batched engines replaced, kept as they were.  The ``loop_`` routes below
# are the per-pair, per-row and per-cell loops that the stacked pair-table
# kernels replaced; they call each other (never the kernels), so a test of a
# kernel against them compares two independent routes.  Tests demand exact
# equality from the md/ca and strategy-sampler routes (same floats, same rng
# stream) and agreement to 1e-12 from the pair-table routes, whose sums run
# in a different order.
# ---------------------------------------------------------------------------


def loop_f_divergence_raw(p: np.ndarray, q: np.ndarray, f: ConvexGenerator) -> float:
    p = p.reshape(-1)
    q = q.reshape(-1)
    total = 0.0
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0.0 and qi > 0.0:
            total += pi * f_value(f.value, qi / pi)
        elif pi > 0.0:
            edge = f.at_zero
            if edge == math.inf:
                return math.inf
            total += pi * edge
        elif qi > 0.0:
            slope = f.slope_at_infinity
            if slope == math.inf:
                return math.inf
            total += qi * slope
    return total


def loop_f_mutual_information(joint: JointDistribution, f: ConvexGenerator) -> float:
    table = joint._require_pairwise("f_mutual_information")
    v = product_of_marginals(joint).table
    # V[x,y] = 0 forces a zero marginal, hence U[x,y] = 0: the p>0,q=0 edge
    # (infinite for KL) is unreachable in this orientation.
    assert not np.any((table > 0.0) & (v <= 0.0))
    return loop_f_divergence_raw(table, v, f)


def loop_expected_score(truth: Distribution, report: Distribution, rule: ScoringRule) -> float:
    p, q = truth.weights, report.weights
    if rule is ScoringRule.LOG:
        support = p > 0.0
        if np.any(q[support] <= 0.0):
            raise LogOfZero("report assigns zero mass where truth is positive")
        return float(np.dot(p[support], np.log(q[support])))
    return float(2.0 * np.dot(p, q) - np.dot(q, q))


def loop_bregman_divergence(p: Distribution, q: Distribution, rule: ScoringRule) -> float:
    return loop_expected_score(p, p, rule) - loop_expected_score(p, q, rule)


def loop_bregman_mi(joint: JointDistribution, rule: ScoringRule) -> float:
    table = joint._require_pairwise("bregman_mi")
    mx = table.sum(axis=1)
    prior_y = Distribution(table.sum(axis=0))
    total = 0.0
    for x in range(table.shape[0]):
        px = float(mx[x])
        if px <= 0.0:
            continue
        posterior = Distribution(table[x] / px)
        try:
            total += px * loop_bregman_divergence(posterior, prior_y, rule)
        except LogOfZero as exc:
            # posterior support always lies inside the Y-marginal support
            raise InadmissibleSupport(str(exc)) from exc
    return total


def loop_mutual_information(joint: JointDistribution, measure) -> float:
    if isinstance(measure, ConvexGenerator):
        return loop_f_mutual_information(joint, measure)
    if isinstance(measure, ScoringRule):
        return loop_bregman_mi(joint, measure)
    raise TypeError(f"unsupported measure {measure!r}")


def loop_conditional_mi(tensor: JointDistribution, measure) -> float:
    t = tensor._require_conditional("conditional_mi")
    pz = z_marginal(tensor).weights
    total = 0.0
    for z in range(t.shape[0]):
        if pz[z] <= 0.0:
            continue
        slice_joint = condition_on(tensor, z)
        total += float(pz[z]) * loop_mutual_information(slice_joint, measure)
    return total


def loop_pair_table(prior, i: int, j: int) -> np.ndarray:
    """Prior signal-pair table of agents (i, j), one prior mode at a time."""
    if isinstance(prior, PairwisePrior):
        return prior.joint.table if i < j else prior.joint.table.T
    if isinstance(prior, FullJointPrior):
        axes = tuple(k for k in range(prior.n_agents) if k not in (i, j))
        table = prior.tensor.sum(axis=axes)
        return table.T if i > j else table
    assert isinstance(prior, WorldModelPrior)
    table = np.zeros((prior.alphabet_size, prior.alphabet_size))
    for pw, omega in zip(prior.state_probs.weights, prior.states):
        table += float(pw) * np.outer(omega.weights, omega.weights)
    return table


def loop_report_joint(prior, i, j, s_i, s_j, eff_i=None, eff_j=None) -> JointDistribution:
    eff_i = eff_i or FULL_EFFORT
    eff_j = eff_j or FULL_EFFORT
    q = loop_pair_table(prior, i, j)
    m = q.shape[0]
    a = s_i.channel.rows
    b = s_j.channel.rows
    if a.shape[0] != m or b.shape[0] != m:
        raise DimensionMismatch("strategy alphabet differs from prior alphabet")
    li, lj = eff_i.full_effort_prob, eff_j.full_effort_prob
    xi = eff_i.resolve_no_effort(a.shape[1]).weights
    xj = eff_j.resolve_no_effort(b.shape[1]).weights
    mi = a.T @ q.sum(axis=1)  # agent i's full-effort report marginal
    mj = b.T @ q.sum(axis=0)
    table = (
        li * lj * (a.T @ q @ b)
        + li * (1.0 - lj) * np.outer(mi, xj)
        + (1.0 - li) * lj * np.outer(xi, mj)
        + (1.0 - li) * (1.0 - lj) * np.outer(xi, xj)
    )
    return JointDistribution(table)


def mixture_report_tables(a, b, q, li, lj, xi, xj) -> np.ndarray:
    """``agents._report_tables`` as it was before each agent's effort was folded into her
    channel: the four-way mixture over the effort coins, written out term by term.

    ``a`` (..., m, m') is agent i's channel and ``xi`` (..., m') its no-effort weights;
    ``b`` (..., k, m, m'), ``q`` (..., k, m, m) and ``xj`` (..., k, m') hold one channel,
    signal-pair table and no-effort weights per reference agent.  ``li`` and ``lj`` are
    the effort probabilities, broadcast against the (..., k, m', m') result.  Leading axes
    broadcast against one another, ``a`` and ``xi`` carrying a unit reference axis.
    """
    at = a.swapaxes(-1, -2)
    mi = at @ q.sum(axis=-1)[..., :, None]  # full-effort report marginals: a column
    mj = q.sum(axis=-2)[..., None, :] @ b  # and a row
    xi, xj = xi[..., :, None], xj[..., None, :]
    tables = (
        li * lj * (at @ q @ b)
        + li * (1.0 - lj) * (mi * xj)
        + (1.0 - li) * lj * (xi * mj)
        + (1.0 - li) * (1.0 - lj) * (xi * xj)
    )
    return _validated_tables(tables / tables.shape[-3], rank=3)


def loop_empirical_pair_joint(reports, i: int, j: int) -> JointDistribution:
    shared = reports.mask[i] & reports.mask[j]
    total = int(shared.sum())
    if total == 0:
        raise NoOverlap(f"agents {i} and {j} share no answered question")
    m = reports.alphabet_size
    counts = np.zeros((m, m))
    np.add.at(counts, (reports.entries[i, shared], reports.entries[j, shared]), 1.0)
    return JointDistribution(counts / total)


def loop_empirical_mi_payments(reports, measure, pairing, seed, mechanism) -> PaymentReport:
    n = reports.n_agents
    refs = _reference_sets(n, pairing, seed)
    payments = np.zeros(n)
    for i in range(n):
        vals = [
            loop_mutual_information(loop_empirical_pair_joint(reports, i, j), measure)
            for j in refs[i]
        ]
        payments[i] = float(np.mean(vals))
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        measure=measure.value,
        seed=seed,
        metadata={"pairing": pairing, "T": reports.n_questions},
    )


def loop_ca_expected_reward(pair: JointDistribution) -> float:
    table = pair._require_pairwise("ca_expected_reward")
    mi = table.sum(axis=1)
    mj = table.sum(axis=0)
    return float(np.trace(table) - np.dot(mi, mj))


def _prediction_tables(known_prior):
    """The mechanism's prior prediction q and per-signal posteriors q_sigma."""
    table = known_prior.joint.table
    q = Distribution(table.sum(axis=0))
    posteriors = []
    for sigma in range(table.shape[0]):
        row_mass = float(table[sigma].sum())
        if row_mass <= 0.0:
            posteriors.append(None)
        else:
            posteriors.append(Distribution(table[sigma] / row_mass))
    return q, posteriors


def sppm_payments(signals, known_prior, rule, pairing=ALL_PAIRS, seed=None):
    sig = np.asarray(signals, dtype=np.intp)
    n = sig.shape[0]
    q, posteriors = _prediction_tables(known_prior)
    refs = _reference_sets(n, pairing, seed)
    payments = np.zeros(n)
    for i in range(n):
        vals = []
        for j in refs[i]:
            post = posteriors[sig[i]]
            if post is None:
                raise LogOfZero(f"prior assigns zero mass to reported signal {sig[i]}")
            vals.append(loop_score(rule, int(sig[j]), post) - loop_score(rule, int(sig[j]), q))
        payments[i] = float(np.mean(vals))
    return PaymentReport(
        mechanism="sppm",
        mode="empirical",
        payments=payments,
        measure=rule.value,
        seed=seed,
        metadata={"pairing": pairing},
    )


def mip_expected_payments(scenario, measure):
    n = scenario.n_agents
    payments = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            joint = loop_report_joint(
                scenario.prior,
                i,
                j,
                scenario.strategies[i],
                scenario.strategies[j],
                scenario.effort(i),
                scenario.effort(j),
            )
            payments[i] += loop_mutual_information(joint, measure)
        payments[i] /= n - 1
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


def effort_utility(prior, n: int, m: int, lam: float, cost: float, gen, active=None) -> float:
    """Truthful agent 0's utility as ``mip_expected_payments`` gives it, payment - lam * cost,
    when it invests with probability lam and its first ``active`` peers (default: all) do;
    one scenario per effort level, as the effort suite built them before it paid a grid
    from one stack."""
    peers = [EffortStrategy(1.0 if active is None or k < active else 0.0) for k in range(n - 1)]
    scn = Scenario(prior, tuple(truth_telling(m) for _ in range(n)),
                   (EffortStrategy(lam, cost), *peers))
    return float(mechanisms.mip_expected_payments(scn, gen).payments[0]) - lam * cost


def agent_pair_tables(prior, i: int, refs) -> np.ndarray:
    """Signal-pair tables of agent i (rows) with each agent of ``refs``, (len(refs), m, m): the
    per-agent bodies of the three prior modes, as they were before one body per mode took a
    block of agents over a stack of priors."""
    refs = np.asarray(refs)
    if isinstance(prior, FullJointPrior):
        n, m = prior.n_agents, prior.alphabet_size
        for j in refs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"bad agent pair ({i}, {j})")
        return np.stack([
            np.moveaxis(prior.tensor, (i, j), (0, 1)).reshape(m, m, -1).sum(axis=-1) for j in refs
        ])
    if np.any(refs == i):
        raise DimensionMismatch("a pair joint needs two distinct agents")
    if isinstance(prior, PairwisePrior):
        table = prior.joint.table
        return np.where((refs > i)[:, None, None], table, table.T)
    omega = np.stack([s.weights for s in prior.states])
    table = (prior.state_probs.weights[:, None, None]
             * (omega[:, :, None] * omega[:, None, :])).sum(axis=0)
    return np.broadcast_to(table, (len(refs),) + table.shape)


def scenario_stack_joints(scenarios):
    """Per block of agents, the exact joints of a list of scenarios of one (n, m), shaped
    (scenarios, agents in the block, n-1, m, m), as ``mechanisms._exact_joints`` built them
    from the scenario objects before it took arrays: per (scenario, agent) one
    :func:`agent_pair_tables` call, one report-table call per block."""
    n, m = scenarios[0].n_agents, scenarios[0].alphabet_size
    refs = np.array(_reference_sets(n, ALL_PAIRS, None), dtype=np.intp)
    efforts = [[s.effort(i) for i in range(n)] for s in scenarios]
    channels = np.array([[st.channel.rows for st in s.strategies] for s in scenarios])
    probs = np.array([[e.full_effort_prob for e in row] for row in efforts])[..., None, None]
    lazy = np.array([[e.resolve_no_effort(m).weights for e in row] for row in efforts])
    rows = agents._effort_rows(channels, probs, lazy)
    block = max(agents.COUNT_CELLS // (len(scenarios) * refs.shape[1] * m * m), 1)
    for own in np.array_split(np.arange(n), range(block, n, block)):
        q = np.array([[agent_pair_tables(s.prior, i, refs[i]) for i in own] for s in scenarios])
        yield agents._report_tables(rows[:, own, None], rows[:, refs[own]], q)


def twin_route(scenario: Scenario, maps):
    """The scenario-equivalence suite's twins under each of ``maps`` (T, n, m) as objects, one
    per map list through the permutation-matrix route (:func:`matrix_permute_scenario`), the
    (T, n, n-1, m, m) exact joints of the twin objects from :func:`scenario_stack_joints`, and
    under a world model one :func:`object_world_tensor` per twin, stacked (else None)."""
    twins = [matrix_permute_scenario(scenario, p) for p in maps]
    tables = np.concatenate(list(scenario_stack_joints(twins)), axis=1)
    tensors = None
    if isinstance(scenario.prior, WorldModelPrior):
        tensors = np.stack([object_world_tensor(t.prior, t.strategies).table for t in twins])
    return twins, tables, tensors


def object_world_tensor(prior: WorldModelPrior, strategies) -> JointDistribution:
    """``world_tensor`` of a strategy profile as it was before one body took a stack of worlds,
    from arrays stacked one state (and one channel) at a time."""
    omega = np.stack([s.weights for s in prior.states], axis=1)[:, :, None]
    mats = np.stack([s.channel.rows for s in strategies])
    omega_hat = (np.stack([s.weights for s in prior.states]) @ mats).mean(axis=0)
    return JointDistribution(prior.state_probs.weights[:, None] * (omega * omega_hat))


def exact_joints(scenario: Scenario):
    """Per block of agents, the exact (J, report_i, report_J) tables of one scenario, shaped
    (agents in the block, n-1, m, m), one report-table call per block of about
    ``agents.COUNT_CELLS`` cells, as the exact engines built them before they took a stack
    of scenarios."""
    n, m, prior = scenario.n_agents, scenario.alphabet_size, scenario.prior
    refs = np.array(_reference_sets(n, ALL_PAIRS, None), dtype=np.intp)
    efforts = [scenario.effort(i) for i in range(n)]
    channels = np.stack([s.channel.rows for s in scenario.strategies])
    probs = np.array([e.full_effort_prob for e in efforts])[:, None, None]
    lazy = np.stack([e.resolve_no_effort(m).weights for e in efforts])
    rows = agents._effort_rows(channels, probs, lazy)
    block = max(agents.COUNT_CELLS // (refs.shape[1] * m * m), 1)
    for own in np.array_split(np.arange(n), range(block, n, block)):
        q = np.stack([agent_pair_tables(prior, i, refs[i]) for i in own])
        yield agents._report_tables(rows[own, None], rows[refs[own]], q)


def stacked_exact_joints(scenarios) -> np.ndarray:
    """Every agent's exact joints in each scenario, one scenario at a time, as one
    (scenarios, n, n-1, m, m) stack: the scenario-equivalence suite's route before
    ``mechanisms._exact_joints`` took the scenario and its twins in one call."""
    return np.stack([np.concatenate(list(exact_joints(s))) for s in scenarios])


def equivalence_payment_vectors(scenario: Scenario, kernels: dict) -> dict:
    """Exact per-agent payments of every exact evaluator of the scenario-equivalence suite
    (``kernels``, plus the idealized bts scores under a world model), one scenario at a time,
    as the suite paid the scenario and each twin before it paid them as one stack."""
    tables = list(exact_joints(scenario))
    out = {name: mechanisms._peer_means(tables, kernel) for name, kernel in kernels.items()}
    if isinstance(scenario.prior, WorldModelPrior):
        n = scenario.n_agents
        scores = mechanisms.bts_idealized_scores(scenario.prior, scenario.strategies)
        out["bts-idealized-information"] = np.full(n, scores.information_score)
        out["bts-idealized-prediction"] = np.full(n, scores.prediction_score)
    return out


def sppm_expected_payments(scenario, known_prior, rule):
    q, posteriors = _prediction_tables(known_prior)
    n = scenario.n_agents
    payments = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            rj = loop_report_joint(
                scenario.prior,
                i,
                j,
                scenario.strategies[i],
                scenario.strategies[j],
                scenario.effort(i),
                scenario.effort(j),
            ).table
            val = 0.0
            for a in range(rj.shape[0]):
                mass_a = float(rj[a].sum())
                if mass_a <= 0.0:
                    continue
                if posteriors[a] is None:
                    raise LogOfZero(f"prior assigns zero mass to reported signal {a}")
                for b in range(rj.shape[1]):
                    if rj[a, b] <= 0.0:
                        continue
                    val += rj[a, b] * (loop_score(rule, b, posteriors[a]) - loop_score(rule, b, q))
            payments[i] += val
        payments[i] /= n - 1
    return PaymentReport(
        mechanism="sppm", mode="exact", payments=payments, measure=rule.value
    )


def agreement_expected(scenario):
    """The scenario-equivalence suite's former per-agent agreement loop."""
    n = scenario.n_agents
    agree = np.zeros(n)
    for i in range(n):
        vals = [
            loop_ca_expected_reward(
                loop_report_joint(scenario.prior, i, j, scenario.strategies[i],
                                  scenario.strategies[j], scenario.effort(i), scenario.effort(j))
            )
            for j in range(n) if j != i
        ]
        agree[i] = float(np.mean(vals))
    return agree


def _draw_disjoint_subsets(rng, own, peer, k, d):
    """The per-question draw the md/ca engines used before they drew a pair's
    subsets at once: A from own \\ {k}, then B from peer \\ ({k} u A), both of
    size d, or None when either pool is smaller than d."""
    pool_a = own[own != k]
    if pool_a.size < d:
        return None
    a = rng.choice(pool_a, size=d, replace=False)
    exclude = set(a.tolist()) | {int(k)}
    pool_b = np.array([q for q in peer.tolist() if q not in exclude], dtype=np.intp)
    if pool_b.size < d:
        return None
    b = rng.choice(pool_b, size=d, replace=False)
    return a, b


def comparison_subsets(rng, own, peer, shared, d):
    """One pair's subsets through ``mechanisms._draw_subsets``, with the same calls
    as the engine, but each row's holes built from Python sets: k's position in
    own for A; the positions in peer of {k} u A for B.  Returns, per shared
    question, A and then B (None when the row has no B)."""
    own_list, peer_list = own.tolist(), peer.tolist()
    a = _draw_subsets(rng, own, np.array([[own_list.index(k)] for k in shared.tolist()]), d)
    holes = []
    for k, row in zip(shared.tolist(), a.tolist()):
        blocked = sorted(p for p, q in enumerate(peer_list) if q == k or q in row)
        holes.append(blocked + [peer.size] * (d + 1 - len(blocked)))
    ok = [peer.size - sum(p < peer.size for p in row) >= d for row in holes]
    valid = np.array([row for row, good in zip(holes, ok) if good], dtype=np.intp)
    b = iter(_draw_subsets(rng, peer, valid.reshape(-1, d + 1), d))
    return [(row, next(b) if good else None) for row, good in zip(a, ok)]


def _subset_payments(reports, d, seed, pairing, mechanism):
    """md/ca payments question by question, with the subsets of
    :func:`comparison_subsets` and the per-question reward formulas."""
    n = reports.n_agents
    refs = _reference_sets(n, pairing, seed)
    rng = rng_from_seed(seed, 1 if mechanism == "md" else 2)
    payments = np.zeros(n)
    for i in range(n):
        per_ref = []
        for j in refs[i]:
            own = reports.answered(i)
            peer = reports.answered(j)
            shared = np.intersect1d(own, peer)
            rewards = [0.0] * shared.size
            if shared.size and own.size - 1 >= d:
                picks = comparison_subsets(rng, own, peer, shared, d)
                rows = sum(b is not None for _, b in picks)
                if mechanism == "ca":
                    cols_a = rng.integers(d, size=rows)
                    cols_b = rng.integers(d, size=rows)
                r = 0
                for q, (k, (a, b)) in enumerate(zip(shared.tolist(), picks)):
                    if b is None:
                        continue
                    if mechanism == "md":
                        si = float(reports.entries[i, k])
                        sj = float(reports.entries[j, k])
                        abar = float(reports.entries[i, a].mean())
                        bbar = float(reports.entries[j, b].mean())
                        agree = si * sj + (1.0 - si) * (1.0 - sj)
                        base = abar * bbar + (1.0 - abar) * (1.0 - bbar)
                    else:
                        la = int(a[cols_a[r]])
                        lb = int(b[cols_b[r]])
                        agree = float(reports.entries[i, k] == reports.entries[j, k])
                        base = float(reports.entries[i, la] == reports.entries[j, lb])
                    rewards[q] = agree - base
                    r += 1
            per_ref.append(float(np.mean(rewards)) if rewards else 0.0)
        payments[i] = float(np.mean(per_ref))
    return PaymentReport(
        mechanism=mechanism,
        mode="empirical",
        payments=payments,
        seed=seed,
        metadata={"d": d, "pairing": pairing, "T": reports.n_questions},
    )


def md_payments(reports, d, seed, pairing=ALL_PAIRS):
    if reports.alphabet_size != 2:
        raise NonBinaryAlphabet("this mechanism is binary-only")
    return _subset_payments(reports, d, seed, pairing, "md")


def ca_payments(reports, d, seed, pairing=ALL_PAIRS):
    return _subset_payments(reports, d, seed, pairing, "ca")


def random_strategy(seed, m, kind="dense"):
    rng = rng_from_seed(seed)
    return random_strategy_rng(rng, m, kind)


def random_strategy_rng(rng, m, kind):
    if kind == "dense":
        rows = rng.dirichlet(np.ones(m), size=m)
    elif kind == "sparse":
        rows = np.zeros((m, m))
        for r in range(m):
            support = rng.choice(m, size=int(rng.integers(1, min(m, 2) + 1)), replace=False)
            rows[r, support] = rng.dirichlet(np.ones(support.size))
    elif kind == "permutation":
        return Strategy(permutation_channel(rng.permutation(m)), label="permutation")
    elif kind == "constant":
        rows = np.tile(rng.dirichlet(np.ones(m)), (m, 1))
    else:
        raise DimensionMismatch(f"unknown strategy kind {kind!r}")
    return Strategy(TransitionMatrix(rows), label=kind)


def dirichlet_floored(rng, shape: tuple, floor_frac: float = sampling._FLOOR_FRAC) -> np.ndarray:
    """``sampling._floored`` as it drew its table with one ``rng.dirichlet``."""
    t = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    return (1.0 - floor_frac) * t + floor_frac / t.size


def dirichlet_channel_rows(rng, m_in: int, m_out: int | None = None, kind: str | None = None,
                           floor_frac: float = sampling._FLOOR_FRAC) -> np.ndarray:
    """``sampling._channel_rows`` as it drew dense and sparse rows with ``rng.dirichlet`` and
    tiled the constant row."""
    m_out = m_in if m_out is None else m_out
    kind = kind or choice_strategy_kind(rng)
    if kind == "permutation" and m_in != m_out:
        kind = "sparse"
    if kind == "dense":
        rows = rng.dirichlet(np.ones(m_out), size=m_in)
        rows = (1.0 - floor_frac) * rows + floor_frac / m_out
    elif kind == "constant":
        rows = np.tile(dirichlet_floored(rng, (m_out,), floor_frac), (m_in, 1))
    elif kind == "permutation":
        rows = np.zeros((m_in, m_out))
        rows[np.arange(m_in), rng.permutation(m_in)] = 1.0
    elif kind == "sparse":
        rows = np.zeros((m_in, m_out))
        for r in range(m_in):
            support = rng.choice(m_out, size=int(rng.integers(1, min(m_out, 2) + 1)),
                                 replace=False)
            rows[r, support] = rng.dirichlet(np.ones(support.size))
    else:
        raise DimensionMismatch(f"unknown channel kind {kind!r}")
    return rows


def loop_ci_table(rng, mz: int, mx: int, my: int) -> np.ndarray:
    """The CI table of ``oracles.ci_table`` as it drew pz and then each z's px and py in a loop
    over z."""
    pz = dirichlet_floored(rng, (mz,))
    t = np.zeros((mz, mx, my))
    for z in range(mz):
        px = dirichlet_floored(rng, (mx,))
        py = dirichlet_floored(rng, (my,))
        t[z] = pz[z] * np.outer(px, py)
    return t


def loop_reference_sets(n: int, pairing: str, seed: RngSeed | None):
    """Per agent, the reference agents to average over; the seeded branch builds the
    list of the other agents for each agent."""
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


def _peer_frequency(
    counts: np.ndarray, signals: np.ndarray, exclude: int, sigma: int, smoothing: float
) -> float:
    m = counts.shape[0]
    count = float(counts[sigma]) - float(signals[exclude] == sigma)
    n_others = signals.shape[0] - 1
    return (count + smoothing) / (n_others + smoothing * m)


def loop_bts_payments(
    profile,
    alpha: float,
    pairing: str = ALL_PAIRS,
    seed: RngSeed | None = None,
    smoothing: float = 0.0,
) -> PaymentReport:
    """The pair loop that ``bts_payments`` replaced: per agent, per reference agent."""
    n = profile.n_agents
    if n < 3:
        raise DimensionMismatch("signal-plus-prediction scoring needs n >= 3")
    if not (math.isfinite(alpha) and math.isfinite(smoothing) and smoothing >= 0.0):
        raise DimensionMismatch("alpha must be finite, smoothing finite and >= 0")
    m = profile.alphabet_size
    sig = profile.signals
    counts = np.bincount(sig, minlength=m).astype(np.float64)
    refs = loop_reference_sets(n, pairing, seed)
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


def bts_gap_cell(world, n_agents: int, seed: int, ideal: float, alpha: float) -> float:
    """One ``sweep --kind bts-gap`` cell as the CLI drew it on its own, before it shared
    the bts suite's population draw: predictions rebuilt per cell, rng from ``seed``."""
    rng = rng_from_seed(seed)
    w = int(rng.choice(world.n_states, p=world.state_probs.weights))
    sig = rng.choice(world.alphabet_size, size=n_agents, p=world.states[w].weights)
    preds = optimal_predictions(world)
    profile = BtsReportProfile(sig, tuple(preds[s] for s in sig.tolist()))
    pay = bts_payments(profile, alpha, pairing="seeded-random-reference",
                       seed=int(rng.integers(2**31)), smoothing=0.5)
    return abs(float(pay.information_scores.mean()) - ideal)


def matrix_permute_scenario(scenario: Scenario, maps) -> Scenario:
    """``permute_scenario`` through permutation matrices, as it was written before
    relabelings became index maps: one ``permutation_channel`` per map, read back
    into an index map by argmax."""
    idx = [np.argmax(permutation_channel(row).rows, axis=1) for row in maps]
    prior = scenario.prior
    if isinstance(prior, FullJointPrior):
        prior = FullJointPrior(prior.tensor[np.ix_(*idx)].copy())
    elif not all(np.array_equal(idx[0], p) for p in idx[1:]):
        raise UnsupportedPriorMode("pairwise and world-model priors need one shared map")
    elif isinstance(prior, PairwisePrior):
        p = idx[0]
        prior = PairwisePrior(JointDistribution(prior.joint.table[np.ix_(p, p)].copy()),
                              prior.symmetric)
    else:
        p = idx[0]
        prior = WorldModelPrior(prior.state_probs,
                                tuple(Distribution(s.weights[p].copy()) for s in prior.states))
    strategies = tuple(Strategy(TransitionMatrix(s.channel.rows[p, :].copy()), s.label)
                       for s, p in zip(scenario.strategies, idx))
    return Scenario(prior, strategies, scenario.efforts)


def matrix_inverse_maps(maps) -> list:
    """The inverse relabeling, read from the transposed permutation matrices."""
    return [np.argmax(permutation_channel(row).rows.T, axis=1).tolist() for row in maps]


def bregman_quasi_instance(rec, config, idx: int, rng) -> None:
    """One bregman-quasi instance, drawn with ``rng.dirichlet`` and checked on its own, as the
    suite ran before its check was stacked over a chunk of instances."""
    tol, stol = config.equality_tol, config.strictness_tol
    mx = int(rng.choice(_ALPHABET_SIZES))
    my = int(rng.choice(_ALPHABET_SIZES))
    joint = JointDistribution(dirichlet_floored(rng, (mx, my)))
    rule = sampling.random_rule_choice(rng)
    channel = TransitionMatrix(dirichlet_channel_rows(rng, mx))
    before = measures.bregman_mi(joint, rule)
    after = measures.bregman_mi(push_first(joint, channel), rule)
    data = {"joint": _jl(joint.table), "channel": _jl(channel.rows), "rule": rule.value,
            "before": before, "after": after}
    rec.check("bmi_first_entry_dpi", "inequality", after <= before + tol, idx, lambda: data)
    if channel.is_identity:
        rec.check("identity_equality", "equality", abs(after - before) <= 1e-12, idx, lambda: data)
    bridge_gap = abs(measures.bregman_mi(joint, ScoringRule.LOG) - measures.shannon_mi(joint))
    rec.check("log_bridge", "equality", bridge_gap <= tol, idx,
              lambda: {"joint": _jl(joint.table), "gap": bridge_gap})
    y_channel = TransitionMatrix(dirichlet_channel_rows(rng, my))
    after_y = measures.bregman_mi(push_second(joint, y_channel), rule)
    if after_y > before + stol:
        rec.finding({
            "kind": "second_entry_increase",
            "instance": idx,
            "joint": _jl(joint.table),
            "y_channel": _jl(y_channel.rows),
            "rule": rule.value,
            "before": before,
            "after": after_y,
        })


def accuracy_gain_instance(rec, config, idx: int, rng) -> None:
    """One accuracy-gain instance, drawn with ``rng.dirichlet`` and checked on its own, as the
    suite ran before its check was stacked over a chunk of instances."""
    tol = config.equality_tol
    mz = int(rng.choice(_ALPHABET_SIZES))
    mx = int(rng.choice(_ALPHABET_SIZES))
    my = int(rng.choice(_ALPHABET_SIZES))
    if idx % 3 == 1:
        tensor = JointDistribution(loop_ci_table(rng, mz, mx, my))
    else:
        tensor = JointDistribution(dirichlet_floored(rng, (1 if idx % 5 == 2 else mz, mx, my)))
    lhs = measures.log_score_accuracy_gain(tensor)
    rhs = measures.conditional_mi(tensor, ConvexGenerator.KL)
    data = {"tensor": _jl(tensor.table), "accuracy_gain": lhs, "conditional_mi": rhs}
    rec.check("gain_equals_information", "equality", abs(lhs - rhs) <= tol, idx, lambda: data)
    if idx % 3 == 1:
        rec.check("ci_tensor_zero", "equality", abs(rhs) <= tol, idx, lambda: data)
    if idx % 5 == 2 and idx % 3 != 1:
        flat = measures.shannon_mi(JointDistribution(tensor.table[0] / tensor.table[0].sum()))
        rec.check("degenerate_z_unconditional", "equality", abs(rhs - flat) <= tol, idx,
                  lambda: data)


def shape_rule_bregman_quasi_check(group: list) -> tuple:
    """``verify._bregman_quasi_check`` as it ran on a group with one joint shape, one rule and
    one Y channel shape, before it took one group per joint shape and picked each instance's
    rule from the BMI of one stack of joints and pushes per rule."""
    joints = _validated_tables(np.stack([d[0] for d in group]), rank=2)
    channels = _validated_tables(np.stack([d[2] for d in group]), rank=1)
    y_channels = _validated_tables(np.stack([d[3] for d in group]), rank=1)
    rule = group[0][1]
    before = measures._bregman_mi(joints, rule)
    after = measures._bregman_mi(_validated_tables(_push_first(joints, channels), rank=2), rule)
    log_bmi = before if rule is ScoringRule.LOG else measures._bregman_mi(joints, ScoringRule.LOG)
    bridge_gap = np.abs(log_bmi - measures._shannon_mi(joints))
    after_y = measures._bregman_mi(_validated_tables(joints @ y_channels, rank=2), rule)
    return before, after, _identity_mask(channels), bridge_gap, after_y


def effort_instance(rec, config, idx: int, rng) -> None:
    """One effort instance, drawn with ``rng.dirichlet`` and paid from stacks of one
    instance, as the suite ran before it drew raw arrays and paid each group of a chunk
    from one stack."""
    tol = config.equality_tol
    m = sampling._pick(rng, _ALPHABET_SIZES)
    n = sampling._pick(rng, _AGENT_COUNTS)
    table = sampling._symmetrized(dirichlet_floored(rng, (m, m)))
    prior = PairwisePrior(JointDistribution(table))
    gen = sampling.random_generator_choice(rng)
    full_mi = measures.mutual_information(prior.pair_joint(0, 1), gen)
    cost = float(rng.uniform(0.0, 1.5 * max(full_mi, 1e-3)))
    q = agent_pair_tables(prior, 0, range(1, n))
    pay, payments = (measures._slice_mean(t, measures._mi_kernel(gen))[:, 0]
                     for t in verify._effort_tables(q[None]))
    utils = (pay - verify._EFFORT_GRID * cost).tolist()
    data = {"prior": _jl(prior.joint.table), "measure": gen.value, "cost": cost,
            "grid_utilities": utils}
    rec.check("pure_effort_optimal", "inequality",
              max(utils) <= max(utils[0], utils[-1]) + 1e-12, idx, lambda: data)

    # effort monotonicity: payment under truth as peers join full effort
    payments = payments.tolist()
    monotone = all(b <= a + tol for a, b in zip(payments[1:], payments))
    rec.check("effort_monotone", "inequality", monotone, idx,
              lambda: {"payments_by_active_peers": payments, **data})

    # mixture convexity of the information measure
    lam = float(rng.uniform(0.0, 1.0))
    rows = TransitionMatrix(dirichlet_channel_rows(rng, m, None, None, 0.0)).rows
    li = np.array([1.0, 0.0, lam])[:, None, None, None]  # agent 0 at effort 1, 0 and lam
    mixed = agents._effort_rows(rows, li, uniform_distribution(m).weights)
    j_full, j_none, j_mix = joints = agents._report_tables(mixed, np.eye(m), q[:1])[:, 0]
    mix_table = lam * j_full + (1.0 - lam) * j_none
    rec.check("effort_mixture_law", "equality",
              float(np.max(np.abs(j_mix - mix_table))) <= 1e-12, idx, lambda: data)
    mi_full, mi_none, lhs = measures._mi_kernel(gen)(joints).tolist()
    rhs = lam * mi_full + (1.0 - lam) * mi_none
    rec.check("mixture_convexity", "inequality", lhs <= rhs + tol, idx,
              lambda: {"lam": lam, "lhs": lhs, "rhs": rhs, **data})


def md_equivalence_instance(rec, config, idx: int, rng) -> None:
    """One md-equivalence instance through the single-pair public functions, as the suite ran
    before it paid the truthful, the drawn and the flipped pair from one stack."""
    tol, stol = config.equality_tol, config.strictness_tol
    q = sampling.random_positively_correlated_binary_joint(rng)
    half_tvd = 0.5 * measures.f_mutual_information(q, ConvexGenerator.TVD)
    reward = mechanisms.ca_expected_reward(q)
    data = {"prior": _jl(q.table), "reward": reward, "half_tvd": half_tvd}
    rec.check("truth_identity", "equality", abs(reward - half_tvd) <= 1e-12, idx, lambda: data)

    s1 = sampling.random_mixed_strategy(rng, 2)
    s2 = sampling.random_mixed_strategy(rng, 2)
    r = report_joint(PairwisePrior(q, symmetric=False), 0, 1, s1, s2)
    r_reward = mechanisms.ca_expected_reward(r)
    r_half = 0.5 * measures.f_mutual_information(r, ConvexGenerator.TVD)
    sdata = {"prior": _jl(q.table), "s1": _jl(s1.channel.rows), "s2": _jl(s2.channel.rows),
             "reward": r_reward, "half_tvd": r_half}
    rec.check("strategy_upper_bound", "inequality", r_reward <= r_half + tol, idx, lambda: sdata)
    rec.check("processing_chain", "inequality", r_half <= half_tvd + tol, idx, lambda: sdata)

    # anti-correlating one agent flips the correlation sign: strict gap
    flipped = report_joint(
        PairwisePrior(q, symmetric=False), 0, 1,
        Strategy(TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))), truth_telling(2),
    )
    gap = (0.5 * measures.f_mutual_information(flipped, ConvexGenerator.TVD)
           - mechanisms.ca_expected_reward(flipped))
    if gap > stol:
        rec.margin(gap)

    if idx % verify._MONTE_CARLO_EVERY == 0:
        expected = mechanisms.ca_expected_reward(q)
        scn = Scenario(PairwisePrior(q, symmetric=False), (truth_telling(2), truth_telling(2)))
        reps = verify._MONTE_CARLO_REPS
        md_samples, ca_samples = [], []
        for rep_i in range(reps):
            reports = generate_reports(scn, 300, seed=(config.seed + 1) * 7919 + idx * 97 + rep_i)
            md_samples.append(float(
                mechanisms.md_payments(reports, 2, seed=idx * 97 + rep_i).payments[0]))
            ca_samples.append(float(
                mechanisms.ca_payments(reports, 2, seed=idx * 97 + rep_i).payments[0]))
        z = statistics.NormalDist().inv_cdf(0.5 + config.monte_carlo_ci / 2)
        hw_md = z * statistics.stdev(md_samples) / math.sqrt(reps)
        hw_ca = z * statistics.stdev(ca_samples) / math.sqrt(reps)
        mean_md = statistics.fmean(md_samples)
        mean_ca = statistics.fmean(ca_samples)
        mc_data = {"prior": _jl(q.table), "expected": expected,
                   "mean_md": mean_md, "mean_ca": mean_ca,
                   "half_width_md": hw_md, "half_width_ca": hw_ca}
        rec.check("agreement_variant_interval", "convergence",
                  abs(mean_md - mean_ca) <= hw_md + hw_ca, idx, lambda: mc_data)
        rec.finding({"kind": "expected_reward_interval", "instance": idx,
                     "covered": abs(mean_ca - expected) <= hw_ca, **mc_data})


def tensor_scores(tensor: JointDistribution, measure=ConvexGenerator.KL):
    """``bts_idealized_scores`` from an already built world tensor, as the bts suite scored
    each tensor through the public single-tensor functions."""
    return mechanisms.IdealizedBtsScores(measures.conditional_mi(tensor, measure),
                                         -measures.log_score_accuracy_gain(tensor))


def bts_instance(rec, config, idx: int, rng) -> None:
    """One bts instance, scoring the truthful and the played world tensor one at a time, as
    the suite ran before it scored both from one stack."""
    tol = config.equality_tol
    alpha = verify._BTS_ALPHA
    if idx % 2 == 0:
        world = verify.CANONICAL_WORLD
    else:
        world = sampling.random_world_model(
            rng, int(rng.integers(2, 4)), sampling._pick(rng, _ALPHABET_SIZES)
        )
    n = int(rng.integers(3, 6))
    strategies = tuple(
        sampling.random_mixed_strategy(rng, world.alphabet_size) for _ in range(n)
    )
    truth_tensor, played_tensor = world_tensor(world), world_tensor(world, strategies)
    truth, played = tensor_scores(truth_tensor), tensor_scores(played_tensor)
    data = {
        "world_state_probs": _jl(world.state_probs.weights),
        "world_states": [_jl(s.weights) for s in world.states],
        "strategies": [_jl(s.channel.rows) for s in strategies],
        "truth_info": truth.information_score,
        "played_info": played.information_score,
    }
    rec.check("information_score_ordering", "inequality",
              played.information_score <= truth.information_score + tol, idx, lambda: data)
    rec.check("prediction_negates_information", "equality",
              abs(played.prediction_score + played.information_score) <= 1e-12, idx, lambda: data)
    welfare_truth = n * (truth.prediction_score + alpha * truth.information_score)
    welfare_played = n * (played.prediction_score + alpha * played.information_score)
    rec.check("welfare_ordering", "inequality",
              welfare_played <= welfare_truth + n * (alpha - 1.0) * tol + 1e-9, idx, lambda: data)
    gen = sampling.random_generator_choice(rng)
    f_truth = measures.conditional_mi(truth_tensor, gen)
    f_played = measures.conditional_mi(played_tensor, gen)
    rec.check("f_score_ordering", "inequality", f_played <= f_truth + tol, idx,
              lambda: {**data, "generator": gen.value, "f_truth": f_truth,
                       "f_played": f_played})
    if all(s.is_permutation for s in strategies) and all(
        np.array_equal(s.channel.rows, strategies[0].channel.rows) for s in strategies[1:]
    ):
        rec.check("permutation_profile_ties", "equality",
                  abs(played.information_score - truth.information_score) <= 1e-10, idx,
                  lambda: data)


def masked_shannon_mi(table: np.ndarray) -> float:
    """Shannon MI as the single-table code summed it: one ``np.sum`` over the cells with U > 0."""
    v = np.outer(table.sum(axis=1), table.sum(axis=0))
    mask = table > 0.0
    return float(np.sum(table[mask] * np.log(table[mask] / v[mask])))


def masked_slice_mean(t: np.ndarray, per_slice) -> float:
    """The Pr[Z]-weighted slice mean as the single-tensor code summed it: one ``np.sum`` over
    the live slices of one tensor."""
    pz = t.sum(axis=(1, 2))
    live = pz > 0.0
    return float(np.sum(pz[live] * per_slice(t[live] / pz[live][:, None, None])))


def bincount_empirical_pair_joint(reports, i: int, j) -> JointDistribution:
    """``empirical_pair_joint`` as it counted before the Gram kernel: one bincount of integer
    codes (slice offset plus cell; unshared questions go past the last slice)."""
    refs = np.atleast_1d(np.asarray(j, dtype=np.intp))
    m = reports.alphabet_size
    shared = reports.mask[refs] & reports.mask[i]
    totals = shared.sum(axis=1)
    if np.any(totals == 0):
        raise NoOverlap(f"agents {i} and {refs[np.argmax(totals == 0)]} share no answered question")
    cells = refs.size * m * m
    codes = reports.entries[refs]
    codes += m * reports.entries[i]
    codes += np.arange(0, cells, m * m)[:, None]
    codes[~shared] = cells
    counts = np.bincount(codes.ravel(), minlength=cells + 1)[:cells]
    tables = counts.reshape(refs.size, m, m) / totals[:, None, None]
    return JointDistribution(tables[0] if np.ndim(j) == 0 else tables / refs.size)


def ordered_count_tables(reports, agent_list: np.ndarray, refs: np.ndarray):
    """``agents._count_tables`` as it counted before the unordered store: every requested
    (agent, reference) pair counted on its own, in agent order, with the one-hot words
    packed as (words, agents, m) and the ANDs of a step taken over (m, 1) & (1, k·m), per
    block of agents of ``agents.COUNT_CELLS`` report-pair cells (read at call time)."""
    m, k = reports.alphabet_size, refs.shape[1]
    listed, at = np.unique(np.concatenate([agent_list, refs.ravel()]), return_inverse=True)
    T = reports.n_questions
    entries, mask = reports.entries[listed], reports.mask[listed]
    packed = np.zeros((len(listed), m, -(-T // 64) * 8), dtype=np.uint8)
    for a in range(m):
        packed[:, a, :(T + 7) // 8] = np.packbits((entries == a) & mask, axis=-1)
    bits = np.ascontiguousarray(packed.view(np.uint64).transpose(2, 0, 1))
    own_at, ref_at = at[:len(agent_list)], at[len(agent_list):].reshape(refs.shape)
    cells = max(k * m * m, 1)  # per agent and word
    block = max(agents.COUNT_CELLS // cells, 1)
    for start in range(0, len(agent_list), block):
        rows, cols = own_at[start:start + block], ref_at[start:start + block]
        step = max(agents.COUNT_CELLS // (rows.size * cells), 1)
        counts = np.zeros((rows.size, m, k * m), dtype=np.uint64)
        for w in range(0, bits.shape[0], step):
            words = bits[w:w + step]
            own = np.take(words, rows, axis=1)[..., None]
            pairs = own & np.take(words, cols, axis=1).reshape(len(words), rows.size, 1, -1)
            counts += np.bitwise_count(pairs).sum(axis=0, dtype=np.uint64)
        tables = np.ascontiguousarray(counts.reshape(rows.size, m, k, m).transpose(0, 2, 1, 3))
        totals = tables.sum(axis=(-2, -1))
        if not totals.all():
            r, c = np.argwhere(totals == 0)[0]
            raise NoOverlap(f"agents {agent_list[start + r]} and {refs[start + r, c]} "
                            "share no answered question")
        yield tables / totals[..., None, None]


def gathered_inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws as the sampler took them before the column-wise count: the cumsum
    of the gathered weights, last column pinned to 1, compared as one (..., m) cube."""
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = 1.0
    return (u[..., None] > cdf).sum(axis=-1)


def gathered_generate_reports(scenario: Scenario, T: int, seed) -> np.ndarray:
    """The report entries ``generate_reports`` drew before the column-wise inverse CDF, with
    the same rng calls in the same order (T >= 1)."""
    prior, n, m = scenario.prior, scenario.n_agents, scenario.alphabet_size
    rng = rng_from_seed(seed)
    if isinstance(prior, FullJointPrior):
        flat = prior.tensor.reshape(-1)
        signals = np.array(np.unravel_index(rng.choice(flat.size, size=T, p=flat),
                                            prior.tensor.shape))
    elif isinstance(prior, WorldModelPrior):
        states = rng.choice(prior.n_states, size=T, p=prior.state_probs.weights)
        table = np.stack([s.weights for s in prior.states])
        signals = gathered_inverse_cdf(table[states], rng.random((n, T)))
    else:
        if n != 2:
            raise UnsupportedPriorMode("a pairwise prior is only generative for 2 agents")
        flat = prior.joint.table.reshape(-1)
        signals = np.array(np.unravel_index(rng.choice(flat.size, size=T, p=flat), (m, m)))
    entries = np.zeros((n, T), dtype=np.intp)
    for i in range(n):
        eff = scenario.effort(i)
        coin = rng.random(T) < eff.full_effort_prob
        u = rng.random(T)
        full = gathered_inverse_cdf(scenario.strategies[i].channel.rows[signals[i]], u)
        lazy = gathered_inverse_cdf(eff.resolve_no_effort(m).weights, u)
        entries[i] = np.where(coin, full, lazy)
    return entries


def isclose_is_permutation(arr: np.ndarray) -> bool:
    """``TransitionMatrix.is_permutation`` as two full ``np.isclose`` calls decided it."""
    if arr.shape[0] != arr.shape[1]:
        return False
    ones = np.isclose(arr, 1.0, atol=1e-12)
    zeros = np.isclose(arr, 0.0, atol=1e-12)
    return bool(np.all(ones | zeros) and np.all(ones.sum(axis=0) == 1)
                and np.all(ones.sum(axis=1) == 1))


def loop_is_fine_grained(joint: JointDistribution, tol: float = 1e-9):
    """``measures.is_fine_grained`` as one Python loop over the cell pairs decided it."""
    table = joint.table
    v = product_of_marginals(joint).table
    cells = [(x, y) for x in range(table.shape[0]) for y in range(table.shape[1])]
    for idx, (x, y) in enumerate(cells):
        if table[x, y] <= tol:
            other = cells[idx + 1] if idx + 1 < len(cells) else cells[idx - 1]
            return measures.FineGrainedReport(False, ((x, y), other))
    ratios = v / table
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            xa, ya = cells[a]
            xb, yb = cells[b]
            if abs(float(ratios[xa, ya] - ratios[xb, yb])) <= tol:
                return measures.FineGrainedReport(False, (cells[a], cells[b]))
    return measures.FineGrainedReport(True)


def loop_divergence_monotonicity_witness(p: Distribution, q: Distribution,
                                         theta: TransitionMatrix, tol: float = 1e-9) -> bool:
    """``measures.divergence_monotonicity_witness`` as one Python loop over the signal pairs
    decided it."""
    pw, qw, rows = p.weights, q.weights, theta.rows
    m = pw.shape[0]
    for s1 in range(m):
        if pw[s1] <= 0.0:
            continue
        for s2 in range(s1 + 1, m):
            if pw[s2] <= 0.0:
                continue
            if abs(qw[s1] / pw[s1] - qw[s2] / pw[s2]) <= tol:
                continue
            if np.any((rows[s1] > 0.0) & (rows[s2] > 0.0)):
                return True
    return False


KIND_PROBS = np.array([sampling.STRATEGY_KIND_RATIOS[k] for k in sampling._KINDS])


def choice_strategy_kind(rng) -> str:
    """``sampling.random_strategy_kind`` as one ``rng.choice`` over the kind ratios drew it."""
    return sampling._KINDS[int(rng.choice(len(sampling._KINDS), p=KIND_PROBS))]


def choice_pick(rng, seq: tuple) -> int:
    """One uniform integer of ``seq``, as the suites drew it with ``rng.choice``."""
    return int(rng.choice(seq))


def loop_score(rule: ScoringRule, signal: int, report: Distribution) -> float:
    """``ScoringRule.score`` as it scored one signal, through ``log_score`` and
    ``quadratic_score``, before its one body gave PS(b, q) for every b."""
    if not 0 <= signal < report.size:
        raise DimensionMismatch(f"signal {signal} out of range for alphabet {report.size}")
    q = report.weights
    if rule is ScoringRule.LOG:
        if q[signal] <= 0.0:
            raise LogOfZero(f"log score of zero-probability signal {signal}")
        return log_score(signal, q)
    return quadratic_score(signal, q)


def loop_score_shifts(known_prior: PairwisePrior, rule: ScoringRule) -> np.ndarray:
    """The shift table S[a, b] = PS(b, q_a) - PS(b, q) of ``mechanisms._score_shifts``, built
    one cell at a time: NaN on rows of zero mass and where a log score is undefined."""
    table = known_prior.joint.table
    q = Distribution(table.sum(axis=0))
    shift = np.full(table.shape, np.nan)
    for a, row in enumerate(table):
        if row.sum() > 0.0:
            posterior = Distribution(row / float(row.sum()))
            for b in range(q.size):
                try:
                    shift[a, b] = loop_score(rule, b, posterior) - loop_score(rule, b, q)
                except LogOfZero:
                    pass
    return shift


def loop_log_score_accuracy_gain(tensor: JointDistribution) -> float:
    """``log_score_accuracy_gain`` as it enumerated atoms one at a time."""
    t = tensor._require_conditional("log_score_accuracy_gain")
    total = 0.0
    for z in range(t.shape[0]):
        pz = float(t[z].sum())
        if pz <= 0.0:
            continue
        y_given_z = t[z].sum(axis=0) / pz
        for x in range(t.shape[1]):
            pxz = float(t[z, x].sum())
            if pxz <= 0.0:
                continue
            for y in range(t.shape[2]):
                atom = float(t[z, x, y])
                if atom <= 0.0:
                    continue
                total += atom * math.log((atom / pxz) / y_given_z[y])
    return total


def loop_reported_world_states(prior: WorldModelPrior, strategies) -> tuple:
    """``reported_world_states`` as it mixed the channels one state at a time."""
    if strategies is None:
        return prior.states
    mats = [s.channel.rows for s in strategies]
    if any(mat.shape[0] != prior.alphabet_size for mat in mats):
        raise DimensionMismatch("strategy alphabet differs from world-state alphabet")
    out = []
    for omega in prior.states:
        mixed = sum(mat.T @ omega.weights for mat in mats) / len(mats)
        out.append(Distribution(mixed))
    return tuple(out)


def loop_optimal_predictions(world: WorldModelPrior, strategies=None) -> tuple:
    """``optimal_predictions`` as it built one signal's posterior at a time."""
    reported = loop_reported_world_states(world, strategies)
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


def channel_rows(rng, m_in: int, m_out: int | None = None, kind: str | None = None,
                 floor_frac: float = sampling._FLOOR_FRAC) -> np.ndarray:
    """``sampling._channel_rows`` as it drew one channel with numpy's own bounded draws
    (``rng.integers``, ``rng.permutation``) and built its rows on its own, before the draws
    became reads that a stack builds."""
    m_out = m_in if m_out is None else m_out
    kind = kind or sampling.random_strategy_kind(rng)
    if kind == "permutation" and m_in != m_out:
        kind = "sparse"
    if kind == "dense":
        rows = sampling._floored_rows(rng.standard_exponential((m_in, m_out)), floor_frac)
    elif kind == "constant":
        rows = np.repeat(sampling._floored(rng, (1, m_out), floor_frac), m_in, axis=0)
    elif kind == "permutation":
        rows = np.zeros((m_in, m_out))
        rows[np.arange(m_in), rng.permutation(m_in)] = 1.0
    elif kind == "sparse":
        rows = np.zeros((m_in, m_out))
        for r in range(m_in):
            if rng.integers(1, min(m_out, 2) + 1) == 1:
                support = [int(rng.integers(m_out))]
            else:
                first, second = int(rng.integers(m_out - 1)), int(rng.integers(m_out))
                support = [first, m_out - 1 if second == first else second]
                if rng.integers(2) == 0:
                    support.reverse()
            e = rng.standard_exponential(len(support)).tolist()
            scale = 1.0 / (e[0] + e[1] if len(e) == 2 else e[0])
            for col, x in zip(support, e):
                rows[r, col] = x * scale
    else:
        raise DimensionMismatch(f"unknown channel kind {kind!r}")
    return rows


def ci_table(rng, mz: int, mx: int, my: int) -> np.ndarray:
    """``sampling._ci_table``, which drew one CI tensor and built it on its own, before
    ``sampling._ci_tables`` built a stack of them from their unit exponentials."""
    e = rng.standard_exponential(mz * (1 + mx + my))
    pz = sampling._floored_rows(e[:mz])
    factors = e[mz:].reshape(mz, mx + my)
    px, py = sampling._floored_rows(factors[:, :mx]), sampling._floored_rows(factors[:, mx:])
    return pz[:, None, None] * (px[:, :, None] * py[:, None, :])


def bregman_quasi_draw(rng) -> tuple:
    """``verify._bregman_quasi_draw``: one instance's raw joint, rule, X channel rows and Y
    channel rows, each table built on its own from numpy's own draws."""
    mx = sampling._pick(rng, _ALPHABET_SIZES)
    my = sampling._pick(rng, _ALPHABET_SIZES)
    joint = sampling._floored(rng, (mx, my))
    rule = sampling.random_rule_choice(rng)
    return joint, rule, channel_rows(rng, mx), channel_rows(rng, my)


def accuracy_gain_draw(rng, idx: int) -> np.ndarray:
    """``verify._accuracy_gain_draw``: one instance's raw (Z, X, Y) tensor, built on its own."""
    mz = sampling._pick(rng, _ALPHABET_SIZES)
    mx = sampling._pick(rng, _ALPHABET_SIZES)
    my = sampling._pick(rng, _ALPHABET_SIZES)
    if idx % 3 == 1:
        return ci_table(rng, mz, mx, my)
    return sampling._floored(rng, (1 if idx % 5 == 2 else mz, mx, my))


def effort_draw(rng) -> tuple:
    """``verify._effort_draw``: one instance's peer count, raw joint, generator, unit draws of
    cost and lambda and raw strategy rows, each table built on its own."""
    m = sampling._pick(rng, _ALPHABET_SIZES)
    n = sampling._pick(rng, _AGENT_COUNTS)
    joint = sampling._floored(rng, (m, m))
    gen = sampling.random_generator_choice(rng)
    cost_unit, lam = rng.random(), rng.random()
    rows = channel_rows(rng, m, None, sampling.random_strategy_kind(rng), 0.0)
    return n, joint, gen, cost_unit, lam, rows


def object_bts_profile(signals, predictions):
    """``BtsReportProfile``'s checks as they were made one object at a time: a
    ``Distribution`` per prediction (in order, so the first failing one raises), then the
    signals, one prediction per signal, one alphabet and the signal range.  Returns the
    signals and the stacked prediction weights."""
    preds = tuple(p if isinstance(p, Distribution) else Distribution(p) for p in predictions)
    sig = _integers(signals, "signals")
    if sig.ndim != 1 or sig.shape[0] != len(preds):
        raise DimensionMismatch("one prediction per reported signal")
    sizes = {p.size for p in preds}
    if len(sizes) != 1:
        raise DimensionMismatch("predictions must share one alphabet")
    if sig.size and (sig.min() < 0 or sig.max() >= sizes.pop()):
        raise DimensionMismatch("signal outside the prediction alphabet")
    return sig, np.stack([p.weights for p in preds])


def generator_effort_check(group: list) -> tuple:
    """``verify._effort_check`` as it ran on a group with one alphabet, peer count and
    generator: per instance its cost, grid utilities, payments by active peers, mixture-law
    gap and both sides of mixture convexity, with the priors, strategies and report tables of
    the group built as one stack each, here from the tables :func:`effort_draw` built alone."""
    n, gen, m = group[0][0], group[0][2], group[0][1].shape[0]
    joints = _validated_tables(np.stack([d[1] for d in group]), rank=2)
    priors = _validated_tables(sampling._symmetrized(joints), rank=2)
    rows = _validated_tables(np.stack([d[5] for d in group]), rank=1)
    cost_unit, lam = np.array([d[3] for d in group]), np.array([d[4] for d in group])
    cost = 1.5 * np.maximum(measures._mi_kernel(gen)(priors), 1e-3) * cost_unit
    q = np.broadcast_to(priors[:, None], (len(group), n - 1) + priors.shape[1:])
    pay, active = (measures._slice_mean(t, measures._mi_kernel(gen)).T
                   for t in verify._effort_tables(q))
    # agent 0 at effort 1, 0 and lam, with its mixed strategy against one truthful peer
    li = np.stack([np.ones_like(lam), np.zeros_like(lam), lam])[:, :, None, None, None]
    mixed = agents._effort_rows(rows[:, None], li, uniform_distribution(m).weights)
    j_full, j_none, j_mix = tables = agents._report_tables(mixed, np.eye(m), q[:, :1])[:, :, 0]
    w = lam[:, None, None]
    mix_gap = np.max(np.abs(j_mix - (w * j_full + (1.0 - w) * j_none)), axis=(-2, -1))
    mi_full, mi_none, lhs = measures._mi_kernel(gen)(tables)
    rhs = lam * mi_full + (1.0 - lam) * mi_none
    return cost, pay - verify._EFFORT_GRID * cost[:, None], active, mix_gap, lhs, rhs


def list_channel_read(rng, m_in: int, m_out: int | None = None, kind: str | None = None):
    """``sampling._channel_read`` as it kept one channel's draws in Python objects, before a read
    wrote them into a block of its shape's stack: a dense or constant channel's unit
    exponentials (m_in, m_out), the constant row repeated, or a permutation or sparse channel's
    cells (rows, columns, values)."""
    m_out = m_in if m_out is None else m_out
    kind = kind or sampling.random_strategy_kind(rng)
    if kind == "permutation" and m_in != m_out:
        kind = "sparse"
    if kind == "dense":
        return rng.standard_exponential((m_in, m_out))
    if kind == "constant":
        return rng.standard_exponential((1, m_out)).repeat(m_in, axis=0)
    if kind == "permutation":
        return range(m_in), rng.permutation(m_in), [1.0] * m_in
    if kind != "sparse":
        raise DimensionMismatch(f"unknown channel kind {kind!r}")
    below, widest = rng.integers, min(m_out, 2)
    rows, cols, values = [], [], []
    for r in range(m_in):
        if below(widest) == 0:
            support, e = [below(m_out)], [rng.standard_exponential()]
        else:
            first, second = below(m_out - 1), below(m_out)
            support = [first, m_out - 1 if second == first else second]
            if below(2) == 0:
                support.reverse()
            e = rng.standard_exponential(2).tolist()
        scale = 1.0 / (e[0] + e[1] if len(e) == 2 else e[0])
        rows += [r] * len(e)
        cols += support
        values += [x * scale for x in e]
    return rows, cols, values


def list_channel_stack(reads: list, m_in: int, m_out: int,
                       floor_frac: float = sampling._FLOOR_FRAC) -> np.ndarray:
    """``sampling._channel_stack`` over :func:`list_channel_read` values: all exponential tables
    floored in one pass, all cells scattered in one, and a lone read straight into its table."""
    if len(reads) == 1:
        read = reads[0]
        if type(read) is np.ndarray:
            return sampling._floored_rows(read, floor_frac)[None]
        out = np.zeros((1, m_in, m_out))
        out[0, read[0], read[1]] = read[2]
        return out
    dense, at, rows, cols, values = [], [], [], [], []
    for pos, read in enumerate(reads):
        if type(read) is np.ndarray:
            dense.append(pos)
        else:
            at += [pos] * len(read[2])
            rows.extend(read[0])
            cols.extend(read[1])
            values.extend(read[2])
    if len(dense) == len(reads):
        return sampling._floored_rows(np.array(reads), floor_frac)
    out = np.zeros((len(reads), m_in, m_out))
    if dense:
        out[dense] = sampling._floored_rows(np.array([reads[pos] for pos in dense]), floor_frac)
    out[at, rows, cols] = values
    return out


def grouped(items: list, key, check) -> list:
    """``verify._grouped``: per item, in order, its row (as Python scalars) of the arrays that
    ``check(group)`` returns for the group of items sharing its ``key``."""
    groups: dict = {}
    for pos, item in enumerate(items):
        groups.setdefault(key(item), []).append(pos)
    rows = [None] * len(items)
    for positions in groups.values():
        columns = [col.tolist() for col in check([items[p] for p in positions])]
        for pos, row in zip(positions, zip(*columns)):
            rows[pos] = row
    return rows


def list_bregman_quasi_read(rng) -> tuple:
    """``verify._bregman_quasi_read`` as it kept one instance's reads in a tuple: the joint's
    unit exponentials (mx, my), rule, and X and Y channel reads of :func:`list_channel_read`."""
    draws = sampling._Halves(rng)
    mx = sampling._pick(draws, _ALPHABET_SIZES)
    my = sampling._pick(draws, _ALPHABET_SIZES)
    joint = draws.standard_exponential((mx, my))
    rule = sampling.random_rule_choice(draws)
    return joint, rule, list_channel_read(draws, mx), list_channel_read(draws, my)


def list_bregman_quasi_check(group: list) -> tuple:
    """``verify._bregman_quasi_check`` on a group of :func:`list_bregman_quasi_read` tuples with
    one joint shape: BMI before and after each channel, whether the X channel is the identity,
    and the log bridge gap, with the BMI taken once per rule of the group."""
    mx, my = group[0][0].shape
    joints = _validated_tables(sampling._floored_tables(np.array([d[0] for d in group])), rank=2)
    channels = _validated_tables(list_channel_stack([d[2] for d in group], mx, mx), rank=1)
    y_channels = _validated_tables(list_channel_stack([d[3] for d in group], my, my), rank=1)
    pushed = _validated_tables(np.concatenate([_push_first(joints, channels),
                                               joints @ y_channels]), rank=2)
    tables = np.concatenate([joints, pushed])
    rules = list(dict.fromkeys([ScoringRule.LOG] + [d[1] for d in group]))
    bmi = np.stack([measures._bregman_mi(tables, rule).reshape(3, len(group)) for rule in rules])
    pick = [rules.index(d[1]) for d in group]
    before, after, after_y = bmi[pick, :, np.arange(len(group))].T
    bridge_gap = np.abs(bmi[0, 0] - measures._shannon_mi(joints))
    return before, after, _identity_mask(channels), bridge_gap, after_y


def chunk_bregman_quasi_instances(rec, config, chunk) -> None:
    """The bregman-quasi part of one chunk of instance indices as it ran before the reads went
    into per-shape stacks: the chunk's reads kept as tuples, one check per joint shape of the
    chunk (:func:`grouped`), and the instances recorded one by one in index order."""
    tol, stol = config.equality_tol, config.strictness_tol
    reads = [list_bregman_quasi_read(rng) for rng in _instance_rngs(config.seed, chunk)]
    checked = grouped(reads, lambda d: d[0].shape, list_bregman_quasi_check)
    for idx, (e, rule, x_read, y_read), values in zip(chunk, reads, checked):
        before, after, identity, bridge_gap, after_y = values
        mx, my = e.shape

        def joint() -> list:
            return _jl(sampling._floored_tables(e[None])[0])

        def data() -> dict:
            return {"joint": joint(), "channel": _jl(list_channel_stack([x_read], mx, mx)[0]),
                    "rule": rule.value, "before": before, "after": after}
        rec.check("bmi_first_entry_dpi", "inequality", after <= before + tol, idx, data)
        if identity:
            rec.check("identity_equality", "equality", abs(after - before) <= 1e-12, idx, data)
        rec.check("log_bridge", "equality", bridge_gap <= tol, idx,
                  lambda: {"joint": joint(), "gap": bridge_gap})
        if after_y > before + stol:
            rec.finding({
                "kind": "second_entry_increase",
                "instance": idx,
                "joint": joint(),
                "y_channel": _jl(list_channel_stack([y_read], my, my)[0]),
                "rule": rule.value,
                "before": before,
                "after": after_y,
            })


def chunk_bregman_quasi_verdict(config) -> str:
    """The bregman-quasi verdict JSON of ``config`` through :func:`chunk_bregman_quasi_instances`
    over chunks of 512 indices in order, the chunk size the route ran with."""
    rec = verify._Recorder(config)
    for start in range(0, config.instances, 512):
        chunk = list(range(start, min(start + 512, config.instances)))
        chunk_bregman_quasi_instances(rec, config, chunk)
    return rec.verdict().to_json()
