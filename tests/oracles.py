"""Independent reference implementations used to freeze expected values.

The measure oracles are written with plain Python loops and math functions,
deliberately avoiding the library's own vectorized code paths, so tests can
cross-check the two routes against each other.  The reference routes at the
end are the payment loops and strategy sampler that the library's merged
engines replaced, kept as they were.
"""

import math

import numpy as np

from peerlab.agents import (
    FULL_EFFORT,
    FullJointPrior,
    PairwisePrior,
    Strategy,
    WorldModelPrior,
)
from peerlab.errors import (
    DimensionMismatch,
    InadmissibleSupport,
    LogOfZero,
    NoOverlap,
    NonBinaryAlphabet,
)
from peerlab.measures import ConvexGenerator, ScoringRule
from peerlab.mechanisms import ALL_PAIRS, PaymentReport, _measure_name, _reference_sets
from peerlab.probability import (
    Distribution,
    JointDistribution,
    TransitionMatrix,
    condition_on,
    permutation_channel,
    product_of_marginals,
    rng_from_seed,
    z_marginal,
)


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
    return math.log(q[sigma])


def quadratic_score(sigma, q):
    return 2.0 * q[sigma] - sum(c * c for c in q)


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
        measure=_measure_name(measure),
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
            vals.append(rule.score(int(sig[j]), post) - rule.score(int(sig[j]), q))
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
        measure=_measure_name(measure),
    )


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
                    val += rj[a, b] * (rule.score(b, posteriors[a]) - rule.score(b, q))
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
    """A from own \\ {k}, then B from peer \\ ({k} u A), both of size d."""
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


def md_payments(reports, d, seed, pairing=ALL_PAIRS):
    if reports.alphabet_size != 2:
        raise NonBinaryAlphabet("this mechanism is binary-only")
    n = reports.n_agents
    refs = _reference_sets(n, pairing, seed)
    rng = rng_from_seed(seed, 1)
    payments = np.zeros(n)
    for i in range(n):
        per_ref = []
        for j in refs[i]:
            own = reports.answered(i)
            peer = reports.answered(j)
            shared = np.intersect1d(own, peer)
            rewards = []
            for k in shared:
                pick = _draw_disjoint_subsets(rng, own, peer, int(k), d)
                if pick is None:
                    rewards.append(0.0)
                    continue
                a, b = pick
                si = float(reports.entries[i, k])
                sj = float(reports.entries[j, k])
                abar = float(reports.entries[i, a].mean())
                bbar = float(reports.entries[j, b].mean())
                agree = si * sj + (1.0 - si) * (1.0 - sj)
                base = abar * bbar + (1.0 - abar) * (1.0 - bbar)
                rewards.append(agree - base)
            per_ref.append(float(np.mean(rewards)) if rewards else 0.0)
        payments[i] = float(np.mean(per_ref))
    return PaymentReport(
        mechanism="md",
        mode="empirical",
        payments=payments,
        seed=seed,
        metadata={"d": d, "pairing": pairing, "T": reports.n_questions},
    )


def ca_payments(reports, d, seed, pairing=ALL_PAIRS):
    n = reports.n_agents
    refs = _reference_sets(n, pairing, seed)
    rng = rng_from_seed(seed, 2)
    payments = np.zeros(n)
    for i in range(n):
        per_ref = []
        for j in refs[i]:
            own = reports.answered(i)
            peer = reports.answered(j)
            shared = np.intersect1d(own, peer)
            rewards = []
            for k in shared:
                pick = _draw_disjoint_subsets(rng, own, peer, int(k), d)
                if pick is None:
                    rewards.append(0.0)
                    continue
                a, b = pick
                la = int(a[int(rng.integers(a.size))])
                lb = int(b[int(rng.integers(b.size))])
                agree = float(reports.entries[i, k] == reports.entries[j, k])
                base = float(reports.entries[i, la] == reports.entries[j, lb])
                rewards.append(agree - base)
            per_ref.append(float(np.mean(rewards)) if rewards else 0.0)
        payments[i] = float(np.mean(per_ref))
    return PaymentReport(
        mechanism="ca",
        mode="empirical",
        payments=payments,
        seed=seed,
        metadata={"d": d, "pairing": pairing, "T": reports.n_questions},
    )


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
