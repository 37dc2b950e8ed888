"""Independent reference implementations used to freeze expected values.

The measure oracles are written with plain Python loops and math functions,
deliberately avoiding the library's own vectorized code paths, so tests can
cross-check the two routes against each other.  The reference routes at the
end are the payment loops and strategy sampler that the library's merged
engines replaced, kept as they were.
"""

import math

import numpy as np

from peerlab.agents import Strategy, report_joint
from peerlab.errors import DimensionMismatch, LogOfZero, NonBinaryAlphabet
from peerlab.measures import mutual_information
from peerlab.mechanisms import (
    ALL_PAIRS,
    PaymentReport,
    _measure_name,
    _prediction_tables,
    _reference_sets,
    ca_expected_reward,
)
from peerlab.probability import TransitionMatrix, permutation_channel, rng_from_seed


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
# Reference routes: the loop implementations that the library's merged
# engines replaced, kept verbatim so tests can demand exact equality
# (same floats, same rng stream) from the merged code.
# ---------------------------------------------------------------------------


def mip_expected_payments(scenario, measure):
    n = scenario.n_agents
    payments = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            joint = report_joint(
                scenario.prior,
                i,
                j,
                scenario.strategies[i],
                scenario.strategies[j],
                scenario.effort(i),
                scenario.effort(j),
            )
            payments[i] += mutual_information(joint, measure)
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
            rj = report_joint(
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
            ca_expected_reward(
                report_joint(scenario.prior, i, j, scenario.strategies[i],
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
