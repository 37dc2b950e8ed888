"""Executable verification of the framework's theorems.

Each suite draws seeded random instances, checks the claimed (in)equalities
at configured tolerances, and returns a machine-readable verdict.  A suite is
an optional global part (checks recorded at instance -1) plus an instance
part that the runner hands the instance indices in chunks.  Each instance is
drawn on its own from a generator in the state ``rng_from_seed(config.seed,
idx)`` starts in, which ``probability._instance_rngs`` sets from one
SeedSequence hash of the whole chunk's seeds (bts' global population draws take
spawn-keyed streams, which no instance stream meets); most suites then
check it alone, some on one stack per instance (scenario-equivalence of it
and its relabeled twins, md-equivalence of its three report pairs, bts of its
two world tensors), while the one-table suites (bregman-quasi, accuracy-gain)
and effort first take each instance's reads (``sampling``'s raw draws, whose
bounded draws start from the fresh generator's empty buffered half), then per
shape group of the chunk build its tables from the reads as one stack, with
the bits the public samplers give each table, validate the stack once with the
tests the validated objects would have applied, check it in one call, and
record the instances in index order; a failed claim's payload rebuilds its
instance's tables from its reads.  A table's value never
depends on the stack it is in, so instance ``idx`` stays a pure function of
``(config.seed, idx)``: verdict JSON is byte-identical across runs and any
recorded violation is replayed by re-running its one instance as a chunk of
one (``replay_violation``).  Violations also carry their witness data for
reading, which the recorder builds only for a claim that fails.  Claims that
are asymptotic in the source theory are tagged
``convergence`` rather than ``equality``.

Strictness assertions follow the proved direction only: a strict decrease is
required exactly where the witness condition holds (strictly convex
generator, square non-permutation channel on an all-ratios-separated joint),
never conversely.  ``_Recorder.strict_drop`` decides each strict claim: a drop
of a divergence or of f-MI must reach its proved Jensen bound, and exceed the
strictness tolerance only where the bound does; a payment drop must reach its
moved pair's certified drop over n - 1 peers (data processing: no other term rises).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass, asdict

import numpy as np

from . import sampling
from .agents import (
    EffortStrategy,
    FullJointPrior,
    PairwisePrior,
    Scenario,
    WorldModelPrior,
    _effort_rows,
    _inverse_maps,
    _relabel_rows,
    _report_tables,
    _reported_states,
    _world_tensors,
    generate_reports,
    scenario_to_dict,
    truth_telling,
    world_tensor,
)
from .errors import DimensionMismatch, UnknownSuite
from .measures import (
    ConvexGenerator,
    ScoringRule,
    _bregman_mi,
    _divergence_decrease_bound,
    _f_mi,
    _log_score_gains,
    _mi_kernel,
    _shannon_mi,
    _slice_mean,
    check_dpi,
    divergence_monotonicity_witness,
    f_divergence,
    is_fine_grained,
)
from .mechanisms import (
    SEEDED_RANDOM,
    BtsReportProfile,
    _agreement_rewards,
    _exact_inputs,
    _exact_joints,
    _predictive_table,
    _score_shifts,
    bts_idealized_scores,
    bts_payments,
    ca_payments,
    md_payments,
)
from .probability import (
    Distribution,
    JointDistribution,
    _identity_mask,
    _instance_rngs,
    _int_at_least,
    _push_first,
    _validated_tables,
    apply_channel,
    permutation_channel,
    uniform_distribution,
)

# ---------------------------------------------------------------------------
# Config, verdicts, recording
# ---------------------------------------------------------------------------


# Instance-generator constants shared by every run.
_ALPHABET_SIZES = (2, 3, 4)
_AGENT_COUNTS = (2, 3)
_MONTE_CARLO_EVERY = 200  # md-equivalence: Monte Carlo block on every 200th instance
_MONTE_CARLO_REPS = 32
_BTS_ALPHA = 3.0
_POPULATION_SIZES = (10, 100, 1000)
_POPULATION_REPS = 24
_PERM_LISTS = 10  # scenario-equivalence: relabelings per scenario
_SWAP = permutation_channel([1, 0]).rows  # md-equivalence: agent 0 anti-correlating; read-only


@dataclass(frozen=True)
class SuiteConfig:
    """Deterministic description of a suite run; the whole verdict is a
    function of this object."""

    suite: str
    instances: int = 1000
    seed: int = 0
    equality_tol: float = 1e-10
    strictness_tol: float = 1e-10
    monte_carlo_ci: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "instances", _int_at_least(self.instances, 1, "instances"))
        object.__setattr__(self, "seed", _int_at_least(self.seed, 0, "seed"))
        if not all(0 < tol < math.inf for tol in (self.equality_tol, self.strictness_tol)):
            raise DimensionMismatch("tolerances must be finite and > 0")
        if not 0 < self.monte_carlo_ci < 1:
            raise DimensionMismatch("monte_carlo_ci must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteVerdict:
    suite: str
    config: dict
    instances: int
    violations: tuple[dict, ...]
    strictness: dict
    strictness_histogram: dict
    claims: tuple[dict, ...]
    findings: tuple[dict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "instances": self.instances,
            "violations": list(self.violations),
            "strictness": self.strictness,
            "strictness_histogram": self.strictness_histogram,
            "claims": list(self.claims),
            "findings": list(self.findings),
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_HIST_EDGES = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
_HIST_LABELS = (
    "[0,1e-10)",
    "[1e-10,1e-08)",
    "[1e-08,1e-06)",
    "[1e-06,1e-04)",
    "[1e-04,1e-02)",
    "[1e-02,1e+00)",
    "[1e+00,inf)",
)


class _Recorder:
    """Accumulates claim counts, violations and strict-decrease margins."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.claims: dict[str, dict] = {}
        self.violations: list[dict] = []
        self.margins: list[float] = []
        self.findings: list[dict] = []

    def check(self, name: str, kind: str, ok: bool, instance: int,
              data: Callable[[], dict]) -> None:
        """Count one instance of claim ``name``; where it fails, record a violation whose witness
        payload is ``data()``, which is called for failed claims only."""
        entry = self.claims.setdefault(
            name, {"name": name, "kind": kind, "instances": 0, "violations": 0})
        entry["instances"] += 1
        if not ok:
            entry["violations"] += 1
            self.violations.append({"instance": instance, "claim": name, "data": data()})

    def margin(self, value: float) -> None:
        self.margins.append(float(value))

    def strict_drop(self, name: str, instance: int, drop: float, certified: float, bound: float,
                    data: Callable[[], dict]) -> None:
        """Claim ``name``: ``drop`` reaches ``certified`` (its lower bound free of cancelling
        sums) up to a float tie, ``certified`` reaches the proved Jensen ``bound`` (exact for
        chi^2, hence the slack); ``drop`` exceeds the strictness tolerance where ``bound`` does."""
        stol = self.config.strictness_tol
        ok = certified >= bound * (1.0 - 1e-9) and drop >= certified - 1e-12
        self.check(name, "inequality", ok and (bound <= stol or drop > stol), instance,
                   lambda: {**data(), "certified": certified, "bound": bound})
        self.margin(drop)

    def finding(self, entry: dict) -> None:
        self.findings.append(entry)

    def verdict(self) -> SuiteVerdict:
        hist = {label: 0 for label in _HIST_LABELS}
        for m in self.margins:
            idx = sum(m >= edge for edge in _HIST_EDGES)
            hist[_HIST_LABELS[idx]] += 1
        stats = {
            "count": len(self.margins),
            "min": min(self.margins) if self.margins else None,
            "max": max(self.margins) if self.margins else None,
        }
        return SuiteVerdict(
            suite=self.config.suite,
            config=self.config.to_dict(),
            instances=self.config.instances,
            violations=tuple(self.violations),
            strictness=stats,
            strictness_histogram=hist,
            claims=tuple(self.claims[name] for name in sorted(self.claims)),
            findings=tuple(self.findings),
            passed=not self.violations,
        )


_CHUNK = 512  # instances drawn before one check; bounds what a check holds at once


def _run(config: SuiteConfig, indices=None) -> _Recorder:
    """Run the parts of ``config.suite`` on a fresh recorder over ``indices``
    (default: all of them).  Index -1 is the global part ``setup(rec, config)``,
    skipped when the suite has none.  The indices ``>= 0`` go, in order and in
    chunks of at most ``_CHUNK``, to ``instances(rec, config, chunk)``, which
    draws each instance ``idx`` of the chunk alone, from ``_instance_rngs``' generator
    in the state of ``rng_from_seed(config.seed, idx)``, checks the chunk (per instance
    or stacked) and records it in index order; so each instance is still a pure
    function of ``(config.seed, idx)``."""
    setup, instances, _ = _PARTS[config.suite]
    rec = _Recorder(config)
    indices = range(-1, config.instances) if indices is None else indices
    if setup is not None and -1 in indices:
        setup(rec, config)
    todo = [idx for idx in indices if idx >= 0]
    for start in range(0, len(todo), _CHUNK):
        instances(rec, config, todo[start:start + _CHUNK])
    return rec


def _each(instance):
    """The chunk part of a suite that checks one instance at a time:
    ``instance(rec, config, idx, rng)`` per index, ``rng`` in the state of
    ``rng_from_seed(config.seed, idx)``."""
    def run_chunk(rec: _Recorder, config: SuiteConfig, chunk) -> None:
        for idx, rng in zip(chunk, _instance_rngs(config.seed, chunk)):
            instance(rec, config, idx, rng)
    return run_chunk


def _grouped(items: list, key, check) -> list:
    """Per item, in order, its row (as Python scalars) of the arrays that
    ``check(group)`` returns, with one entry per member, for the group of items
    sharing its ``key``; ``check`` runs once per group."""
    groups: dict = {}
    for pos, item in enumerate(items):
        groups.setdefault(key(item), []).append(pos)
    rows = [None] * len(items)
    for positions in groups.values():
        columns = [col.tolist() for col in check([items[p] for p in positions])]
        for pos, row in zip(positions, zip(*columns)):
            rows[pos] = row
    return rows


def _jl(arr) -> list:
    """Nested float lists for witness payloads."""
    return np.asarray(arr, dtype=np.float64).tolist()


# ---------------------------------------------------------------------------
# Data processing inequality
# ---------------------------------------------------------------------------


def _pair_drop(pair: np.ndarray, cells: np.ndarray, gen: ConvexGenerator) -> tuple:
    """The fall of the f-MI D_f(J, V) of the pair table J when the channel ``cells`` moves its
    raveled cells, and the proved Jensen bound of that fall."""
    v = np.outer(pair.sum(axis=1), pair.sum(axis=0))
    before, after = _f_mi(np.stack([pair, (pair.ravel() @ cells).reshape(pair.shape)]), gen)
    return float(before - after), _divergence_decrease_bound(pair.ravel(), v.ravel(), cells, gen)


def _dpi_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    tol = config.equality_tol
    mx = sampling._pick(rng, _ALPHABET_SIZES)
    my = sampling._pick(rng, _ALPHABET_SIZES)
    rectangular = idx % 7 == 3
    m_out = max(2, mx + int(rng.integers(-1, 2))) if rectangular else mx
    joint = sampling.random_joint(rng, mx, my)
    channel = sampling.random_channel(rng, mx, m_out)
    gen = sampling.random_generator_choice(rng)
    rep = check_dpi(joint, channel, gen, tol)

    def data() -> dict:
        return {"joint": _jl(joint.table), "channel": _jl(channel.rows), "generator": gen.value,
                "before": rep.before, "after": rep.after}
    rec.check("mi_dpi", "inequality", rep.holds, idx, data)
    if channel.is_permutation:
        rec.check("mi_permutation_equality", "equality",
                  abs(rep.before - rep.after) <= 1e-12, idx, data)
    elif channel.shape[0] == channel.shape[1] and gen.strictly_convex and is_fine_grained(joint):
        _, bound = _pair_drop(joint.table, np.kron(channel.rows, np.eye(my)), gen)
        rec.strict_drop("mi_dpi_strict", idx, rep.before - rep.after, rep.before - rep.after,
                        bound, data)
    # divergence-level monotonicity on the same channel
    p = sampling.random_distribution(rng, mx)
    q = sampling.random_distribution(rng, mx)
    d_before = f_divergence(p, q, gen)
    d_after = f_divergence(apply_channel(p, channel), apply_channel(q, channel), gen)

    def ddata() -> dict:
        return {"p": _jl(p.weights), "q": _jl(q.weights), "theta": _jl(channel.rows),
                "generator": gen.value, "before": d_before, "after": d_after}
    rec.check("divergence_monotonicity", "inequality", d_after <= d_before + tol, idx, ddata)
    if gen.strictly_convex and divergence_monotonicity_witness(p, q, channel):
        bound = _divergence_decrease_bound(p.weights, q.weights, channel.rows, gen)
        rec.strict_drop("divergence_strict", idx, d_before - d_after, d_before - d_after, bound,
                        ddata)


def suite_dpi(config: SuiteConfig) -> SuiteVerdict:
    """Channel processing never increases f-mutual information; strictly decreases it under the
    witness condition.  Also checks D_f(theta^T p, theta^T q) <= D_f(p, q).  f-MI is D_f(J, V)
    on cells, which M on X moves through M (x) I; its Jensen bound is taken there, and no cell
    has p = 0, as the fine-grained gate needs every cell > 1e-9."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Dominant truthfulness and truth-monotonicity of exact payments
# ---------------------------------------------------------------------------


def _pair_prior_for(rng, n: int, m: int):
    if n == 2:
        return PairwisePrior(sampling.random_fine_grained_joint(rng, m), symmetric=False)
    return sampling.random_full_joint_prior(rng, n, m)


def _dominant_truthfulness_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    tol = config.equality_tol
    m = sampling._pick(rng, _ALPHABET_SIZES)
    n = sampling._pick(rng, _AGENT_COUNTS)
    prior = _pair_prior_for(rng, n, m)
    opponents = [truth_telling(m)] + [sampling.random_mixed_strategy(rng, m) for _ in range(n - 2)]
    gen = sampling.random_generator_choice(rng, strictly_convex_only=True)
    deviation = sampling.random_mixed_strategy(rng, m)
    dev_scn = Scenario(prior, tuple([deviation] + opponents))
    # agent 0 truthful and deviating, as one leading channel axis on one build of the pair tables
    q = prior._pairs([0], [range(1, n)])[0, 0]
    channels = np.stack([np.eye(m), deviation.channel.rows])[:, None]
    opponent_channels = np.stack([s.channel.rows for s in opponents])
    pay_truth, pay_dev = _slice_mean(_report_tables(channels, opponent_channels, q),
                                     _mi_kernel(gen)).tolist()

    def data() -> dict:
        return {"scenario": scenario_to_dict(dev_scn), "measure": gen.value,
                "pay_truth": pay_truth, "pay_dev": pay_dev}
    rec.check("truth_dominates", "inequality", pay_dev <= pay_truth + tol, idx, data)
    if deviation.is_permutation:
        rec.check("permutation_ties", "equality",
                  abs(pay_dev - pay_truth) <= 1e-12, idx, data)
    elif gen.strictly_convex and is_fine_grained(JointDistribution(q[0])):
        # agent 0's pair with truthful peer 1 moves through S (x) I; no other peer term rises
        drop, bound = _pair_drop(q[0], np.kron(deviation.channel.rows, np.eye(m)), gen)
        rec.strict_drop("non_permutation_strictly_below", idx, pay_truth - pay_dev,
                        drop / (n - 1), bound / (n - 1), data)
    if deviation.label == "constant":
        rec.check("constant_pays_zero", "equality", abs(pay_dev) <= 1e-12, idx, data)


def suite_dominant_truthfulness(config: SuiteConfig) -> SuiteVerdict:
    """Truth-telling maximizes exact expected payment against any opponents;
    permutation deviations tie, non-permutation deviations lose strictly on
    all-ratios-separated priors under strictly convex generators."""
    return _run(config).verdict()


def _truth_monotone_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    tol = config.equality_tol
    m = sampling._pick(rng, _ALPHABET_SIZES)
    n = 3
    prior = sampling.random_full_joint_prior(rng, n, m)
    observer_truthful = idx % 2 == 0
    observer = truth_telling(m) if observer_truthful else sampling.random_mixed_strategy(rng, m)
    bystander = sampling.random_mixed_strategy(rng, m)
    gen = sampling.random_generator_choice(rng)
    deviation = sampling.random_mixed_strategy(rng, m)
    after_scn = Scenario(prior, (observer, deviation, bystander))
    # agent 1 truthful and deviating, as one leading channel axis on one build of the pair tables
    q = prior._pairs([0], [(1, 2)])[0, 0]
    peer_channels = np.stack([[np.eye(m), bystander.channel.rows],
                              [deviation.channel.rows, bystander.channel.rows]])
    pay_before, pay_after = _slice_mean(_report_tables(observer.channel.rows, peer_channels, q),
                                        _mi_kernel(gen)).tolist()

    def data() -> dict:
        return {"scenario": scenario_to_dict(after_scn), "measure": gen.value,
                "pay_before": pay_before, "pay_after": pay_after}
    rec.check("peer_payment_drops", "inequality", pay_after <= pay_before + tol, idx, data)
    if deviation.is_permutation:
        rec.check("permutation_leaves_peers", "equality",
                  abs(pay_after - pay_before) <= 1e-12, idx, data)
    elif observer_truthful and gen.strictly_convex and is_fine_grained(JointDistribution(q[0])):
        # the truthful observer's pair with peer 1 moves through I (x) S; the bystander's stays
        drop, bound = _pair_drop(q[0], np.kron(np.eye(m), deviation.channel.rows), gen)
        rec.strict_drop("peer_payment_drops_strictly", idx, pay_before - pay_after,
                        drop / (n - 1), bound / (n - 1), data)
    if deviation.label == "constant":
        pair = _report_tables(observer.channel.rows, deviation.channel.rows[None], q[:1])
        rec.check("constant_pairing_zero", "equality", abs(_mi_kernel(gen)(pair[0])) <= 1e-12,
                  idx, data)


def suite_truth_monotone(config: SuiteConfig) -> SuiteVerdict:
    """A truthful agent's deviation weakly lowers every other agent's exact
    payment; strictly for truthful observers on separated priors when the
    deviation is non-permutation and the generator strictly convex."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Zero-one effort structure
# ---------------------------------------------------------------------------

# Agent 0's report joints at all 11 effort levels, or at every count of active peers, are one
# _report_tables stack per (alphabet, peer count) group, paid per generator on its own rows.
_CANONICAL_BINARY = np.array([[0.4, 0.1], [0.1, 0.4]])
_EFFORT_GRID = np.linspace(0.0, 1.0, 11)


def _effort_tables(q) -> tuple:
    """Truthful agent 0's report tables with truthful peers on each instance's pair tables
    ``q`` (g, k, m, m): (11, g, k, m, m) at each effort level of the grid with every peer
    investing, and (k + 1, g, k, m, m) in full effort with its first a = 0..k peers investing."""
    k, eye, x = q.shape[1], np.eye(q.shape[-1]), uniform_distribution(q.shape[-1]).weights
    grid = _effort_rows(eye, _EFFORT_GRID[:, None, None, None, None], x)
    active = _effort_rows(eye, np.tri(k + 1, k, -1)[:, None, :, None, None], x)
    return _report_tables(grid, eye, q), _report_tables(eye, active, q)


def _effort_global(rec: _Recorder, config: SuiteConfig) -> None:
    # canonical binary example: totals decide the pure effort level
    grid, kernel = _EFFORT_GRID, _mi_kernel(ConvexGenerator.TVD)
    pay = _slice_mean(_effort_tables(_CANONICAL_BINARY[None, None])[0], kernel)[:, 0]
    for cost, best in ((0.7, 0.0), (0.2, 1.0)):
        utils = (pay - grid * cost).tolist()
        rec.check("canonical_pure_effort", "equality",
                  abs(grid[int(np.argmax(utils))] - best) <= 1e-12, -1,
                  lambda: {"cost": cost, "grid_utilities": utils})
    utils = (pay - grid * 0.6).tolist()
    rec.check("canonical_boundary_tie", "equality",
              abs(utils[0] - utils[-1]) <= 1e-12, -1, lambda: {"grid_utilities": utils})


def _effort_read(rng) -> tuple:
    """Peer count, the joint's unit exponentials, generator, the unit draws of cost and lambda,
    and the strategy's channel read, in the public samplers' stream order from a fresh
    instance generator: ``rng.uniform(0.0, h)`` is ``h * rng.random()``."""
    draws = sampling._Halves(rng)
    m = sampling._pick(draws, _ALPHABET_SIZES)
    n = sampling._pick(draws, _AGENT_COUNTS)
    joint = draws.standard_exponential((m, m))
    gen = sampling.random_generator_choice(draws)
    cost_unit, lam = draws.random(), draws.random()
    return n, joint, gen, cost_unit, lam, sampling._channel_read(draws, m)


def _effort_check(group: list) -> tuple:
    """Per instance of a group with one alphabet and peer count: its cost, grid utilities,
    payments by active peers, mixture-law gap and both sides of mixture convexity.  Joints,
    priors, strategies and agent 0's report tables are built from the reads as one stack each
    and validated, joints and priors as rank-2 tables, strategies by row; each generator's
    kernel runs on its own instances' rows, which keeps the floats of a one-generator group."""
    n, m, size = group[0][0], group[0][1].shape[0], len(group)
    joints = _validated_tables(sampling._floored_tables(np.array([d[1] for d in group])), rank=2)
    priors = _validated_tables(sampling._symmetrized(joints), rank=2)
    rows = _validated_tables(sampling._channel_stack([d[5] for d in group], m, m, 0.0), rank=1)
    cost_unit, lam = np.array([d[3] for d in group]), np.array([d[4] for d in group])
    q = np.broadcast_to(priors[:, None], (size, n - 1) + priors.shape[1:])
    paid = _effort_tables(q)
    # agent 0 at effort 1, 0 and lam, with its mixed strategy against one truthful peer
    li = np.stack([np.ones_like(lam), np.zeros_like(lam), lam])[:, :, None, None, None]
    tables = _report_tables(_effort_rows(rows[:, None], li, uniform_distribution(m).weights),
                            np.eye(m), q[:, :1])[:, :, 0]  # folded channels not held past here
    j_full, j_none, j_mix = tables
    w = lam[:, None, None]
    mix_gap = np.max(np.abs(j_mix - (w * j_full + (1.0 - w) * j_none)), axis=(-2, -1))
    cost, pay, active, sides = (np.zeros(s) for s in (size, (size, 11), (size, n), (3, size)))
    for gen in dict.fromkeys(d[2] for d in group):
        at, kernel = np.array([d[2] is gen for d in group]), _mi_kernel(gen)
        cost[at] = 1.5 * np.maximum(kernel(priors[at]), 1e-3) * cost_unit[at]
        pay[at], active[at] = (_slice_mean(t[:, at], kernel).T for t in paid)
        sides[:, at] = kernel(tables[:, at])
    mi_full, mi_none, lhs = sides
    rhs = lam * mi_full + (1.0 - lam) * mi_none
    return cost, pay - _EFFORT_GRID * cost[:, None], active, mix_gap, lhs, rhs


def _effort_instances(rec: _Recorder, config: SuiteConfig, chunk) -> None:
    tol = config.equality_tol
    reads = [_effort_read(rng) for rng in _instance_rngs(config.seed, chunk)]
    checked = _grouped(reads, lambda d: (d[1].shape, d[0]), _effort_check)
    for idx, d, (cost, utils, payments, gap, lhs, rhs) in zip(chunk, reads, checked):
        def data() -> dict:
            prior = sampling._symmetrized(sampling._floored_tables(d[1][None]))[0]
            return {"prior": _jl(prior), "measure": d[2].value,
                    "cost": cost, "grid_utilities": utils}
        rec.check("pure_effort_optimal", "inequality",
                  max(utils) <= max(utils[0], utils[-1]) + 1e-12, idx, data)
        # effort monotonicity: payment under truth as peers join full effort
        monotone = all(b <= a + tol for a, b in zip(payments[1:], payments))
        rec.check("effort_monotone", "inequality", monotone, idx,
                  lambda: {"payments_by_active_peers": payments, **data()})
        # mixture convexity of the information measure
        rec.check("effort_mixture_law", "equality", gap <= 1e-12, idx, data)
        rec.check("mixture_convexity", "inequality", lhs <= rhs + tol, idx,
                  lambda: {"lam": d[4], "lhs": lhs, "rhs": rhs, **data()})


def suite_effort(config: SuiteConfig) -> SuiteVerdict:
    """Utility over the effort mixture is maximized at a pure effort level;
    optimal payment weakly rises as more peers invest; the mutual information
    of the effort mixture is convex in the mixing weight."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Bregman measure: first-entry processing, log bridge, second-entry search
# ---------------------------------------------------------------------------


def _bregman_quasi_read(rng) -> tuple:
    """The joint's unit exponentials (mx, my), rule, and X and Y channel reads, in the public
    samplers' stream order from a fresh instance generator."""
    draws = sampling._Halves(rng)
    mx = sampling._pick(draws, _ALPHABET_SIZES)
    my = sampling._pick(draws, _ALPHABET_SIZES)
    joint = draws.standard_exponential((mx, my))
    rule = sampling.random_rule_choice(draws)
    return joint, rule, sampling._channel_read(draws, mx), sampling._channel_read(draws, my)


def _bregman_quasi_check(group: list) -> tuple:
    """Per instance of a group with one joint shape (so one shape of each square channel): BMI
    before and after each channel, whether the X channel is the identity, and the log bridge
    gap.  The joints and channels are built from the reads as one stack each and validated,
    the joints as rank-2 tables, the channels row by row and both pushes as one stack; the
    BMI of the joints and both pushes is taken once per rule of the group, and each instance
    reads its own rule's."""
    mx, my = group[0][0].shape
    joints = _validated_tables(sampling._floored_tables(np.array([d[0] for d in group])), rank=2)
    channels = _validated_tables(sampling._channel_stack([d[2] for d in group], mx, mx), rank=1)
    y_channels = _validated_tables(sampling._channel_stack([d[3] for d in group], my, my), rank=1)
    pushed = _validated_tables(np.concatenate([_push_first(joints, channels),
                                               joints @ y_channels]), rank=2)
    tables = np.concatenate([joints, pushed])
    rules = list(dict.fromkeys([ScoringRule.LOG] + [d[1] for d in group]))
    bmi = np.stack([_bregman_mi(tables, rule).reshape(3, len(group)) for rule in rules])
    pick = [rules.index(d[1]) for d in group]
    before, after, after_y = bmi[pick, :, np.arange(len(group))].T
    bridge_gap = np.abs(bmi[0, 0] - _shannon_mi(joints))
    return before, after, _identity_mask(channels), bridge_gap, after_y


def _bregman_quasi_instances(rec: _Recorder, config: SuiteConfig, chunk) -> None:
    tol, stol = config.equality_tol, config.strictness_tol
    reads = [_bregman_quasi_read(rng) for rng in _instance_rngs(config.seed, chunk)]
    checked = _grouped(reads, lambda d: d[0].shape, _bregman_quasi_check)
    for idx, (e, rule, x_read, y_read), values in zip(chunk, reads, checked):
        before, after, identity, bridge_gap, after_y = values
        mx, my = e.shape

        def joint() -> list:
            return _jl(sampling._floored_tables(e[None])[0])

        def data() -> dict:
            return {"joint": joint(), "channel": _jl(sampling._channel_stack([x_read], mx, mx)[0]),
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
                "y_channel": _jl(sampling._channel_stack([y_read], my, my)[0]),
                "rule": rule.value,
                "before": before,
                "after": after_y,
            })


def suite_bregman_quasi(config: SuiteConfig) -> SuiteVerdict:
    """First-entry data processing always holds for the accuracy-gain measure;
    the log-rule instance coincides with Shannon information.  A seeded
    search for second-entry violations records findings without asserting
    either way."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Accuracy gain = information gain
# ---------------------------------------------------------------------------


def _accuracy_gain_read(rng, idx: int) -> tuple:
    """A (Z, X, Y) tensor shape, whether it is a CI table, and its unit exponentials, in the
    stream order of ``random_conditional_tensor`` or of the CI table from a fresh instance
    generator."""
    draws = sampling._Halves(rng)
    mz = sampling._pick(draws, _ALPHABET_SIZES)
    mx = sampling._pick(draws, _ALPHABET_SIZES)
    my = sampling._pick(draws, _ALPHABET_SIZES)
    if idx % 3 == 1:
        return (mz, mx, my), True, draws.standard_exponential(mz * (1 + mx + my))
    shape = (1 if idx % 5 == 2 else mz, mx, my)
    return shape, False, draws.standard_exponential(shape)


def _accuracy_gain_tensors(reads: list) -> np.ndarray:
    """The tensors of reads of one shape as one stack: the floored ones in one pass, the CI
    tables in another."""
    shape = reads[0][0]
    out = np.empty((len(reads),) + shape)
    for ci in (False, True):
        at = [pos for pos, d in enumerate(reads) if d[1] is ci]
        if at:
            e = np.array([reads[pos][2] for pos in at])
            out[at] = sampling._ci_tables(e, *shape) if ci else sampling._floored_tables(e)
    return out


def _accuracy_gain_check(tensors) -> tuple:
    """Per tensor of a stack with one shape, validated once as rank-3 tables: the log-score
    accuracy gain, the conditional KL information and, where Z has one value, the Shannon
    information of its one slice (else NaN)."""
    t = _validated_tables(tensors, rank=3)
    lhs, rhs = _log_score_gains(t), _slice_mean(t, _mi_kernel(ConvexGenerator.KL))
    if t.shape[1] > 1:
        return lhs, rhs, np.full_like(rhs, np.nan)
    flat = _validated_tables(t[:, 0] / t[:, 0].sum(axis=(-2, -1))[:, None, None], rank=2)
    return lhs, rhs, _shannon_mi(flat)


def _accuracy_gain_instances(rec: _Recorder, config: SuiteConfig, chunk) -> None:
    tol = config.equality_tol
    reads = [_accuracy_gain_read(rng, idx)
             for idx, rng in zip(chunk, _instance_rngs(config.seed, chunk))]
    checked = _grouped(reads, lambda d: d[0],
                       lambda group: _accuracy_gain_check(_accuracy_gain_tensors(group)))
    for idx, read, (lhs, rhs, flat) in zip(chunk, reads, checked):
        def data() -> dict:
            return {"tensor": _jl(_accuracy_gain_tensors([read])[0]), "accuracy_gain": lhs,
                    "conditional_mi": rhs}
        rec.check("gain_equals_information", "equality", abs(lhs - rhs) <= tol, idx, data)
        if idx % 3 == 1:
            rec.check("ci_tensor_zero", "equality", abs(rhs) <= tol, idx, data)
        if idx % 5 == 2 and idx % 3 != 1:
            rec.check("degenerate_z_unconditional", "equality", abs(rhs - flat) <= tol, idx, data)


def suite_accuracy_gain(config: SuiteConfig) -> SuiteVerdict:
    """The expected log-score gain of conditioning on X equals the conditional
    Shannon mutual information, computed by two independent routes."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Binary correlation mechanism vs half total-variation information
# ---------------------------------------------------------------------------


def _md_equivalence_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    tol, stol = config.equality_tol, config.strictness_tol
    q = sampling.random_positively_correlated_binary_joint(rng)
    s1 = sampling.random_mixed_strategy(rng, 2)
    s2 = sampling.random_mixed_strategy(rng, 2)
    # the truthful pair, the drawn pair and agent 0 anti-correlating, as one stack
    eye = np.eye(2)
    tables = _report_tables(np.stack([eye, s1.channel.rows, _SWAP])[:, None],
                            np.stack([eye, s2.channel.rows, eye])[:, None], q.table[None])[:, 0]
    half_tvd, r_half, flip_half = (0.5 * _f_mi(tables, ConvexGenerator.TVD)).tolist()
    reward, r_reward, flip_reward = _agreement_rewards(tables).tolist()
    rec.check("truth_identity", "equality", abs(reward - half_tvd) <= 1e-12, idx,
              lambda: {"prior": _jl(q.table), "reward": reward, "half_tvd": half_tvd})

    def sdata() -> dict:
        return {"prior": _jl(q.table), "s1": _jl(s1.channel.rows), "s2": _jl(s2.channel.rows),
                "reward": r_reward, "half_tvd": r_half}
    rec.check("strategy_upper_bound", "inequality", r_reward <= r_half + tol, idx, sdata)
    rec.check("processing_chain", "inequality", r_half <= half_tvd + tol, idx, sdata)

    # anti-correlating one agent flips the correlation sign: strict gap
    gap = flip_half - flip_reward
    if gap > stol:
        rec.margin(gap)

    if idx % _MONTE_CARLO_EVERY == 0:
        # seeded Monte Carlo: on the same report matrices the
        # agreement-indicator variant and the average-answer variant
        # estimate one expectation, so their confidence intervals must
        # overlap.  The closed-form value and both intervals are recorded
        # for inspection; its containment is a calibrated-by-construction
        # statistical statement, so it is reported rather than gated.
        scn = Scenario(PairwisePrior(q, symmetric=False), (truth_telling(2), truth_telling(2)))
        reps = _MONTE_CARLO_REPS
        md_samples, ca_samples = [], []
        for rep_i in range(reps):
            reports = generate_reports(scn, 300, seed=(config.seed + 1) * 7919 + idx * 97 + rep_i)
            md_samples.append(float(md_payments(reports, 2, seed=idx * 97 + rep_i).payments[0]))
            ca_samples.append(float(ca_payments(reports, 2, seed=idx * 97 + rep_i).payments[0]))
        z = statistics.NormalDist().inv_cdf(0.5 + config.monte_carlo_ci / 2)
        hw_md = z * statistics.stdev(md_samples) / math.sqrt(reps)
        hw_ca = z * statistics.stdev(ca_samples) / math.sqrt(reps)
        mean_md = statistics.fmean(md_samples)
        mean_ca = statistics.fmean(ca_samples)
        mc_data = {"prior": _jl(q.table), "expected": reward,
                   "mean_md": mean_md, "mean_ca": mean_ca,
                   "half_width_md": hw_md, "half_width_ca": hw_ca}
        rec.check("agreement_variant_interval", "convergence",
                  abs(mean_md - mean_ca) <= hw_md + hw_ca, idx, lambda: mc_data)
        rec.finding({"kind": "expected_reward_interval", "instance": idx,
                     "covered": abs(mean_ca - reward) <= hw_ca, **mc_data})


def suite_md_equivalence(config: SuiteConfig) -> SuiteVerdict:
    """On positively correlated binary pairs, the expected agreement reward
    equals half the total-variation mutual information under truth-telling
    and never exceeds it under any strategy pair; the agreement-indicator
    variant matches in expectation (seeded Monte Carlo interval)."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Signal-plus-prediction scoring
# ---------------------------------------------------------------------------

CANONICAL_WORLD = WorldModelPrior(
    Distribution(np.array([0.5, 0.5])),
    (Distribution(np.array([0.8, 0.2])), Distribution(np.array([0.2, 0.8]))),
)


def _shannon_conditional_direct(tensor: JointDistribution) -> float:
    """Brute-force atom enumeration of the conditional Shannon information."""
    t = tensor.table
    total = 0.0
    for z in range(t.shape[0]):
        pz = float(t[z].sum())
        if pz <= 0.0:
            continue
        px = t[z].sum(axis=1) / pz
        py = t[z].sum(axis=0) / pz
        for x in range(t.shape[1]):
            for y in range(t.shape[2]):
                atom = float(t[z, x, y])
                if atom <= 0.0:
                    continue
                total += atom * math.log((atom / pz) / (px[x] * py[y]))
    return total


def _bts_population_gap(world: WorldModelPrior, n_agents: int, preds, ideal: float, rng) -> float:
    """|mean information score - ideal| of ``n_agents`` truthful agents, signal s reporting row
    s of ``preds``, drawing from ``rng`` in order the world state, signals and pairing seed."""
    w = int(rng.choice(world.n_states, p=world.state_probs.weights))
    sig = rng.choice(world.alphabet_size, size=n_agents, p=world.states[w].weights)
    profile = BtsReportProfile(sig, preds[sig])
    pay = bts_payments(profile, _BTS_ALPHA, pairing=SEEDED_RANDOM,
                       seed=int(rng.integers(2**31)), smoothing=0.5)
    return abs(float(pay.information_scores.mean()) - ideal)


def _bts_global(rec: _Recorder, config: SuiteConfig) -> None:
    # cross-oracle on the canonical two-state model
    truth_scores = bts_idealized_scores(CANONICAL_WORLD)
    direct = _shannon_conditional_direct(world_tensor(CANONICAL_WORLD))
    rec.check("cross_oracle_identity", "equality",
              abs(truth_scores.information_score - direct) <= 1e-12, -1,
              lambda: {"conditional_mi": truth_scores.information_score, "direct": direct})
    rec.check("prediction_negates_information", "equality",
              abs(truth_scores.prediction_score + truth_scores.information_score) <= 1e-12, -1,
              lambda: {"scores": asdict(truth_scores)})

    # finite-population convergence toward the idealized information score
    ideal = truth_scores.information_score
    preds = _predictive_table(CANONICAL_WORLD)
    medians = []
    for pos, n_agents in enumerate(_POPULATION_SIZES):
        gaps = []
        for rep_i in range(_POPULATION_REPS):
            # a spawn key pads the seed to 4 words first, so no (seed, idx) instance stream meets it
            key = np.random.SeedSequence(config.seed, spawn_key=(900000, pos, rep_i))
            rng = np.random.Generator(np.random.PCG64(key))
            gaps.append(_bts_population_gap(CANONICAL_WORLD, n_agents, preds, ideal, rng))
        medians.append(statistics.median(gaps))
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    rec.check("finite_population_convergence", "convergence", decreasing, -1,
              lambda: {"population_sizes": list(_POPULATION_SIZES), "median_gaps": medians})


def _bts_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    tol = config.equality_tol
    alpha = _BTS_ALPHA
    if idx % 2 == 0:
        world = CANONICAL_WORLD
    else:
        world = sampling.random_world_model(
            rng, int(rng.integers(2, 4)), sampling._pick(rng, _ALPHABET_SIZES)
        )
    n = int(rng.integers(3, 6))
    strategies = tuple(
        sampling.random_mixed_strategy(rng, world.alphabet_size) for _ in range(n)
    )
    gen = sampling.random_generator_choice(rng)
    # the truthful and the played world tensor, as one (2, m, states, m) stack
    tensors = np.stack([world_tensor(world).table, world_tensor(world, strategies).table])
    info_truth, info_played = _slice_mean(tensors, _mi_kernel(ConvexGenerator.KL)).tolist()
    pred_truth, pred_played = (-_log_score_gains(tensors)).tolist()
    f_truth, f_played = _slice_mean(tensors, _mi_kernel(gen)).tolist()

    def data() -> dict:
        return {"world_state_probs": _jl(world.state_probs.weights),
                "world_states": [_jl(s.weights) for s in world.states],
                "strategies": [_jl(s.channel.rows) for s in strategies],
                "truth_info": info_truth, "played_info": info_played}
    rec.check("information_score_ordering", "inequality", info_played <= info_truth + tol, idx, data)
    rec.check("prediction_negates_information", "equality",
              abs(pred_played + info_played) <= 1e-12, idx, data)
    welfare_truth = n * (pred_truth + alpha * info_truth)
    welfare_played = n * (pred_played + alpha * info_played)
    rec.check("welfare_ordering", "inequality",
              welfare_played <= welfare_truth + n * (alpha - 1.0) * tol + 1e-9, idx, data)
    rec.check("f_score_ordering", "inequality", f_played <= f_truth + tol, idx,
              lambda: {**data(), "generator": gen.value, "f_truth": f_truth, "f_played": f_played})
    # a shared relabeling leaves the scores unchanged; distinct per-agent
    # permutations mix into a garbling and may score lower
    if all(s.is_permutation for s in strategies) and all(
        np.array_equal(s.channel.rows, strategies[0].channel.rows) for s in strategies[1:]
    ):
        rec.check("permutation_profile_ties", "equality",
                  abs(info_played - info_truth) <= 1e-10, idx, data)


def suite_bts(config: SuiteConfig) -> SuiteVerdict:
    """Idealized signal-plus-prediction scores: cross-oracle identity of the
    truth-telling information score, prediction = -information, ordering of
    sampled strategy profiles below truth (Shannon and f-variants), welfare
    ordering for alpha > 1, and finite-population convergence."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Scenario relabeling equivalence
# ---------------------------------------------------------------------------


def _equivalence_kernels(known_prior: PairwisePrior) -> dict:
    """Name -> per-table kernel of every exact evaluator that pays from report joints."""
    kernels = {f"mip-{gen.value}": _mi_kernel(gen) for gen in ConvexGenerator}
    for rule in ScoringRule:
        kernels[f"mip-bregman-{rule.value}"] = _mi_kernel(rule)
        kernels[f"sppm-{rule.value}"] = _score_shifts(known_prior, rule)
    kernels["agreement-expected"] = _agreement_rewards
    return kernels


def _random_maps(rng, prior, n: int, m: int) -> np.ndarray:
    """Relabeling maps (n, m): one per agent under a full-joint prior, else one shared by all."""
    if isinstance(prior, FullJointPrior):
        return np.array([rng.permutation(m) for _ in range(n)])
    return np.tile(rng.permutation(m), (n, 1))


def _random_equivalence_scenario(rng) -> tuple[Scenario, np.ndarray]:
    m = sampling._pick(rng, (2, 3))
    n = sampling._pick(rng, _AGENT_COUNTS)
    mode = int(rng.integers(3))
    if mode == 0:
        prior = sampling.random_full_joint_prior(rng, n, m)
    elif mode == 1:
        prior = sampling.random_pairwise_symmetric_prior(rng, m)
    else:
        prior = sampling.random_world_model(rng, int(rng.integers(2, 4)), m)
    maps = _random_maps(rng, prior, n, m)
    strategies = tuple(sampling.random_mixed_strategy(rng, m) for _ in range(n))
    efforts = None
    if rng.random() < 0.5:
        efforts = tuple(
            EffortStrategy(float(rng.uniform(0, 1)), float(rng.uniform(0, 0.5)))
            for _ in range(n)
        )
    return Scenario(prior, strategies, efforts), maps


def _equivalence_twins(scenario: Scenario, maps: np.ndarray) -> tuple:
    """The scenario relabeled by each of T maps (T, n, m), as arrays: the prior's raw stack, the
    (T, n, m, m) channels, the (T, n, n-1, m, m) exact joints from one :func:`_exact_joints`
    call, and under a world model the (T, m, w, m) world tensors (else None)."""
    prior, (_, rows) = scenario.prior, _exact_inputs(scenario)
    stack = prior._relabel(maps)
    channels = _relabel_rows(np.stack([s.channel.rows for s in scenario.strategies])[None], maps)
    # a relabeling gathers rows, so it commutes with folding the effort into them
    pairs = functools.partial(prior._pairs, stack=stack)
    tables = np.concatenate(list(_exact_joints(pairs, _relabel_rows(rows, maps))), axis=1)
    if not isinstance(prior, WorldModelPrior):
        return stack, channels, tables, None
    return stack, channels, tables, _world_tensors(stack, _reported_states(stack, channels))


def _scenario_equivalence_instance(rec: _Recorder, config: SuiteConfig, idx: int, rng) -> None:
    """Pays a scenario and its relabeled twins from stacks: the scenario is the twin of the
    identity maps, and :func:`_equivalence_twins` gathers all eleven; one slice mean pays
    them under all nine kernels, and per mechanism one reduction gives each twin's largest
    payment difference.  Each twin is gathered back through the inverse maps and compared,
    array for array, with the scenario.  The checks are then recorded twin by twin."""
    scenario, _ = _random_equivalence_scenario(rng)
    prior, n, m = scenario.prior, scenario.n_agents, scenario.alphabet_size
    maps = np.stack([np.tile(np.arange(m), (n, 1))]
                    + [_random_maps(rng, prior, n, m) for _ in range(_PERM_LISTS)])
    stack, channels, tables, tensors = _equivalence_twins(scenario, maps)
    kernels = _equivalence_kernels(PairwisePrior(prior.pair_joint(0, 1), symmetric=False))
    paid = _slice_mean(tables, lambda slices: np.stack([k(slices) for k in kernels.values()]))
    pay = dict(zip(kernels, paid))
    if tensors is not None:
        info = _slice_mean(tensors, _mi_kernel(ConvexGenerator.KL))
        pay["bts-idealized-information"] = info[:, None]
        pay["bts-idealized-prediction"] = -_log_score_gains(tensors)[:, None]
    # per mechanism, each twin's largest |payment difference| from the scenario over agents
    diffs = {name: np.abs(pay[name][1:] - pay[name][0]).max(axis=1).tolist()
             for name in sorted(pay)}
    inverse = _inverse_maps(maps)
    back, back_channels = prior._relabel(inverse, stack), _relabel_rows(channels, inverse)
    base, base_channels = prior._stack(), np.stack([s.channel.rows for s in scenario.strategies])
    for t in range(1, 1 + _PERM_LISTS):
        def matrices() -> list:
            return _jl(np.eye(m)[maps[t]])
        for name, per_twin in diffs.items():
            diff = per_twin[t - 1]
            rec.check("payments_identical", "equality", diff <= 1e-12, idx, lambda: {
                "mechanism": name,
                "scenario": scenario_to_dict(scenario),
                "perms": matrices(),
                "difference": diff,
            })
        roundtrip = np.array_equal(back_channels[t], base_channels) and all(
            np.array_equal(back[name][t], base[name][0]) for name in base)
        rec.check("inverse_roundtrip", "equality", roundtrip, idx,
                  lambda: {"perms": matrices()})


def suite_scenario_equivalence(config: SuiteConfig) -> SuiteVerdict:
    """Relabeled scenario twins pay every agent identically under every
    mechanism with an exact evaluator, and relabeling composed with its
    inverse is the identity."""
    return _run(config).verdict()


# ---------------------------------------------------------------------------
# Registry, defaults, replay
# ---------------------------------------------------------------------------

# (global part, instance part, default instance count) of each suite, as _run runs them
_PARTS = {
    "dpi": (None, _each(_dpi_instance), 10000),
    "dominant-truthfulness": (None, _each(_dominant_truthfulness_instance), 1000),
    "truth-monotone": (None, _each(_truth_monotone_instance), 1000),
    "effort": (_effort_global, _effort_instances, 1000),
    "bregman-quasi": (None, _bregman_quasi_instances, 10000),
    "accuracy-gain": (None, _accuracy_gain_instances, 1000),
    "md-equivalence": (None, _each(_md_equivalence_instance), 1000),
    "bts": (_bts_global, _each(_bts_instance), 1000),
    "scenario-equivalence": (None, _each(_scenario_equivalence_instance), 100),
}

SUITES = {
    "dpi": suite_dpi,
    "dominant-truthfulness": suite_dominant_truthfulness,
    "truth-monotone": suite_truth_monotone,
    "effort": suite_effort,
    "bregman-quasi": suite_bregman_quasi,
    "accuracy-gain": suite_accuracy_gain,
    "md-equivalence": suite_md_equivalence,
    "bts": suite_bts,
    "scenario-equivalence": suite_scenario_equivalence,
}


def default_config(suite: str, **overrides) -> SuiteConfig:
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    params = {"suite": suite, "instances": _PARTS[suite][2]}
    params.update(overrides)
    return SuiteConfig(**params)


def run_suite(config: SuiteConfig) -> SuiteVerdict:
    if config.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {config.suite!r}; known: {sorted(SUITES)}")
    return SUITES[config.suite](config)


def replay_violation(violation: dict, config: SuiteConfig) -> bool:
    """Re-run the one instance of ``config.suite`` that recorded ``violation``
    (its global part for instance -1) on a fresh recorder.

    Returns True when the same claim is violated again under the supplied
    config's tolerances.  Instances are pure functions of
    ``(config.seed, instance)``, so every claim replays; the violation's
    ``data`` payload is not read.  A verdict replays at the code version
    that wrote it.
    """
    rec = _run(config, indices=(violation["instance"],))
    return violation["claim"] in {v["claim"] for v in rec.violations}
