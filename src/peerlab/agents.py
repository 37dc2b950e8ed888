"""Agent models: priors, report strategies, effort strategies, scenarios.

A *scenario* bundles a prior over private signals, one report channel per
agent and (optionally) one zero-one effort strategy per agent.  It is both
the unit of simulation (``generate_reports``) and the unit of the
relabeling-equivalence checks (``permute_scenario``).

Priors come in three modes:

* ``PairwisePrior``   -- a single joint over one ordered signal pair, shared
  by every ordered pair of agents (transposed for the reverse order).  Only
  generative for n = 2, where the pair joint *is* the full joint.
* ``FullJointPrior``  -- an explicit joint over all n agents' signals (small
  n only; guarded at 6 axes).
* ``WorldModelPrior`` -- a latent world state drawn first, then signals iid
  from the state's signal distribution (the conditional-independence model
  behind signal-plus-prediction mechanisms).

Strategies are *consistent* channels (one per agent, applied to every
question); mixed per-question behavior is equivalent to a mixed consistent
strategy when questions are a priori similar and randomly ordered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    ModeMismatch,
    NoOverlap,
    UnsupportedPriorMode,
    WrongRank,
)
from .probability import (
    Distribution,
    JointDistribution,
    RngSeed,
    TransitionMatrix,
    _integers,
    _validated_array,
    identity_channel,
    permutation_channel,
    rng_from_seed,
    uniform_distribution,
)

MAX_FULL_JOINT_AGENTS = 6


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwisePrior:
    """One signal-pair joint shared by all ordered agent pairs.

    ``joint`` is Q(signal_i, signal_j) for i < j; the reverse order uses the
    transpose.  When ``symmetric`` is set the table must equal its transpose
    (the symmetric-prior assumption); asymmetric tables are allowed with the
    flag cleared, which is what the strictness suites need, since a symmetric
    table can never be fine-grained (mirror cells share likelihood ratios).
    """

    joint: JointDistribution
    symmetric: bool = True

    def __post_init__(self):
        table = self.joint._require_pairwise("PairwisePrior")
        if table.shape[0] != table.shape[1]:
            raise DimensionMismatch("pairwise prior must be square")
        if self.symmetric and not np.allclose(table, table.T, atol=1e-12):
            raise ModeMismatch("prior flagged symmetric but table is not")

    @property
    def alphabet_size(self) -> int:
        return self.joint.shape[0]

    def pair_joint(self, i: int, j: int) -> JointDistribution:
        return JointDistribution(self._pair_tables(i, [j])[0])

    def _pair_tables(self, i: int, refs) -> np.ndarray:
        """Signal-pair tables of agent i (rows) with each agent of ``refs``: (len(refs), m, m)."""
        refs = np.asarray(refs)
        if np.any(refs == i):
            raise DimensionMismatch("a pair joint needs two distinct agents")
        table = self.joint.table
        return np.where((refs > i)[:, None, None], table, table.T)


@dataclass(frozen=True)
class FullJointPrior:
    """Explicit joint over all n agents' signals, one tensor axis per agent."""

    tensor: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.tensor, "full-joint tensor")
        if arr.ndim < 2:
            raise WrongRank("full-joint prior needs at least 2 agents")
        if arr.ndim > MAX_FULL_JOINT_AGENTS:
            raise UnsupportedPriorMode(
                f"full-joint prior supports at most {MAX_FULL_JOINT_AGENTS} agents"
            )
        if len(set(arr.shape)) != 1:
            raise DimensionMismatch("all agents must share one signal alphabet")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ModeMismatch("full-joint tensor must be a normalized distribution")
        object.__setattr__(self, "tensor", arr)

    @property
    def n_agents(self) -> int:
        return self.tensor.ndim

    @property
    def alphabet_size(self) -> int:
        return self.tensor.shape[0]

    def pair_joint(self, i: int, j: int) -> JointDistribution:
        return JointDistribution(self._pair_tables(i, [j])[0])

    def _pair_tables(self, i: int, refs) -> np.ndarray:
        """Signal-pair tables of agent i (rows) with each agent of ``refs``: (len(refs), m, m)."""
        n, m = self.n_agents, self.alphabet_size
        for j in refs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"bad agent pair ({i}, {j})")
        return np.stack([
            np.moveaxis(self.tensor, (i, j), (0, 1)).reshape(m, m, -1).sum(axis=-1) for j in refs
        ])


@dataclass(frozen=True)
class WorldModelPrior:
    """Latent world state w ~ state_probs; signals iid from states[w]."""

    state_probs: Distribution
    states: tuple[Distribution, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) != self.state_probs.size:
            raise DimensionMismatch("one signal distribution per world state")
        sizes = {s.size for s in states}
        if len(sizes) != 1:
            raise DimensionMismatch("world states must share one signal alphabet")
        object.__setattr__(self, "states", states)

    @property
    def n_states(self) -> int:
        return self.state_probs.size

    @property
    def alphabet_size(self) -> int:
        return self.states[0].size

    def pair_joint(self, i: int, j: int) -> JointDistribution:
        return JointDistribution(self._pair_tables(i, [j])[0])

    def _pair_tables(self, i: int, refs) -> np.ndarray:
        """Signal-pair tables of agent i (rows) with each agent of ``refs``: (len(refs), m, m)."""
        if np.any(np.asarray(refs) == i):
            raise DimensionMismatch("a pair joint needs two distinct agents")
        table = self._signal_pair_table().sum(axis=0)
        return np.broadcast_to(table, (len(refs),) + table.shape)

    def signal_pair_tensor(self) -> JointDistribution:
        """Conditional-mode joint over (Z = world state, X = signal_i, Y = signal_j)."""
        return JointDistribution(self._signal_pair_table())

    def _signal_pair_table(self) -> np.ndarray:
        omega = np.stack([s.weights for s in self.states])
        return self.state_probs.weights[:, None, None] * (omega[:, :, None] * omega[:, None, :])


Prior = Union[PairwisePrior, FullJointPrior, WorldModelPrior]


# ---------------------------------------------------------------------------
# Strategies and efforts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """A report channel: row sigma is the report distribution on signal sigma."""

    channel: TransitionMatrix
    label: str = ""

    @property
    def is_truthful(self) -> bool:
        return self.channel.is_identity

    @property
    def is_permutation(self) -> bool:
        return self.channel.is_permutation

    @property
    def alphabet_size(self) -> int:
        return self.channel.shape[0]


def truth_telling(m: int) -> Strategy:
    return Strategy(identity_channel(m), label="truth")


@dataclass(frozen=True)
class EffortStrategy:
    """Zero-one effort: invest full effort with probability ``full_effort_prob``
    (paying ``cost`` per question invested), otherwise observe nothing and
    report an independent draw from ``no_effort_report`` (uniform when None).
    """

    full_effort_prob: float = 1.0
    cost: float = 0.0
    no_effort_report: Distribution | None = None

    def __post_init__(self):
        if not 0.0 <= self.full_effort_prob <= 1.0:
            raise DimensionMismatch("full_effort_prob must lie in [0, 1]")
        if not (math.isfinite(self.cost) and self.cost >= 0.0):
            raise DimensionMismatch("cost must be finite and non-negative")

    def resolve_no_effort(self, m: int) -> Distribution:
        if self.no_effort_report is None:
            return uniform_distribution(m)
        if self.no_effort_report.size != m:
            raise DimensionMismatch("no_effort_report alphabet mismatch")
        return self.no_effort_report


FULL_EFFORT = EffortStrategy()


@dataclass(frozen=True)
class PermutationList:
    """One signal relabeling per agent (pi_1, ..., pi_n)."""

    perms: tuple[TransitionMatrix, ...]

    def __post_init__(self):
        perms = tuple(self.perms)
        if not perms:
            raise DimensionMismatch("empty permutation list")
        for p in perms:
            if not p.is_permutation:
                raise ModeMismatch("every entry must be a permutation matrix")
        if len({p.shape[0] for p in perms}) != 1:
            raise DimensionMismatch("permutations must share one alphabet")
        object.__setattr__(self, "perms", perms)

    @classmethod
    def from_maps(cls, maps: Sequence[Sequence[int]]) -> "PermutationList":
        return cls(tuple(permutation_channel(m) for m in maps))

    @classmethod
    def symmetric(cls, mapping: Sequence[int], n: int) -> "PermutationList":
        return cls(tuple(permutation_channel(mapping) for _ in range(n)))

    def __len__(self) -> int:
        return len(self.perms)

    @property
    def alphabet_size(self) -> int:
        return self.perms[0].shape[0]

    def index_map(self, i: int) -> np.ndarray:
        return self.perms[i].permutation_indices()

    def inverse(self) -> "PermutationList":
        return PermutationList(tuple(p.inverse_permutation() for p in self.perms))

    @property
    def is_identity(self) -> bool:
        return all(p.is_identity for p in self.perms)


@dataclass(frozen=True)
class Scenario:
    """(prior, strategy profile, optional effort profile): the unit of simulation."""

    prior: Prior
    strategies: tuple[Strategy, ...]
    efforts: tuple[EffortStrategy, ...] | None = None

    def __post_init__(self):
        strategies = tuple(self.strategies)
        if len(strategies) < 2:
            raise DimensionMismatch("a scenario needs at least 2 agents")
        m = self.prior.alphabet_size
        if any(s.channel.shape != (m, m) for s in strategies):
            raise DimensionMismatch("strategy channels must map the prior alphabet to itself")
        if isinstance(self.prior, FullJointPrior) and self.prior.n_agents != len(strategies):
            raise DimensionMismatch("full-joint prior has a different number of agents")
        efforts = self.efforts
        if efforts is not None:
            efforts = tuple(efforts)
            if len(efforts) != len(strategies):
                raise DimensionMismatch("one effort strategy per agent")
            for e in efforts:
                e.resolve_no_effort(m)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "efforts", efforts)

    @property
    def n_agents(self) -> int:
        return len(self.strategies)

    @property
    def alphabet_size(self) -> int:
        return self.prior.alphabet_size

    def effort(self, i: int) -> EffortStrategy:
        return FULL_EFFORT if self.efforts is None else self.efforts[i]


def truthful_scenario(prior: Prior, n: int) -> Scenario:
    return Scenario(prior, tuple(truth_telling(prior.alphabet_size) for _ in range(n)))


# ---------------------------------------------------------------------------
# Exact report distributions
# ---------------------------------------------------------------------------


def report_joint(
    prior: Prior,
    i: int,
    j: int | Sequence[int],
    s_i: Strategy,
    s_j: Strategy | Sequence[Strategy],
    eff_i: EffortStrategy | None = None,
    eff_j: EffortStrategy | Sequence[EffortStrategy | None] | None = None,
) -> JointDistribution:
    """Exact joint of the two agents' reports.

    Each agent's report is her channel applied to her signal with probability
    ``full_effort_prob``, else an independent draw from her no-effort
    distribution; the result is the four-way mixture over the effort coins.

    ``j`` may also be a sequence of agents, with ``s_j`` and ``eff_j`` (unless
    None) sequences alongside it.  The reference agent J is then uniform over
    ``j``, and the result is the conditional-mode joint of (J, report_i,
    report_J): slice J = j is the pair joint of (i, j) divided by len(j).
    """
    single = np.ndim(j) == 0
    if single:
        refs, s_j, eff_j = [j], [s_j], [eff_j]
    else:
        refs, s_j = list(j), list(s_j)
        eff_j = [None] * len(refs) if eff_j is None else list(eff_j)
    if not refs or len(s_j) != len(refs) or len(eff_j) != len(refs):
        raise DimensionMismatch("one strategy and one effort per reference agent")
    a, b = s_i.channel.rows, [s.channel.rows for s in s_j]
    m = prior.alphabet_size
    if a.shape[0] != m or any(c.shape != b[0].shape or c.shape[0] != m for c in b):
        raise DimensionMismatch("strategy alphabet differs from prior alphabet")
    q, b = prior._pair_tables(i, refs), np.stack(b)
    eff_i, eff_j = eff_i or FULL_EFFORT, [e or FULL_EFFORT for e in eff_j]
    li = eff_i.full_effort_prob
    lj = np.array([e.full_effort_prob for e in eff_j])[:, None, None]
    xi = eff_i.resolve_no_effort(a.shape[1]).weights[:, None]
    xj = np.stack([e.resolve_no_effort(b.shape[2]).weights for e in eff_j])[:, None, :]
    mi = a.T @ q.sum(axis=2)[:, :, None]  # full-effort report marginals: a column
    mj = q.sum(axis=1)[:, None, :] @ b  # and a row
    tables = (
        li * lj * (a.T @ q @ b)
        + li * (1.0 - lj) * (mi * xj)
        + (1.0 - li) * lj * (xi * mj)
        + (1.0 - li) * (1.0 - lj) * (xi * xj)
    )
    return JointDistribution(tables[0] if single else tables / len(refs))


def reported_world_states(
    prior: WorldModelPrior, strategies: Sequence[Strategy] | None
) -> tuple[Distribution, ...]:
    """Per world state, the report distribution of a uniformly random agent.

    With strategies (M_1, ..., M_n) the state omega is transformed to
    ``(1/n) sum_i M_i^T omega``; without strategies agents report truthfully
    and the states are unchanged.
    """
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


def world_tensor(
    prior: WorldModelPrior, strategies: Sequence[Strategy] | None = None
) -> JointDistribution:
    """Conditional-mode joint over (Z, X, Y) for signal-plus-prediction scoring.

    Z is a reference agent's *private* signal, X indexes the world state, and
    Y is the report of a uniformly random agent, whose per-state distribution
    comes from :func:`reported_world_states`.  Signals and reports are
    conditionally independent given the state.
    """
    if not isinstance(prior, WorldModelPrior):
        raise ModeMismatch("world_tensor needs a WorldModelPrior")
    reported = reported_world_states(prior, strategies)
    m = prior.alphabet_size
    k = prior.n_states
    tensor = np.zeros((m, k, m))
    for w in range(k):
        pw = prior.state_probs[w]
        omega = prior.states[w].weights
        omega_hat = reported[w].weights
        tensor[:, w, :] = pw * np.outer(omega, omega_hat)
    return JointDistribution(tensor)


# ---------------------------------------------------------------------------
# Sampled reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportMatrix:
    """n agents x T questions of reported signal indices, with an answered mask."""

    entries: np.ndarray
    mask: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        entries = _integers(self.entries, "report entries")
        mask = np.asarray(self.mask, dtype=bool)
        alphabet_size = int(_integers(self.alphabet_size, "alphabet_size"))
        if entries.shape != mask.shape or entries.ndim != 2:
            raise DimensionMismatch("entries and mask must share an (n, T) shape")
        if entries[mask].size and (
            entries[mask].min() < 0 or entries[mask].max() >= alphabet_size
        ):
            raise DimensionMismatch("report entries outside the alphabet")
        entries.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    @classmethod
    def full(cls, entries, alphabet_size: int) -> "ReportMatrix":
        entries = np.asarray(entries)
        return cls(entries, np.ones(entries.shape, dtype=bool), alphabet_size)

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]

    @property
    def n_questions(self) -> int:
        return self.entries.shape[1]

    def answered(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.mask[i])


def _sample_signal_tuples(scenario: Scenario, T: int, rng) -> np.ndarray:
    """T iid draws of all n agents' private signals, shape (n, T)."""
    prior = scenario.prior
    n = scenario.n_agents
    m = scenario.alphabet_size
    if isinstance(prior, FullJointPrior):
        flat = prior.tensor.reshape(-1)
        draws = rng.choice(flat.size, size=T, p=flat)
        return np.array(np.unravel_index(draws, prior.tensor.shape))
    if isinstance(prior, WorldModelPrior):
        states = rng.choice(prior.n_states, size=T, p=prior.state_probs.weights)
        table = np.stack([s.weights for s in prior.states])
        return _inverse_cdf(table[states], rng.random((n, T)))
    if isinstance(prior, PairwisePrior):
        if n != 2:
            raise UnsupportedPriorMode(
                "a pairwise prior is only generative for 2 agents; "
                "use a full-joint or world-model prior"
            )
        flat = prior.joint.table.reshape(-1)
        draws = rng.choice(flat.size, size=T, p=flat)
        return np.array(np.unravel_index(draws, (m, m)))
    raise UnsupportedPriorMode(f"unknown prior {type(prior).__name__}")


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: for each uniform ``u``, the first index whose
    cumulative weight reaches it.  ``weights`` holds distributions along its
    last axis and broadcasts against ``u``.  The last cumulative weight is
    pinned to 1, so weights summing to just under 1 (within ``NORM_TOL``)
    still map every u < 1 into the alphabet."""
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = 1.0
    return (u[..., None] > cdf).sum(axis=-1)


def generate_reports(scenario: Scenario, T: int, seed: RngSeed) -> ReportMatrix:
    """Sample a full report matrix: T iid questions through each agent's
    effort coin and report channel.  Deterministic per seed."""
    T = int(_integers(T, "T"))
    if T < 0:
        raise DimensionMismatch("T must be >= 0")
    m = scenario.alphabet_size
    n = scenario.n_agents
    rng = rng_from_seed(seed)
    if T == 0:
        empty = np.zeros((n, 0), dtype=np.intp)
        return ReportMatrix(empty, np.zeros((n, 0), dtype=bool), m)
    signals = _sample_signal_tuples(scenario, T, rng)
    entries = np.zeros((n, T), dtype=np.intp)
    for i in range(n):
        eff = scenario.effort(i)
        coin = rng.random(T) < eff.full_effort_prob
        u = rng.random(T)
        full = _inverse_cdf(scenario.strategies[i].channel.rows[signals[i]], u)
        lazy = _inverse_cdf(eff.resolve_no_effort(m).weights, u)
        entries[i] = np.where(coin, full, lazy)
    return ReportMatrix.full(entries, m)


def empirical_pair_joint(
    reports: ReportMatrix, i: int, j: int | Sequence[int]
) -> JointDistribution:
    """Count matrix over the questions both agents answered, normalized.

    ``j`` may also be a sequence of agents: the reference agent J is then
    uniform over ``j``, and the result is the conditional-mode joint of (J,
    report_i, report_J) whose slice J = j is the count matrix of (i, j) divided
    by len(j).  The counts are one bincount of integer codes (slice offset plus
    cell; unshared questions go past the last slice), in O(len(j) * T) memory.
    """
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


# ---------------------------------------------------------------------------
# Scenario relabeling
# ---------------------------------------------------------------------------


def permute_strategy(strategy: Strategy, perm: TransitionMatrix) -> Strategy:
    """Relabel a strategy's inputs: the new channel on signal s plays the old
    channel's row pi(s).  Outputs are left unrelabeled, so the permuted
    strategy applied to a pi-inverse-relabeled signal reproduces the original
    report distribution exactly."""
    pmap = perm.permutation_indices()
    if perm.shape[0] != strategy.alphabet_size:
        raise DimensionMismatch("permutation alphabet differs from strategy alphabet")
    return Strategy(TransitionMatrix(strategy.channel.rows[pmap, :].copy()), strategy.label)


def _permute_prior(prior: Prior, perms: PermutationList) -> Prior:
    maps = [perms.index_map(i) for i in range(len(perms))]
    if isinstance(prior, FullJointPrior):
        if len(perms) != prior.n_agents:
            raise DimensionMismatch("one permutation per agent")
        return FullJointPrior(prior.tensor[np.ix_(*maps)].copy())
    symmetric_list = all(np.array_equal(maps[0], p) for p in maps[1:])
    if not symmetric_list:
        raise UnsupportedPriorMode(
            "pairwise and world-model priors only support symmetric permutation lists"
        )
    p = maps[0]
    if isinstance(prior, PairwisePrior):
        return PairwisePrior(
            JointDistribution(prior.joint.table[np.ix_(p, p)].copy()), prior.symmetric
        )
    if isinstance(prior, WorldModelPrior):
        states = tuple(Distribution(s.weights[p].copy()) for s in prior.states)
        return WorldModelPrior(prior.state_probs, states)
    raise UnsupportedPriorMode(f"unknown prior {type(prior).__name__}")


def permute_scenario(scenario: Scenario, perms: PermutationList) -> Scenario:
    """The relabeled twin of a scenario: prior relabeled by the inverse list,
    each strategy's inputs relabeled by its own permutation.

    The twin is coupled to the original by relabeling every agent's signal,
    so each agent reports with the same distribution and holds the same
    beliefs; any mechanism therefore pays the two scenarios identically.
    Applying the inverse list undoes the operation exactly.
    """
    if len(perms) != scenario.n_agents:
        raise DimensionMismatch("one permutation per agent")
    if perms.alphabet_size != scenario.alphabet_size:
        raise DimensionMismatch("permutation alphabet differs from scenario alphabet")
    strategies = tuple(
        permute_strategy(s, perms.perms[i]) for i, s in enumerate(scenario.strategies)
    )
    return Scenario(_permute_prior(scenario.prior, perms), strategies, scenario.efforts)


# ---------------------------------------------------------------------------
# Scenario files (JSON, lossless float round-trip)
# ---------------------------------------------------------------------------

SCENARIO_SCHEMA_VERSION = 1


def _prior_to_dict(prior: Prior) -> dict:
    if isinstance(prior, PairwisePrior):
        return {
            "mode": "pairwise",
            "table": prior.joint.table.tolist(),
            "symmetric": prior.symmetric,
        }
    if isinstance(prior, FullJointPrior):
        return {"mode": "full_joint", "tensor": prior.tensor.tolist()}
    if isinstance(prior, WorldModelPrior):
        return {
            "mode": "world_model",
            "state_probs": prior.state_probs.weights.tolist(),
            "states": [s.weights.tolist() for s in prior.states],
        }
    raise UnsupportedPriorMode(f"unknown prior {type(prior).__name__}")


def _prior_from_dict(d: dict) -> Prior:
    mode = d.get("mode")
    if mode == "pairwise":
        return PairwisePrior(JointDistribution(np.array(d["table"])), d.get("symmetric", True))
    if mode == "full_joint":
        return FullJointPrior(np.array(d["tensor"]))
    if mode == "world_model":
        return WorldModelPrior(
            Distribution(np.array(d["state_probs"])),
            tuple(Distribution(np.array(s)) for s in d["states"]),
        )
    raise UnsupportedPriorMode(f"unknown prior mode {mode!r}")


def scenario_to_dict(scenario: Scenario) -> dict:
    d = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "prior": _prior_to_dict(scenario.prior),
        "strategies": [
            {"channel": s.channel.rows.tolist(), "label": s.label} for s in scenario.strategies
        ],
        "efforts": None,
    }
    if scenario.efforts is not None:
        d["efforts"] = [
            {
                "full_effort_prob": e.full_effort_prob,
                "cost": e.cost,
                "no_effort_report": (
                    None if e.no_effort_report is None else e.no_effort_report.weights.tolist()
                ),
            }
            for e in scenario.efforts
        ]
    return d


def scenario_from_dict(d: dict) -> Scenario:
    strategies = tuple(
        Strategy(TransitionMatrix(np.array(s["channel"])), s.get("label", ""))
        for s in d["strategies"]
    )
    efforts = None
    if d.get("efforts") is not None:
        efforts = tuple(
            EffortStrategy(
                e["full_effort_prob"],
                e["cost"],
                None if e.get("no_effort_report") is None else Distribution(
                    np.array(e["no_effort_report"])
                ),
            )
            for e in d["efforts"]
        )
    return Scenario(_prior_from_dict(d["prior"]), strategies, efforts)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
