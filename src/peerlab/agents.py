"""Agent models: priors, report strategies, effort strategies, scenarios.

A *scenario* bundles a prior over private signals, one report channel per
agent and (optionally) one zero-one effort strategy per agent; it is the unit
of simulation (``generate_reports``).  A relabeling (``PermutationList``) is one
integer index map per agent, and relabels arrays: channel rows and each prior
mode's raw arrays are gathered for T map lists at once.  ``permute_scenario`` is
the one-object wrapper of that gather, and validates the twin it builds.

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

Exact report tables have one builder, ``_report_tables``: aᵀ q b on report channels, each
agent's effort folded into hers by ``_effort_rows``.  Counted ones have the Gram kernel
``_count_tables``.  Both take blocks of agents; ``report_joint`` and ``empirical_pair_joint``
are their public forms for one agent pair.  The Gram kernel counts each unordered agent pair
once, into a store of n(n-1)/2·m² counts under all-pairs pairing (64 MB at n = 1000 and
m = 4), ANDing each lower agent's packed reports with all its partners' in steps of at most
``COUNT_CELLS`` cells; it reads the reverse pair transposed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingField,
    ModeMismatch,
    NoOverlap,
    UnsupportedPriorMode,
    WrongFieldType,
    WrongRank,
)
from .probability import (
    Distribution,
    JointDistribution,
    RngSeed,
    TransitionMatrix,
    _check_seed,
    _floats,
    _index,
    _int_at_least,
    _integers,
    _validated_tables,
    identity_channel,
    rng_from_seed,
    uniform_distribution,
)

MAX_FULL_JOINT_AGENTS = 6


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


class _PairJoints:
    """What the prior modes share.  A *stack* holds a mode's raw arrays, named as in the
    scenario file, each with a leading axis of S priors; ``_stack()`` is the prior's own,
    S = 1.  Each mode has one pair-table body, ``_pairs(own, refs, stack)``: the
    (S, agents, k, m, m) signal-pair tables of each agent of ``own`` (rows) with each agent of
    its row of ``refs``.  ``_relabel(maps, stack)`` gathers a stack for T maps (T, n, m), S
    being 1 or T.  Both read ``_stack()`` when ``stack`` is None."""

    def _agent(self, value, name: str) -> int:
        return _int_at_least(value, 0, name)

    def _agent_pair(self, i, j) -> tuple[int, int]:
        """Two distinct agent indices: whole numbers >= 0 (below n under a full joint)."""
        i, j = self._agent(i, "i"), self._agent(j, "j")
        if i == j:
            raise DimensionMismatch("a pair joint needs two distinct agents")
        return i, j

    def pair_joint(self, i: int, j: int) -> JointDistribution:
        i, j = self._agent_pair(i, j)
        return JointDistribution(self._pairs([i], [[j]])[0, 0, 0])


@dataclass(frozen=True)
class PairwisePrior(_PairJoints):
    """One signal-pair joint shared by all ordered agent pairs.

    ``joint`` is Q(signal_i, signal_j) for i < j; the reverse order uses the
    transpose.  When ``symmetric`` is set the table must equal its transpose
    (the symmetric-prior assumption); asymmetric tables are allowed with the
    flag cleared, which is what the strictness suites need, since a symmetric
    table can never be fine-grained (mirror cells share likelihood ratios).
    """

    joint: JointDistribution
    symmetric: bool = True
    _MODE = "pairwise"

    def __post_init__(self):
        if not isinstance(self.joint, JointDistribution):
            raise ModeMismatch(f"PairwisePrior needs a JointDistribution, got {self.joint!r}")
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise ModeMismatch(f"symmetric must be a bool, not {type(self.symmetric).__name__}")
        table = self.joint._require_pairwise("PairwisePrior")
        if table.shape[0] != table.shape[1]:
            raise DimensionMismatch("pairwise prior must be square")
        if self.symmetric:  # np.allclose(table, table.T, atol=1e-12) on a finite table
            if not np.all(np.abs(table - table.T) <= 1e-12 + 1e-5 * np.abs(table.T)):
                raise ModeMismatch("prior flagged symmetric but table is not")

    @property
    def alphabet_size(self) -> int:
        return self.joint.shape[0]

    def _stack(self) -> dict:
        return {"table": self.joint.table[None]}

    def _pairs(self, own, refs, stack=None) -> np.ndarray:
        tables = (stack or self._stack())["table"][:, None, None]
        later = (np.asarray(refs) > np.asarray(own)[:, None])[..., None, None]
        return np.where(later, tables, tables.swapaxes(-1, -2))

    def _relabel(self, maps, stack=None) -> dict:
        tables, p = (stack or self._stack())["table"], maps[:, 0]
        return {"table": tables[np.arange(len(tables))[:, None, None], p[:, :, None], p[:, None]]}


@dataclass(frozen=True)
class FullJointPrior(_PairJoints):
    """Explicit joint over all n agents' signals, one tensor axis per agent."""

    tensor: np.ndarray
    _MODE = "full_joint"

    def __post_init__(self):
        arr = _floats(self.tensor, "full-joint tensor")
        if arr.ndim < 2:
            raise WrongRank("full-joint prior needs at least 2 agents")
        if arr.ndim > MAX_FULL_JOINT_AGENTS:
            raise UnsupportedPriorMode(
                f"full-joint prior supports at most {MAX_FULL_JOINT_AGENTS} agents"
            )
        if len(set(arr.shape)) != 1:
            raise DimensionMismatch("all agents must share one signal alphabet")
        object.__setattr__(self, "tensor", _validated_tables(arr, arr.ndim, "full-joint tensor"))

    @property
    def n_agents(self) -> int:
        return self.tensor.ndim

    @property
    def alphabet_size(self) -> int:
        return self.tensor.shape[0]

    def _agent(self, value, name: str) -> int:
        return _index(value, self.n_agents, name)

    def _stack(self) -> dict:
        return {"tensor": self.tensor[None]}

    def _pairs(self, own, refs, stack=None) -> np.ndarray:
        """One marginal over the whole stack per agent pair."""
        tensors, refs = (stack or self._stack())["tensor"], np.asarray(refs)
        s, m = len(tensors), tensors.shape[-1]
        pairs = [np.moveaxis(tensors, (1 + i, 1 + j), (1, 2)).reshape(s, m, m, -1).sum(axis=-1)
                 for i, row in zip(np.asarray(own).tolist(), refs.tolist()) for j in row]
        return np.stack(pairs, axis=1).reshape(s, *refs.shape, m, m)

    def _relabel(self, maps, stack=None) -> dict:
        tensors, (t, n, m) = (stack or self._stack())["tensor"], maps.shape
        index = [maps[:, a].reshape(t, *[1] * a, m, *[1] * (n - 1 - a)) for a in range(n)]
        return {"tensor": tensors[(np.arange(len(tensors)).reshape(-1, *[1] * n), *index)]}


@dataclass(frozen=True)
class WorldModelPrior(_PairJoints):
    """Latent world state w ~ state_probs; signals iid from states[w]."""

    state_probs: Distribution
    states: tuple[Distribution, ...]
    _MODE = "world_model"

    def __post_init__(self):
        states = tuple(self.states)
        if not all(isinstance(d, Distribution) for d in (self.state_probs, *states)):
            raise ModeMismatch("WorldModelPrior needs Distributions for state_probs and states")
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

    def _stack(self) -> dict:
        return {"state_probs": self.state_probs.weights[None],
                "states": np.stack([s.weights for s in self.states])[None]}

    def _pairs(self, own, refs, stack=None) -> np.ndarray:
        """One table per prior of the stack, shared by every agent pair."""
        shared = _state_pair_tables(stack or self._stack()).sum(axis=-3)[:, None, None]
        return np.broadcast_to(shared, (len(shared), *np.shape(refs), *shared.shape[-2:]))

    def _relabel(self, maps, stack=None) -> dict:
        stack = stack or self._stack()
        return {"state_probs": np.broadcast_to(stack["state_probs"], (len(maps), self.n_states)),
                "states": np.take_along_axis(stack["states"], maps[:, :1], axis=2)}

    def signal_pair_tensor(self) -> JointDistribution:
        """Conditional-mode joint over (Z = world state, X = signal_i, Y = signal_j)."""
        return JointDistribution(_state_pair_tables(self._stack())[0])


def _state_pair_tables(stack: dict) -> np.ndarray:
    """Per world state of each world of a stack, its probability times the joint of two iid
    signals: (S, w, m, m)."""
    states = stack["states"]
    return stack["state_probs"][..., None, None] * (states[..., :, None] * states[..., None, :])


Prior = Union[PairwisePrior, FullJointPrior, WorldModelPrior]


# ---------------------------------------------------------------------------
# Strategies and efforts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """A report channel: row sigma is the report distribution on signal sigma."""

    channel: TransitionMatrix
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ModeMismatch(f"label must be a str, not {type(self.label).__name__}")

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
        for name in ("full_effort_prob", "cost"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise DimensionMismatch(f"{name} must be a real number, not {value!r}")
        if not 0.0 <= self.full_effort_prob <= 1.0:
            raise DimensionMismatch("full_effort_prob must lie in [0, 1]")
        if not (math.isfinite(self.cost) and self.cost >= 0.0):
            raise DimensionMismatch("cost must be finite and non-negative")
        if not isinstance(self.no_effort_report, (Distribution, type(None))):
            raise ModeMismatch("no_effort_report must be a Distribution or None, not "
                               f"{type(self.no_effort_report).__name__}")

    def resolve_no_effort(self, m: int) -> Distribution:
        if self.no_effort_report is None:
            return uniform_distribution(m)
        if self.no_effort_report.size != m:
            raise DimensionMismatch("no_effort_report alphabet mismatch")
        return self.no_effort_report


FULL_EFFORT = EffortStrategy()


@dataclass(frozen=True)
class PermutationList:
    """One signal relabeling per agent: row i of ``maps`` sends agent i's signal
    sigma to ``maps[i, sigma]``.  Validated once; ``maps`` is read-only."""

    maps: np.ndarray

    def __post_init__(self):
        try:
            maps = np.array(self.maps)
        except ValueError as exc:
            raise DimensionMismatch("permutations must share one alphabet") from exc
        if maps.ndim != 2 or maps.size == 0:
            raise DimensionMismatch("need one non-empty map per agent, all of one length")
        maps = _integers(maps, "permutation maps")
        if np.any(np.sort(maps, axis=1) != np.arange(maps.shape[1])):
            raise DimensionMismatch(f"every map must be a permutation of 0..{maps.shape[1] - 1}")
        maps.setflags(write=False)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def symmetric(cls, mapping: Sequence[int], n: int) -> "PermutationList":
        return cls([mapping] * n)

    def __len__(self) -> int:
        return self.maps.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.maps.shape[1]

    def inverse(self) -> "PermutationList":
        return PermutationList(_inverse_maps(self.maps))


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
        if not isinstance(self.prior, Prior):
            raise UnsupportedPriorMode(f"unknown prior {type(self.prior).__name__}")
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
    j: int,
    s_i: Strategy,
    s_j: Strategy,
    eff_i: EffortStrategy | None = None,
    eff_j: EffortStrategy | None = None,
) -> JointDistribution:
    """Exact joint of the two agents' reports, each through her channel with her effort
    folded in (:func:`_effort_rows`).  This validates the inputs and hands them to
    :func:`_report_tables`."""
    i, j = prior._agent_pair(i, j)
    a, b, m = s_i.channel.rows, s_j.channel.rows, prior.alphabet_size
    if a.shape[0] != m or b.shape[0] != m:
        raise DimensionMismatch("strategy alphabet differs from prior alphabet")
    a, b = (_effort_rows(rows, e.full_effort_prob, e.resolve_no_effort(rows.shape[1]).weights)
            for rows, e in ((a, eff_i or FULL_EFFORT), (b, eff_j or FULL_EFFORT)))
    return JointDistribution(_report_tables(a, b[None], prior._pairs([i], [[j]])[0, 0])[0])


def _effort_rows(rows, prob, weights) -> np.ndarray:
    """The one place the zero-one effort model enters the exact tables.  An agent with channel
    ``rows`` (..., m, m') who invests with probability ``prob`` and else reports a draw from
    ``weights`` (..., m') reports through one channel, prob·rows + (1 - prob)·1·weightsᵀ;
    ``prob`` broadcasts against it.  At prob = 1 it is ``rows``, bit for bit."""
    return prob * rows + (1.0 - prob) * weights[..., None, :]


def _report_tables(a, b, q) -> np.ndarray:
    """Every exact report table is built here: per reference agent J of k, agent i's joint
    report table with it, aᵀ q b, divided by k, so that the validated (..., k, m', m') result
    is the conditional-mode joint of (J, report_i, report_J) with J uniform over the k agents.

    ``a`` (..., m, m') is agent i's report channel; ``b`` (..., k, m, m') and ``q``
    (..., k, m, m) hold one report channel and signal-pair table per reference agent.
    Leading axes broadcast against one another, ``a`` carrying a unit reference axis; each
    table of the stack has the bits of the call on its slice alone.
    """
    tables = a.swapaxes(-1, -2) @ q @ b
    return _validated_tables(tables / tables.shape[-3], rank=3)


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
    if len({mat.shape for mat in mats}) != 1 or mats[0].shape[0] != prior.alphabet_size:
        raise DimensionMismatch("strategies need one channel shape on the world-state alphabet")
    return tuple(map(Distribution, _reported_states(prior._stack(), np.stack(mats)[None])[0]))


def _reported_states(stack: dict, rows: np.ndarray) -> np.ndarray:
    """:func:`reported_world_states` of each world of a stack, (S, w, m'): its states seen
    through the mean of the agents' channels (S, n, m, m')."""
    return (stack["states"][:, None] @ rows).mean(axis=-3)


def _world_tensors(stack: dict, reported: np.ndarray) -> np.ndarray:
    """:func:`world_tensor` of each world of a stack, (S, m, w, m'), from its reported states
    (S, w, m')."""
    # C order, as a single world's product had: the score kernels' sums follow the layout
    omega = np.ascontiguousarray(stack["states"].swapaxes(-1, -2))[..., None]
    return stack["state_probs"][:, None, :, None] * (omega * reported[:, None])


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
    reported = np.stack([r.weights for r in reported_world_states(prior, strategies)])
    return JointDistribution(_world_tensors(prior._stack(), reported[None])[0])


# ---------------------------------------------------------------------------
# Sampled reports
# ---------------------------------------------------------------------------


def _read_only(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, read from the caller's ``given``, made read-only: copied if it is writeable and
    may share memory with a ``given`` array, else frozen in place."""
    if arr.flags.writeable and isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ReportMatrix:
    """n agents x T questions of reported signal indices, with an answered mask of bools
    or 0/1 integers.  Unanswered entries may hold any integers.  Both are kept read-only:
    a read-only input array is shared, a writeable one copied (:func:`_read_only`)."""

    entries: np.ndarray
    mask: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        entries = _integers(self.entries, "report entries")
        mask = np.asarray(self.mask)
        if mask.dtype != bool:
            if mask.dtype.kind not in "iu" or np.any((mask != 0) & (mask != 1)):
                raise DimensionMismatch(f"mask must hold bools or 0/1 integers, not {mask.dtype} "
                                        f"{mask.ravel()[:3]}")
            mask = mask.astype(bool)
        alphabet_size = _int_at_least(self.alphabet_size, 1, "alphabet_size")
        if entries.shape != mask.shape or entries.ndim != 2:
            raise DimensionMismatch("entries and mask must share an (n, T) shape")

        def outside(values):
            return values.size and (values.min() < 0 or values.max() >= alphabet_size)

        if outside(entries) and outside(entries[mask]):  # copies the answered ones only then
            raise DimensionMismatch("report entries outside the alphabet")
        object.__setattr__(self, "entries", _read_only(entries, self.entries))
        object.__setattr__(self, "mask", _read_only(mask, self.mask))
        object.__setattr__(self, "alphabet_size", alphabet_size)

    @classmethod
    def full(cls, entries, alphabet_size: int) -> "ReportMatrix":
        entries = np.asarray(entries)
        mask = np.ones(entries.shape, dtype=bool)
        mask.setflags(write=False)
        return cls(entries, mask, alphabet_size)

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]

    @property
    def n_questions(self) -> int:
        return self.entries.shape[1]

    def answered(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.mask[i])


COUNT_CELLS = 2**17  # 8-byte cells of scratch per step (1 MB, so that its arrays stay in cache)


def _sample_signal_tuples(scenario: Scenario, T: int, rng) -> np.ndarray:
    """T iid draws of all n agents' private signals, shape (n, T)."""
    prior, n = scenario.prior, scenario.n_agents
    if isinstance(prior, WorldModelPrior):
        states = rng.choice(prior.n_states, size=T, p=prior.state_probs.weights)
        table = np.stack([s.weights for s in prior.states])
        signals = np.empty((n, T), dtype=np.intp)
        block = max(COUNT_CELLS // (2 * T), 1)  # a block's uniforms and draws stay in cache
        for start in range(0, n, block):  # the rng stream of one (n, T) draw, block by block
            rows = signals[start:start + block]
            rows[:] = _inverse_cdf(table, rng.random(rows.shape), states)
        return signals
    if isinstance(prior, PairwisePrior) and n != 2:
        raise UnsupportedPriorMode(
            "a pairwise prior is only generative for 2 agents; "
            "use a full-joint or world-model prior"
        )
    table = prior.tensor if isinstance(prior, FullJointPrior) else prior.joint.table
    draws = rng.choice(table.size, size=T, p=table.reshape(-1))
    return np.array(np.unravel_index(draws, table.shape))


def _inverse_cdf(weights: np.ndarray, u: np.ndarray, rows=None) -> np.ndarray:
    """Inverse-CDF draws: for each uniform ``u``, the first index whose cumulative
    weight reaches it.  ``weights`` holds distributions along its last axis.  Without
    ``rows`` it broadcasts against ``u``; with ``rows``, an index into its leading
    axes that broadcasts against ``u``, each u draws from its row.  The cumulative sums
    are taken before that gather, and counted one column at a time in the narrowest
    unsigned type that holds the alphabet size; the draws come back as intp.  The last
    column is never compared: it counts as 1, so weights summing to just under 1 (within
    ``NORM_TOL``) still map every u < 1 into the alphabet."""
    cdf = np.cumsum(weights, axis=-1)
    draws = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.shape[-1]))
    for k in range(cdf.shape[-1] - 1):
        column = cdf[..., k]
        draws += u > (column if rows is None else column[rows])
    return draws.astype(np.intp)


def generate_reports(scenario: Scenario, T: int, seed: RngSeed) -> ReportMatrix:
    """Sample a full report matrix: T iid questions through each agent's
    effort coin and report channel.  Deterministic per seed.

    Per agent, its channel rows and its no-effort weights are one (m+1, m) table: a
    question whose effort coin comes up draws from the row of its signal, any other from
    row m, with one uniform per question either way."""
    T = _int_at_least(T, 0, "T")
    _check_seed(seed)
    m = scenario.alphabet_size
    n = scenario.n_agents
    rng = rng_from_seed(seed)
    if T == 0:
        empty = np.zeros((n, 0), dtype=np.intp)
        return ReportMatrix(empty, np.zeros((n, 0), dtype=bool), m)
    entries = _sample_signal_tuples(scenario, T, rng)  # row i becomes agent i's reports
    for i in range(n):
        eff = scenario.effort(i)
        rows = np.vstack([scenario.strategies[i].channel.rows, eff.resolve_no_effort(m).weights])
        coin = rng.random(T) < eff.full_effort_prob
        u = rng.random(T)
        entries[i] = _inverse_cdf(rows, u, np.where(coin, entries[i], m))
    entries.setflags(write=False)  # handed over, not copied
    return ReportMatrix.full(entries, m)


def _packed_one_hot(reports: ReportMatrix, agents: np.ndarray) -> np.ndarray:
    """The masked one-hot report array F of ``agents`` (ascending and distinct), bit-packed
    along the questions: (agents + 1, m, words) in uint64, bit q of word w of (i, a) set when
    the i-th listed agent answered question 64·w + q with report a, and the last row zero.
    Blocks of report rows are compared in the narrowest unsigned type that holds m, masked
    once packed (an unanswered entry may wrap), and gathered only if some agent is unlisted."""
    T, m = reports.n_questions, reports.alphabet_size
    packed = np.zeros((len(agents) + 1, m, -(-T // 64) * 8), dtype=np.uint8)
    block = max(8 * COUNT_CELLS // max(T, 1), 1)  # a block of one-byte rows fills COUNT_CELLS cells
    for start in range(0, len(agents), block):
        at = slice(start, min(start + block, len(agents)))
        rows = at if len(agents) == reports.n_agents else agents[at]
        entries = reports.entries[rows].astype(np.min_scalar_type(m))
        answered = np.packbits(reports.mask[rows], axis=-1)
        for a in range(m):
            packed[at, a, :(T + 7) // 8] = np.packbits(entries == a, axis=-1) & answered
    return packed.view(np.uint64)


def _count_tables(reports: ReportMatrix, agents: np.ndarray, refs: np.ndarray):
    """Per block of consecutive agents of ``agents``, the empirical pair joint of each agent
    with each agent of its row of ``refs`` (one row of k reference agents per agent), shaped
    (agents in the block, k, m, m).

    With F the masked one-hot report array, rows i·m + a and one column per question, the
    count of report pair (a, b) for agents (i, j) is entry (i·m + a, j·m + b) of the Gram
    product F Fᵀ.  F Fᵀ is symmetric, so each requested pair maps to its unordered key
    (min, max), through one ``np.unique``, and each distinct key is counted once; an agent
    reads its table with a lower-numbered reference transposed.  The store of the keys' m x m
    counts, in the narrowest unsigned type that holds T, has n(n-1)/2·m² counts under all-pairs
    pairing (39 KB at n = 50, 16 MB at n = 1000; m = 4, T = 10⁴), at most n tables if seeded.

    F is bit-packed agent-major (:func:`_packed_one_hot`).  Each lower agent's run of keys is
    cut into pieces of at most ``slots`` keys, whose ANDs and operands over all T questions fit
    ``COUNT_CELLS`` cells.  Longest first, as many pieces as fit share a step, padded to the
    first's length by F's zero row (whose counts are dropped); a step ANDs each piece's lower
    agent's m words, gathered once, with all its partners' m words, splitting the words when
    one key does not fit.  That is n(n-1)/2·m²·T/64 word operations under all-pairs pairing and
    at most n·m²·T/64 plus padding under seeded pairing.  Popcount sums are taken in the
    narrowest unsigned type that holds 64 per word of the step (exact), then stored.
    The shared-question total of (i, j), the Gram of the answer mask, is the sum of its
    m x m table, and each table is its counts divided by that total.  The first agent in
    order with a reference it shares no answered question with raises :class:`NoOverlap`,
    naming its first such reference.
    """
    m, k = reports.alphabet_size, refs.shape[1]
    listed, at = np.unique(np.concatenate([agents, refs.ravel()]), return_inverse=True)
    own, ref = np.repeat(at[:len(agents)], k), at[len(agents):]
    keys, key_at = np.unique(np.minimum(own, ref) * listed.size + np.maximum(own, ref),
                             return_inverse=True)
    low, high = keys // listed.size, np.append(keys % listed.size, listed.size)  # pad: F's 0 row
    bits = _packed_one_hot(reports, listed)
    cells = m * (m + 2)  # per pair slot and word: the m·m ANDs, both agents' m words
    slots = max(COUNT_CELLS // (cells * max(bits.shape[-1], 1)), 1)  # T = 0 packs no word
    first = np.flatnonzero((np.arange(keys.size) - np.searchsorted(low, low)) % slots == 0)
    sizes = np.diff(first, append=keys.size)  # the pieces: their first keys and their sizes
    first, sizes = np.stack([first, sizes])[:, np.argsort(-sizes, kind="stable")]  # longest first
    store = np.zeros((keys.size + 1, m, m), dtype=np.min_scalar_type(reports.n_questions))
    start = 0
    while start < first.size:
        pieces, col = slice(start, start + slots // sizes[start]), np.arange(sizes[start])
        slot = np.where(col < sizes[pieces, None], first[pieces, None] + col, keys.size)
        lows, highs = low[first[pieces]], high[slot[:, None]]
        step = max(COUNT_CELLS // (slot.size * cells), 1)
        for w in range(0, bits.shape[-1], step):  # ANDs (pieces, m, width, m, words)
            pairs = bits[lows, :, None, None, w:w + step] & bits[highs, :, w:w + step]
            counts = np.bitwise_count(pairs).sum(-1, dtype=np.min_scalar_type(64 * step))
            store[slot] += counts.transpose(0, 2, 1, 3)
        start = pieces.stop
    key_at, flip = key_at.reshape(refs.shape), (own > ref).reshape(refs.shape)[..., None, None]
    block = max(COUNT_CELLS // max(k * m * m, 1), 1)
    for start in range(0, len(agents), block):
        tables = store[key_at[start:start + block]]
        tables = np.where(flip[start:start + block], tables.swapaxes(-1, -2), tables)
        totals = tables.sum(axis=(-2, -1))
        if not totals.all():
            r, c = np.argwhere(totals == 0)[0]
            raise NoOverlap(f"agents {agents[start + r]} and {refs[start + r, c]} "
                            "share no answered question")
        yield tables / totals[..., None, None]


def empirical_pair_joint(reports: ReportMatrix, i: int, j: int) -> JointDistribution:
    """Count matrix over the questions both agents answered, normalized.

    The counts are entries of the Gram product F Fᵀ of the masked one-hot report
    array F, taken as popcounts of bit-packed words (:func:`_count_tables`).
    """
    i, j = _index(i, reports.n_agents, "i"), _index(j, reports.n_agents, "j")
    (tables,) = _count_tables(reports, np.array([i]), np.array([[j]]))
    return JointDistribution(tables[0, 0])


# ---------------------------------------------------------------------------
# Scenario relabeling
# ---------------------------------------------------------------------------


def _inverse_maps(maps: np.ndarray) -> np.ndarray:
    """The inverse of each relabeling map along the last axis."""
    return np.argsort(maps, axis=-1)


def _relabel_rows(rows: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Channels (..., n, m, m') relabeled by maps (..., n, m): agent i's row s becomes its
    row ``maps[..., i, s]``; leading axes broadcast."""
    return np.take_along_axis(rows, maps[..., None], axis=-2)


def permute_scenario(scenario: Scenario, perms: PermutationList) -> Scenario:
    """The relabeled twin of a scenario: prior relabeled by the inverse list,
    each strategy's row s replaced by its old row pi(s), outputs unrelabeled.

    The twin is coupled to the original by relabeling every agent's signal,
    so each agent reports with the same distribution and holds the same
    beliefs; any mechanism therefore pays the two scenarios identically.
    Applying the inverse list undoes the operation exactly.  This is the
    one-object form of the array gathers (the channels' rows, the prior's
    ``_relabel``), and the one place that validates a twin.
    """
    if not isinstance(scenario, Scenario) or not isinstance(perms, PermutationList):
        raise ModeMismatch("permute_scenario needs a Scenario and a PermutationList")
    if len(perms) != scenario.n_agents:
        raise DimensionMismatch("one permutation per agent")
    if perms.alphabet_size != scenario.alphabet_size:
        raise DimensionMismatch("permutation alphabet differs from scenario alphabet")
    prior, maps = scenario.prior, perms.maps
    if not isinstance(prior, FullJointPrior) and np.any(maps != maps[0]):
        raise UnsupportedPriorMode(
            "pairwise and world-model priors only support symmetric permutation lists"
        )
    rows = _relabel_rows(np.stack([s.channel.rows for s in scenario.strategies]), maps)
    strategies = tuple(Strategy(TransitionMatrix(r), s.label)
                       for s, r in zip(scenario.strategies, rows))
    # the stack's arrays are named as in the scenario file, whose reader builds the twin's prior
    relabeled = {name: arr[0] for name, arr in prior._relabel(maps[None]).items()}
    prior = _prior_from_dict({**_prior_to_dict(prior), **relabeled})
    return Scenario(prior, strategies, scenario.efforts)


# ---------------------------------------------------------------------------
# Scenario files (JSON, lossless float round-trip)
# ---------------------------------------------------------------------------

SCENARIO_SCHEMA_VERSION = 1


def _prior_to_dict(prior: Prior) -> dict:
    d = {"mode": prior._MODE, **{name: arr[0].tolist() for name, arr in prior._stack().items()}}
    if isinstance(prior, PairwisePrior):
        d["symmetric"] = bool(prior.symmetric)
    return d


_JSON_TYPES = {"object": dict, "array": (list, tuple, np.ndarray), "boolean": bool, "string": str}


def _node(node, kind: str, what: str):
    """``node``, or WrongFieldType naming ``what`` and the JSON type ``kind`` it must have."""
    if not isinstance(node, _JSON_TYPES[kind]):
        raise WrongFieldType(f"{what} must be a JSON {kind}, not {type(node).__name__}")
    return node


def _field(d: dict, key: str, what: str):
    """``d[key]`` of the JSON object ``d``, or MissingField naming the key that ``what`` lacks."""
    try:
        return _node(d, "object", what)[key]
    except KeyError:
        raise MissingField(f"{what} has no {key!r} key") from None


def _prior_from_dict(d: dict) -> Prior:
    mode = _node(d, "object", "prior").get("mode")
    if mode == "pairwise":
        table = np.array(_field(d, "table", "pairwise prior"))
        symmetric = _node(d.get("symmetric", True), "boolean", "pairwise prior 'symmetric'")
        return PairwisePrior(JointDistribution(table), symmetric)
    if mode == "full_joint":
        return FullJointPrior(np.array(_field(d, "tensor", "full-joint prior")))
    if mode == "world_model":
        return WorldModelPrior(
            Distribution(np.array(_field(d, "state_probs", "world-model prior"))),
            tuple(Distribution(np.array(s)) for s in _node(
                _field(d, "states", "world-model prior"), "array", "world-model prior 'states'")),
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
                "full_effort_prob": float(e.full_effort_prob),
                "cost": float(e.cost),
                "no_effort_report": (
                    None if e.no_effort_report is None else e.no_effort_report.weights.tolist()
                ),
            }
            for e in scenario.efforts
        ]
    return d


def scenario_from_dict(d: dict) -> Scenario:
    strategies = tuple(
        Strategy(TransitionMatrix(np.array(_field(s, "channel", "strategy"))),
                 _node(s.get("label", ""), "string", "strategy 'label'"))
        for s in _node(_field(d, "strategies", "scenario"), "array", "scenario 'strategies'")
    )
    efforts = None
    if d.get("efforts") is not None:
        efforts = tuple(
            EffortStrategy(
                _field(e, "full_effort_prob", "effort"),
                _field(e, "cost", "effort"),
                None if e.get("no_effort_report") is None else Distribution(
                    np.array(e["no_effort_report"])
                ),
            )
            for e in _node(d["efforts"], "array", "scenario 'efforts'")
        )
    return Scenario(_prior_from_dict(_field(d, "prior", "scenario")), strategies, efforts)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
