"""Finite-alphabet probability primitives.

Distributions, pairwise and conditional joints, row-stochastic channels,
marginalization, conditioning, channel application, and seeded sampling.
Signals are indices 0..m-1; an optional label table can be attached to joints
for presentation only.

All values are immutable after construction (arrays are set read-only), so
they are safe to share across threads; sampling takes an explicit seed so
parallel trials can partition seed space.

Conventions
-----------
* A channel ``M`` maps a row vector of probabilities on its input alphabet to
  ``M.T @ p`` on its output alphabet: ``M[i, j] = Pr[out=j | in=i]``.
* Construction tolerance on normalization is ``NORM_TOL`` (1e-9); internal
  identities are expected to hold to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyAlphabet,
    NegativeWeight,
    WrongRank,
    ZeroConditioningEvent,
    ZeroMass,
)

NORM_TOL = 1e-9

# Seeds are plain non-negative integers (< 2**64).  The underlying generator
# is numpy's PCG64, which is versioned and documented; identical seeds
# reproduce identical sample streams.
RngSeed = int


def _validated_array(values, name: str, allow_tiny_negative: bool = True) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyAlphabet(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise NegativeWeight(f"{name} contains non-finite entries")
    if allow_tiny_negative:
        # rounding noise from mixtures (e.g. 1 - lam products) is clipped,
        # anything worse is a genuine contract violation
        arr = np.where((arr < 0) & (arr > -1e-12), 0.0, arr)
    if np.any(arr < 0):
        raise NegativeWeight(f"{name} contains negative entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite signal alphabet (dimensionless)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.weights, "weights")
        if arr.ndim != 1:
            raise WrongRank("a Distribution is one-dimensional")
        if abs(float(arr.sum()) - 1.0) > NORM_TOL:
            raise ZeroMass(f"weights sum to {arr.sum()!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "weights", arr)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, sigma: int) -> float:
        return float(self.weights[sigma])


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an intp array; DimensionMismatch unless all are whole numbers below 2**53."""
    arr = np.asarray(values)
    whole = arr.dtype.kind == "f" and np.all((np.abs(arr) <= 2.0**53) & (arr == np.round(arr)))
    if arr.dtype.kind not in "biu" and not whole:
        raise DimensionMismatch(f"{name} must be integers, not {arr.dtype} {arr.ravel()[:3]}")
    return arr.astype(np.intp, copy=False)


def make_distribution(weights) -> Distribution:
    """Normalize a non-negative weight vector into a :class:`Distribution`.

    Raises ``EmptyAlphabet``, ``NegativeWeight`` or ``ZeroMass`` when the
    weights cannot describe a probability vector.
    """
    arr = _validated_array(weights, "weights", allow_tiny_negative=False)
    if arr.ndim != 1:
        raise WrongRank("weights must be one-dimensional")
    total = float(arr.sum())
    if total <= 0.0:
        raise ZeroMass("weights sum to zero")
    return Distribution(arr / total)


def uniform_distribution(m: int) -> Distribution:
    return Distribution(np.full(m, 1.0 / m))


def point_mass(m: int, sigma: int) -> Distribution:
    w = np.zeros(m)
    w[sigma] = 1.0
    return Distribution(w)


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution over two variables, or over (Z, X, Y) in conditional mode.

    Pairwise mode holds an ``m_X x m_Y`` table; conditional mode a rank-3
    ``m_Z x m_X x m_Y`` tensor whose total mass is 1 (slice ``z`` carries mass
    ``Pr[Z=z]``).
    """

    table: np.ndarray
    labels: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        arr = _validated_array(self.table, "table")
        if arr.ndim not in (2, 3):
            raise WrongRank(f"joint table must have rank 2 or 3, got {arr.ndim}")
        if abs(float(arr.sum()) - 1.0) > NORM_TOL:
            raise ZeroMass(f"table mass is {arr.sum()!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "table", arr)

    @property
    def is_conditional(self) -> bool:
        return self.table.ndim == 3

    @property
    def shape(self) -> tuple[int, ...]:
        return self.table.shape

    def transpose(self) -> "JointDistribution":
        if self.is_conditional:
            raise WrongRank("transpose is defined for pairwise joints")
        return JointDistribution(self.table.T.copy())

    def _require_pairwise(self, op: str) -> np.ndarray:
        if self.is_conditional:
            raise WrongRank(f"{op} requires a pairwise joint")
        return self.table

    def _require_conditional(self, op: str) -> np.ndarray:
        if not self.is_conditional:
            raise WrongRank(f"{op} requires a conditional-mode joint")
        return self.table


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic ``m x m'`` channel; rows index inputs, columns outputs."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.rows, "rows")
        if arr.ndim != 2:
            raise WrongRank("a TransitionMatrix is two-dimensional")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > NORM_TOL):
            raise ZeroMass(f"rows must sum to 1 within {NORM_TOL}, got {sums!r}")
        object.__setattr__(self, "rows", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    @property
    def is_permutation(self) -> bool:
        """True iff the matrix has exactly one 1 per row and per column."""
        arr = self.rows
        if arr.shape[0] != arr.shape[1]:
            return False
        ones = np.isclose(arr, 1.0, atol=1e-12)
        zeros = np.isclose(arr, 0.0, atol=1e-12)
        return bool(
            np.all(ones | zeros)
            and np.all(ones.sum(axis=0) == 1)
            and np.all(ones.sum(axis=1) == 1)
        )

    @property
    def is_identity(self) -> bool:
        arr = self.rows
        return arr.shape[0] == arr.shape[1] and bool(
            np.allclose(arr, np.eye(arr.shape[0]), atol=1e-12)
        )

    def permutation_indices(self) -> np.ndarray:
        """For a permutation matrix, the map ``sigma -> image(sigma)``."""
        if not self.is_permutation:
            raise WrongRank("not a permutation matrix")
        return np.argmax(self.rows, axis=1)

    def inverse_permutation(self) -> "TransitionMatrix":
        if not self.is_permutation:
            raise WrongRank("not a permutation matrix")
        return TransitionMatrix(self.rows.T.copy())


def identity_channel(m: int) -> TransitionMatrix:
    return TransitionMatrix(np.eye(m))


def permutation_channel(mapping) -> TransitionMatrix:
    """Channel deterministically relabeling ``sigma -> mapping[sigma]``."""
    mapping = np.asarray(mapping, dtype=np.intp)
    m = mapping.shape[0]
    if sorted(mapping.tolist()) != list(range(m)):
        raise DimensionMismatch(f"{mapping!r} is not a permutation of 0..{m - 1}")
    rows = np.zeros((m, m))
    rows[np.arange(m), mapping] = 1.0
    return TransitionMatrix(rows)


def constant_channel(m: int, output: Distribution) -> TransitionMatrix:
    """Signal-independent channel: every row equals ``output``."""
    return TransitionMatrix(np.tile(output.weights, (m, 1)))


def marginals(joint: JointDistribution) -> tuple[Distribution, Distribution]:
    """Row-sum and column-sum distributions of a pairwise joint."""
    table = joint._require_pairwise("marginals")
    return Distribution(table.sum(axis=1)), Distribution(table.sum(axis=0))


def product_of_marginals(joint: JointDistribution) -> JointDistribution:
    """The independent coupling with the same marginals: V[x,y] = Pr[x] Pr[y]."""
    table = joint._require_pairwise("product_of_marginals")
    mx = table.sum(axis=1)
    my = table.sum(axis=0)
    return JointDistribution(np.outer(mx, my))


def push_first(joint: JointDistribution, channel: TransitionMatrix) -> JointDistribution:
    """Joint of (M(X), Y) when M acts on X alone: out[x', y] = sum_x M[x, x'] J[x, y].

    The construction makes Y conditionally independent of M(X) given X.
    """
    table = joint._require_pairwise("push_first")
    if channel.shape[0] != table.shape[0]:
        raise DimensionMismatch(
            f"channel has {channel.shape[0]} input rows, joint X-alphabet is {table.shape[0]}"
        )
    return JointDistribution(channel.rows.T @ table)


def push_second(joint: JointDistribution, channel: TransitionMatrix) -> JointDistribution:
    """Joint of (X, M(Y)); the mirror of :func:`push_first`."""
    table = joint._require_pairwise("push_second")
    if channel.shape[0] != table.shape[1]:
        raise DimensionMismatch(
            f"channel has {channel.shape[0]} input rows, joint Y-alphabet is {table.shape[1]}"
        )
    return JointDistribution(table @ channel.rows)


def apply_channel(dist: Distribution, channel: TransitionMatrix) -> Distribution:
    """Distribution of M(X): out[j] = sum_i M[i, j] p[i]."""
    if channel.shape[0] != dist.size:
        raise DimensionMismatch(
            f"channel has {channel.shape[0]} input rows, distribution has size {dist.size}"
        )
    return Distribution(channel.rows.T @ dist.weights)


def condition_on(joint: JointDistribution, z: int) -> JointDistribution:
    """Pairwise joint of (X, Y) given Z = z, from a conditional-mode tensor."""
    tensor = joint._require_conditional("condition_on")
    mass = float(tensor[z].sum())
    if mass <= 0.0:
        raise ZeroConditioningEvent(f"Pr[Z={z}] = 0")
    return JointDistribution(tensor[z] / mass)


def z_marginal(joint: JointDistribution) -> Distribution:
    """Distribution of Z from a conditional-mode tensor."""
    tensor = joint._require_conditional("z_marginal")
    return Distribution(tensor.sum(axis=(1, 2)))


def sample(dist: Distribution, seed: RngSeed, count: int) -> np.ndarray:
    """``count`` iid indices drawn from ``dist``; deterministic per seed."""
    count = int(_integers(count, "count"))
    if count < 0:
        raise DimensionMismatch("count must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.choice(dist.size, size=count, p=dist.weights)


def rng_from_seed(seed: RngSeed, *stream: int) -> np.random.Generator:
    """A PCG64 generator for (seed, stream...); distinct streams never collide."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))
