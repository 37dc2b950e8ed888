"""Finite-alphabet probability primitives.

Distributions, pairwise and conditional joints, row-stochastic channels,
marginalization, conditioning, channel application, and seeded sampling.
Signals are indices 0..m-1; any other index, a negative one included, raises
``DimensionMismatch``.

All values are immutable after construction (arrays are set read-only), so
they are safe to share across threads; sampling takes an explicit seed so
parallel trials can partition seed space.

Conventions
-----------
* A channel ``M`` maps a row vector of probabilities on its input alphabet to
  ``M.T @ p`` on its output alphabet: ``M[i, j] = Pr[out=j | in=i]``.
* Construction tolerance on normalization is ``NORM_TOL`` (1e-9); internal
  identities are expected to hold to 1e-12.
* ``_validated_tables`` is the one validator of every probability object and
  stack: finite, mass 1 within ``NORM_TOL``, and non-negative once entries in
  (-1e-12, 0), the rounding noise of mixtures, are clipped to 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyAlphabet,
    ModeMismatch,
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


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite signal alphabet (dimensionless)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _floats(self.weights, "weights")
        if arr.ndim != 1:
            raise WrongRank("a Distribution is one-dimensional")
        object.__setattr__(self, "weights", _validated_tables(arr, 1, "weights"))

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, sigma: int) -> float:
        return float(self.weights[_index(sigma, self.size, "sigma")])


def _floats(values, name: str, copy: bool | None = None, order: str = "K") -> np.ndarray:
    """``values`` as a float64 array laid out in ``order``, copied when ``copy`` (else only if
    they are not one); DimensionMismatch, not numpy's bare error or a ComplexWarning, when they
    do not convert: a ragged nest, or complex or non-numeric entries at any depth."""
    try:
        if type(values) is not np.ndarray:  # a nest may hold complex arrays
            values = np.asarray(values)
        if values.dtype.kind != "c":  # a cast to float64 would drop the imaginary parts
            return np.array(values, dtype=np.float64, copy=copy, order=order)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} must be a rectangular array of real numbers") from exc
    raise DimensionMismatch(f"{name} must be a rectangular array of real numbers")


def _validated_tables(values, rank: int, name: str = "table") -> np.ndarray:
    """``values`` as a read-only, C-ordered array of probability tables, each over its last
    ``rank`` axes, checked as the module docstring says; ``name`` leads the messages.
    Validates every probability object, after the object's own rank check, and a stack of
    tables alike.  The stacked kernels give each table of a C-ordered stack the bits of its
    slice alone, whatever the layout of ``values``."""
    arr = _floats(values, name, copy=True, order="C")  # private: the caller's is never frozen
    if arr.size == 0:
        raise EmptyAlphabet(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise NegativeWeight(f"{name} contains non-finite entries")
    if arr.min() < 0:
        arr[(arr < 0) & (arr > -1e-12)] = 0.0
        if arr.min() < 0:
            raise NegativeWeight(f"{name} contains negative entries")
    lead = arr.ndim - rank
    mass = arr.sum(axis=tuple(range(lead, arr.ndim))) if lead else float(arr.sum())
    off = abs(mass - 1.0)
    if (off.max() if lead else off) > NORM_TOL:
        mass = np.ravel(mass)[np.argmax(off)]
        raise ZeroMass(f"{name} mass is {mass!r}, expected 1 within {NORM_TOL}")
    arr.setflags(write=False)
    return arr


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an intp array; DimensionMismatch unless all are whole numbers below 2**53
    or integers in the intp range (an unsigned 2**63 never wraps to a negative)."""
    arr = np.asarray(values)
    whole = arr.dtype.kind == "f" and np.all((np.abs(arr) <= 2.0**53) & (arr == np.round(arr)))
    if arr.dtype.kind not in "biu" and not whole:
        raise DimensionMismatch(f"{name} must be integers, not {arr.dtype} {arr.ravel()[:3]}")
    if arr.dtype.kind in "iu" and arr.size and not np.can_cast(arr.dtype, np.intp):
        info = np.iinfo(np.intp)
        if arr.min() < info.min or arr.max() > info.max:
            raise DimensionMismatch(f"{name} must lie in the intp range, got {arr.ravel()[:3]}")
    return arr.astype(np.intp, copy=False)


def _index(value, size: int, name: str) -> int:
    """``value`` as an index into an axis of length ``size``; DimensionMismatch unless it is
    one whole number in 0..size-1 (a negative index does not count from the end, and a bool,
    numpy's mask, is no index)."""
    idx = _integers(value, name)
    if idx.ndim or np.asarray(value).dtype == bool or not 0 <= idx < size:
        raise DimensionMismatch(f"{name} must be an integer in 0..{size - 1}, got {value!r}")
    return int(idx)


def _int_at_least(value, low: int, name: str) -> int:
    """``value`` as a Python int; DimensionMismatch unless it is one whole number >= ``low``."""
    arr = _integers(value, name)
    if arr.ndim:
        raise DimensionMismatch(f"{name} must be one integer, got {value!r}")
    if arr < low:
        raise DimensionMismatch(f"{name} must be >= {low}, got {value!r}")
    return int(arr)


def make_distribution(weights) -> Distribution:
    """Normalize a non-negative weight vector into a :class:`Distribution`.

    Raises ``EmptyAlphabet``, ``NegativeWeight`` or ``ZeroMass`` when the
    weights cannot describe a probability vector.
    """
    arr = _floats(weights, "weights")
    with np.errstate(invalid="ignore"):  # inf weights: the validator names them
        total = arr.sum()  # not > 0: the weights go to the validator as they are
        return Distribution(arr / total if total > 0.0 else arr)


def _shared_per_size(build):
    """``build`` cached per alphabet size m, one shared, read-only object per m.  The cache
    holds only ints that :func:`_int_at_least` passed, and reads no other type of m unchecked."""
    cached = functools.cache(lambda m: build(_int_at_least(m, 1, "m")))
    return functools.wraps(build)(
        lambda m: cached(m if type(m) is int else _int_at_least(m, 1, "m")))


@_shared_per_size
def uniform_distribution(m: int) -> Distribution:
    return Distribution(np.full(m, 1.0 / m))


def point_mass(m: int, sigma: int) -> Distribution:
    m = _int_at_least(m, 1, "m")
    sigma = _index(sigma, m, "sigma")
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

    def __post_init__(self):
        arr = _floats(self.table, "table")
        if arr.ndim not in (2, 3):
            raise WrongRank(f"joint table must have rank 2 or 3, got {arr.ndim}")
        object.__setattr__(self, "table", _validated_tables(arr, arr.ndim))

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
        arr = _floats(self.rows, "rows")
        if arr.ndim != 2:
            raise WrongRank("a TransitionMatrix is two-dimensional")
        object.__setattr__(self, "rows", _validated_tables(arr, 1, "rows"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    @property
    def is_permutation(self) -> bool:
        """True iff the matrix has exactly one 1 per row and per column."""
        return _is_permutation(self.rows)

    @property
    def is_identity(self) -> bool:
        return bool(_identity_mask(self.rows))


def _is_permutation(arr: np.ndarray) -> bool:
    """Whether a square matrix has exactly one 1 per row and per column, every other
    entry 0, as ``np.isclose(.., atol=1e-12)`` with its default ``rtol = 1e-5`` decides
    each entry: a 1 lies within 1e-12 + 1e-5 of 1, a 0 within 1e-12 of 0."""
    if arr.shape[0] != arr.shape[1]:
        return False
    ones = np.abs(arr - 1.0) <= 1e-12 + 1e-5
    return bool(
        np.all(ones | (np.abs(arr) <= 1e-12))
        and np.all(ones.sum(axis=0) == 1)
        and np.all(ones.sum(axis=1) == 1)
    )


def _identity_mask(rows: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack shaped (..., m, m') is the identity, as
    ``np.allclose(matrix, np.eye(m), atol=1e-12)`` decides it; never for m != m'."""
    m, m_out = rows.shape[-2:]
    if m != m_out:
        return np.zeros(rows.shape[:-2], dtype=bool)
    return np.isclose(rows, np.eye(m), atol=1e-12).all(axis=(-2, -1))


@_shared_per_size
def identity_channel(m: int) -> TransitionMatrix:
    return TransitionMatrix(np.eye(m))


def permutation_channel(mapping) -> TransitionMatrix:
    """Channel deterministically relabeling ``sigma -> mapping[sigma]``."""
    mapping = _integers(mapping, "mapping")
    m = mapping.size
    if mapping.ndim != 1 or sorted(mapping.tolist()) != list(range(m)):
        raise DimensionMismatch(f"{mapping!r} is not a permutation of 0..{m - 1}")
    return TransitionMatrix(np.eye(m)[mapping])


def constant_channel(m: int, output: Distribution) -> TransitionMatrix:
    """Signal-independent channel: every row equals ``output``."""
    if not isinstance(output, Distribution):
        raise ModeMismatch(f"constant_channel needs a Distribution output, got {output!r}")
    return TransitionMatrix(np.tile(output.weights, (_int_at_least(m, 1, "m"), 1)))


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
    return JointDistribution(_push_first(table, channel.rows))


def _push_first(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`push_first` of each table of a stack shaped (..., mx, my) through the matching
    channel of a stack shaped (..., mx, mx'); a stack gives each table's single-table bits."""
    return np.swapaxes(rows, -1, -2) @ tables


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
    z = _index(z, tensor.shape[0], "z")
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
    count = _int_at_least(count, 0, "count")
    _check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.choice(dist.size, size=count, p=dist.weights)


def _check_seed(seed) -> None:
    """DimensionMismatch unless ``seed`` is one integer >= 0, of any size: numpy seeds a
    generator with integers past the intp range, which :func:`_int_at_least` refuses."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DimensionMismatch(f"seed must be a non-negative integer, got {seed!r}")


def rng_from_seed(seed: RngSeed, *stream: int) -> np.random.Generator:
    """A PCG64 generator for (seed, stream...).  ``SeedSequence`` hashes the tuple's integers
    as little-endian uint32 words padded with zero words to 4, so tuples whose words agree up
    to trailing zeros within 4 words collide: (5, 900000, 0) and (5, 900000) start in one
    state, as do (5, 2**32) and (5, 0, 1).  The seed is not checked here: public entry points
    check theirs with :func:`_check_seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


# numpy's SeedSequence (a pool of 4 uint32 words) steps through hash constants, each the last
# times a multiplier; its hashmix k xors constant k and multiplies by constant k + 1.  Mixing
# entropy in takes 4 + 12 hashmixes, generate_state(4, np.uint64) 8 more on a second sequence.
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & 0xFFFFFFFF for k in range(17)],
                   dtype=np.uint32)
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & 0xFFFFFFFF for k in range(9)],
                   dtype=np.uint32)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MIX_ORDER = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1  # PCG64's LCG


def _fold(value: np.ndarray) -> np.ndarray:
    """SeedSequence's last step of a hash or mix: xor each uint32 with its high half."""
    return value ^ (value >> 16)


def _instance_rngs(seed: int, indices):
    """Per index in [0, 2**64), one reused generator in the state ``rng_from_seed(seed, idx)``
    starts in; it is valid only until the next one is yielded.  SeedSequence's hash of each
    (seed, idx) entropy, its little-endian uint32 words with missing pool words hashed as 0,
    runs as array operations over all indices at once, and PCG64's ``srandom`` step in Python
    ints.  DimensionMismatch where an entropy needs more than the pool's 4 words."""
    seed = int(seed)
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    high = idx >> np.uint64(32)
    if len(seed_words) + 1 + bool(high.any()) > 4:
        raise DimensionMismatch(f"seed {seed} with indices up to {idx.max()} needs over 4 words")
    pool = np.zeros((4, idx.size), dtype=np.uint32)
    columns = [*seed_words, idx & np.uint64(0xFFFFFFFF), high]
    for row, column in zip(pool, columns):
        row[:] = column
    pool = _fold((pool ^ _HASH_A[:4, None]) * _HASH_A[1:5, None])
    for k, (src, dst) in enumerate(_MIX_ORDER, 4):
        word = _fold((pool[src] ^ _HASH_A[k]) * _HASH_A[k + 1])
        pool[dst] = _fold(_MIX_MULT_L * pool[dst] - _MIX_MULT_R * word)
    words = _fold((pool[[0, 1, 2, 3] * 2] ^ _HASH_B[:8, None]) * _HASH_B[1:, None])
    words = words.astype(np.uint64)
    state = (words[1::2] << np.uint64(32) | words[::2]).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    for s_high, s_low, i_high, i_low in zip(*state):
        inc = (i_high << 65 | i_low << 1 | 1) & _MASK128
        start = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng
