"""Random-instance generators for the verification suites and sweeps.

All samplers take an explicit ``numpy.random.Generator`` so suites stay
deterministic per seed.  Dense objects are mixed with a uniform component
(``_FLOOR_FRAC`` of the mass, or ``floor_frac``) so every cell keeps
macroscopic mass; this keeps strict data-processing margins well away from
the strictness tolerance without ever filtering instances on outcomes.

The private forms ``_floored``, ``_channel_rows`` and ``_symmetrized`` return raw arrays,
which the public samplers wrap in validated objects.  Each flat-Dirichlet draw is taken as the
unit exponentials ``rng.dirichlet(np.ones(k))`` draws for it (``_floored_rows``), so it reads
the same stream and gives the same bits as ``rng.dirichlet``.  A sparse row's one or two
columns are the bounded integers ``rng.choice(m_out, k, replace=False)`` draws (Floyd's
algorithm, then a one-swap shuffle), taken one by one.

Table drawing is split in two: a *read* makes an instance's generator calls in stream order
and keeps raw values (unit exponentials, or a permutation or sparse channel's cells), and a
*stack* builds the tables of many reads in one array pass, each with the bits it has alone
(``_floored_tables``, ``_channel_stack``, ``_ci_tables``); ``_channel_rows`` is the stack of
one read.  The public samplers read with the caller's generator.  The suites read a fresh
instance generator through ``_Halves``, which takes the bounded 32-bit draws as numpy takes
them from PCG64's raw 64-bit words: a draw is the low half of a fresh word, whose high half is
buffered for the next draw, and 64-bit draws neither read nor clear that half.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .agents import FullJointPrior, PairwisePrior, Strategy, WorldModelPrior
from .errors import DimensionMismatch
from .measures import ConvexGenerator, ScoringRule, is_fine_grained
from .probability import (
    Distribution, JointDistribution, RngSeed, TransitionMatrix, _check_seed, _int_at_least,
    rng_from_seed,
)

STRATEGY_KIND_RATIOS = {"dense": 0.4, "sparse": 0.2, "permutation": 0.2, "constant": 0.2}
_KINDS = tuple(STRATEGY_KIND_RATIOS)
# the cumulative table ``rng.choice(len(_KINDS), p=...)`` searches: cumsum, then / last entry
_KIND_CDF = np.cumsum([STRATEGY_KIND_RATIOS[k] for k in _KINDS])
_KIND_CDF = tuple((_KIND_CDF / _KIND_CDF[-1]).tolist())
_GENERATORS = tuple(ConvexGenerator)
_STRICT_GENERATORS = tuple(g for g in ConvexGenerator if g.strictly_convex)
_RULES = tuple(ScoringRule)
_FLOOR_FRAC = 0.1


def _pick(rng, seq):
    """One uniform item of ``seq``: the value and next state of ``rng.choice(seq)``."""
    return seq[int(rng.integers(len(seq)))]


def _floored_rows(e: np.ndarray, floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    """Unit exponentials ``e`` as flat-Dirichlet rows over the last axis, mixed with the uniform
    row at weight ``floor_frac``: for alpha = 1 ``rng.dirichlet`` scales each row of ziggurat
    ``standard_exponential`` draws by 1 / its running sum (``e.sum`` would sum pairwise)."""
    rows = e * (1.0 / e.cumsum(axis=-1)[..., -1:])
    return (1.0 - floor_frac) * rows + floor_frac / e.shape[-1]


def _floored_tables(e: np.ndarray, floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    """``_floored``'s table of each stack entry of unit exponentials ``e`` (g, *shape)."""
    return _floored_rows(e.reshape(len(e), -1), floor_frac).reshape(e.shape)


def _floored(rng, shape: tuple, floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    """A flat-Dirichlet table of ``shape`` mixed with the uniform table at weight ``floor_frac``."""
    return _floored_rows(rng.standard_exponential(math.prod(shape)), floor_frac).reshape(shape)


def _shape(**sizes) -> tuple:
    """The table shape of the named sizes, each checked to be one integer >= 1."""
    return tuple(_int_at_least(size, 1, name) for name, size in sizes.items())


def random_distribution(rng, m: int, floor_frac: float = _FLOOR_FRAC) -> Distribution:
    return Distribution(_floored(rng, _shape(m=m), floor_frac))


def random_joint(rng, mx: int, my: int) -> JointDistribution:
    return JointDistribution(_floored(rng, _shape(mx=mx, my=my)))


def random_conditional_tensor(rng, mz: int, mx: int, my: int) -> JointDistribution:
    return JointDistribution(_floored(rng, _shape(mz=mz, mx=mx, my=my)))


def _ci_tables(e: np.ndarray, mz: int, mx: int, my: int) -> np.ndarray:
    """Per row of unit exponentials ``e`` (..., mz * (1 + mx + my)), the (mz, mx, my) table
    ``t[z] = pz[z] * outer(px, py)`` of pz, then each z's px and py, floored in that order."""
    pz = _floored_rows(e[..., :mz])
    factors = e[..., mz:].reshape(e.shape[:-1] + (mz, mx + my))
    px, py = _floored_rows(factors[..., :mx]), _floored_rows(factors[..., mx:])
    return pz[..., None, None] * (px[..., :, None] * py[..., None, :])


def random_strategy_kind(rng) -> str:
    """A kind at ``STRATEGY_KIND_RATIOS``; the value and next state of ``rng.choice(p=...)``."""
    return _KINDS[bisect.bisect_right(_KIND_CDF, rng.random())]


def random_mixed_strategy(rng, m: int, kind: str | None = None) -> Strategy:
    """Strategy of the given (else a sampled) kind, labelled with its kind;
    dense and constant rows carry no uniform floor."""
    kind = kind or random_strategy_kind(rng)
    return Strategy(random_channel(rng, m, kind=kind, floor_frac=0.0), label=kind)


def random_strategy(seed: RngSeed, m: int, kind: str = "dense") -> Strategy:
    """Row-stochastic strategy sample of the requested kind, deterministic per seed.

    Kinds: ``dense`` (Dirichlet rows), ``sparse`` (1-2 nonzeros per row),
    ``permutation``, ``constant`` (signal-independent reporting).
    """
    m = _int_at_least(m, 1, "m")
    _check_seed(seed)
    return random_mixed_strategy(rng_from_seed(seed), m, kind)


def random_channel(rng, m_in: int, m_out: int | None = None, kind: str | None = None,
                   floor_frac: float = _FLOOR_FRAC) -> TransitionMatrix:
    """Row-stochastic channel of a sampled kind; dense and constant rows carry
    a uniform floor of ``floor_frac``.  ``m_out`` defaults to ``m_in``."""
    m_in, m_out = _shape(m_in=m_in, m_out=m_in if m_out is None else m_out)
    return TransitionMatrix(_channel_rows(rng, m_in, m_out, kind, floor_frac))


class _Halves:
    """Stands in for a fresh generator ``rng`` (one whose buffered half is empty) in a read:
    ``random`` and ``standard_exponential`` are its own, and the bounded 32-bit draws
    ``integers(k)`` and ``permutation(n)`` give numpy's values from its raw 64-bit words, with
    the buffered half kept here, so ``rng`` itself must take no 32-bit draw afterwards."""

    __slots__ = ("random", "standard_exponential", "_raw", "_has", "_half")

    def __init__(self, rng):
        self.random, self.standard_exponential = rng.random, rng.standard_exponential
        self._raw, self._has, self._half = rng.bit_generator.random_raw, False, 0

    def _next32(self) -> int:
        if self._has:
            self._has = False
            return self._half
        word = self._raw()
        self._has, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        """``int(rng.integers(k))``: Lemire's multiply-shift, rejecting a low word below
        numpy's threshold (2**32 - k) % k; k == 1 reads nothing."""
        if k == 1:
            return 0
        m = self._next32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * k
        return m >> 32

    def permutation(self, n: int) -> list:
        """``rng.permutation(n).tolist()``: numpy's shuffle from the last position down, each
        swap index by ``random_interval``'s rejection of draws masked to its bit length."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def _channel_read(rng, m_in: int, m_out: int | None = None, kind: str | None = None):
    """One channel of the given (else a sampled) kind, as :func:`_channel_stack` reads it:
    a dense or constant channel's unit exponentials (m_in, m_out), the constant row repeated,
    or a permutation or sparse channel's cells (rows, columns, values).  ``rng`` is a
    generator or a :class:`_Halves`."""
    m_out = m_in if m_out is None else m_out
    kind = kind or random_strategy_kind(rng)
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
    # per row 1 or 2 columns, as rng.choice(m_out, size, replace=False) draws them (Floyd's
    # draws, then a one-swap shuffle), over the flat-Dirichlet weights of _floored_rows
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


def _channel_stack(reads: list, m_in: int, m_out: int,
                   floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    """The (len(reads), m_in, m_out) rows of :func:`_channel_read` values: all exponential
    tables floored in one pass, all cells scattered in one; a lone read, as the public samplers
    draw it, goes straight into its table."""
    if len(reads) == 1:
        read = reads[0]
        if type(read) is np.ndarray:
            return _floored_rows(read, floor_frac)[None]
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
        return _floored_rows(np.array(reads), floor_frac)
    out = np.zeros((len(reads), m_in, m_out))
    if dense:
        out[dense] = _floored_rows(np.array([reads[pos] for pos in dense]), floor_frac)
    out[at, rows, cols] = values
    return out


def _channel_rows(rng, m_in: int, m_out: int | None = None, kind: str | None = None,
                  floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    m_out = m_in if m_out is None else m_out
    return _channel_stack([_channel_read(rng, m_in, m_out, kind)], m_in, m_out, floor_frac)[0]


def random_generator_choice(rng, strictly_convex_only: bool = False) -> ConvexGenerator:
    return _pick(rng, _STRICT_GENERATORS if strictly_convex_only else _GENERATORS)


def random_rule_choice(rng) -> ScoringRule:
    return _pick(rng, _RULES)


def random_fine_grained_joint(rng, m: int) -> JointDistribution:
    """Rejection-sample, in at most 200 draws, a joint whose likelihood ratios separate all cells.

    Dense asymmetric joints are almost surely fine-grained; symmetric tables
    never are (mirror cells tie), so no symmetrization is applied.
    """
    for _ in range(200):
        j = random_joint(rng, m, m)
        if is_fine_grained(j):
            return j
    raise RuntimeError("failed to sample a fine-grained joint")


def random_positively_correlated_binary_joint(rng) -> JointDistribution:
    """Binary pair joint from a latent ground truth: each agent matches the
    truth with probability >= 1/2, independently given the truth."""
    t = float(rng.uniform(0.05, 0.95))
    acc_i = float(rng.uniform(0.5, 0.95))
    acc_j = float(rng.uniform(0.5, 0.95))
    table = np.zeros((2, 2))
    for truth, pg in ((1, t), (0, 1.0 - t)):
        pi = np.array([1.0 - acc_i, acc_i]) if truth == 1 else np.array([acc_i, 1.0 - acc_i])
        pj = np.array([1.0 - acc_j, acc_j]) if truth == 1 else np.array([acc_j, 1.0 - acc_j])
        table += pg * np.outer(pi, pj)
    return JointDistribution(table)


def random_world_model(rng, n_states: int, m: int) -> WorldModelPrior:
    return WorldModelPrior(
        random_distribution(rng, n_states),
        tuple(random_distribution(rng, m) for _ in range(n_states)),
    )


def random_full_joint_prior(rng, n: int, m: int) -> FullJointPrior:
    return FullJointPrior(_floored(rng, (m,) * n))


def random_pairwise_symmetric_prior(rng, m: int) -> PairwisePrior:
    return PairwisePrior(JointDistribution(_symmetrized(random_joint(rng, m, m).table)))


def _symmetrized(tables: np.ndarray) -> np.ndarray:
    """The mean of each square table of a stack (..., m, m) and its transpose."""
    return 0.5 * (tables + tables.swapaxes(-1, -2))
