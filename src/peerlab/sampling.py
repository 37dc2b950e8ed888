"""Random-instance generators for the verification suites and sweeps.

All samplers take an explicit ``numpy.random.Generator`` so suites stay
deterministic per seed.  Dense objects are mixed with a uniform component
(``_FLOOR_FRAC`` of the mass, or ``floor_frac``) so every cell keeps
macroscopic mass; this keeps strict data-processing margins well away from
the strictness tolerance without ever filtering instances on outcomes.

The private forms ``_floored``, ``_channel_rows``, ``_ci_table`` and ``_symmetrized`` return
raw arrays, which the public samplers (all but ``_ci_table``) wrap in validated objects;
suites that validate whole stacks of tables at once draw through them.  Each flat-Dirichlet
draw is taken as the unit exponentials ``rng.dirichlet(np.ones(k))`` draws for it
(``_floored_rows``), so it reads the same stream and gives the same bits as ``rng.dirichlet``.
A sparse row's one or two columns are the bounded integers ``rng.choice(m_out, k,
replace=False)`` draws (Floyd's algorithm, then a one-swap shuffle), taken one by one; they
read PCG64's buffered 32-bit halves as that call does, so the stream and the bits match too.
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


def _ci_table(rng, mz: int, mx: int, my: int) -> np.ndarray:
    """pz, then each z's px and py, as one run of the floored draws that follow one another
    in the stream; ``t[z] = pz[z] * outer(px, py)``."""
    e = rng.standard_exponential(mz * (1 + mx + my))
    pz = _floored_rows(e[:mz])
    factors = e[mz:].reshape(mz, mx + my)
    px, py = _floored_rows(factors[:, :mx]), _floored_rows(factors[:, mx:])
    return pz[:, None, None] * (px[:, :, None] * py[:, None, :])


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


def _channel_rows(rng, m_in: int, m_out: int | None = None, kind: str | None = None,
                  floor_frac: float = _FLOOR_FRAC) -> np.ndarray:
    m_out = m_in if m_out is None else m_out
    kind = kind or random_strategy_kind(rng)
    if kind == "permutation" and m_in != m_out:
        kind = "sparse"
    if kind == "dense":
        rows = _floored_rows(rng.standard_exponential((m_in, m_out)), floor_frac)
    elif kind == "constant":
        rows = np.repeat(_floored(rng, (1, m_out), floor_frac), m_in, axis=0)
    elif kind == "permutation":
        rows = np.zeros((m_in, m_out))
        rows[np.arange(m_in), rng.permutation(m_in)] = 1.0
    elif kind == "sparse":
        # per row 1 or 2 columns, as rng.choice(m_out, size, replace=False) draws them (Floyd's
        # draws, then a one-swap shuffle), over the flat-Dirichlet weights of _floored_rows
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
