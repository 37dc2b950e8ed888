"""Information measures over finite joints.

f-divergences, proper scoring rules, Bregman divergence, and four mutual
information measures built from them:

* ``f_mutual_information``  -- divergence between the joint U and the product
  of marginals V (symmetric, information-monotone for strictly convex f);
* ``shannon_mi``            -- the KL special case, via its own code path;
* ``bregman_mi``            -- expected proper-score accuracy gain of the
  posterior over Y given X against the prior over Y (quasi-monotone: only the
  first entry satisfies the data processing inequality);
* conditional variants of both, as Z-weighted averages over slices.

All logarithms are natural; entropic quantities are reported in nats.
Values are plain floats; ``math.inf`` marks the extended-real infinity that
arises from KL-type generators on mismatched supports.

Zero conventions for ``D_f(p, q) = sum_sigma p(sigma) f(q(sigma)/p(sigma))``:

* ``p = q = 0``    contributes 0;
* ``p > 0, q = 0`` contributes ``p * f(0+)``;
* ``p = 0, q > 0`` contributes ``q * f'(inf)`` with ``f'(inf) = lim f(x)/x``.

These are the standard conventions that keep each divergence equal to its
closed form on sparse inputs (e.g. the total-variation generator always yields
``sum |p - q|``, with no 1/2 factor).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, InadmissibleSupport, LogOfZero
from .probability import (
    Distribution,
    JointDistribution,
    TransitionMatrix,
    _index,
    push_first,
)

EQUALITY_TOL = 1e-10
_PAIR_CELLS = 2**16  # cell pairs per step of :func:`is_fine_grained`: 0.5 MiB of differences


class ConvexGenerator(enum.Enum):
    """Convex f with f(1) = 0 generating an f-divergence.

    ``TVD`` is convex but not strictly convex; the rest are strictly convex.
    """

    KL = "kl"
    TVD = "tvd"
    CHI_SQUARED = "chi2"
    SQUARED_HELLINGER = "hellinger"

    def __call__(self, x):
        """f at ``x > 0``, elementwise on arrays."""
        if self is ConvexGenerator.KL:
            return -np.log(x)
        if self is ConvexGenerator.TVD:
            return np.abs(x - 1.0)
        if self is ConvexGenerator.CHI_SQUARED:
            return (x - 1.0) ** 2
        return (np.sqrt(x) - 1.0) ** 2

    @property
    def strictly_convex(self) -> bool:
        return self is not ConvexGenerator.TVD

    @property
    def at_zero(self) -> float:
        """lim_{x -> 0+} f(x); the weight on cells with p > 0, q = 0."""
        return math.inf if self is ConvexGenerator.KL else 1.0

    @property
    def slope_at_infinity(self) -> float:
        """lim_{x -> inf} f(x)/x; the weight on cells with p = 0, q > 0."""
        if self is ConvexGenerator.KL:
            return 0.0
        if self is ConvexGenerator.CHI_SQUARED:
            return math.inf
        return 1.0


class ScoringRule(enum.Enum):
    """Strictly proper scoring rule; higher scores reward better forecasts."""

    LOG = "log"
    QUADRATIC = "quadratic"

    def score(self, signal: int, report: Distribution) -> float:
        """Score a realized signal against a reported distribution."""
        value = self._scores(report.weights)[_index(signal, report.size, "signal")]
        if np.isnan(value):
            raise LogOfZero(f"log score of zero-probability signal {signal}")
        return float(value)

    def _scores(self, q: np.ndarray) -> np.ndarray:
        """PS(b, q) for every signal b along the last axis, broadcast over the leading axes;
        NaN where the log rule meets q = 0, and wherever q is NaN."""
        if self is ScoringRule.LOG:
            return np.log(q, out=np.full(q.shape, np.nan), where=q > 0.0)
        return 2.0 * q - np.vecdot(q, q)[..., None]

    def expected_score(self, truth: Distribution, report: Distribution) -> float:
        """PS(p, q) = E_{sigma ~ p} PS(sigma, q); linear in ``truth``."""
        if truth.size != report.size:
            raise DimensionMismatch("distribution sizes differ")
        return float(self._expected_scores(truth.weights, report.weights))

    def _expected_scores(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """PS(p, q) along the last axis, broadcast over the leading axes."""
        p, q = np.broadcast_arrays(p, q)
        if self is ScoringRule.LOG:
            support = p > 0.0
            if np.any(support & (q <= 0.0)):
                raise LogOfZero("report assigns zero mass where truth is positive")
            logs = np.log(q, out=np.zeros(q.shape), where=support)
            return (p * logs).sum(axis=-1)
        return 2.0 * (p * q).sum(axis=-1) - (q * q).sum(axis=-1)


Measure = Union[ConvexGenerator, ScoringRule]


def f_divergence(p: Distribution, q: Distribution, f: ConvexGenerator) -> float:
    """D_f(p, q) = sum_sigma p(sigma) f(q(sigma) / p(sigma)).

    Non-negative; zero iff p = q when f is strictly convex.  Returns
    ``math.inf`` on support mismatches the generator cannot absorb.
    """
    if p.size != q.size:
        raise DimensionMismatch("distribution sizes differ")
    return float(_f_divergences(p.weights, q.weights, f))


def _f_divergences(p: np.ndarray, q: np.ndarray, f: ConvexGenerator) -> np.ndarray:
    """D_f(p, q) along the last axis, with the zero conventions above."""
    pos_p, pos_q = p > 0.0, q > 0.0
    both = pos_p & pos_q
    terms = np.where(both, p * f(np.divide(q, p, out=np.ones(p.shape), where=both)), 0.0)
    np.multiply(p, f.at_zero, out=terms, where=pos_p & ~pos_q)
    np.multiply(q, f.slope_at_infinity, out=terms, where=pos_q & ~pos_p)
    return terms.sum(axis=-1)


def bregman_divergence(p: Distribution, q: Distribution, rule: ScoringRule) -> float:
    """D_PS(p, q) = PS(p, p) - PS(p, q); non-negative, zero at q = p."""
    return rule.expected_score(p, p) - rule.expected_score(p, q)


def f_mutual_information(joint: JointDistribution, f: ConvexGenerator) -> float:
    """Divergence between the joint table and the product of its marginals."""
    return float(_f_mi(joint._require_pairwise("f_mutual_information"), f))


def _f_mi(tables: np.ndarray, f: ConvexGenerator) -> np.ndarray:
    """f-mutual information of each table of a stack shaped (..., mx, my)."""
    v = tables.sum(axis=-1)[..., :, None] * tables.sum(axis=-2)[..., None, :]
    cells = tables.shape[:-2] + (-1,)
    return _f_divergences(tables.reshape(cells), v.reshape(cells), f)


def shannon_mi(joint: JointDistribution) -> float:
    """Shannon mutual information in nats, via the direct sum U log(U/V)."""
    return float(_shannon_mi(joint._require_pairwise("shannon_mi")))


def _shannon_mi(tables: np.ndarray) -> np.ndarray:
    """Shannon MI of each table of a stack shaped (..., mx, my): U log(U/V) summed over
    the cells with U > 0."""
    v = tables.sum(axis=-1)[..., :, None] * tables.sum(axis=-2)[..., None, :]
    cells = tables.shape[:-2] + (-1,)
    u, v = tables.reshape(cells), v.reshape(cells)
    mask = u > 0.0
    return _row_sums(u[mask] * np.log(u[mask] / v[mask]), mask)


def _row_sums(compact: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row of ``mask`` (its last axis), the sum of the row's entries in the last axis of
    ``compact`` (``values[mask]``, row after row; leading axes lead the result).  Each sum is
    bit for bit ``np.sum`` of the row's own entries: a lone row is that sum, and rows with one
    count of entries are summed as one C-ordered (..., rows, count) gather."""
    if mask.ndim == 1:
        return np.sum(compact, axis=-1)
    counts = mask.sum(axis=-1).ravel()
    starts = np.cumsum(counts) - counts
    out = np.zeros(compact.shape[:-1] + counts.shape)
    for n in np.unique(counts):
        rows = counts == n
        out[..., rows] = compact.take(starts[rows][:, None] + np.arange(n), -1).sum(-1)
    return out.reshape(compact.shape[:-1] + mask.shape[:-1])


def bregman_mi(joint: JointDistribution, rule: ScoringRule) -> float:
    """Expected accuracy gain of the posterior over Y given X against the prior over Y.

    BMI(X; Y) = E_X [ PS(Pr[Y|X], Pr[Y|X]) - PS(Pr[Y|X], Pr[Y]) ].
    """
    return float(_bregman_mi(joint._require_pairwise("bregman_mi"), rule))


def _bregman_mi(tables: np.ndarray, rule: ScoringRule) -> np.ndarray:
    """Bregman MI of each table of a stack shaped (..., mx, my); zero-mass rows contribute 0."""
    mx = tables.sum(axis=-1)
    live = mx > 0.0
    posterior = tables / np.where(live, mx, 1.0)[..., None]
    prior_y = tables.sum(axis=-2)[..., None, :]
    try:
        score = rule._expected_scores
        gain = score(posterior, posterior) - score(posterior, prior_y)
    except LogOfZero as exc:
        # posterior support always lies inside the Y-marginal support
        raise InadmissibleSupport(str(exc)) from exc
    return np.where(live, mx * gain, 0.0).sum(axis=-1)


def conditional_mi(tensor: JointDistribution, measure: Measure) -> float:
    """Z-weighted mutual information: sum_z Pr[Z=z] MI(X; Y | Z=z).

    ``measure`` selects the family: a :class:`ConvexGenerator` for f-mutual
    information, a :class:`ScoringRule` for the Bregman variant.  Slices of
    zero probability contribute 0.
    """
    t = tensor._require_conditional("conditional_mi")
    return float(_slice_mean(t, _mi_kernel(measure)))


def _slice_mean(t: np.ndarray, per_slice) -> np.ndarray:
    """sum_z Pr[Z=z] per_slice(joint of (X, Y) given Z=z) for each conditional-mode table of a
    stack shaped (..., mz, mx, my), with ``per_slice`` evaluated once on the stack of all live
    slices; zero-mass slices contribute 0.  A ``per_slice`` of K stacked kernels, giving (K, live)
    values, gives (K, ...) means from one :func:`_row_sums` call, each with its kernel's bits."""
    pz = t.sum(axis=(-2, -1))
    live = pz > 0.0
    return _row_sums(pz[live] * per_slice(t[live] / pz[live][:, None, None]), live)


def log_score_accuracy_gain(tensor: JointDistribution) -> float:
    """Expected log-score gain of predicting Y from (Z, X) over predicting Y from Z.

    Computed by direct enumeration of atoms,
    ``sum_{z,x,y} P(z,x,y) * log( P(y|x,z) / P(y|z) )``;
    a route independent of :func:`conditional_mi`, with which it must agree
    (both equal the conditional Shannon mutual information in nats).
    """
    return float(_log_score_gains(tensor._require_conditional("log_score_accuracy_gain")))


def _log_score_gains(t: np.ndarray) -> np.ndarray:
    """:func:`log_score_accuracy_gain` of each table of a stack shaped (..., mz, mx, my): each
    atom P > 0 weighs log(P P(z) / (P(z, x) P(z, y))); zero atoms contribute 0."""
    pz = t.sum(axis=(-2, -1), keepdims=True)
    margins = t.sum(axis=-1, keepdims=True) * t.sum(axis=-2, keepdims=True)
    ratio = np.divide(t * pz, margins, out=np.ones(t.shape), where=t > 0.0)
    return (t * np.log(ratio)).sum(axis=(-3, -2, -1))


def mutual_information(joint: JointDistribution, measure: Measure) -> float:
    """Dispatch to the f- or Bregman mutual information of a pairwise joint."""
    return float(_mi_kernel(measure)(joint._require_pairwise("mutual_information")))


def _mi_kernel(measure: Measure):
    """The function of a stack shaped (..., mx, my) that gives each table's f- or Bregman MI."""
    if isinstance(measure, ConvexGenerator):
        return lambda tables: _f_mi(tables, measure)
    if isinstance(measure, ScoringRule):
        return lambda tables: _bregman_mi(tables, measure)
    raise TypeError(f"unsupported measure {measure!r}")


@dataclass(frozen=True)
class FineGrainedReport:
    """Outcome of the fine-grained predicate with a violating cell pair, if any."""

    fine_grained: bool
    witness: tuple[tuple[int, int], tuple[int, int]] | None = None

    def __bool__(self) -> bool:
        return self.fine_grained


def is_fine_grained(joint: JointDistribution, tol: float = 1e-9) -> FineGrainedReport:
    """Whether U and V distinguish every pair of distinct outcome cells.

    Requires every cell mass above ``tol`` and every two cells' likelihood
    ratios V/U to differ by more than ``tol``; this is the condition under
    which the data processing inequality is strict for non-permutation
    channels and strictly convex generators.
    """
    table = joint._require_pairwise("is_fine_grained")
    size, cols = table.size, table.shape[1]
    low = np.flatnonzero(table <= tol)
    if low.size:  # the first light cell, with the cell after it (the last: before it)
        a = int(low[0])
        b = a + 1 if a + 1 < size else max(a - 1, 0)
        return FineGrainedReport(False, (divmod(a, cols), divmod(b, cols)))
    r = (np.outer(table.sum(axis=1), table.sum(axis=0)) / table).ravel()
    # cell pairs (a, b) with a < b, a block of rows a of about _PAIR_CELLS pairs per step;
    # argwhere lists a block's pairs in the order a, then b, so its first is the first tie
    step = max(_PAIR_CELLS // size, 1)
    for start in range(0, size, step):
        close = np.argwhere(np.triu(np.abs(r[start:start + step, None] - r) <= tol, start + 1))
        if close.size:
            a, b = start + int(close[0, 0]), int(close[0, 1])
            return FineGrainedReport(False, (divmod(a, cols), divmod(b, cols)))
    return FineGrainedReport(True)


def divergence_monotonicity_witness(
    p: Distribution, q: Distribution, theta: TransitionMatrix, tol: float = 1e-9
) -> bool:
    """Whether the strictness condition for D_f(theta^T p, theta^T q) < D_f(p, q) fires.

    True iff some output column of ``theta`` mixes two input signals that
    ``p, q`` distinguish: p(s') > 0, p(s'') > 0, the likelihood ratios q/p at
    s' and s'' differ, and theta(s', s), theta(s'', s) > 0 for some s.
    """
    if not p.size == q.size == theta.shape[0]:
        raise DimensionMismatch("p, q and the rows of theta must share one alphabet")
    return bool(_witness_mask(p.weights, q.weights, theta.rows, tol))


def _witness_mask(p: np.ndarray, q: np.ndarray, rows: np.ndarray, tol: float) -> np.ndarray:
    """:func:`divergence_monotonicity_witness` of each (p, q, theta) of stacks shaped (..., m),
    (..., m) and (..., m, m'), over the signal pairs s1 < s2 with p > 0 at both."""
    live = p > 0.0
    r = np.divide(q, p, out=np.zeros(p.shape), where=live)
    uses = ((rows > 0.0) & live[..., None]).astype(np.float64)
    mixed = uses @ np.swapaxes(uses, -1, -2) > 0.0  # live s1, s2 that share an output
    apart = ~(np.abs(r[..., :, None] - r[..., None, :]) <= tol)
    return np.triu(mixed & apart, 1).any(axis=(-2, -1))


def _divergence_decrease_bound(p: np.ndarray, q: np.ndarray, rows: np.ndarray,
                               f: ConvexGenerator) -> float:
    """A proved lower bound B on D_f(p, q) - D_f(theta^T p, theta^T q), f strictly convex and
    r = q/p > 0 where p > 0: Jensen's gap (Csiszar & Shields, 2004) at each output s, which mixes
    r with weights w(s'|s) = p(s') theta(s', s) / p'(s).  With c_s = min f'' over the ratios s
    mixes (KL 1/r^2 and Hellinger r^(-3/2)/2 at the largest; chi^2 2, where B is exact),
    B = sum_s p'(s) (c_s / 2) sum_s' w(s'|s) (r(s') - mean_s r)^2; centred, because
    E[r^2] - mean^2 cancels catastrophically at r near 1."""
    r = np.divide(q, p, out=np.zeros(p.shape), where=p > 0.0)[:, None]
    mass = p[:, None] * rows  # p(s') theta(s', s) = p'(s) w(s'|s)
    out = mass.sum(axis=0)
    mass, out = mass[:, out > 0.0], out[out > 0.0]
    spread = (mass * (r - (mass * r).sum(axis=0) / out) ** 2).sum(axis=0)
    top = np.where(mass > 0.0, r, 0.0).max(axis=0)
    c = {ConvexGenerator.KL: top**-2.0, ConvexGenerator.SQUARED_HELLINGER: 0.5 * top**-1.5,
         ConvexGenerator.CHI_SQUARED: 2.0}[f]
    return float(np.sum(c / 2.0 * spread))


@dataclass(frozen=True)
class DpiReport:
    """Before/after mutual information across a channel on X, and whether the weak data
    processing inequality holds; ``verify dpi`` certifies strict drops by a Jensen bound."""

    before: float
    after: float
    holds: bool


def check_dpi(
    joint: JointDistribution,
    channel: TransitionMatrix,
    measure: Measure,
    equality_tol: float = EQUALITY_TOL,
) -> DpiReport:
    """Evaluate the data processing inequality MI(M(X); Y) <= MI(X; Y) at ``equality_tol``."""
    before = mutual_information(joint, measure)
    after = mutual_information(push_first(joint, channel), measure)
    return DpiReport(before, after, math.isinf(before) or after <= before + equality_tol)
