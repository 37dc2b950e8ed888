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
    product_of_marginals,
    push_first,
)

EQUALITY_TOL = 1e-10
STRICTNESS_TOL = 1e-10


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
        if not 0 <= signal < report.size:
            raise DimensionMismatch(f"signal {signal} out of range for alphabet {report.size}")
        q = report.weights
        if self is ScoringRule.LOG:
            if q[signal] <= 0.0:
                raise LogOfZero(f"log score of zero-probability signal {signal}")
            return float(np.log(q[signal]))
        return float(2.0 * q[signal] - np.dot(q, q))

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
    table = joint._require_pairwise("shannon_mi")
    mx = table.sum(axis=1)
    my = table.sum(axis=0)
    v = np.outer(mx, my)
    mask = table > 0.0
    return float(np.sum(table[mask] * np.log(table[mask] / v[mask])))


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
    return _slice_mean(t, lambda slices: _mutual_information(slices, measure))


def _slice_mean(t: np.ndarray, per_slice) -> float:
    """sum_z Pr[Z=z] per_slice(joint of (X, Y) given Z=z) over a conditional-mode table,
    with ``per_slice`` evaluated on the stack of live slices; zero-mass slices contribute 0."""
    pz = t.sum(axis=(1, 2))
    live = pz > 0.0
    return float(np.sum(pz[live] * per_slice(t[live] / pz[live][:, None, None])))


def log_score_accuracy_gain(tensor: JointDistribution) -> float:
    """Expected log-score gain of predicting Y from (Z, X) over predicting Y from Z.

    Computed by direct enumeration of atoms,
    ``sum_{z,x,y} P(z,x,y) * log( P(y|x,z) / P(y|z) )``;
    a route independent of :func:`conditional_mi`, with which it must agree
    (both equal the conditional Shannon mutual information in nats).
    """
    t = tensor._require_conditional("log_score_accuracy_gain")
    total = 0.0
    for z in range(t.shape[0]):
        pz = float(t[z].sum())
        if pz <= 0.0:
            continue
        y_given_z = t[z].sum(axis=0) / pz
        for x in range(t.shape[1]):
            pxz = float(t[z, x].sum())
            if pxz <= 0.0:
                continue
            for y in range(t.shape[2]):
                atom = float(t[z, x, y])
                if atom <= 0.0:
                    continue
                total += atom * math.log((atom / pxz) / y_given_z[y])
    return total


def mutual_information(joint: JointDistribution, measure: Measure) -> float:
    """Dispatch to the f- or Bregman mutual information of a pairwise joint."""
    return float(_mutual_information(joint._require_pairwise("mutual_information"), measure))


def _mutual_information(tables: np.ndarray, measure: Measure) -> np.ndarray:
    """f- or Bregman mutual information of each table of a stack shaped (..., mx, my)."""
    if isinstance(measure, ConvexGenerator):
        return _f_mi(tables, measure)
    if isinstance(measure, ScoringRule):
        return _bregman_mi(tables, measure)
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
    v = product_of_marginals(joint).table
    cells = [(x, y) for x in range(table.shape[0]) for y in range(table.shape[1])]
    for idx, (x, y) in enumerate(cells):
        if table[x, y] <= tol:
            other = cells[idx + 1] if idx + 1 < len(cells) else cells[idx - 1]
            return FineGrainedReport(False, ((x, y), other))
    ratios = v / table
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            xa, ya = cells[a]
            xb, yb = cells[b]
            if abs(float(ratios[xa, ya] - ratios[xb, yb])) <= tol:
                return FineGrainedReport(False, (cells[a], cells[b]))
    return FineGrainedReport(True)


def divergence_monotonicity_witness(
    p: Distribution, q: Distribution, theta: TransitionMatrix, tol: float = 1e-9
) -> bool:
    """Whether the strictness condition for D_f(theta^T p, theta^T q) < D_f(p, q) fires.

    True iff some output column of ``theta`` mixes two input signals that
    ``p, q`` distinguish: p(s') > 0, p(s'') > 0, the likelihood ratios q/p at
    s' and s'' differ, and theta(s', s), theta(s'', s) > 0 for some s.
    """
    pw, qw, rows = p.weights, q.weights, theta.rows
    m = pw.shape[0]
    for s1 in range(m):
        if pw[s1] <= 0.0:
            continue
        for s2 in range(s1 + 1, m):
            if pw[s2] <= 0.0:
                continue
            if abs(qw[s1] / pw[s1] - qw[s2] / pw[s2]) <= tol:
                continue
            if np.any((rows[s1] > 0.0) & (rows[s2] > 0.0)):
                return True
    return False


@dataclass(frozen=True)
class DpiReport:
    """Before/after mutual information across a channel on X, with verdicts."""

    before: float
    after: float
    holds: bool
    strict: bool


def check_dpi(
    joint: JointDistribution,
    channel: TransitionMatrix,
    measure: Measure,
    equality_tol: float = EQUALITY_TOL,
    strictness_tol: float = STRICTNESS_TOL,
) -> DpiReport:
    """Evaluate the data processing inequality MI(M(X); Y) <= MI(X; Y)."""
    before = mutual_information(joint, measure)
    after = mutual_information(push_first(joint, channel), measure)
    if math.isinf(before):
        return DpiReport(before, after, True, False)
    return DpiReport(
        before,
        after,
        holds=after <= before + equality_tol,
        strict=(before - after) > strictness_tol,
    )
