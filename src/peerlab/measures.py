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
    condition_on,
    product_of_marginals,
    push_first,
    z_marginal,
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

    def __call__(self, x: float) -> float:
        if self is ConvexGenerator.KL:
            return -math.log(x)
        if self is ConvexGenerator.TVD:
            return abs(x - 1.0)
        if self is ConvexGenerator.CHI_SQUARED:
            return (x - 1.0) ** 2
        return (math.sqrt(x) - 1.0) ** 2

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
        p, q = truth.weights, report.weights
        if self is ScoringRule.LOG:
            support = p > 0.0
            if np.any(q[support] <= 0.0):
                raise LogOfZero("report assigns zero mass where truth is positive")
            return float(np.dot(p[support], np.log(q[support])))
        return float(2.0 * np.dot(p, q) - np.dot(q, q))


Measure = Union[ConvexGenerator, ScoringRule]


def f_divergence(p: Distribution, q: Distribution, f: ConvexGenerator) -> float:
    """D_f(p, q) = sum_sigma p(sigma) f(q(sigma) / p(sigma)).

    Non-negative; zero iff p = q when f is strictly convex.  Returns
    ``math.inf`` on support mismatches the generator cannot absorb.
    """
    if p.size != q.size:
        raise DimensionMismatch("distribution sizes differ")
    return _f_divergence_raw(p.weights, q.weights, f)


def _f_divergence_raw(p: np.ndarray, q: np.ndarray, f: ConvexGenerator) -> float:
    p = p.reshape(-1)
    q = q.reshape(-1)
    total = 0.0
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0.0 and qi > 0.0:
            total += pi * f(qi / pi)
        elif pi > 0.0:
            edge = f.at_zero
            if edge == math.inf:
                return math.inf
            total += pi * edge
        elif qi > 0.0:
            slope = f.slope_at_infinity
            if slope == math.inf:
                return math.inf
            total += qi * slope
    return total


def bregman_divergence(p: Distribution, q: Distribution, rule: ScoringRule) -> float:
    """D_PS(p, q) = PS(p, p) - PS(p, q); non-negative, zero at q = p."""
    return rule.expected_score(p, p) - rule.expected_score(p, q)


def f_mutual_information(joint: JointDistribution, f: ConvexGenerator) -> float:
    """Divergence between the joint table and the product of its marginals."""
    table = joint._require_pairwise("f_mutual_information")
    v = product_of_marginals(joint).table
    # V[x,y] = 0 forces a zero marginal, hence U[x,y] = 0: the p>0,q=0 edge
    # (infinite for KL) is unreachable in this orientation.
    assert not np.any((table > 0.0) & (v <= 0.0))
    return _f_divergence_raw(table, v, f)


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
    table = joint._require_pairwise("bregman_mi")
    mx = table.sum(axis=1)
    prior_y = Distribution(table.sum(axis=0))
    total = 0.0
    for x in range(table.shape[0]):
        px = float(mx[x])
        if px <= 0.0:
            continue
        posterior = Distribution(table[x] / px)
        try:
            total += px * bregman_divergence(posterior, prior_y, rule)
        except LogOfZero as exc:
            # posterior support always lies inside the Y-marginal support
            raise InadmissibleSupport(str(exc)) from exc
    return total


def conditional_mi(tensor: JointDistribution, measure: Measure) -> float:
    """Z-weighted mutual information: sum_z Pr[Z=z] MI(X; Y | Z=z).

    ``measure`` selects the family: a :class:`ConvexGenerator` for f-mutual
    information, a :class:`ScoringRule` for the Bregman variant.  Slices of
    zero probability contribute 0.
    """
    t = tensor._require_conditional("conditional_mi")
    pz = z_marginal(tensor).weights
    total = 0.0
    for z in range(t.shape[0]):
        if pz[z] <= 0.0:
            continue
        slice_joint = condition_on(tensor, z)
        total += float(pz[z]) * mutual_information(slice_joint, measure)
    return total


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
    if isinstance(measure, ConvexGenerator):
        return f_mutual_information(joint, measure)
    if isinstance(measure, ScoringRule):
        return bregman_mi(joint, measure)
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
