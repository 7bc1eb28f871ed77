"""Constructors for concrete strategy families.

Covers the parameter-free IE baseline, the ratio-tuned random IE family,
exact IE on bipartite networks, randomized rounding of arbitrary pricing
vectors into IE strategies, and multi-class IE with optimized assignment
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .netmodel import SocialNetwork, ValidationError, _check_int, _check_seed
from .revenue import (IEStrategy, GeneralizedIEStrategy, RandomIEStrategy,
                      _check_class_assignment, _check_price_prob,
                      _class_moments, _influence_mask, _require_normalized,
                      _revenue_ratio, pricing_classes, revenue_bounds)
from .sdprelax import _one_blas_thread

SQRT2 = math.sqrt(2.0)

#: Tuned exploit pricing probability for random IE (maximizes the worst-case
#: revenue ratio of the family).
TUNED_EXPLOIT_PROB = 2.0 - SQRT2

#: Six-class assignment probabilities with a certified worst-case ratio of
#: 0.7032 on undirected networks (0.3516 directed).
SIX_CLASS_PRESET_Q = (0.183, 0.075, 0.075, 0.175, 0.261, 0.231)


# ---------------------------------------------------------------------------
# Baseline and tuned IE
# ---------------------------------------------------------------------------

def ie_baseline(g: SocialNetwork) -> IEStrategy:
    """The no-free-products IE strategy IE(emptyset, 2/3).

    Guarantees (4W + 6N)/27 expected revenue on undirected networks and
    2W/27 on directed ones — 16/27 resp. 8/27 of the upper bound when N=0.
    """
    _require_normalized(g, "ie_baseline")
    return IEStrategy(frozenset(), 2.0 / 3.0)


@dataclass(frozen=True)
class TunedIE:
    """Tuned random-IE parameters with a sampled set and its closed forms.

    ``expected_revenue`` averages over both the random influence set and the
    exploit order; ``ratio_bound`` divides it by the upper bound (W + N)/4
    and is therefore a guaranteed approximation ratio of the parameters.
    """

    q: float
    p: float
    strategy: IEStrategy
    expected_revenue: float
    ratio_bound: float


def _tuned_inclusion_prob(lam: float, directed: bool) -> float:
    """Ratio-optimal random-IE inclusion probability q at self-weight ratio
    ``lam`` (ignored when directed), for the exploit probability
    ``TUNED_EXPLOIT_PROB``."""
    if directed:
        return 1.0 - SQRT2 / 2.0
    return max(1.0 - SQRT2 * (2.0 + lam) / 4.0, 0.0)


def ie_tuned(g: SocialNetwork, seed=0) -> TunedIE:
    """Random IE with the ratio-optimal inclusion and pricing probabilities.

    Undirected: q = max(1 - sqrt(2)(2 + lam)/4, 0) and p = 2 - sqrt(2),
    worth at least 2·sqrt(2)(2-sqrt(2))(sqrt(2)-1) ~ 0.686 of the upper
    bound at any self-weight ratio lam.  Directed: q = 1 - sqrt(2)/2, same
    p, ratio ~ 0.343.  Edge-free networks fall back to the all-exploit
    myopic strategy IE(emptyset, 1/2), which is exactly optimal there.
    """
    _require_normalized(g, "ie_tuned")
    seed = _check_seed(seed)
    if g.W == 0:
        return TunedIE(q=0.0, p=0.5, strategy=IEStrategy(frozenset(), 0.5),
                       expected_revenue=0.25 * g.N, ratio_bound=1.0)
    random_ie = RandomIEStrategy(_tuned_inclusion_prob(g.lam, g.directed),
                                 TUNED_EXPLOIT_PROB)
    expected = random_ie.expected_revenue(g)
    return TunedIE(q=random_ie.q, p=random_ie.p,
                   strategy=random_ie.sample(g, seed), expected_revenue=expected,
                   ratio_bound=_revenue_ratio(expected, revenue_bounds(g).upper))


# ---------------------------------------------------------------------------
# Bipartite-optimal IE
# ---------------------------------------------------------------------------

def ie_bipartite(g: SocialNetwork,
                 influence_set: Optional[Iterable[int]] = None) -> IEStrategy:
    """IE(A, 1/2) for one side A of a bipartition — exactly optimal.

    Every edge then crosses the cut, so each priced buyer is offered the
    myopic price against the full weight of its neighborhood and the
    strategy collects w/4 per edge: revenue W/4, meeting the upper bound.
    Requires an undirected network with zero self-weights.  When
    ``influence_set`` is omitted a 2-coloring is derived; a supplied set is
    validated (both sides must be independent).
    """
    if g.directed:
        raise ValidationError("bipartite IE applies to undirected networks")
    if g.N > 0:
        raise ValidationError(
            "bipartite IE requires zero self-weights (self-weight revenue "
            "cannot be collected across the cut)")
    src, dst = g.edge_src, g.edge_dst
    if influence_set is None:
        # Components of the bipartite double cover, where node i has a copy
        # i + n and each edge joins either end to the other end's copy.  A
        # component is bipartite iff no node shares a label with its copy;
        # labels number the components in order of their smallest node, so
        # the side with the lower labels holds that node.
        n = g.n
        cover = csr_array((np.ones(2 * src.size), (np.r_[src, src + n],
                                                    np.r_[dst + n, dst])),
                          shape=(2 * n, 2 * n))
        labels = connected_components(cover, directed=False)[1]
        odd = np.flatnonzero(labels[:n] == labels[n:])
        if odd.size:
            raise ValidationError(f"network is not bipartite: the component "
                                  f"of node {odd[0]} has an odd cycle")
        mask = labels[:n] < labels[n:]
    else:
        mask = _influence_mask(influence_set, g.n)
        same = np.flatnonzero(mask[src] == mask[dst])
        if same.size:
            i, j = src[same[0]], dst[same[0]]
            side = "influence set" if mask[i] else "priced side"
            raise ValidationError(f"partition is not bipartite: edge ({i}, {j}) "
                                  f"has both endpoints on the {side}")
    return IEStrategy(np.flatnonzero(mask), 0.5)


# ---------------------------------------------------------------------------
# Randomized rounding of pricing vectors
# ---------------------------------------------------------------------------

def piecewise_rounding_alpha(p) -> np.ndarray:
    """Four-piece linear rounding coefficient over p in [1/2, 1].

    Continuous, increasing from 0 at p=1/2 to 2 at p=1; breakpoints at
    0.7, 0.8, 0.9 with slopes 5.0, 3.3, 3.0, 3.7 (values at breakpoints
    belong to the left piece).
    """
    p = np.asarray(p, dtype=np.float64)
    return np.select(
        [p <= 0.7, p <= 0.8, p <= 0.9],
        [5.0 * (p - 0.5), 1.0 + 3.3 * (p - 0.7), 1.33 + 3.0 * (p - 0.8)],
        default=1.63 + 3.7 * (p - 0.9))


@dataclass(frozen=True, eq=False)
class RoundingSchedule:
    """Rule turning a pricing probability p_i into an influence-set
    membership probability I(p_i) = alpha(p_i) * (p_i - 1/2), together with
    the exploit pricing probability p_hat used after rounding."""

    name: str
    p_hat: float
    alpha: Callable[[np.ndarray], np.ndarray]

    def _influence(self, p) -> np.ndarray:
        """alpha(p) (p - 1/2), unchecked and unclipped: ``p`` prices on
        which :meth:`influence_probability` accepts the schedule."""
        p = np.asarray(p, dtype=np.float64)
        return self.alpha(p) * (p - 0.5)

    def influence_probability(self, p) -> np.ndarray:
        """I(p) for pricing probabilities ``p`` in [1/2, 1]; raises where the
        schedule leaves [0, 1] by more than round-off."""
        p = _check_price_prob(p, "p")
        I = self._influence(p)
        if np.any(I < -1e-9) or np.any(I > 1.0 + 1e-9):
            raise ValidationError(
                f"schedule {self.name} leaves [0, 1]: I={I}")
        return np.clip(I, 0.0, 1.0)

    def self_term(self, p) -> np.ndarray:
        """Expected rounded revenue per unit self-weight of a buyer priced
        at ``p``: p_hat unless it joins the influence set.  Unchecked, as
        :meth:`_influence`."""
        ph = self.p_hat
        return ph * (1.0 - ph) * (1.0 - np.clip(self._influence(p), 0.0, 1.0))

    def edge_term(self, p_src, p_dst, directed: bool) -> np.ndarray:
        """Expected rounded revenue per unit weight of an edge from a buyer
        priced at ``p_src`` to one at ``p_dst``: a free buyer earns
        p_hat (1 - p_hat) from a priced neighbor, a priced pair p_hat times
        that, in one direction (directed) or in either order (undirected).
        Unchecked, as :meth:`_influence`."""
        ph = self.p_hat
        Is = np.clip(self._influence(p_src), 0.0, 1.0)
        Id = np.clip(self._influence(p_dst), 0.0, 1.0)
        Es, Ed = 1.0 - Is, 1.0 - Id
        if directed:
            per_edge = Is * Ed + 0.5 * ph * Es * Ed
        else:
            per_edge = Is * Ed + Es * Id + ph * Es * Ed
        return ph * (1.0 - ph) * per_edge


UNDIRECTED_ROUNDING = RoundingSchedule(
    "undirected_piecewise", 0.586, piecewise_rounding_alpha)

#: Single-slope alternative for undirected networks; certifies ~0.8024
#: instead of the piecewise schedule's ~0.9111.
UNDIRECTED_ROUNDING_FLAT = RoundingSchedule(
    "undirected_flat", 0.586, lambda p: np.full(np.shape(p), 1.43))

DIRECTED_ROUNDING = RoundingSchedule(
    "directed_unit", 2.0 / 3.0, lambda p: np.ones(np.shape(p)))


def default_rounding_schedule(g: SocialNetwork) -> RoundingSchedule:
    return DIRECTED_ROUNDING if g.directed else UNDIRECTED_ROUNDING


@dataclass(frozen=True)
class RoundedIE:
    """One sampled IE strategy plus the exact expectation of its revenue
    over the rounding randomness (not just the sampled set's revenue)."""

    strategy: IEStrategy
    expected_revenue: float
    influence_probabilities: tuple[float, ...]
    schedule: RoundingSchedule


def rounding_expected_revenue(g: SocialNetwork, prices: Sequence[float],
                              schedule: Optional[RoundingSchedule] = None) -> float:
    """Exact expectation of ie_revenue over independent rounding of
    ``prices``: buyer i joins the influence set with probability I(p_i)."""
    _require_normalized(g, "rounding_expected_revenue")
    if schedule is None:
        schedule = default_rounding_schedule(g)
    p = _check_price_prob(prices, "prices")
    if p.shape != (g.n,):
        raise ValidationError(f"prices must have length n={g.n}")
    schedule.influence_probability(p)  # self_term and edge_term do not check
    total = float(np.sum(schedule.self_term(p) * g.self_weights))
    s, d, w = g.edge_src, g.edge_dst, g.edge_weight
    if w.size:
        total += float(np.sum(schedule.edge_term(p[s], p[d], g.directed) * w))
    return total


def round_to_ie(g: SocialNetwork, prices: Sequence[float], seed=0,
                schedule: Optional[RoundingSchedule] = None) -> RoundedIE:
    """Round a pricing vector to an IE strategy.

    Samples the influence set (buyer i joins independently with probability
    I(p_i)) and prices the rest at the schedule's p_hat.  The *expectation*
    of the sampled strategy's revenue is at least 0.9111 (undirected,
    piecewise schedule) resp. 0.55289 (directed) times the revenue of the
    best ordering for ``prices``.
    """
    seed = _check_seed(seed)
    if schedule is None:
        schedule = default_rounding_schedule(g)
    expected = rounding_expected_revenue(g, prices, schedule)  # checks prices
    I = schedule.influence_probability(prices)
    rng = np.random.default_rng(seed)
    strategy = IEStrategy(np.flatnonzero(rng.random(g.n) < I), schedule.p_hat)
    return RoundedIE(strategy=strategy, expected_revenue=expected,
                     influence_probabilities=tuple(float(x) for x in I),
                     schedule=schedule)


# ---------------------------------------------------------------------------
# Generalized (multi-class) IE
# ---------------------------------------------------------------------------

def class_ratio_terms(K: int, q: Sequence[float]) -> tuple[float, float]:
    """Worst-case ratio ingredients of a K-class IE assignment vector.

    Returns ``(4*S1, 4*S2)`` — the guaranteed revenue per unit self-weight
    resp. unit undirected edge weight, each normalized by the myopic upper
    bound of 1/4.  The undirected guarantee is their minimum; the directed
    guarantee is half the second term.  ``K`` and ``q`` are checked as
    :class:`GeneralizedIEStrategy` checks them.
    """
    K, q = _check_class_assignment(K, q)
    S1, S2 = _class_moments(q, pricing_classes(K))
    return 4.0 * S1, 4.0 * S2


def class_ratio(K: int, q: Sequence[float], directed: bool = False) -> float:
    t1, t2 = class_ratio_terms(K, q)
    return 0.5 * t2 if directed else min(t1, t2)


def generalized_ie(g: SocialNetwork, K: int, mode: str = "preset",
                   seed=0) -> GeneralizedIEStrategy:
    """Build a K-class IE strategy.

    ``mode="preset"`` (K=6 only) returns the stored six-class assignment
    vector; ``mode="optimize"`` maximizes the min-of-two-terms ratio
    (see :func:`class_ratio`) over the probability simplex by one concave
    solve (:func:`optimize_class_assignment`, K <= MAX_OPTIMIZE_CLASSES).
    The optimized vector never certifies a worse ratio than the preset.
    ``seed`` seeds the strategy's class draws.
    """
    _require_normalized(g, "generalized_ie")
    K = _check_int(K, "class count K", 2)
    if mode == "preset":
        if K != 6:
            raise ValidationError("preset assignment probabilities exist for K=6 only")
        return GeneralizedIEStrategy(6, SIX_CLASS_PRESET_Q, seed=seed)
    if mode != "optimize":
        raise ValidationError(f"unknown mode {mode!r}; use 'preset' or 'optimize'")
    q = optimize_class_assignment(K)
    return GeneralizedIEStrategy(K, tuple(float(x) for x in q), seed=seed)


#: Largest K that ``optimize_class_assignment`` takes: SLSQP holds dense
#: (K + 1)^2 matrices, and the ratio has saturated at 0.70588 by K = 200.
MAX_OPTIMIZE_CLASSES = 200


def optimize_class_assignment(K: int) -> np.ndarray:
    """Maximize min(term1, term2) of :func:`class_ratio_terms` over the
    simplex, for 2 <= K <= MAX_OPTIMIZE_CLASSES.

    term1 = 4 S1 is linear in q, and term2 = 4 S2 = 4 q^T H q with H_kl =
    a_max(k,l) p_min(k,l), a = p (1 - p), is concave on the simplex (H is
    negative definite on its tangent space), so a local maximum is global.
    One SLSQP solve of the epigraph form from the uniform q: maximize t
    subject to term1 >= t, term2 >= t, sum q = 1, q >= 0.  SLSQP can end
    with status 8 once round-off stalls its line search (K = 3 and 4), at
    a point that is still its best, so that point is returned, clipped to
    the simplex.  scipy's BLAS runs at one thread: its thread-pool start
    took about 0.9 s on a first call with K >= 16, against 0.01 s.
    """
    K = _check_int(K, "class count K", 2, MAX_OPTIMIZE_CLASSES)
    p = pricing_classes(K)
    k = np.arange(K)
    a4 = 4.0 * p * (1.0 - p)
    H8 = 2.0 * a4[np.maximum.outer(k, k)] * p[np.minimum.outer(k, k)]
    q0 = np.full(K, 1.0 / K)
    dt = np.append(np.zeros(K), 1.0)  # d t / d (q, t)
    constraints = (
        {"type": "ineq", "fun": lambda z: a4 @ z[:K] - z[K],
         "jac": lambda z: np.append(a4, -1.0)},
        {"type": "ineq", "fun": lambda z: 0.5 * z[:K] @ H8 @ z[:K] - z[K],
         "jac": lambda z: np.append(H8 @ z[:K], -1.0)},
        {"type": "eq", "fun": lambda z: np.sum(z[:K]) - 1.0,
         "jac": lambda z: 1.0 - dt})
    with _one_blas_thread():
        res = minimize(lambda z: -z[K],
                       np.append(q0, min(class_ratio_terms(K, q0))),
                       jac=lambda z: -dt, method="SLSQP",
                       bounds=[(0.0, 1.0)] * K + [(None, None)],
                       constraints=constraints,
                       options={"ftol": 1e-15, "maxiter": 1000})
    q = np.clip(res.x[:K], 0.0, None)
    return q / np.sum(q)
