"""Expected-revenue formulas for pricing strategies on social networks.

Buyers are approached one by one.  A buyer ``i`` whose in-neighbors ``S``
already own the product values it uniformly on ``[0, M]`` with
``M = w[i, i] + sum(w[j, i] for j in S)``, so offering the price
``(1 - p) * M`` is accepted with probability ``p`` and earns
``p * (1 - p) * M`` in expectation.  A marketing strategy chooses the
approach order and a pricing probability ``p_i in [1/2, 1]`` per buyer;
influence-and-exploit (IE) strategies instead give the product away to an
influence set ``A`` and charge everyone else with a common probability.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from .netmodel import SocialNetwork, UnsupportedOperationError, ValidationError

PRICE_PROB_MIN = 0.5
PRICE_PROB_MAX = 1.0
_PROB_TOL = 1e-12
_BATCH_CELLS = 1 << 19


def _check_price_prob(p, name: str = "p"):
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{name} must be finite")
    if np.any(p < PRICE_PROB_MIN - _PROB_TOL) or np.any(p > PRICE_PROB_MAX + _PROB_TOL):
        raise ValidationError(
            f"{name} must lie in [{PRICE_PROB_MIN}, {PRICE_PROB_MAX}], got {p}")
    return np.clip(p, PRICE_PROB_MIN, PRICE_PROB_MAX)


def _check_exploit_prob(p, name: str = "p") -> float:
    """Exploit pricing probabilities live in the half-open [1/2, 1): a free
    offer (p=1) belongs in the influence set, not the exploit phase."""
    p = float(p)
    if not (np.isfinite(p) and PRICE_PROB_MIN - _PROB_TOL <= p < PRICE_PROB_MAX):
        raise ValidationError(f"{name} must lie in [1/2, 1), got {p}")
    return max(p, PRICE_PROB_MIN)


def _require_normalized(g: SocialNetwork, what: str) -> None:
    if g.directed and g.N > 0:
        raise ValidationError(
            f"{what} expects directed networks without self-weights; "
            "apply eliminate_selfloops first")


def _require_keys(doc: dict, family: str, *keys: str) -> None:
    """Reject a strategy document that lacks any of ``keys``."""
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValidationError(
            f"{family} strategy document is missing key(s): "
            + ", ".join(missing))


# ---------------------------------------------------------------------------
# Strategy types
# ---------------------------------------------------------------------------

class _Strategy:
    """Buyers in pricing classes: a marketing strategy gives each buyer its
    own, IE two fixed ones (free, then ``p``); the random families draw them
    i.i.d.  ``family`` names the family, the dataclass fields its JSON keys."""

    family: ClassVar[str]

    @classmethod
    def from_json(cls, doc: dict):
        """Inverse of ``to_json``; fields without defaults are required."""
        needed = {f.name: f.default is MISSING for f in fields(cls)}
        _require_keys(doc, cls.family, *(k for k in needed if needed[k]))
        return cls(**{k: doc[k] for k in needed if k in doc})

    def offers(self, n: int, draw):
        """A chunk's pricing probabilities and approach keys, buyer-major and
        broadcasting to (n, m), from its (n, m) uniforms ``draw(stream)``:
        buyer i precedes j in trial t when keys[i, t] < keys[j, t]."""
        prices, classes = self.assignment(n, draw)
        return prices[classes], classes + draw("ordering")


@dataclass(frozen=True)
class MarketingStrategy(_Strategy):
    """Approach order plus per-buyer pricing probabilities.

    ``order[k]`` is the buyer approached at step ``k``; ``prices[i]`` is the
    pricing probability for buyer ``i`` (the offered price is
    ``(1 - prices[i]) * M`` for that buyer's realized valuation cap ``M``,
    so larger values mean cheaper offers sold with higher probability).
    """

    family: ClassVar[str] = "marketing"
    order: tuple[int, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValidationError(f"order {order} is not a permutation")
        prices = tuple(float(x) for x in
                       _check_price_prob(list(self.prices), "prices"))
        if len(prices) != len(order):
            raise ValidationError("order and prices must have equal length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "prices", prices)

    @property
    def n(self) -> int:
        return len(self.order)

    def positions(self) -> np.ndarray:
        """positions()[i] = step at which buyer ``i`` is approached."""
        pos = np.empty(self.n, dtype=np.int64)
        pos[np.asarray(self.order, dtype=np.int64)] = np.arange(self.n)
        return pos

    def _check_size(self, n: int) -> None:
        if self.n != n:
            raise ValidationError(f"strategy covers {self.n} buyers, network has {n}")

    def offers(self, n: int, draw):
        """The fixed prices and approach positions; nothing is drawn."""
        self._check_size(n)
        return np.asarray(self.prices)[:, None], self.positions()[:, None]

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``.

        Buyer ``i`` contributes ``p_i (1 - p_i)`` times its expected
        valuation cap, which counts ``w[i, i]`` plus ``p_j * w[j, i]`` over
        in-neighbors ``j`` approached earlier (those own the product with
        probability ``p_j``, independently).
        """
        _require_normalized(g, "strategy_revenue")
        self._check_size(g.n)
        p = np.asarray(self.prices)
        pos = self.positions()
        src, dst, w = g.influence_pairs()
        margin = p * (1.0 - p)
        total = float(np.sum(margin * g.self_weights))
        if w.size:
            before = pos[src] < pos[dst]
            total += float(np.sum((margin[dst] * p[src] * w)[before]))
        return total

    def to_json(self) -> dict:
        return {"order": list(self.order), "prices": list(self.prices)}


@dataclass(frozen=True)
class IEStrategy(_Strategy):
    """Influence-and-exploit strategy: free products for ``influence_set``,
    then a common pricing probability ``p`` for everyone else (approached in
    any order after the set; expected revenue does not depend on it)."""

    family: ClassVar[str] = "ie"
    influence_set: frozenset[int]
    p: float

    def __post_init__(self):
        object.__setattr__(self, "influence_set",
                           frozenset(int(i) for i in self.influence_set))
        object.__setattr__(self, "p", _check_exploit_prob(self.p))

    def assignment(self, n: int, draw):
        """Class prices ``(1, p)`` and the fixed classes: members free."""
        member = _influence_mask(self.influence_set, n)[:, None]
        return np.array([1.0, self.p]), (~member).astype(np.intp)

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``; see :func:`ie_revenue`."""
        _require_normalized(g, "ie_revenue")
        return _ie_cubic(self.p, *ie_revenue_coefficients(g, self.influence_set))

    def to_json(self) -> dict:
        return {"influence_set": sorted(self.influence_set), "p": self.p}


def _draw_classes(q, u) -> np.ndarray:
    """First class k with u < q_0 + ... + q_k (the last past round-off)."""
    return np.minimum(np.searchsorted(np.cumsum(q), u, side="right"),
                      q.size - 1)


class _ClassIEStrategy(_Strategy):
    """IE with buyers drawn i.i.d. into the pricing classes of ``classes()``
    (probabilities, non-increasing prices), approached class by class."""

    def assignment(self, n: int, draw):
        """Class prices and classes drawn from the "assignment" stream."""
        q, prices = self.classes()
        return prices, _draw_classes(q, draw("assignment"))

    def sample_classes(self, n: int, seed) -> np.ndarray:
        """Classes of ``n`` buyers drawn with ``np.random.default_rng(seed)``."""
        q, _ = self.classes()
        return _draw_classes(q, np.random.default_rng(seed).random(n))

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``, averaged over classes and order:
        ``S1 N + S2 W`` undirected, ``S2 W / 2`` directed (:func:`class_moments`)."""
        _require_normalized(g, f"{self.family}_revenue")
        S1, S2 = class_moments(*self.classes())
        if g.directed:
            return float(0.5 * S2 * g.W)
        return float(S1 * g.N + S2 * g.W)


def _random_ie_classes(q, p):
    """Random IE as two-class IE: class probabilities ``(q, 1 - q)`` (free,
    priced) and class prices ``(1, p)``, along a new last axis; ``q`` and
    ``p`` broadcast against each other."""
    q, p = np.broadcast_arrays(np.asarray(q, dtype=np.float64),
                               np.asarray(p, dtype=np.float64))
    return (np.stack([q, 1.0 - q], axis=-1),
            np.stack([np.ones_like(p), p], axis=-1))


@dataclass(frozen=True)
class RandomIEStrategy(_ClassIEStrategy):
    """IE with the influence set sampled i.i.d.: each buyer joins with
    probability ``q``; the rest are priced with probability ``p``.  This is
    two-class IE with class prices ``(1, p)``."""

    family: ClassVar[str] = "random_ie"
    q: float
    p: float

    def __post_init__(self):
        q = float(self.q)
        if not (np.isfinite(q) and 0.0 <= q <= 1.0):
            raise ValidationError(f"q must lie in [0, 1], got {q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", _check_exploit_prob(self.p))

    def sample(self, g: SocialNetwork, seed) -> IEStrategy:
        members = np.flatnonzero(self.sample_classes(g.n, seed) == 0)
        return IEStrategy(frozenset(int(i) for i in members), self.p)

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        return _random_ie_classes(self.q, self.p)

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p}


def pricing_classes(K: int) -> np.ndarray:
    """Pricing probabilities ``p_k = 1 - (k - 1) / (2 (K - 1))`` for the
    ``K`` buyer classes, running from 1 (free riders, class 1) down to 1/2.
    """
    K = int(K)
    if K < 2:
        raise ValidationError("class count K must be at least 2")
    k = np.arange(1, K + 1, dtype=np.float64)
    return 1.0 - (k - 1.0) / (2.0 * (K - 1.0))


@dataclass(frozen=True)
class GeneralizedIEStrategy(_ClassIEStrategy):
    """Multi-class IE: buyer classes drawn i.i.d. from ``q``; classes are
    approached in order of decreasing pricing probability
    (``pricing_classes(K)``), buyers within a class in random order."""

    family: ClassVar[str] = "generalized_ie"
    K: int
    q: tuple[float, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        K = int(self.K)
        q = np.asarray(self.q, dtype=np.float64)
        if K < 2:
            raise ValidationError("class count K must be at least 2")
        if q.shape != (K,):
            raise ValidationError(f"q must have length K={K}")
        if not np.all(np.isfinite(q)) or np.any(q < -1e-9):
            raise ValidationError("q must be non-negative")
        if abs(float(np.sum(q)) - 1.0) > 1e-9:
            raise ValidationError(f"q must sum to 1, got {float(np.sum(q))!r}")
        q = np.clip(q, 0.0, None)
        q = q / np.sum(q)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "q", tuple(float(x) for x in q))

    @property
    def class_prices(self) -> np.ndarray:
        return pricing_classes(self.K)

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.q), self.class_prices

    def sample_classes(self, n: int, seed=None) -> np.ndarray:
        return super().sample_classes(n, self.seed if seed is None else seed)

    def to_json(self) -> dict:
        return {"K": self.K, "q": list(self.q), "seed": self.seed}


def strategy_family(strategy) -> str:
    """Short family name: marketing, ie, random_ie, or generalized_ie."""
    if isinstance(strategy, _Strategy):
        return strategy.family
    raise ValidationError(f"unknown strategy type {type(strategy).__name__}")


def strategy_from_json(doc: dict):
    """Rebuild any strategy family from its JSON form, detected by the first
    family key present ("K" before "q": generalized IE has a "q" too)."""
    if not isinstance(doc, dict):
        raise ValidationError("strategy document must be a JSON object")
    try:
        for key, cls in (("order", MarketingStrategy),
                         ("influence_set", IEStrategy),
                         ("K", GeneralizedIEStrategy), ("q", RandomIEStrategy)):
            if key in doc:
                return cls.from_json(doc)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed strategy document: {exc}") from None
    raise ValidationError(
        "unrecognized strategy document; expected keys for one of the "
        "marketing, ie, random_ie, or generalized_ie families")


# ---------------------------------------------------------------------------
# Expected revenue
# ---------------------------------------------------------------------------

def strategy_revenue(g: SocialNetwork, strategy: MarketingStrategy) -> float:
    """Exact expected revenue of a marketing strategy; see
    :meth:`MarketingStrategy.expected_revenue`."""
    return strategy.expected_revenue(g)


def _influence_mask(A: Iterable[int], n: int) -> np.ndarray:
    """Membership vector of influence set ``A``; members must lie in [0, n)."""
    A = {int(i) for i in A}
    bad = sorted(i for i in A if not 0 <= i < n)
    if bad:
        raise ValidationError(f"influence set member {bad[0]} out of range for n={n}")
    in_A = np.zeros(n, dtype=bool)
    in_A[list(A)] = True
    return in_A


def ie_revenue_coefficients(g: SocialNetwork, A: Iterable[int]) -> tuple[float, float]:
    """Pair ``(C, D)`` with ``ie_revenue(g, A, p) == p (1 - p) (C + p D / 2)``.

    ``C`` aggregates self-weights of priced buyers plus influence from the
    free set; ``D`` aggregates influence among priced buyers.
    """
    C, D = ie_coefficients_batch(g, _influence_mask(A, g.n)[None, :])
    return float(C[0]), float(D[0])


def ie_revenue(g: SocialNetwork, A, p: Optional[float] = None) -> float:
    """Expected revenue of the IE strategy with influence set ``A``.

    Every priced buyer sees the full influence of ``A`` and, in expectation,
    half of the ``p``-weighted influence of the other priced buyers (each
    unordered priced pair is adjacent in one direction at a time under a
    uniformly random exploit order, and each owns the product with
    probability ``p`` when the other is approached later).  ``A`` may be an
    :class:`IEStrategy` with ``p`` omitted.
    """
    if isinstance(A, IEStrategy):
        if p is not None:
            raise ValidationError("pass either an IEStrategy or (A, p), not both")
        return A.expected_revenue(g)
    if p is None:
        raise ValidationError("ie_revenue needs a pricing probability p")
    return IEStrategy(A, p).expected_revenue(g)


def _ie_cubic(p, C, D):
    """IE revenue ``p (1 - p) (C + p D / 2)`` at pricing probability ``p``
    from the coefficients of :func:`ie_revenue_coefficients`."""
    return p * (1.0 - p) * (C + 0.5 * p * D)


def ie_coefficients_batch(g: SocialNetwork, members: np.ndarray):
    """:func:`ie_revenue_coefficients` of many influence sets at once.

    ``members`` is a (T, n) matrix with one candidate set per row; its
    entries must be 0 or 1 (boolean input is taken as is).  Returns float
    vectors ``(C, D)`` of length T.  Sets are priced over the stored edge
    list in blocks of about ``_BATCH_CELLS`` buyer or edge cells:
    O(T (n + |E|)) time and bounded memory, with no n x n matrix.
    """
    M = np.asarray(members)
    if M.ndim != 2 or M.shape[1] != g.n:
        raise ValidationError(f"membership matrix must have {g.n} columns")
    T, n = M.shape
    src, dst, w = g.edge_src, g.edge_dst, g.edge_weight
    # cap[i] is buyer i's valuation cap when every other buyer owns the
    # product; priced, it splits into C (self-weight plus influence from
    # the free set) and D (influence from the other priced buyers).
    in_w = np.bincount(dst, w, n)
    if not g.directed:  # each stored edge is an influence pair both ways
        in_w += np.bincount(src, w, n)
        w = 2.0 * w
    cap = g.self_weights + in_w
    C, D = np.empty(T), np.empty(T)
    rows = max(1, _BATCH_CELLS // max(1, n, w.size))
    for start in range(0, T, rows):
        block = M[start:start + rows].T
        if block.dtype != bool and not np.all((block == 0) | (block == 1)):
            raise ValidationError("membership entries must be 0 or 1")
        priced = ~np.ascontiguousarray(block, dtype=bool)  # buyer-major
        D[start:start + rows] = w @ (priced[src] & priced[dst])
        C[start:start + rows] = cap @ priced - D[start:start + rows]
    return C, D


def ie_revenue_batch(g: SocialNetwork, members: np.ndarray, p: float) -> np.ndarray:
    """Expected IE revenue for each row of a membership matrix at a common
    exploit pricing probability."""
    return _ie_cubic(_check_exploit_prob(p), *ie_coefficients_batch(g, members))


def random_ie_revenue(g: SocialNetwork, q: float, p: float) -> float:
    """Expected revenue of IE with an i.i.d. influence set (each buyer free
    with probability ``q``), averaged over the set and the exploit order."""
    return RandomIEStrategy(q, p).expected_revenue(g)


def generalized_ie_revenue(g: SocialNetwork, K: int, q: Sequence[float]) -> float:
    """Expected revenue of the K-class generalized IE strategy, averaged over
    the i.i.d. class assignment and within-class orders."""
    return GeneralizedIEStrategy(K, tuple(q)).expected_revenue(g)


def class_moments(q, p):
    """Per-unit-weight revenue moments of a class-based IE assignment.

    ``q`` holds the class probabilities and ``p`` the class pricing
    probabilities, classes ordered by non-increasing ``p`` along the last
    axis; leading axes broadcast.  ``S1`` is the expected margin
    ``p (1 - p)`` of a single buyer (the self-weight multiplier).  ``S2`` is
    the expected contribution of one undirected unit edge: conditioning on
    the classes ``k <= l`` of its endpoints, the later buyer earns
    ``p_k p_l (1 - p_l)``; a directed unit edge earns ``S2 / 2`` by symmetry.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    a = p * (1.0 - p)
    qp = q * p
    prefix = np.cumsum(qp, axis=-1) - qp  # sum_{l<k} q_l p_l
    S1 = np.sum(q * a, axis=-1)
    S2 = np.sum(a * q * (qp + 2.0 * prefix), axis=-1)
    return S1, S2


# ---------------------------------------------------------------------------
# Bounds, ordering, prices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RevenueBounds:
    """Universal bounds: no strategy beats ``upper`` and myopic pricing
    (price half the valuation cap, in any order when undirected / a uniformly
    random order when directed) already earns ``myopic_lower``."""

    upper: float
    myopic_lower: float

    def to_json(self) -> dict:
        return {"upper": self.upper, "myopic_lower": self.myopic_lower}


def revenue_bounds(g: SocialNetwork) -> RevenueBounds:
    """Bounds ``(W + N) / 4`` above and ``(W + 2N) / 8`` (undirected) or
    ``(W + 4N) / 16`` (directed) below on the optimal expected revenue."""
    W, N = g.W, g.N
    upper = 0.25 * (W + N)
    if g.directed:
        lower = (W + 4.0 * N) / 16.0
    else:
        lower = (W + 2.0 * N) / 8.0
    return RevenueBounds(upper=upper, myopic_lower=lower)


def best_ordering_for_prices(g: SocialNetwork, prices: Sequence[float]) -> MarketingStrategy:
    """Optimal approach order for fixed pricing probabilities on an
    undirected network: non-increasing ``p`` (ties broken by buyer index).

    Swapping two adjacent buyers ``i`` just before ``j`` changes revenue by
    ``p_i p_j w_ij (p_j - p_i)``, so any order with a cheaper-offer buyer
    (larger ``p``) ahead of a pricier one can only improve by sorting.
    Directed networks admit no such rule and are rejected.
    """
    if g.directed:
        raise UnsupportedOperationError(
            "ordering optimization by sorted prices applies to undirected "
            "networks only")
    p = _check_price_prob(list(prices), "prices")
    if p.shape != (g.n,):
        raise ValidationError(f"prices must have length n={g.n}")
    order = np.argsort(-p, kind="stable")
    return MarketingStrategy(tuple(int(i) for i in order),
                             tuple(float(x) for x in p))


@dataclass(frozen=True)
class MyopicQuote:
    price: float
    acceptance_probability: float
    expected_revenue: float

    def to_json(self) -> dict:
        return {"price": self.price,
                "acceptance_probability": self.acceptance_probability,
                "expected_revenue": self.expected_revenue}


def myopic_price(M: float) -> MyopicQuote:
    """Revenue-maximizing single offer against a valuation uniform on
    ``[0, M]``: price ``M / 2`` sells with probability 1/2 for expected
    revenue ``M / 4``."""
    M = float(M)
    if not (np.isfinite(M) and M >= 0):
        raise ValidationError(f"valuation cap must be finite and non-negative, got {M}")
    return MyopicQuote(price=0.5 * M, acceptance_probability=0.5,
                       expected_revenue=0.25 * M)


def price_for_probability(M: float, p: float) -> float:
    """Offer accepted with probability ``p`` by a valuation uniform on
    ``[0, M]``: the price ``(1 - p) * M``."""
    M = float(M)
    if not (np.isfinite(M) and M >= 0):
        raise ValidationError(f"valuation cap must be finite and non-negative, got {M}")
    p = float(_check_price_prob(p, "p"))
    return (1.0 - p) * M
