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

import math
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from .netmodel import (SocialNetwork, ValidationError, _check_int, _check_ints,
                       _check_real, _check_reals, _check_seed)

PRICE_PROB_MIN = 0.5
PRICE_PROB_MAX = 1.0
_PROB_TOL = 1e-12
_BATCH_CELLS = 1 << 19
# Cells per block of the loops that run many times per call (``simulate``,
# the exhaustive oracles, marketing revenue, the certificate scan): a float64
# temporary of this size, 120 KiB, stays under glibc's default 128 KiB mmap
# threshold, so it is served from the heap and reused without page faults.
_BLOCK_CELLS = 15 << 10


def _check_price_prob(p, name: str = "p"):
    """Pricing probabilities ``p`` (one or an array) in [1/2, 1], each taken
    to the range when at most _PROB_TOL outside it."""
    return np.clip(_check_reals(p, name, PRICE_PROB_MIN - _PROB_TOL,
                                PRICE_PROB_MAX + _PROB_TOL),
                   PRICE_PROB_MIN, PRICE_PROB_MAX)


def _check_exploit_prob(p, name: str = "p") -> float:
    """Exploit pricing probabilities live in the half-open [1/2, 1): a free
    offer (p=1) belongs in the influence set, not the exploit phase.  A p
    at most _PROB_TOL below 1/2 is taken as 1/2."""
    p = _check_real(p, name, PRICE_PROB_MIN - _PROB_TOL, PRICE_PROB_MAX)
    if p == PRICE_PROB_MAX:
        raise ValidationError(f"{name} must lie in [1/2, 1), got {p}")
    return max(p, PRICE_PROB_MIN)


def _require_normalized(g: SocialNetwork, what: str) -> None:
    if g.directed and g.N > 0:
        raise ValidationError(
            f"{what} expects directed networks without self-weights; "
            "apply eliminate_selfloops first")


# ---------------------------------------------------------------------------
# Strategy types
# ---------------------------------------------------------------------------

class _Strategy:
    """Buyers in pricing classes: a marketing strategy gives each buyer its
    own, IE two fixed ones (free, then ``p``); the random families draw them
    i.i.d.  ``family`` names the family, the dataclass fields its JSON keys."""

    family: ClassVar[str]
    # Classes are approached by non-increasing pricing probability, so of
    # two buyers in different classes the later holds the larger discount.
    price_ordered: ClassVar[bool] = True

    @classmethod
    def from_json(cls, doc: dict):
        """Inverse of ``to_json``; fields without defaults are required and
        no other key is allowed but a "family" that names this family.  The
        constructor checks the values."""
        missing = [f.name for f in fields(cls)
                   if f.name not in doc and f.default is MISSING]
        if missing:
            raise ValidationError(f"{cls.family} strategy document is missing "
                                  f"key(s): {', '.join(missing)}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if doc.get("family") == cls.family:
            unknown.discard("family")
        if unknown:
            raise ValidationError(f"{cls.family} strategy document has unknown "
                                  f"key(s): {', '.join(sorted(unknown))}")
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})

    def to_json(self) -> dict:
        """The fields in field order, sets sorted and tuples as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: (sorted(v) if isinstance(v, frozenset) else
                    list(v) if isinstance(v, tuple) else v)
                for k, v in doc.items()}

    def offer_sampler(self, n: int, ordered: bool = True):
        """Function of a chunk's (n, m) uniforms ``draw(stream)`` that gives
        its pricing probabilities and approach keys, buyer-major and
        broadcasting to (n, m): buyer i precedes j in trial t when
        keys[i, t] < keys[j, t].  With ``ordered`` False the keys are None
        and "ordering" is not drawn.  The strategy's fixed tables for ``n``
        buyers are built here, once, not per chunk."""
        prices, draw_classes = self.class_sampler(n)

        def offers(draw):
            classes = draw_classes(draw)
            keys = classes + draw("ordering") if ordered else None
            return prices.take(classes), keys
        return offers


@dataclass(frozen=True)
class MarketingStrategy(_Strategy):
    """Approach order plus per-buyer pricing probabilities.

    ``order[k]`` is the buyer approached at step ``k``; ``prices[i]`` is the
    pricing probability for buyer ``i`` (the offered price is
    ``(1 - prices[i]) * M`` for that buyer's realized valuation cap ``M``,
    so larger values mean cheaper offers sold with higher probability).
    """

    family: ClassVar[str] = "marketing"
    price_ordered: ClassVar[bool] = False
    order: tuple[int, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        order = tuple(_check_ints(self.order, "order").tolist())
        if sorted(order) != list(range(len(order))):
            raise ValidationError(f"order {order} is not a permutation")
        prices = _check_price_prob(self.prices, "prices")
        if prices.shape != (len(order),):
            raise ValidationError("order and prices must have equal length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "prices", tuple(prices.tolist()))

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

    def offer_sampler(self, n: int, ordered: bool = True):
        """The fixed prices and approach positions; nothing is drawn."""
        self._check_size(n)
        offers = np.asarray(self.prices)[:, None], self.positions()[:, None]
        return lambda draw: offers

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``: one row of
        :func:`_marketing_revenue_rows`."""
        _require_normalized(g, "strategy_revenue")
        self._check_size(g.n)
        return float(_marketing_revenue_rows(
            g, np.asarray(self.prices)[None], self.positions()[None])[0])


@dataclass(frozen=True)
class IEStrategy(_Strategy):
    """Influence-and-exploit strategy: free products for ``influence_set``,
    then a common pricing probability ``p`` for everyone else (approached in
    any order after the set; expected revenue does not depend on it)."""

    family: ClassVar[str] = "ie"
    influence_set: frozenset[int]
    p: float

    def __post_init__(self):
        object.__setattr__(self, "influence_set", frozenset(
            _check_ints(self.influence_set, "influence_set").tolist()))
        object.__setattr__(self, "p", _check_exploit_prob(self.p))

    def class_sampler(self, n: int):
        """Class prices ``(1, p)`` and the fixed classes: members free."""
        member = _influence_mask(self.influence_set, n)[:, None]
        classes = (~member).astype(np.intp)
        return np.array([1.0, self.p]), lambda draw: classes

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``; see :func:`ie_revenue`."""
        _require_normalized(g, "ie_revenue")
        return _ie_cubic(self.p, *ie_revenue_coefficients(g, self.influence_set))


def _class_drawer(q):
    """Function of uniforms u giving the first class k with u < q_0 + ... +
    q_k (the last past round-off): the count of the first K - 1 cut points
    q_0 + ... + q_j at or below u, in the smallest unsigned type that holds
    K - 1.  The cut points are summed once, here."""
    cuts = np.cumsum(q)[:-1]
    dtype = np.min_scalar_type(cuts.size)

    def draw_classes(u):
        classes = np.zeros(np.shape(u), dtype=dtype)
        for cut in cuts:
            classes += u >= cut
        return classes
    return draw_classes


class _ClassIEStrategy(_Strategy):
    """IE with buyers drawn i.i.d. into the pricing classes of ``classes()``
    (probabilities, non-increasing prices), approached class by class."""

    def class_sampler(self, n: int):
        """Class prices and classes drawn from the "assignment" stream."""
        q, prices = self.classes()
        draw_classes = _class_drawer(q)
        return prices, lambda draw: draw_classes(draw("assignment"))

    def sample_classes(self, n: int, seed) -> np.ndarray:
        """Classes of ``n`` buyers drawn with ``np.random.default_rng(seed)``."""
        q, _ = self.classes()
        u = np.random.default_rng(_check_seed(seed)).random(n)
        return _class_drawer(q)(u).astype(np.intp)

    def expected_revenue(self, g: SocialNetwork) -> float:
        """Exact expected revenue on ``g``, averaged over classes and order:
        ``S1 N + S2 W`` undirected, ``S2 W / 2`` directed (:func:`class_moments`)."""
        _require_normalized(g, f"{self.family}_revenue")
        S1, S2 = _class_moments(*self.classes())
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
        object.__setattr__(self, "q", _check_real(self.q, "q", 0, 1))
        object.__setattr__(self, "p", _check_exploit_prob(self.p))

    def sample(self, g: SocialNetwork, seed) -> IEStrategy:
        members = np.flatnonzero(self.sample_classes(g.n, seed) == 0)
        return IEStrategy(members, self.p)

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        return _random_ie_classes(self.q, self.p)


def pricing_classes(K: int) -> np.ndarray:
    """Pricing probabilities ``p_k = 1 - (k - 1) / (2 (K - 1))`` for the
    ``K`` buyer classes, running from 1 (free riders, class 1) down to 1/2.
    """
    K = _check_int(K, "class count K", 2)
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
        K = _check_int(self.K, "class count K", 2)
        q = _check_reals(self.q, "q", -1e-9, math.inf)
        if q.shape != (K,):
            raise ValidationError(f"q must have length K={K}")
        if abs(float(np.sum(q)) - 1.0) > 1e-9:
            raise ValidationError(f"q must sum to 1, got {float(np.sum(q))!r}")
        seed = _check_seed(self.seed)
        q = np.clip(q, 0.0, None)
        q = q / np.sum(q)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "q", tuple(float(x) for x in q))
        object.__setattr__(self, "seed", seed)

    @property
    def class_prices(self) -> np.ndarray:
        return pricing_classes(self.K)

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.q), self.class_prices

    def sample_classes(self, n: int, seed=None) -> np.ndarray:
        return super().sample_classes(n, self.seed if seed is None else seed)


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def _marketing_revenue_rows(g: SocialNetwork, P: np.ndarray,
                            pos: np.ndarray) -> np.ndarray:
    """Expected revenue of each row of prices ``P`` (T, n) approached in
    the order of the row of positions ``pos`` (T, n), ``pos[r, i]`` the
    step of buyer i: buyer i earns ``p_i (1 - p_i)`` times its expected cap
    ``w[i, i]`` plus ``p_j w[j, i]`` over the influence pairs (j, i) with j
    approached earlier.  Rows go in blocks of about ``_BLOCK_CELLS`` cells,
    each summed alone with its pairs grouped by the buyer they pay, so its
    value does not depend on the rows around it."""
    src, dst, w = g.influence_pairs()
    by_buyer = np.lexsort((src, dst))
    src, dst, w = src[by_buyer], dst[by_buyer], w[by_buyer]
    R = np.empty(P.shape[0])
    rows = max(1, _BLOCK_CELLS // max(1, g.n, w.size))
    for start in range(0, R.size, rows):
        # np.sum reduces a C-contiguous row alone; p[:, src] is not one
        p = np.ascontiguousarray(P[start:start + rows])
        at = pos[start:start + rows]
        margin = p * (1.0 - p)
        R[start:start + rows] = np.sum(margin * g.self_weights, axis=1)
        if w.size:
            gain = p.take(src, axis=1) * w
            gain *= margin.take(dst, axis=1)
            gain *= at.take(src, axis=1) < at.take(dst, axis=1)
            R[start:start + rows] += np.sum(gain, axis=1)
    return R


def _influence_mask(A: Iterable[int], n: int) -> np.ndarray:
    """Membership vector of influence set ``A``; members must lie in [0, n)."""
    A = _check_ints(A, "influence_set")
    bad = A[(A < 0) | (A >= n)]
    if bad.size:
        raise ValidationError(f"influence set member {min(bad)} out of range for n={n}")
    in_A = np.zeros(n, dtype=bool)
    in_A[A] = True
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


def _ie_weights(g: SocialNetwork):
    """The IE weight table ``(cap, src, dst, w)``: ``cap[i]`` is buyer i's
    cap when all others own the product; priced, it splits into C (self-
    weight and influence from the free set) and D, which counts ``w[k]``
    when ``src[k]`` and ``dst[k]`` are both priced (undirected: doubled)."""
    src, dst, w = g.edge_src, g.edge_dst, g.edge_weight
    in_w = np.bincount(dst, w, g.n)
    if not g.directed:
        in_w += np.bincount(src, w, g.n)
        w = 2.0 * w
    return g.self_weights + in_w, src, dst, w


def _batch_rows(g: SocialNetwork) -> int:
    """Candidate sets per block of :func:`ie_coefficients_batch`: about
    ``_BATCH_CELLS`` buyer or edge cells."""
    return max(1, _BATCH_CELLS // max(1, g.n, g.num_edges))


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
    cap, src, dst, w = _ie_weights(g)
    C, D = np.empty(T), np.empty(T)
    rows = _batch_rows(g)
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
    return GeneralizedIEStrategy(K, q).expected_revenue(g)


def class_moments(q, p):
    """Per-unit-weight revenue moments of a class-based IE assignment.

    ``q`` holds the class probabilities and ``p`` the class pricing
    probabilities, in [0, 1], classes ordered by non-increasing ``p`` along
    the last axis; leading axes broadcast.  ``S1`` is the expected margin
    ``p (1 - p)`` of a single buyer (the self-weight multiplier).  ``S2`` is
    the expected contribution of one undirected unit edge: conditioning on
    the classes ``k <= l`` of its endpoints, the later buyer earns
    ``p_k p_l (1 - p_l)``; a directed unit edge earns ``S2 / 2`` by symmetry.
    """
    return _class_moments(_check_reals(q, "q", 0, 1),
                          _check_reals(p, "p", 0, 1))


def _class_moments(q, p):
    """:func:`class_moments` of float arrays ``q`` and ``p``, unchecked."""
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


def _revenue_ratio(revenue: float, reference: float) -> float:
    """``revenue / reference`` capped at 1 against float noise; 1 when the
    reference, such as R* = (W + N)/4, is 0, since nothing can be earned."""
    return min(1.0, revenue / reference) if reference > 0.0 else 1.0


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


@dataclass(frozen=True)
class MyopicQuote:
    price: float
    acceptance_probability: float
    expected_revenue: float


def myopic_price(M: float) -> MyopicQuote:
    """Revenue-maximizing single offer against a valuation uniform on
    ``[0, M]``: price ``M / 2`` sells with probability 1/2 for expected
    revenue ``M / 4``."""
    M = _check_real(M, "valuation cap M", 0, math.inf)
    return MyopicQuote(price=0.5 * M, acceptance_probability=0.5,
                       expected_revenue=0.25 * M)


def price_for_probability(M: float, p: float) -> float:
    """Offer accepted with probability ``p`` by a valuation uniform on
    ``[0, M]``: the price ``(1 - p) * M``."""
    M = _check_real(M, "valuation cap M", 0, math.inf)
    return (1.0 - float(_check_price_prob(p, "p"))) * M
