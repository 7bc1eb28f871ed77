import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrev import revenue
from netrev import (
    GeneralizedIEStrategy,
    IEStrategy,
    MarketingStrategy,
    RandomIEStrategy,
    SocialNetwork,
    ValidationError,
    best_ordering_for_prices,
    class_moments,
    generalized_ie_revenue,
    generate,
    ie_coefficients_batch,
    ie_revenue,
    ie_revenue_batch,
    ie_revenue_coefficients,
    myopic_price,
    price_for_probability,
    pricing_classes,
    random_ie_revenue,
    revenue_bounds,
    strategy_family,
    strategy_from_json,
    strategy_revenue,
)


@pytest.fixture
def wedge3():
    """Directed 3-buyer instance with asymmetric weights, solved by hand."""
    return SocialNetwork(True, 3, [(0, 1, 0.5), (1, 2, 1.0), (0, 2, 0.25)])


# ---------------------------------------------------------------------------
# Marketing strategy revenue
# ---------------------------------------------------------------------------

def test_strategy_revenue_hand_computed(wedge3):
    # buyer 1 sees 1 * 0.5 from buyer 0; buyer 2 sees 1 * 0.25 + 0.75 * 1
    s = MarketingStrategy((0, 1, 2), (1.0, 0.75, 0.6))
    expect = 0.75 * 0.25 * 0.5 + 0.6 * 0.4 * (0.25 + 0.75)
    assert strategy_revenue(wedge3, s) == pytest.approx(expect)


def test_strategy_revenue_ignores_edges_against_order(wedge3):
    # reversing the approach order leaves every influence edge pointing
    # backwards, so only self-weights (here none) can earn anything
    s = MarketingStrategy((2, 1, 0), (0.75, 0.75, 0.75))
    assert strategy_revenue(wedge3, s) == 0.0


def test_strategy_revenue_counts_self_weights():
    g = SocialNetwork(False, 2, [], self_weights=[1.0, 2.0])
    s = MarketingStrategy((0, 1), (0.5, 0.5))
    assert strategy_revenue(g, s) == pytest.approx(0.25 * 3.0)


def test_free_offers_earn_nothing_but_influence(cycle4):
    all_free = MarketingStrategy((0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0))
    assert strategy_revenue(cycle4, all_free) == 0.0


def test_strategy_validation():
    with pytest.raises(ValidationError):
        MarketingStrategy((0, 0, 1), (0.5, 0.5, 0.5))
    with pytest.raises(ValidationError):
        MarketingStrategy((0, 1), (0.5,))
    with pytest.raises(ValidationError):
        MarketingStrategy((0, 1), (0.5, 1.5))


# ---------------------------------------------------------------------------
# IE revenue (closed form and coefficients)
# ---------------------------------------------------------------------------

def test_ie_revenue_exact_on_cycle(cycle4):
    assert ie_revenue(cycle4, frozenset({1, 3}), 0.5) == pytest.approx(1.0)


def test_ie_revenue_hand_computed(cycle4):
    # A = {1}: buyers 0 and 2 each see weight 1 from the set (C = 2);
    # priced pairs 0-3 and 2-3 contribute D = 4 half-edges
    C, D = ie_revenue_coefficients(cycle4, {1})
    assert (C, D) == (2.0, 4.0)
    p = 0.6
    assert ie_revenue(cycle4, {1}, p) == pytest.approx(p * (1 - p) * (C + 0.5 * p * D))


def test_ie_revenue_accepts_strategy_object(cycle4):
    s = IEStrategy(frozenset({1, 3}), 0.5)
    assert ie_revenue(cycle4, s) == pytest.approx(1.0)


def test_ie_strategy_rejects_prob_out_of_exploit_range():
    with pytest.raises(ValidationError):
        IEStrategy(frozenset(), 0.4)
    with pytest.raises(ValidationError):
        IEStrategy(frozenset(), 1.0)


def test_ie_revenue_is_order_average(cycle4):
    """IE revenue equals the average marketing revenue over exploit orders."""
    A, p = frozenset({1}), 0.6
    prices = tuple(1.0 if i in A else p for i in range(4))
    vals = []
    for perm in itertools.permutations([0, 2, 3]):
        order = (1,) + perm
        vals.append(strategy_revenue(cycle4, MarketingStrategy(order, prices)))
    assert np.mean(vals) == pytest.approx(ie_revenue(cycle4, A, p))


def test_ie_batch_matches_scalar(random_net):
    g = random_net(11, n=7, self_weights=True)
    rng = np.random.default_rng(0)
    members = rng.random((20, 7)) < 0.4
    C, D = ie_coefficients_batch(g, members)
    for row, c, d in zip(members, C, D):
        cs, ds = ie_revenue_coefficients(g, np.nonzero(row)[0])
        assert c == pytest.approx(cs)
        assert d == pytest.approx(ds)
    np.testing.assert_allclose(
        ie_revenue_batch(g, members, 0.7),
        [ie_revenue(g, frozenset(np.nonzero(r)[0]), 0.7) for r in members])


def _dense_coefficients(g, members):
    """The batch formula on a dense n x n weight matrix, as a reference."""
    M = np.asarray(members, dtype=np.float64)
    src, dst, w = g.influence_pairs()
    out_w = np.zeros(g.n)
    in_w = np.zeros(g.n)
    np.add.at(out_w, src, w)
    np.add.at(in_w, dst, w)
    adj = np.zeros((g.n, g.n))
    np.add.at(adj, (src, dst), w)
    quad = np.sum((M @ adj) * M, axis=1)
    C = (np.sum(g.self_weights) - M @ g.self_weights) + (M @ out_w - quad)
    D = np.sum(w) - M @ out_w - M @ in_w + quad
    return C, D


_BATCH_NETWORKS = {
    "undirected_self_weights": lambda: generate(
        "random", 30, density=0.3, weight_range=(0.1, 1.0),
        self_weight_range=(0.2, 1.0), seed=21),
    "directed": lambda: generate(
        "random", 30, directed=True, density=0.3, weight_range=(0.1, 1.0),
        seed=22),
    "edge_free": lambda: SocialNetwork(False, 9, [],
                                       self_weights=np.linspace(0.5, 2.0, 9)),
    "empty": lambda: SocialNetwork(False, 0, []),
}


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
@pytest.mark.parametrize("rows", [0, 1, 40])
@pytest.mark.parametrize("name", sorted(_BATCH_NETWORKS))
def test_ie_batch_matches_dense_formula(monkeypatch, name, rows, dtype):
    g = _BATCH_NETWORKS[name]()
    members = (np.random.default_rng(rows).random((rows, g.n)) < 0.4
               ).astype(dtype)
    C_ref, D_ref = _dense_coefficients(g, members)
    scale = 1e-12 * max(1.0, 2.0 * g.W + g.N)
    for cells in (revenue._BATCH_CELLS, max(1, g.n, g.num_edges)):
        # the second budget holds one row per block: 40 rows, 40 blocks
        monkeypatch.setattr(revenue, "_BATCH_CELLS", cells)
        C, D = ie_coefficients_batch(g, members)
        assert C.shape == D.shape == (rows,)
        np.testing.assert_allclose(C, C_ref, rtol=1e-12, atol=scale)
        np.testing.assert_allclose(D, D_ref, rtol=1e-12, atol=scale)


@pytest.mark.parametrize("directed", [False, True])
def test_ie_batch_revenue_is_never_negative(random_net, directed):
    # sets that leave the priced side almost no influence: the dense
    # formula's cancellation read some of these as slightly negative
    g = random_net(24, n=11, directed=directed, density=0.9,
                   self_weights=not directed)
    rng = np.random.default_rng(5)
    members = rng.random((3000, g.n)) < rng.uniform(0.5, 1.0, (3000, 1))
    members[0] = True
    revenues = ie_revenue_batch(g, members, 0.6)
    assert revenues[0] == 0.0
    assert np.all(revenues >= 0.0)


@pytest.mark.parametrize("row", [[0.5] * 4, [0, 2, 0, 1], [0, 1, -1, 0],
                                 [0, np.nan, 1, 1]])
def test_ie_batch_rejects_entries_other_than_zero_one(cycle4, row):
    with pytest.raises(ValidationError):
        ie_coefficients_batch(cycle4, np.array([[1, 0, 1, 0], row]))
    with pytest.raises(ValidationError):
        ie_revenue_batch(cycle4, np.array([row]), 0.6)


def test_ie_batch_rejects_wrong_shape(cycle4):
    with pytest.raises(ValidationError):
        ie_coefficients_batch(cycle4, np.ones((2, 3), dtype=bool))
    with pytest.raises(ValidationError):
        ie_coefficients_batch(cycle4, np.ones(4, dtype=bool))


def test_ie_batch_memory_grows_with_edges_not_n_squared():
    # a dense n x n matrix at n=5000 alone would take 200 MB
    g = generate("path", 5000)
    members = np.random.default_rng(2).random((200, g.n)) < 0.3
    tracemalloc.start()
    try:
        revenues = ie_revenue_batch(g, members, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
    assert revenues[0] == pytest.approx(
        ie_revenue(g, frozenset(np.nonzero(members[0])[0]), 0.6))


# ---------------------------------------------------------------------------
# Random and generalized IE
# ---------------------------------------------------------------------------

def test_random_ie_matches_subset_enumeration(random_net):
    g = random_net(4, n=5, self_weights=True)
    q, p = 0.35, 0.7
    total = 0.0
    for bits in itertools.product([0, 1], repeat=5):
        A = frozenset(i for i, b in enumerate(bits) if b)
        weight = math.prod(q if b else 1 - q for b in bits)
        total += weight * ie_revenue(g, A, p)
    assert random_ie_revenue(g, q, p) == pytest.approx(total)


def test_random_ie_directed_formula():
    g = generate("complete_dag", 4)
    q, p = 0.3, 0.6
    # each unit edge pays p(1-p) when exactly the source is free, and
    # p^2(1-p)/2 when neither endpoint is free
    per_edge = (1 - q) * p * (1 - p) * (q + 0.5 * p * (1 - q))
    assert random_ie_revenue(g, q, p) == pytest.approx(per_edge * g.W)


def test_pricing_classes_ladder():
    np.testing.assert_allclose(pricing_classes(2), [1.0, 0.5])
    np.testing.assert_allclose(pricing_classes(6),
                               [1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    with pytest.raises(ValidationError):
        pricing_classes(1)


def test_generalized_ie_matches_assignment_enumeration(random_net):
    g = random_net(8, n=4, self_weights=True)
    K = 2
    q = (0.4, 0.6)
    prices = pricing_classes(K)
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    total = 0.0
    for cls in itertools.product(range(K), repeat=4):
        weight = math.prod(q[c] for c in cls)
        rev = 0.0
        for i in range(4):
            p_i = prices[cls[i]]
            seen = 0.0
            for j in range(4):
                if j == i:
                    continue
                if cls[j] < cls[i]:
                    seen += prices[cls[j]] * Wm[j, i]
                elif cls[j] == cls[i]:
                    seen += 0.5 * p_i * Wm[j, i]
            rev += p_i * (1 - p_i) * (sw[i] + seen)
        total += weight * rev
    assert generalized_ie_revenue(g, K, q) == pytest.approx(total)


def test_class_moments_brute_force():
    q = np.array([0.25, 0.35, 0.4])
    p = pricing_classes(3)
    S1 = float(np.sum(q * p * (1 - p)))
    S2 = 0.0
    for k in range(3):
        for l in range(3):
            if k < l:
                S2 += q[k] * q[l] * p[k] * p[l] * (1 - p[l])
            elif k > l:
                S2 += q[k] * q[l] * p[l] * p[k] * (1 - p[k])
            else:
                S2 += q[k] * q[k] * p[k] * p[k] * (1 - p[k])
    got1, got2 = class_moments(q, p)
    assert got1 == pytest.approx(S1)
    assert got2 == pytest.approx(S2)


def test_generalized_strategy_class_prices_and_sampling():
    s = GeneralizedIEStrategy(3, (0.2, 0.3, 0.5), seed=5)
    np.testing.assert_allclose(s.class_prices, pricing_classes(3))
    cls = s.sample_classes(1000)
    assert cls.shape == (1000,)
    assert set(np.unique(cls)) <= {0, 1, 2}
    # seeded draw is reproducible
    np.testing.assert_array_equal(cls, GeneralizedIEStrategy(3, (0.2, 0.3, 0.5), seed=5).sample_classes(1000))


@pytest.mark.parametrize("seed", range(20))
def test_class_samplers_follow_the_numpy_rules(seed):
    # both random families draw classes by one searchsorted rule, which
    # reproduces the rng.random(n) < q and rng.choice(K, n, p=q) samplers
    n = 50
    g = generate("cycle", n)
    u = np.random.default_rng(seed).random(n)
    members = RandomIEStrategy(0.3, 0.6).sample(g, seed).influence_set
    assert members == {i for i in range(n) if u[i] < 0.3}
    q = (0.2, 0.3, 0.5)
    np.testing.assert_array_equal(
        GeneralizedIEStrategy(3, q).sample_classes(n, seed),
        np.random.default_rng(seed).choice(3, n, p=q))


def test_generalized_strategy_validation():
    with pytest.raises(ValidationError):
        GeneralizedIEStrategy(1, (1.0,))
    with pytest.raises(ValidationError):
        GeneralizedIEStrategy(2, (0.7, 0.7))


# ---------------------------------------------------------------------------
# Bounds, ordering, prices
# ---------------------------------------------------------------------------

def test_revenue_bounds_formulas(random_net):
    g = random_net(2, n=6, self_weights=True)
    b = revenue_bounds(g)
    assert b.upper == pytest.approx((g.W + g.N) / 4)
    assert b.myopic_lower == pytest.approx((g.W + 2 * g.N) / 8)
    d = random_net(3, n=6, directed=True)
    bd = revenue_bounds(d)
    assert bd.myopic_lower == pytest.approx(d.W / 16)


def test_no_strategy_beats_upper_bound(random_net):
    for seed in range(6):
        g = random_net(seed, n=6, self_weights=True)
        ub = revenue_bounds(g).upper
        rng = np.random.default_rng(seed)
        order = tuple(int(i) for i in rng.permutation(6))
        prices = tuple(rng.uniform(0.5, 1.0, size=6))
        assert strategy_revenue(g, MarketingStrategy(order, prices)) <= ub + 1e-12
        A = frozenset(np.nonzero(rng.random(6) < 0.5)[0])
        assert ie_revenue(g, A, 0.7) <= ub + 1e-12


def test_best_ordering_sorts_by_price(random_net):
    g = random_net(5, n=6, self_weights=True)
    prices = (0.6, 0.9, 0.5, 0.9, 1.0, 0.55)
    s = best_ordering_for_prices(g, prices)
    assert s.order == (4, 1, 3, 0, 5, 2)  # non-increasing, stable by index
    assert s.prices == prices


def test_best_ordering_beats_random_orders(random_net):
    rng = np.random.default_rng(17)
    for seed in range(5):
        g = random_net(seed, n=6, self_weights=True)
        prices = tuple(rng.uniform(0.5, 1.0, size=6))
        best = strategy_revenue(g, best_ordering_for_prices(g, prices))
        for _ in range(50):
            order = tuple(int(i) for i in rng.permutation(6))
            r = strategy_revenue(g, MarketingStrategy(order, prices))
            assert r <= best + 1e-12


def test_best_ordering_rejects_directed(wedge3):
    from netrev import UnsupportedOperationError
    with pytest.raises(UnsupportedOperationError):
        best_ordering_for_prices(wedge3, (0.6, 0.6, 0.6))


def test_myopic_price_quote():
    q = myopic_price(2.0)
    assert q.price == pytest.approx(1.0)
    assert q.acceptance_probability == 0.5
    assert q.expected_revenue == pytest.approx(0.5)


def test_price_for_probability_inverse():
    M = 3.0
    for p in (0.5, 0.8, 1.0):
        price = price_for_probability(M, p)
        assert price == pytest.approx((1 - p) * M)
    with pytest.raises(ValidationError):
        price_for_probability(-1.0, 0.5)


# ---------------------------------------------------------------------------
# Serialization and family tags
# ---------------------------------------------------------------------------

def test_strategy_json_round_trips():
    strategies = [
        MarketingStrategy((1, 0), (0.5, 0.75)),
        IEStrategy(frozenset({0, 2}), 0.6),
        RandomIEStrategy(0.3, 0.7),
        GeneralizedIEStrategy(3, (0.2, 0.3, 0.5)),
    ]
    families = ["marketing", "ie", "random_ie", "generalized_ie"]
    for s, fam in zip(strategies, families):
        assert strategy_family(s) == fam == type(s).family
        back = strategy_from_json(s.to_json())
        assert back == s
        assert strategy_family(back) == fam
        assert back.to_json() == s.to_json()


def test_strategy_from_json_rejects_junk():
    with pytest.raises(ValidationError):
        strategy_from_json({"what": 1})


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ie_revenue_nonnegative_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    g = generate("random", n, density=float(rng.uniform(0.3, 1.0)),
                 weight_range=(0.05, 1.5),
                 self_weight_range=(0.0, 1.0), seed=seed + 1)
    A = frozenset(int(i) for i in np.nonzero(rng.random(n) < 0.5)[0])
    p = float(rng.uniform(0.5, 0.999))
    r = ie_revenue(g, A, p)
    assert 0.0 <= r <= revenue_bounds(g).upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_adjacent_swap_toward_sorted_never_hurts(seed):
    """Swapping a cheaper offer ahead of an adjacent pricier one never
    lowers undirected revenue (the exchange argument behind sorting)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = generate("random", n, density=0.8, weight_range=(0.05, 1.5),
                 self_weight_range=(0.0, 1.0), seed=seed + 7)
    prices = tuple(float(x) for x in rng.uniform(0.5, 1.0, size=n))
    order = list(rng.permutation(n))
    k = int(rng.integers(0, n - 1))
    a, b = order[k], order[k + 1]
    before = strategy_revenue(g, MarketingStrategy(tuple(order), prices))
    if prices[b] > prices[a]:
        order[k], order[k + 1] = b, a
        after = strategy_revenue(g, MarketingStrategy(tuple(order), prices))
        assert after >= before - 1e-12
