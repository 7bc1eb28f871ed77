import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrev import oracle
from netrev import (
    GADGET_SELECTION_NODES,
    SIX_CLASS_PRESET_Q,
    GeneralizedIEStrategy,
    IEStrategy,
    MarketingStrategy,
    RandomIEStrategy,
    SocialNetwork,
    ValidationError,
    best_ie_exhaustive,
    best_ordering_exhaustive,
    best_ordering_for_prices,
    best_strategy_search,
    gadget,
    gadget_revenue_table,
    generate,
    ie_revenue,
    random_ie_revenue,
    revenue_bounds,
    simulate,
    strategy_revenue,
)


# ---------------------------------------------------------------------------
# Exhaustive best-IE oracle
# ---------------------------------------------------------------------------

def test_best_ie_on_cycle_finds_a_side(cycle4):
    rep = best_ie_exhaustive(cycle4, p=0.5)
    assert rep.best_value == pytest.approx(1.0)
    assert sorted(rep.best_witness.influence_set) in ([0, 2], [1, 3])
    assert rep.search_space_size == 16
    assert rep.method == "exhaustive"


def test_best_ie_single_buyer(tiny_selfloop):
    rep = best_ie_exhaustive(tiny_selfloop)
    assert rep.best_value == pytest.approx(0.25)
    assert rep.best_witness.influence_set == frozenset()
    assert rep.best_witness.p == pytest.approx(0.5)


def test_best_ie_three_path_witnesses():
    rep = best_ie_exhaustive(generate("path", 3), p=0.5)
    assert rep.best_value == pytest.approx(0.5)
    assert sorted(rep.best_witness.influence_set) in ([1], [0, 2])


def test_best_ie_star_uses_grid_fallback():
    # every priced buyer is a leaf, so the pairwise term D vanishes and the
    # pricing probability is set to 1/2, the argmax of p(1-p)C
    star = SocialNetwork(False, 5, [(0, i, 1.0) for i in range(1, 5)])
    rep = best_ie_exhaustive(star)
    assert rep.best_value == pytest.approx(1.0)
    assert rep.best_witness.influence_set == frozenset({0})
    assert rep.method == "exhaustive"
    assert rep.resolution is None


def test_best_ie_free_p_never_loses_to_grid(random_net):
    for seed in range(5):
        g = random_net(40 + seed, n=6, self_weights=True)
        rep = best_ie_exhaustive(g)
        A = rep.best_witness.influence_set
        ps = np.arange(0.5, 1.0, 1e-3)
        scan = max(ie_revenue(g, A, float(x)) for x in ps)
        assert rep.best_value >= scan - 1e-9
        # and no other set beats it at its own best p on a coarse scan
        for other in range(1 << 6):
            B = frozenset(i for i in range(6) if other >> i & 1)
            vals = [ie_revenue(g, B, float(x)) for x in np.arange(0.5, 1.0, 0.01)]
            assert rep.best_value >= max(vals) - 1e-9


def test_best_ie_fixed_p_matches_direct_enumeration(random_net):
    g = random_net(46, n=7, directed=True)
    p = 2 / 3
    rep = best_ie_exhaustive(g, p=p)
    brute = max(
        ie_revenue(g, frozenset(i for i in range(7) if m >> i & 1), p)
        for m in range(1 << 7))
    assert rep.best_value == pytest.approx(brute)


def test_best_ie_size_limit():
    g = SocialNetwork(False, 23, [])
    with pytest.raises(ValidationError):
        best_ie_exhaustive(g)


# ---------------------------------------------------------------------------
# Full-strategy search
# ---------------------------------------------------------------------------

def test_search_meets_upper_bound_on_cycle(cycle4):
    rep = best_strategy_search(cycle4, seed=0)
    assert rep.best_value == pytest.approx(1.0, abs=1e-9)
    assert rep.method == "multistart"


def test_search_reaches_printed_dag_value(dag4):
    rep = best_strategy_search(dag4, seed=0)
    assert rep.best_value >= 1.1964
    assert rep.best_witness.order == (0, 1, 2, 3)


def test_search_never_below_best_ie(random_net):
    for seed in range(6):
        directed = bool(seed % 2)
        g = random_net(50 + seed, n=5, directed=directed,
                       self_weights=not directed)
        search = best_strategy_search(g, seed=seed)
        ie = best_ie_exhaustive(g)
        assert search.best_value >= ie.best_value - 1e-7
        got = strategy_revenue(g, search.best_witness)
        assert got == pytest.approx(search.best_value)


@pytest.mark.parametrize("seed, warm, cold", [
    (22, 5.070579785123658, 5.069609011894497),
    (28, 3.312825789929505, 3.3216557022709963),
])
def test_search_warm_up_decides_these_optima(monkeypatch, seed, warm, cold):
    # undirected probes where the projected-gradient warm-up leads the
    # coordinate ascent to another local optimum than it finds alone
    g = generate("random", 5 + seed % 8, density=0.7, weight_range=(0.1, 1.0),
                 self_weight_range=(0.0, 0.5), seed=100 + seed)
    assert best_strategy_search(g, seed=seed).best_value == pytest.approx(
        warm, abs=1e-9)
    monkeypatch.setattr(oracle, "_WARM_UP_STEPS", 0)
    assert best_strategy_search(g, seed=seed).best_value == pytest.approx(
        cold, abs=1e-9)


def test_search_size_limits():
    with pytest.raises(ValidationError):
        best_strategy_search(generate("complete_dag", 9))
    with pytest.raises(ValidationError):
        best_strategy_search(SocialNetwork(False, 51, []))


def test_best_ordering_exhaustive_agrees_with_sort_rule(random_net):
    for seed in range(4):
        g = random_net(60 + seed, n=6, self_weights=True)
        prices = np.random.default_rng(seed).uniform(0.5, 1.0, size=6)
        rep = best_ordering_exhaustive(g, prices)
        sorted_rev = strategy_revenue(g, best_ordering_for_prices(g, prices))
        assert rep.best_value == pytest.approx(sorted_rev)


def test_best_ordering_exhaustive_checks_prices_before_enumerating(
        monkeypatch):
    def enumerate_orders(n):
        raise AssertionError("orders enumerated before the prices were checked")

    monkeypatch.setattr(oracle, "_all_positions", enumerate_orders)
    g = generate("random", 10, density=0.5, seed=1)
    prices = np.full(10, 0.75)
    for bad, message in ((2.0, "must lie in"), (np.nan, "must be finite")):
        prices[3] = bad
        with pytest.raises(ValidationError, match=message):
            best_ordering_exhaustive(g, prices)


def test_best_ordering_exhaustive_directed(random_net):
    g = random_net(65, n=5, directed=True)
    prices = np.full(5, 0.75)
    rep = best_ordering_exhaustive(g, prices)
    assert rep.method == "exhaustive"
    assert rep.search_space_size == math.factorial(5)
    assert rep.best_value == pytest.approx(
        strategy_revenue(g, rep.best_witness))
    with pytest.raises(ValidationError):
        best_ordering_exhaustive(g, np.full(4, 0.75))


# ---------------------------------------------------------------------------
# Gadget revenue tables
# ---------------------------------------------------------------------------

def test_extended_triangle_table():
    table = gadget_revenue_table("extended_triangle", seed=0)
    assert table["free"].best_value == pytest.approx(177 / 128, abs=1e-4)
    assert table["0.5,0.5,1"].best_value == pytest.approx(21 / 16, abs=1e-4)
    assert table["1,1,1"].best_value == pytest.approx(1.196435, abs=1e-4)


def test_three_path_table():
    table = gadget_revenue_table("three_path", seed=0)
    assert table["free"].best_value == pytest.approx(0.75, abs=1e-4)
    assert table["1,1"].best_value == pytest.approx(41 / 64, abs=1e-4)


@pytest.mark.parametrize("kind", ["extended_triangle", "three_path"])
def test_strategy_gadget_witnesses_keep_their_pins_and_value(kind):
    g = gadget(kind)
    sel = GADGET_SELECTION_NODES[kind]
    for key, rep in gadget_revenue_table(kind, seed=0).items():
        prices = rep.best_witness.prices
        if key != "free":
            assert [prices[i] for i in sel] == [float(v) for v in key.split(",")]
        assert strategy_revenue(g, rep.best_witness) == pytest.approx(
            rep.best_value, rel=0, abs=1e-12)


def test_strategy_gadget_single_constraint():
    rep = gadget_revenue_table("three_path", constraint={0: 1.0, 3: 1.0}, seed=0)
    assert rep.best_value == pytest.approx(41 / 64, abs=1e-4)


def test_set_gadget_tables():
    for p in (0.5, 0.75):
        table = gadget_revenue_table("set_edge", p=p)
        assert table["best"].best_value == pytest.approx(p * (1 - p) * (2 + p))
        assert table["0,1"].best_value == 0.0
    tri = gadget_revenue_table("set_triangle", p=0.5)
    assert tri["best"].best_value == pytest.approx(0.625)
    assert tri["0"].best_value == pytest.approx(0.625)
    assert tri["empty"].best_value == pytest.approx(0.375)


def test_set_gadget_explicit_constraint():
    rep = gadget_revenue_table("set_triangle", constraint=[0], p=0.5)
    assert rep.best_value == pytest.approx(0.625)


def test_gadget_table_validation():
    with pytest.raises(ValidationError):
        gadget_revenue_table("extended_triangle", p=0.5)
    with pytest.raises(ValidationError):
        gadget_revenue_table("nonesuch")


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def test_simulate_matches_exact_ie(cycle4):
    rep = simulate(cycle4, IEStrategy(frozenset({1, 3}), 0.5), 40_000, seed=2)
    assert rep.trials == 40_000
    assert abs(rep.mean - 1.0) <= 3.5 * rep.std_error
    assert len(rep.acceptance_counts) == 4
    # members accept their free offers every time
    assert rep.acceptance_counts[1] == 40_000
    assert rep.acceptance_counts[3] == 40_000


def test_simulate_all_free_earns_nothing(cycle4):
    s = MarketingStrategy((0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0))
    rep = simulate(cycle4, s, 1000, seed=0)
    assert rep.mean == 0.0
    assert rep.std_error == 0.0
    assert rep.acceptance_counts == (1000, 1000, 1000, 1000)
    empty = simulate(SocialNetwork(False, 0), MarketingStrategy((), ()), 10)
    assert empty.mean == 0.0 and empty.acceptance_counts == ()


def test_simulate_is_deterministic_per_seed(random_net):
    g = random_net(70, n=5, self_weights=True)
    s = RandomIEStrategy(0.3, 0.7)
    a = simulate(g, s, 5000, seed=4)
    b = simulate(g, s, 5000, seed=4)
    assert a.mean == b.mean
    assert a.acceptance_counts == b.acceptance_counts
    c = simulate(g, s, 5000, seed=5)
    assert c.mean != a.mean


def test_simulate_marketing_closed_form(random_net):
    g = random_net(71, n=5, self_weights=True)
    rng = np.random.default_rng(1)
    s = MarketingStrategy(tuple(int(i) for i in rng.permutation(5)),
                          tuple(rng.uniform(0.5, 1.0, size=5)))
    rep = simulate(g, s, 60_000, seed=6)
    assert abs(rep.mean - strategy_revenue(g, s)) <= 3.5 * rep.std_error


def test_simulate_random_ie_closed_form(random_net):
    g = random_net(72, n=5, self_weights=True)
    s = RandomIEStrategy(0.4, 0.75)
    rep = simulate(g, s, 60_000, seed=7)
    assert abs(rep.mean - random_ie_revenue(g, s.q, s.p)) <= 3.5 * rep.std_error


def test_simulate_ie_closed_form_on_directed_network(random_net):
    # no self-weights: the first buyers approached see M = 0 and, as in
    # the closed form, accept with probability p
    g = random_net(73, n=12, directed=True, density=0.4)
    s = IEStrategy(frozenset({0, 3, 7}), 0.7)
    rep = simulate(g, s, 200_000, seed=8)
    assert abs(rep.mean - ie_revenue(g, s.influence_set, s.p)) \
        <= 4.0 * rep.std_error


def test_simulate_std_error_survives_cancellation():
    # revenue is 1e4 in (nearly) every trial plus 5e-5 half the time: a
    # spread 1e-9 of the mean, lost by the raw sum-of-squares formula
    g = SocialNetwork(False, 2, [], self_weights=[1e10, 1e-4])
    s = MarketingStrategy((0, 1), (1.0 - 1e-6, 0.5))
    rep = simulate(g, s, 100_000, seed=0)
    assert rep.std_error == pytest.approx(2.5e-5 / math.sqrt(1e5), rel=0.02)


def test_simulate_validation(cycle4, random_net):
    with pytest.raises(ValidationError):
        simulate(cycle4, IEStrategy(frozenset(), 0.6), 0)
    with pytest.raises(ValidationError, match="covers 2 buyers"):
        simulate(cycle4, MarketingStrategy((0, 1), (0.6, 0.6)), 10)
    with pytest.raises(ValidationError, match="unknown strategy type object"):
        simulate(cycle4, object(), 10)
    # -1 would otherwise index buyer 3, and 4 past the end
    for member in (4, -1):
        with pytest.raises(ValidationError, match="out of range"):
            simulate(cycle4, IEStrategy(frozenset({0, member}), 0.6), 10)


def _sequential_reference(g, strategy, trials, seed):
    """The sequential-offer process walked one approach step at a time
    across all trials: buyer b sees M = w[b, b] plus the weight of earlier
    acceptors and, offered (1 - p_b) M, accepts when u >= 1 - p_b."""
    n = g.n

    def draws(stream):  # (trials, n), trial-major
        return oracle._stream_uniforms(seed, stream, 0, trials, n).T

    if isinstance(strategy, MarketingStrategy):
        order = np.tile(strategy.order, (trials, 1))
        prices = np.tile(strategy.prices, (trials, 1))
    else:
        if isinstance(strategy, GeneralizedIEStrategy):
            cls = np.searchsorted(np.cumsum(strategy.q), draws("assignment"),
                                  side="right")
            cls = np.minimum(cls, strategy.K - 1)
            prices = strategy.class_prices[cls]
        else:
            if isinstance(strategy, IEStrategy):
                member = np.zeros((trials, n), dtype=bool)
                member[:, sorted(strategy.influence_set)] = True
            else:
                member = draws("assignment") < strategy.q
            prices = np.where(member, 1.0, strategy.p)
            cls = ~member
        order = np.argsort(cls + draws("ordering"), axis=1)
    Wm = g.in_weight_matrix()
    u = draws("acceptance")
    rows = np.arange(trials)
    accepted = np.zeros((trials, n))
    revenue = np.zeros(trials)
    counts = np.zeros(n, dtype=np.int64)
    for s in range(n):
        b = order[:, s]
        M = g.self_weights[b] + np.einsum("mj,jm->m", accepted, Wm[:, b])
        pr = prices[rows, b]
        ok = u[rows, b] >= 1.0 - pr
        revenue += np.where(ok, (1.0 - pr) * M, 0.0)
        accepted[rows, b] = ok
        np.add.at(counts, b[ok], 1)
    return revenue, counts


def _four_families(n):
    rng = np.random.default_rng(n)
    return [MarketingStrategy(tuple(int(i) for i in rng.permutation(n)),
                              tuple(rng.uniform(0.5, 1.0, size=n))),
            IEStrategy(frozenset({0, 3, 7}), 0.7),
            RandomIEStrategy(0.3, 0.65),
            GeneralizedIEStrategy(6, tuple(SIX_CLASS_PRESET_Q))]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("family", range(4))
def test_simulate_matches_sequential_process(random_net, directed, family):
    g = random_net(74, n=12, directed=directed, density=0.8,
                   self_weights=not directed)
    s = _four_families(g.n)[family]
    trials = 6000
    assert trials > 2 * (oracle._SIM_CELLS // max(g.n, g.num_edges))
    rep = simulate(g, s, trials, seed=9)
    revenue, counts = _sequential_reference(g, s, trials, seed=9)
    assert rep.acceptance_counts == tuple(int(c) for c in counts)
    assert rep.mean == pytest.approx(np.mean(revenue), rel=1e-12)
    assert rep.std_error == pytest.approx(
        np.std(revenue, ddof=1) / math.sqrt(trials), rel=1e-12)


@pytest.mark.parametrize("directed", [False, True])
def test_simulate_does_not_depend_on_chunk_size(random_net, monkeypatch,
                                                directed):
    g = random_net(75, n=12, directed=directed, density=0.8,
                   self_weights=not directed)
    trials = 700
    full = [simulate(g, s, trials, seed=3) for s in _four_families(g.n)]
    monkeypatch.setattr(oracle, "_SIM_CELLS", 3 * max(g.n, g.num_edges))
    for s, ref in zip(_four_families(g.n), full):
        rep = simulate(g, s, trials, seed=3)
        assert rep.acceptance_counts == ref.acceptance_counts
        assert rep.mean == pytest.approx(ref.mean, rel=1e-12)
        assert rep.std_error == pytest.approx(ref.std_error, rel=1e-12)


def test_simulate_memory_grows_with_edges_not_n_squared():
    # a dense n x n matrix at n=5000 alone would take 200 MB
    g = generate("path", 5000)
    tracemalloc.start()
    try:
        for s in _four_families(g.n):
            simulate(g, s, 20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_oracle_report_serialization(cycle4):
    rep = best_ie_exhaustive(cycle4, p=0.5)
    doc = rep.to_json()
    assert doc["best_witness"]["family"] == "ie"
    assert doc["method"] == "exhaustive"
    assert doc["best_value"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_best_ie_within_universal_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = generate("random", n, density=float(rng.uniform(0.3, 1.0)),
                 weight_range=(0.05, 1.0), self_weight_range=(0.0, 0.8),
                 seed=seed + 11)
    rep = best_ie_exhaustive(g)
    b = revenue_bounds(g)
    assert rep.best_value <= b.upper + 1e-9
    # the empty set at the myopic price is always available
    assert rep.best_value >= ie_revenue(g, frozenset(), 0.5) - 1e-12
