import itertools
import math
import re
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
    best_strategy_search,
    gadget,
    gadget_revenue_table,
    generate,
    ie_coefficients_batch,
    ie_revenue,
    random_ie_revenue,
    revenue_bounds,
    simulate,
    strategy_revenue,
)
from netrev.revenue import (PRICE_PROB_MAX, PRICE_PROB_MIN, _PROB_TOL,
                            _marketing_revenue_rows)


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


def _reference_best_ie(g, ps):
    """Every set's (C, D) from ``ie_coefficients_batch``, in index order;
    for each p in ``ps`` (None: each set's best), the best value, the index
    of its first set, that set's p, and the runner-up over the other sets."""
    n = g.n
    idx = np.arange(1 << n)
    C, D = np.concatenate([
        np.array(ie_coefficients_batch(g, (block[:, None] >> np.arange(n)) & 1))
        for block in np.array_split(idx, max(1, idx.size >> 15))], axis=1)
    for p in ps:
        if p is None:
            vals, prices = oracle._optimal_p_for_sets(C, D, max(1.0, g.W + g.N))
        else:
            vals, prices = p * (1.0 - p) * (C + 0.5 * p * D), np.full(idx.size, p)
        k = int(np.argmax(vals))
        runner_up = np.max(np.delete(vals, k), initial=-np.inf)
        yield p, float(vals[k]), k, float(prices[k]), float(runner_up)


def _oracle_cases():
    rng = np.random.default_rng(5)
    return {
        "n0": SocialNetwork(False, 0),
        "n1": SocialNetwork(False, 1, [], self_weights=[0.7]),
        "n2": SocialNetwork(False, 2, [(0, 1, 1.5)]),
        "n3-directed": SocialNetwork(True, 3, [(0, 1, 1.0), (1, 2, 0.5),
                                               (2, 0, 0.25)]),
        "n17": generate("random", 17, density=0.3, weight_range=(0.1, 1.0),
                        self_weight_range=(0.2, 1.0), seed=17),
        "n20-directed": generate("random", 20, directed=True, density=0.25,
                                 weight_range=(0.1, 1.0), seed=20),
        "n21": generate("random", 21, density=0.2, seed=21),
        "edgeless": SocialNetwork(False, 6, []),
        "self-weights-only": SocialNetwork(False, 7, [],
                                           self_weights=rng.uniform(0.1, 1.0, 7)),
        "star": SocialNetwork(False, 9, [(0, i, 1.0) for i in range(1, 9)]),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_best_ie_split_enumeration_matches_reference(case):
    g = _oracle_cases()[case]
    for p, value, k, best_p, runner_up in _reference_best_ie(g, (None, 0.7)):
        rep = best_ie_exhaustive(g, p=p)
        assert rep.search_space_size == 1 << g.n
        assert rep.best_value == pytest.approx(value, rel=1e-13, abs=0.0)
        assert ie_revenue(g, rep.best_witness) == pytest.approx(
            rep.best_value, rel=1e-13, abs=0.0)
        if runner_up < value * (1.0 - 1e-9):  # a unique maximum
            assert rep.best_witness == IEStrategy(
                frozenset(i for i in range(g.n) if k >> i & 1), best_p)


def test_best_ie_exhaustive_memory_does_not_grow_with_the_sets():
    # one 2^15-set membership block with its (C, D) pricing peaks at 7.5 MB
    g = generate("random", 20, density=0.3, weight_range=(0.1, 1.0), seed=3)
    tracemalloc.start()
    try:
        best_ie_exhaustive(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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


_DIRECTED_PROBES = {
    1: 1.150540176466401, 3: 0.6589693922889841, 5: 1.2041232949408303,
    7: 0.9117920131207441, 9: 0.9952831884143256, 11: 1.2030547667274165,
    13: 1.1470067520552174, 15: 1.0085535090887683, 17: 0.8984189803905516,
    19: 1.0940444912320082, 21: 0.9795181798259108, 23: 1.0763218247419457,
    25: 1.1096840220454063, 27: 0.8721348824389087, 29: 0.8935766947885994,
}


@pytest.mark.parametrize("seed", sorted(_DIRECTED_PROBES))
def test_directed_search_values_are_pinned(seed):
    # optima that the search once found by trying every approach order
    g = generate("random", 5, directed=True, density=0.7,
                 weight_range=(0.1, 1.0), seed=100 + seed)
    assert best_strategy_search(g, seed=seed).best_value == pytest.approx(
        _DIRECTED_PROBES[seed], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("g, value", [
    (generate("complete_dag", 8), 5.218393945426065),
    (generate("random", 8, directed=True, density=0.5, seed=4),
     3.3205883337652797),
], ids=["complete_dag8", "random8"])
def test_directed_search_values_are_pinned_at_n8(g, value):
    rep = best_strategy_search(g, seed=0)
    assert rep.best_value == pytest.approx(value, rel=1e-9, abs=0.0)
    assert strategy_revenue(g, rep.best_witness) == rep.best_value


def test_search_size_limits():
    with pytest.raises(ValidationError):
        best_strategy_search(generate("complete_dag", 9))
    with pytest.raises(ValidationError):
        best_strategy_search(SocialNetwork(False, 51, []))


def test_best_ordering_exhaustive_checks_prices_before_enumerating(
        monkeypatch):
    def read_pairs(self):
        raise AssertionError("pairs read before the prices were checked")

    # the subset recursion starts from the influence pairs
    monkeypatch.setattr(SocialNetwork, "influence_pairs", read_pairs)
    g = generate("random", 10, directed=True, density=0.5, seed=1)
    prices = np.full(10, 0.75)
    for bad in (2.0, np.nan):
        prices[3] = bad
        with pytest.raises(ValidationError, match=re.escape(
                f"prices must lie in [{PRICE_PROB_MIN - _PROB_TOL}, "
                f"{PRICE_PROB_MAX + _PROB_TOL}], got {bad}")):
            best_ordering_exhaustive(g, prices)


def test_best_ordering_exhaustive_ties_do_not_depend_on_block_size(
        random_net, monkeypatch):
    # equal prices tie many orders; each set's candidates are summed on
    # their own, so the tie rule picks the same order at any block size
    for directed in (False, True):
        g = random_net(66, n=6, directed=directed)
        for prices in (np.full(6, 0.75), np.array([1, .5, 1, .5, .75, .75])):
            full = best_ordering_exhaustive(g, prices).to_json()
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", 7 * 6)
            assert best_ordering_exhaustive(g, prices).to_json() == full
            monkeypatch.undo()


def test_best_ordering_exhaustive_streams_the_orders(random_net):
    # all 9! orders at once took 26 MB as int64 positions alone; the
    # subset recursion keeps 9 bytes for each of the 2^9 sets
    g = random_net(67, n=9, density=0.5)
    tracemalloc.start()
    try:
        rep = best_ordering_exhaustive(g, np.linspace(0.5, 1.0, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.search_space_size == math.factorial(9)
    assert peak < 2 * 2 ** 20


def test_best_ordering_exhaustive_memory_at_n18(random_net):
    # a 2^18 float64 value table and int8 last-buyer table take 2.25 MB
    g = random_net(68, n=18, directed=True, density=0.3)
    prices = np.random.default_rng(68).uniform(0.5, 1.0, size=18)
    tracemalloc.start()
    try:
        rep = best_ordering_exhaustive(g, prices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.search_space_size == math.factorial(18)
    assert rep.best_value == strategy_revenue(g, rep.best_witness)
    assert peak <= 8 * 2 ** 20
    with pytest.raises(ValidationError, match="n <= 18"):
        best_ordering_exhaustive(random_net(68, n=19),
                                 np.full(19, 0.75))


def _orders_by_enumeration(g, prices):
    """Every approach order of g in ``itertools.permutations`` order, with
    its revenue at ``prices`` from the marketing-revenue rows that
    ``strategy_revenue`` reads one at a time."""
    orders = np.array(list(itertools.permutations(range(g.n))),
                      dtype=np.int64).reshape(math.factorial(g.n), g.n)
    pos = np.argsort(orders, axis=1)
    return orders, _marketing_revenue_rows(
        g, np.broadcast_to(prices, pos.shape), pos)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", range(9))
def test_best_ordering_exhaustive_matches_the_enumeration(directed, n):
    rng = np.random.default_rng(100 * n + directed)
    for seed in range(2):
        g = generate("random", n, directed=directed, density=0.6,
                     weight_range=(0.1, 1.0), seed=seed,
                     self_weight_range=None if directed else (0.0, 0.5)
                     ) if n else SocialNetwork(directed, 0, [])
        for prices in (rng.uniform(0.5, 1.0, size=n), np.full(n, 0.75)):
            rep = best_ordering_exhaustive(g, prices)
            _, R = _orders_by_enumeration(g, prices)
            assert rep.best_value == pytest.approx(np.max(R), rel=1e-12,
                                                   abs=0.0)
            assert strategy_revenue(g, rep.best_witness) == rep.best_value
            assert rep.search_space_size == math.factorial(n)


@pytest.mark.parametrize("one_set_per_block", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", range(9))
def test_best_positions_orders_each_column_as_alone(monkeypatch, n, directed,
                                                    one_set_per_block):
    # nine columns, a third of them tied prices on dyadic weights, each
    # ordered as best_ordering_exhaustive orders it alone
    rng = np.random.default_rng(10 * n + directed)
    g = generate("random", n, directed=directed, density=0.7, weight=0.5,
                 seed=n) if n else SocialNetwork(directed, 0, [])
    P = np.column_stack([rng.uniform(0.5, 1.0, size=(n, 3)),
                         0.5 + rng.integers(0, 3, size=(n, 3)) / 4.0,
                         np.full((n, 3), 0.75)])
    alone = [best_ordering_exhaustive(g, P[:, k]).best_witness.order
             for k in range(9)]
    if one_set_per_block:
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", 9 * n)
    pos = oracle._best_positions(g, P)
    assert pos.shape == (n, 9)
    assert [tuple(int(i) for i in np.argsort(pos[:, k])) for k in range(9)] \
        == alone


@pytest.mark.parametrize("directed", [True])
def test_best_ordering_exhaustive_tie_rule(directed):
    # dyadic weights and prices make every sum exact, so orders of equal
    # revenue tie exactly; on directed networks the rule puts the smallest
    # index last among the optimal orders, then the smallest among those
    # next to last, ...  (the undirected price sort's tie rule, by index,
    # is pinned by test_best_ordering_sorts_by_price)
    for seed in range(4):
        g = generate("random", 6, directed=directed, density=0.7,
                     weight=1.0 if seed < 2 else 0.5, seed=seed)
        for prices in (np.full(6, 0.5), np.full(6, 0.75),
                       np.array([1, .5, 1, .5, .75, .75])):
            orders, R = _orders_by_enumeration(g, prices)
            best = orders[R == np.max(R)]
            expected = min(tuple(int(i) for i in o[::-1]) for o in best)[::-1]
            rep = best_ordering_exhaustive(g, prices)
            assert rep.best_witness.order == expected


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


def _stream_uniforms(seed, stream, start, count, width):
    """Uniforms addressed by (trial, buyer), independent of chunking: the
    draws of trials start, ..., start + count - 1 of one named stream."""
    gen = oracle._stream(seed, stream)
    gen.bit_generator.advance(start * oracle._philox_blocks(width))
    return oracle._next_uniforms(gen, count, width)


def _sequential_reference(g, Wm, strategy, trials, seed):
    """The sequential-offer process walked one approach step at a time
    across all trials, with Wm the dense weights of g: buyer b sees
    M = w[b, b] plus the weight of earlier acceptors and, offered
    (1 - p_b) M, accepts when u >= 1 - p_b."""
    n = g.n

    def draws(stream):  # (trials, n), trial-major
        return _stream_uniforms(seed, stream, 0, trials, n).T

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
def test_simulate_matches_sequential_process(random_net, dense_weights,
                                             directed, family):
    g = random_net(74, n=12, directed=directed, density=0.8,
                   self_weights=not directed)
    s = _four_families(g.n)[family]
    trials = 6000
    assert trials > 2 * (oracle._BLOCK_CELLS // max(g.n, g.num_edges))
    rep = simulate(g, s, trials, seed=9)
    revenue, counts = _sequential_reference(g, dense_weights(g), s, trials,
                                            seed=9)
    assert rep.acceptance_counts == tuple(int(c) for c in counts)
    assert rep.mean == pytest.approx(np.mean(revenue), rel=1e-12)
    assert rep.std_error == pytest.approx(
        np.std(revenue, ddof=1) / math.sqrt(trials), rel=1e-12)


# float.hex of mean and std_error, and acceptance_counts, of 5000 trials at
# seed 13 on random_net(77, n=12, density=0.8): 18 chunks undirected (with
# self-weights, 54 edges), 34 directed (104 edges).  Recorded with the key
# rule on every edge, so the undirected IE rows pin the larger-discount rule
# to it.
_SIMULATE_GOLDEN = [
    (False, "marketing", "0x1.822f1c0806ad6p+2", "0x1.150e210d79460p-5",
     (4741, 4650, 2494, 3826, 2786, 3158, 3545, 3617, 3630, 4808, 3121, 2962)),
    (False, "ie", "0x1.a4dc57d696085p+2", "0x1.cfd22b9fff9aap-6",
     (5000, 3491, 3491, 5000, 3490, 3522, 3506, 5000, 3460, 3452, 3480, 3527)),
    (False, "random_ie", "0x1.964f2137cd1a8p+2", "0x1.0c9ee8d77cf04p-5",
     (3738, 3752, 3767, 3708, 3722, 3785, 3757, 3812, 3799, 3783, 3733, 3774)),
    (False, "generalized_ie", "0x1.ad3748dcaafc1p+2", "0x1.3bb3b8ec718efp-5",
     (3481, 3518, 3490, 3468, 3482, 3535, 3519, 3535, 3507, 3547, 3492, 3500)),
    (True, "marketing", "0x1.176fe0d40c181p+2", "0x1.774952202da86p-6",
     (4741, 4650, 2494, 3826, 2786, 3158, 3545, 3617, 3630, 4808, 3121, 2962)),
    (True, "ie", "0x1.5e38eacb97d0ap+2", "0x1.a8ee505e393bep-6",
     (5000, 3491, 3491, 5000, 3490, 3522, 3506, 5000, 3460, 3452, 3480, 3527)),
    (True, "random_ie", "0x1.4c83bf68bb35fp+2", "0x1.d413bcdbb4828p-6",
     (3738, 3752, 3767, 3708, 3722, 3785, 3757, 3812, 3799, 3783, 3733, 3774)),
    (True, "generalized_ie", "0x1.5bb5426e67750p+2", "0x1.13d83b3047ef0p-5",
     (3481, 3518, 3490, 3468, 3482, 3535, 3519, 3535, 3507, 3547, 3492, 3500)),
]


@pytest.mark.parametrize("directed, family, mean, std_error, counts",
                         _SIMULATE_GOLDEN,
                         ids=[f"{'directed' if d else 'undirected'}-{f}"
                              for d, f, *_ in _SIMULATE_GOLDEN])
def test_simulate_output_bits_are_pinned(random_net, directed, family, mean,
                                         std_error, counts):
    # the revenue sums run through BLAS; another BLAS build may round them
    # differently, but acceptance_counts depend on the draws alone
    g = random_net(77, n=12, directed=directed, density=0.8,
                   self_weights=not directed)
    s = {f.family: f for f in _four_families(g.n)}[family]
    rep = simulate(g, s, 5000, seed=13)
    assert rep.acceptance_counts == counts
    assert (rep.mean.hex(), rep.std_error.hex()) == (mean, std_error)


@pytest.mark.parametrize("directed", [False, True])
def test_simulate_does_not_depend_on_chunk_size(random_net, monkeypatch,
                                                directed):
    g = random_net(75, n=12, directed=directed, density=0.8,
                   self_weights=not directed)
    trials = 700
    full = [simulate(g, s, trials, seed=3) for s in _four_families(g.n)]
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 3 * max(g.n, g.num_edges))
    for s, ref in zip(_four_families(g.n), full):
        rep = simulate(g, s, trials, seed=3)
        assert rep.acceptance_counts == ref.acceptance_counts
        assert rep.mean == pytest.approx(ref.mean, rel=1e-12)
        assert rep.std_error == pytest.approx(ref.std_error, rel=1e-12)


@pytest.mark.parametrize("directed", [False, True])
def test_simulate_tables_do_not_leak_between_calls(random_net, monkeypatch,
                                                   directed):
    # simulate builds a strategy's class tables once per call: a strategy
    # simulated at n=12 and then at n=5 must give what a fresh one gives
    nets = [random_net(seed, n=n, directed=directed, density=0.8,
                       self_weights=not directed)
            for seed, n in ((78, 12), (79, 5))]
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 48)  # chunks of 16 trials
    fresh = (lambda: IEStrategy(frozenset({1, 3}), 0.6),
             lambda: RandomIEStrategy(0.3, 0.6),
             lambda: GeneralizedIEStrategy(3, (0.2, 0.3, 0.5), seed=1))
    for make in fresh:
        reused = make()
        for g in nets:
            assert simulate(g, reused, 100, seed=5).to_json() \
                == simulate(g, make(), 100, seed=5).to_json()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 12])
def test_successive_stream_draws_follow_the_trial_addressing(n):
    # each chunk of one generator starts where _stream_uniforms addresses
    # its first trial: every trial fills whole Philox blocks
    for stream in ("acceptance", "ordering", "assignment"):
        gen, start = oracle._stream(11, stream), 0
        for count in (1, 7, 3, 16, 5, 33, 2):
            got = oracle._next_uniforms(gen, count, n)
            assert got.shape == (n, count)
            assert np.array_equal(
                got, _stream_uniforms(11, stream, start, count, n))
            start += count


def test_simulate_temporaries_stay_within_the_block_budget(random_net):
    g = random_net(76, n=12, self_weights=True, density=0.4)
    for s in _four_families(g.n):
        tracemalloc.start()
        try:
            simulate(g, s, 200_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, s.family


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
