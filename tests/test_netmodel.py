import hashlib
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrev import (
    GADGET_SELECTION_NODES,
    GeneralizedIEStrategy,
    IEStrategy,
    MarketingStrategy,
    ParseError,
    RandomIEStrategy,
    SocialNetwork,
    UnsupportedOperationError,
    ValidationError,
    best_ordering_exhaustive,
    best_strategy_search,
    build_sdp,
    class_moments,
    eliminate_selfloops,
    gadget,
    gadget_revenue_table,
    generalized_ie,
    generate,
    ie_tuned,
    load_network,
    myopic_price,
    network_from_json,
    optimize_class_assignment,
    pricing_classes,
    ratio_certificate,
    rotate,
    round_hyperplane,
    round_to_ie,
    rounding_expected_revenue,
    save_network,
    sdp_ie,
    simulate,
    solve_sdp,
)
from netrev import sdprelax
from netrev.certificates import MAX_GRID_STEP, MIN_GRID_STEP
from netrev.netmodel import MAX_NODES, MAX_TRIALS
from netrev.revenue import PRICE_PROB_MAX, PRICE_PROB_MIN, _PROB_TOL
from netrev.strategies import MAX_OPTIMIZE_CLASSES

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def test_duplicate_edges_merge_and_zero_weights_drop():
    g = SocialNetwork(False, 3, [(0, 1, 0.5), (1, 0, 0.25), (1, 2, 0.0)])
    assert g.num_edges == 1
    assert g.weight(0, 1) == pytest.approx(0.75)
    assert g.weight(1, 2) == 0.0


def test_undirected_weight_is_symmetric():
    g = SocialNetwork(False, 3, [(2, 0, 0.4)])
    assert g.weight(0, 2) == pytest.approx(0.4)
    assert g.weight(2, 0) == pytest.approx(0.4)


def test_totals_count_each_undirected_edge_once():
    g = SocialNetwork(False, 3, [(0, 1, 1.0), (1, 2, 2.0)],
                      self_weights=[0.5, 0.0, 0.5])
    assert g.W == pytest.approx(3.0)
    assert g.N == pytest.approx(1.0)
    assert g.lam == pytest.approx(1.0 / 3.0)


def test_influence_pairs_expand_undirected_both_ways():
    g = SocialNetwork(False, 3, [(0, 1, 1.0)])
    src, dst, w = g.influence_pairs()
    pairs = {(int(i), int(j)): float(x) for i, j, x in zip(src, dst, w)}
    assert pairs == {(0, 1): 1.0, (1, 0): 1.0}
    # a directed edge (i, j) is the one pair i -> j: i influences j
    g = SocialNetwork(True, 3, [(0, 1, 0.5), (2, 1, 0.25)])
    src, dst, w = g.influence_pairs()
    pairs = {(int(i), int(j)): float(x) for i, j, x in zip(src, dst, w)}
    assert pairs == {(0, 1): 0.5, (2, 1): 0.25}


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        SocialNetwork(False, 2, [(0, 1, -0.1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValidationError):
        SocialNetwork(False, 2, [(0, 2, 1.0)])
    # beyond 64 bits, still reported exactly
    with pytest.raises(ValidationError,
                       match=r"edge \(0, 100000000000000000000\) out of range"):
        SocialNetwork(False, 2, [(0, 10 ** 20, 1.0)])


@pytest.mark.parametrize("text", [
    "undirected 2\n0 1 1e308\n1 0 1e308\n",  # duplicates merge to inf
    "undirected 3\n0 1 1e308\n1 2 1e308\n",  # W overflows
    "undirected 2\n0 0 1e308\n1 1 1e308\n",  # N overflows
])
@pytest.mark.filterwarnings("ignore:duplicate edge")
def test_non_finite_total_weight_rejected(text):
    with pytest.raises(ValidationError, match="must be finite"):
        load_network(text)


@pytest.mark.parametrize("n", [10 ** 20, MAX_NODES + 1])
def test_node_count_above_cap_rejected_before_allocation(n):
    with pytest.raises(ValidationError, match=re.escape(
            f"node count must be an integer in [0, {MAX_NODES}], got {n}")):
        SocialNetwork(False, n)
    with pytest.raises(ValidationError, match=re.escape(
            f"node count must be an integer in [1, {MAX_NODES}], got {n}")):
        generate("path", n)
    with pytest.raises(ParseError, match="line 2: node count"):
        load_network(f"# header\nundirected {n}\n")


@pytest.mark.parametrize("n", [2.7, 4.0, True, False, "3", None])
def test_node_count_must_be_an_integer(n):
    # a float n is not truncated and a bool is not a count
    for edges in ([], [(0, 1, 1.0)]):
        with pytest.raises(ValidationError,
                           match="node count must be an integer"):
            SocialNetwork(False, n, edges)
    for kind in ("path", "cycle"):
        with pytest.raises(ValidationError,
                           match="node count must be an integer"):
            generate(kind, n)


def test_numpy_integer_node_count_is_accepted():
    g = SocialNetwork(False, np.int64(3), [(0, 1, 1.0)])
    assert g.n == 3 and type(g.n) is int
    assert generate("cycle", np.int32(4)).n == 4


def test_save_load_round_trip(cycle4):
    h = load_network(save_network(cycle4))
    assert h.directed == cycle4.directed
    assert h.n == cycle4.n
    assert h.W == pytest.approx(cycle4.W)
    assert h.weight(0, 1) == pytest.approx(1.0)


def test_load_network_remaps_labels_and_skips_comments():
    text = """# toy market
undirected 3
10 20 0.5   # labels need not be dense
20 31 1.5
10 10 0.25
"""
    g = load_network(text)
    assert g.n == 3
    assert set(g.labels) == {10, 20, 31}
    a = g.labels.index(10)
    b = g.labels.index(20)
    assert g.weight(a, b) == pytest.approx(0.5)
    assert g.self_weights[a] == pytest.approx(0.25)
    # a label beyond 64 bits is kept exactly
    g = load_network("undirected 3\n0 100000000000000000000 0.5\n")
    assert g.labels == (0, 10 ** 20, None)
    assert g.weight(0, 1) == 0.5


def test_load_network_rejects_bad_header():
    with pytest.raises(ParseError):
        load_network("mixed 3\n0 1 1.0\n")


def test_json_round_trip(random_net):
    g = random_net(3, n=5, self_weights=True)
    h = network_from_json(g.to_json())
    assert h.n == g.n and h.directed == g.directed
    assert h.W == pytest.approx(g.W)
    assert h.N == pytest.approx(g.N)
    assert h == g


@pytest.mark.parametrize("doc", [{"n": 2}, {"directedness": "both", "n": 2},
                                 {"directedness": True, "n": 2}])
def test_json_without_a_known_directedness_is_rejected(doc):
    message = "directedness must be 'directed' or 'undirected'"
    with pytest.raises(ValidationError, match=message):
        network_from_json(doc)


@pytest.mark.parametrize("doc", [
    [["directed", 3]],
    {"directedness": "directed"},
    {"directedness": "directed", "n": None},
    {"directedness": "directed", "n": "3"},
    {"directedness": "directed", "n": 2.7},
    {"directedness": "directed", "n": 2.0},
    {"directedness": "directed", "n": True},
    {"directedness": "directed", "n": -1},
    {"directedness": "directed", "n": 10 ** 20},
    {"directedness": "directed", "n": 3, "edges": {"0": [0, 1, 0.5]}},
    {"directedness": "directed", "n": 3, "edges": [0, 1, 0.5]},
    {"directedness": "directed", "n": 3, "edges": ["0 1 0.5"]},
    {"directedness": "directed", "n": 3, "edges": [[0]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, 0.5, 2]]},
    {"directedness": "directed", "n": 3, "edges": [["0", 1, 0.5]]},
    {"directedness": "directed", "n": 3, "edges": [[0.0, 1, 0.5]]},
    {"directedness": "directed", "n": 3, "edges": [[True, 1, 0.5]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, "0.5"]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, None]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, False]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 3, 0.5]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 10 ** 20, 0.5]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, 10 ** 400]]},
    {"directedness": "directed", "n": 3, "edges": [[0, 1, math.inf]]},
    {"directedness": "undirected", "n": 2, "self_weights": [0.5]},
    {"directedness": "undirected", "n": 2, "self_weights": [0.5, 0.5, 0.5]},
    {"directedness": "undirected", "n": 2, "self_weights": 0.5},
    {"directedness": "undirected", "n": 2, "self_weights": "ab"},
    {"directedness": "undirected", "n": 2, "self_weights": ["0.5", "0.5"]},
    {"directedness": "undirected", "n": 2, "self_weights": [[0.5], [0.5]]},
    {"directedness": "undirected", "n": 2, "self_weights": [True, 0.5]},
    {"directedness": "undirected", "n": 2, "self_weights": {"0": 0.5}},
    {"directedness": "undirected", "n": 1, "self_weights": [10 ** 400]},
])
def test_malformed_json_network_is_a_validation_error(doc):
    # never a bare KeyError, TypeError, ValueError or OverflowError, and
    # no silent truncation of a float n
    with pytest.raises(ValidationError):
        network_from_json(doc)


def test_scaled_multiplies_all_weights(cycle4):
    h = cycle4.scaled(0.5)
    assert h.W == pytest.approx(2.0)
    assert h.weight(0, 1) == pytest.approx(0.5)


def test_eliminate_selfloops_moves_mass_to_new_nodes():
    g = SocialNetwork(True, 2, [(0, 1, 1.0)], self_weights=[0.5, 0.25])
    h = eliminate_selfloops(g)
    assert h.n == 4
    assert h.N == 0.0
    assert h.W == pytest.approx(g.W + g.N)
    # the fresh sources influence exactly their original buyer
    assert h.weight(2, 0) + h.weight(3, 0) == pytest.approx(0.5)
    assert h.weight(2, 1) + h.weight(3, 1) == pytest.approx(0.25)


def test_eliminate_selfloops_rejects_undirected():
    u = SocialNetwork(False, 2, [(0, 1, 1.0)], self_weights=[0.5, 0.0])
    with pytest.raises(UnsupportedOperationError):
        eliminate_selfloops(u)


def test_eliminate_selfloops_noop_without_loops():
    g = SocialNetwork(True, 2, [(0, 1, 1.0)])
    assert eliminate_selfloops(g) is g


def test_generate_cycle_path_sizes():
    assert generate("cycle", 5).num_edges == 5
    assert generate("path", 5).num_edges == 4
    assert generate("complete_dag", 4).num_edges == 6


def test_generate_validations():
    with pytest.raises(ValidationError):
        generate("cycle", 0)
    with pytest.raises(ValidationError):
        generate("cycle", 2)
    with pytest.raises(ValidationError):
        generate("nonesuch", 4)
    with pytest.raises(ValidationError):
        generate("random", 4, density=0.5)  # seed required
    with pytest.raises(ValidationError):
        generate("random", 4, directed=True, self_weight_range=(0.1, 0.2), seed=1)
    for bad in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValidationError, match="weight_range"):
            generate("random", 4, weight_range=bad, seed=1)
        with pytest.raises(ValidationError, match="self_weight_range"):
            generate("random", 4, self_weight_range=bad, seed=1)


@pytest.mark.parametrize("name", ["weight_range", "self_weight_range"])
def test_generate_ranges_must_be_pairs(name):
    with pytest.raises(ValidationError, match=name):
        generate("random", 4, seed=1, **{name: (0.1, 0.2, 0.3)})


def test_generate_bipartite_parts():
    g = generate("bipartite", 5, parts=(2, 3))
    assert g.num_edges == 6
    src, dst, _ = g.influence_pairs()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    assert np.all((lo < 2) & (hi >= 2))


def test_generate_random_is_seed_deterministic():
    a = generate("random", 8, density=0.5, weight_range=(0.1, 1.0), seed=9)
    b = generate("random", 8, density=0.5, weight_range=(0.1, 1.0), seed=9)
    assert save_network(a) == save_network(b)


def _tuple_generate(kind, n, directed, density, weight_range,
                    self_weight_range, seed):
    """The generator as once written: every candidate pair as a Python
    tuple, thinned by one draw of uniforms in lexicographic order."""
    rng = np.random.default_rng(seed)
    if kind == "bipartite":
        a = (n + 1) // 2
        pairs = [(i, j) for i in range(a) for j in range(a, n)]
    elif kind in ("cycle", "path"):
        chain = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * (kind == "cycle")
        pairs = sorted(p if directed else tuple(sorted(p)) for p in chain)
    elif directed and kind == "random":
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if density < 1.0:
        keep = rng.random(len(pairs)) < density
        pairs = [p for p, k in zip(pairs, keep) if k]
    w = rng.uniform(*weight_range, size=len(pairs))
    self_w = None
    if self_weight_range is not None:
        self_w = rng.uniform(*self_weight_range, size=n)
    return SocialNetwork(directed, n, [(i, j, wk) for (i, j), wk in zip(pairs, w)],
                         self_weights=self_w)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.999, 1.0])
@pytest.mark.parametrize("kind,directed", [("random", False), ("random", True),
                                           ("bipartite", False),
                                           ("cycle", False), ("cycle", True),
                                           ("path", False), ("path", True),
                                           ("complete_dag", True)])
def test_generate_matches_tuple_generator(kind, directed, density):
    for n in (1, 2, 3, 8, 41, 120):
        if kind == "bipartite" and n < 2 or kind == "cycle" and n < 3:
            continue
        sw = (0.2, 1.0) if kind != "bipartite" and not directed else None
        got = generate(kind, n, directed=directed, density=density,
                       weight_range=(0.1, 1.0), self_weight_range=sw,
                       seed=n + 100)
        want = _tuple_generate(kind, n, directed, density, (0.1, 1.0), sw,
                               n + 100)
        assert got == want
        assert np.array_equal(got.edge_weight, want.edge_weight)


def test_bipartite_self_weights_are_drawn_after_the_pairs():
    plain = generate("bipartite", 6, seed=1)
    g = generate("bipartite", 6, self_weight_range=(0.1, 0.5), seed=1)
    for column in ("edge_src", "edge_dst", "edge_weight"):
        assert np.array_equal(getattr(g, column), getattr(plain, column))
    want = np.random.default_rng(1).uniform(0.1, 0.5, size=6)
    assert np.array_equal(g.self_weights, want)


@pytest.mark.parametrize("kind,options", [
    ("cycle", {"parts": (2, 3)}),
    ("path", {"parts": (2, 3)}),
    ("complete_dag", {"parts": (2, 3)}),
    ("random", {"parts": (2, 3), "seed": 1}),
    ("complete_dag", {"self_weight_range": (0.1, 0.5), "seed": 1}),
    ("cycle", {"directed": True, "self_weight_range": (0.1, 0.5), "seed": 1}),
    ("path", {"directed": True, "self_weight_range": (0.1, 0.5), "seed": 1}),
])
def test_generate_refuses_options_that_cannot_apply(kind, options):
    with pytest.raises(ValidationError, match="parts apply|self-weights apply"):
        generate(kind, 5, **options)


@pytest.mark.parametrize("kind,options,message", [
    ("random", {}, "random generator requires a seed"),
    ("random", {"density": 0.5}, "random with random choices requires a seed"),
    ("cycle", {"density": 0.5}, "cycle with random choices requires a seed"),
    ("path", {"weight_range": (0.1, 1.0)},
     "path with random choices requires a seed"),
    ("bipartite", {"self_weight_range": (0.1, 0.5)},
     "bipartite with random choices requires a seed"),
])
def test_random_choices_require_a_seed(kind, options, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        generate(kind, 6, **options)


# every public function that seeds a generator, called on the unit 4-cycle
SEEDED_CALLS = {
    "generate": lambda g, s: generate("random", 4, density=0.5, seed=s),
    "ie_tuned": lambda g, s: ie_tuned(g, seed=s),
    "RandomIEStrategy.sample":
        lambda g, s: RandomIEStrategy(0.3, 0.6).sample(g, s),
    "round_to_ie": lambda g, s: round_to_ie(g, [0.75] * 4, seed=s),
    "solve_sdp": lambda g, s: solve_sdp(build_sdp(g, 0.6), seed=s),
    "sdp_ie": lambda g, s: sdp_ie(g, seed=s),
    "round_hyperplane": lambda g, s: round_hyperplane(
        solve_sdp(build_sdp(g, 0.6)), 0.2, seed=s),
    "best_strategy_search": lambda g, s: best_strategy_search(g, seed=s),
    "gadget_revenue_table":
        lambda g, s: gadget_revenue_table("three_path", seed=s),
    "simulate": lambda g, s: simulate(g, IEStrategy(frozenset(), 0.5), 10,
                                      seed=s),
}


@pytest.mark.parametrize("seed", [-1, True, 1.5, 2.0, np.float64(1.0), "1"])
@pytest.mark.parametrize("entry", sorted(SEEDED_CALLS))
def test_seeds_are_checked_at_the_api(cycle4, entry, seed):
    with pytest.raises(ValidationError,
                       match="^seed must be an integer >= 0, got "):
        SEEDED_CALLS[entry](cycle4, seed)
    # None draws fresh entropy, except where a seed is required
    required = {"generate": "random with random choices requires a seed",
                "simulate": "simulate requires a seed"}
    if entry in required:
        with pytest.raises(ValidationError, match=required[entry]):
            SEEDED_CALLS[entry](cycle4, None)
    else:
        SEEDED_CALLS[entry](cycle4, None)


_IE = IEStrategy(frozenset(), 0.5)

# every integer argument: (its name in messages, lo, hi or None, the call
# with the value on the unit 4-cycle)
INTEGER_ARGS = {
    "SocialNetwork n": ("node count", 0, MAX_NODES,
                        lambda g, v: SocialNetwork(False, v)),
    "generate n": ("node count", 1, MAX_NODES, lambda g, v: generate("path", v)),
    "solve_sdp rank": ("rank", 1, None,
                       lambda g, v: solve_sdp(build_sdp(g, 0.6), rank=v)),
    "sdp_ie trials": ("trials", 1, MAX_TRIALS, lambda g, v: sdp_ie(g, trials=v)),
    "simulate trials": ("trials", 1, MAX_TRIALS,
                        lambda g, v: simulate(g, _IE, v)),
    "GeneralizedIEStrategy K": ("class count K", 2, None,
                                lambda g, v: GeneralizedIEStrategy(v, (0.5, 0.5))),
    "pricing_classes K": ("class count K", 2, None,
                          lambda g, v: pricing_classes(v)),
    "generalized_ie K": ("class count K", 2, None,
                         lambda g, v: generalized_ie(g, v)),
    "optimize_class_assignment K": ("class count K", 2, MAX_OPTIMIZE_CLASSES,
                                    lambda g, v: optimize_class_assignment(v)),
    "ratio_certificate K": ("class count K", 2, None,
                            lambda g, v: ratio_certificate("class_ie", K=v)),
}

# every real argument: (its name in messages, lo, hi, the call)
REAL_ARGS = {
    "IEStrategy p": ("p", PRICE_PROB_MIN - _PROB_TOL, PRICE_PROB_MAX,
                     lambda g, v: IEStrategy(frozenset(), v)),
    "RandomIEStrategy p": ("p", PRICE_PROB_MIN - _PROB_TOL, PRICE_PROB_MAX,
                           lambda g, v: RandomIEStrategy(0.3, v)),
    "RandomIEStrategy q": ("q", 0, 1, lambda g, v: RandomIEStrategy(v, 0.6)),
    "sdp_ie gamma": ("gamma", 0, 1, lambda g, v: sdp_ie(g, gamma=v)),
    "rotate gamma": ("gamma", 0, 1, lambda g, v: rotate(0.5, v)),
    "ratio_certificate gamma": ("gamma", 0, 1, lambda g, v: ratio_certificate(
        "sdp_self", gamma=v)),
    "ratio_certificate lam": ("self-weight ratio lam", 0, math.inf,
                              lambda g, v: ratio_certificate("random_ie", lam=v)),
    "generate density": ("density", 0, 1,
                         lambda g, v: generate("cycle", 5, density=v, seed=0)),
    "ratio_certificate grid_step": ("grid_step", MIN_GRID_STEP, MAX_GRID_STEP,
                                    lambda g, v: ratio_certificate(
                                        "sdp_self", grid_step=v)),
    "myopic_price M": ("valuation cap M", 0, math.inf,
                       lambda g, v: myopic_price(v)),
}


# None picks the default of these
DEFAULTED_ARGS = {"solve_sdp rank", "sdp_ie gamma", "ratio_certificate grid_step"}


def _bad_values(entry, values, lo, hi):
    """``values`` (less None where it picks a default), then lo - 1 and,
    with a finite hi, hi + 1."""
    return ([v for v in values if not (v is None and entry in DEFAULTED_ARGS)]
            + [lo - 1] + ([] if hi in (None, math.inf) else [hi + 1]))


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGS))
def test_integer_arguments_follow_one_rule(cycle4, entry):
    # an int or numpy integer in [lo, hi]; never a bool, a float or a string
    name, lo, hi, call = INTEGER_ARGS[entry]
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    for value in _bad_values(entry, [2.5, 6.0, True, "3", None], lo, hi):
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{name} must be an integer {bound}, got {value!r}") + "$"):
            call(cycle4, value)


@pytest.mark.parametrize("entry", sorted(REAL_ARGS))
def test_real_arguments_follow_one_rule(cycle4, entry):
    # a finite int or float in [lo, hi]; never a bool, a string or None
    name, lo, hi, call = REAL_ARGS[entry]
    huge = 10 ** 400  # an int beyond the float range
    for value in _bad_values(entry, ["x", None, True, math.nan, math.inf, huge],
                             lo, hi):
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{name} must lie in [{lo}, {hi}], got {value!r}") + "$"):
            call(cycle4, value)


_WEIGHTS = (0, math.inf)
_PRICES = (PRICE_PROB_MIN - _PROB_TOL, PRICE_PROB_MAX + _PROB_TOL)


def _undirected_doc(**fields):
    return {"directedness": "undirected", "n": 4, **fields}


# every array argument: (its name in messages, (lo, hi) of its reals or None
# for integers, a valid value, the call with a value on the unit 4-cycle,
# whether the value is the whole argument or one column of the edges)
ARRAY_ARGS = {
    "SocialNetwork endpoints": (
        "edge endpoints", None, [0, 1, 2],
        lambda g, v: SocialNetwork(False, 4, [(i, 3, 1.0) for i in v]), False),
    "SocialNetwork weights": (
        "edge weights", _WEIGHTS, [1.0, 1.0, 1.0],
        lambda g, v: SocialNetwork(False, 4, [(i, 3, w) for i, w in enumerate(v)]),
        False),
    "SocialNetwork self_weights": (
        "self-weights", _WEIGHTS, [0.5] * 4,
        lambda g, v: SocialNetwork(False, 4, self_weights=v), True),
    "network_from_json endpoints": (
        "edge endpoints", None, [0, 1, 2], lambda g, v: network_from_json(
            _undirected_doc(edges=[[i, 3, 1.0] for i in v])), False),
    "network_from_json weights": (
        "edge weights", _WEIGHTS, [1.0, 1.0, 1.0], lambda g, v: network_from_json(
            _undirected_doc(edges=[[i, 3, w] for i, w in enumerate(v)])), False),
    "network_from_json self_weights": (
        "self-weights", _WEIGHTS, [0.5] * 4,
        lambda g, v: network_from_json(_undirected_doc(self_weights=v)), True),
    "MarketingStrategy order": (
        "order", None, [0, 1, 2, 3],
        lambda g, v: MarketingStrategy(v, [0.9] * 4), True),
    "MarketingStrategy prices": (
        "prices", _PRICES, [0.9] * 4,
        lambda g, v: MarketingStrategy([0, 1, 2, 3], v), True),
    "IEStrategy influence_set": (
        "influence_set", None, [0, 1],
        lambda g, v: IEStrategy(v, 0.6).expected_revenue(g), True),
    "GeneralizedIEStrategy q": (
        "q", (-1e-9, math.inf), [0.5, 0.5],
        lambda g, v: GeneralizedIEStrategy(2, v), True),
    "best_ordering_exhaustive prices": (
        "prices", _PRICES, [0.9] * 4,
        lambda g, v: best_ordering_exhaustive(g, v), True),
    "rounding_expected_revenue prices": (
        "prices", _PRICES, [0.9] * 4,
        lambda g, v: rounding_expected_revenue(g, v), True),
    "rotate theta": (
        "theta", (-1e-9, math.pi + 1e-9), [0.1, 0.2],
        lambda g, v: rotate(v, 0.5), True),
    "generate weight_range": (
        "weight_range", _WEIGHTS, [0.1, 1.0],
        lambda g, v: generate("cycle", 4, weight_range=v, seed=0), True),
    "generate self_weight_range": (
        "self_weight_range", _WEIGHTS, [0.1, 1.0],
        lambda g, v: generate("cycle", 4, self_weight_range=v, seed=0), True),
    "generate parts": (
        "parts", None, [2, 2],
        lambda g, v: generate("bipartite", 4, parts=v), True),
    "class_moments q": (
        "q", (0, 1), [0.5, 0.5],
        lambda g, v: class_moments(v, [1.0, 0.5]), True),
    "class_moments p": (
        "p", (0, 1), [1.0, 0.5],
        lambda g, v: class_moments([0.5, 0.5], v), True),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_ARGS))
def test_array_arguments_follow_one_rule(cycle4, entry):
    # a list, tuple, set or numeric array of the scalar rule's entries;
    # never a bool, a string or None, nor a float for integers
    name, bounds, valid, call, whole = ARRAY_ARGS[entry]
    call(cycle4, valid)
    if bounds is None:
        rule = f"{name} must be integers, got "
        entries = ["x", True, 1.5, math.nan]
    else:
        lo, hi = bounds
        rule = f"{name} must lie in [{lo}, {hi}], got "
        entries = ["x", True, math.nan, 10 ** 400, lo - 1] \
            + ([] if hi == math.inf else [hi + 1])
    cases = [(valid[:-1] + [v], v) for v in entries]
    if whole:
        opaque = object()  # neither a number nor a collection
        cases += [("01", "01"), ([valid], valid), (opaque, opaque)]
        if bounds is None:  # a float array is refused by its dtype alone
            cases.append((np.array(valid, dtype=float), float(valid[0])))
    for value, named in cases:
        with pytest.raises(ValidationError, match="^" + re.escape(
                rule + repr(named)) + "$"):
            call(cycle4, value)
    if bounds is None:
        # an integer beyond 64 bits has the right type: its range check,
        # not an OverflowError, refuses it
        with pytest.raises(ValidationError):
            call(cycle4, valid[:-1] + [10 ** 400])


@pytest.mark.parametrize("edges", [5, [5], [(0, 1)], [(0, 1, 1.0), 7]])
def test_edges_must_be_triples(edges):
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"edges must be (i, j, w) triples, got {edges!r}") + "$"):
        SocialNetwork(False, 3, edges)


@pytest.mark.parametrize("value", ["no", 1, None, [0], np.int64(1)])
def test_flags_are_bools(value):
    message = "^" + re.escape(f"directed must be a bool, got {value!r}") + "$"
    for call in (lambda: SocialNetwork(value, 2),
                 lambda: generate("cycle", 4, directed=value),
                 lambda: ratio_certificate("random_ie", directed=value),
                 lambda: ratio_certificate("class_ie", directed=value)):
        with pytest.raises(ValidationError, match=message):
            call()
    assert SocialNetwork(np.bool_(True), 2).directed is True


@pytest.mark.parametrize("labels", [[1], 5, "abc", (0, 1, 2, 3)])
def test_labels_are_a_list_or_tuple_of_n_entries(labels):
    with pytest.raises(ValidationError, match=re.escape(
            "labels must be a list or tuple of n=3 entries")):
        SocialNetwork(False, 3, [(0, 1, 1.0)], labels=labels)
    assert SocialNetwork(False, 3, labels=["a", "b", None]).labels \
        == ("a", "b", None)


def test_checked_arguments_come_back_as_python_numbers():
    s = GeneralizedIEStrategy(np.int64(2), (0.5, 0.5), seed=np.int64(3))
    assert type(s.K) is int and type(s.seed) is int
    json.dumps(s.to_json())


def test_huge_trial_counts_fail_before_any_work(monkeypatch, cycle4):
    def no_work(*args, **kwargs):
        raise AssertionError("worked with an invalid trial count")

    monkeypatch.setattr(sdprelax, "build_sdp", no_work)
    monkeypatch.setattr(IEStrategy, "offer_sampler", no_work)
    for trials in (MAX_TRIALS + 1, 10 ** 11):
        message = re.escape(f"trials must be an integer in [1, {MAX_TRIALS}]")
        with pytest.raises(ValidationError, match=message):
            sdp_ie(cycle4, trials=trials)
        with pytest.raises(ValidationError, match=message):
            simulate(cycle4, _IE, trials)


def test_generate_memory_grows_with_edges_not_n_squared():
    # the n(n-1)/2 candidate pairs at n=3000 as tuples alone take ~400 MB
    tracemalloc.start()
    try:
        g = generate("random", 3000, density=4 / 2999, weight_range=(0.1, 1.0),
                     seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4000 < g.num_edges < 8000
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("kind,density", itertools.product(
    ["random", "bipartite", "cycle"], [3.0, 1.0 + 1e-9, -0.1, math.nan]))
def test_generate_rejects_density_outside_unit_interval(kind, density):
    with pytest.raises(ValidationError, match="density"):
        generate(kind, 5, density=density, seed=1)


def test_gadget_shapes():
    assert gadget("extended_triangle").n == 6
    assert gadget("three_path").n == 4
    assert gadget("set_triangle").W == pytest.approx(3.0)
    assert gadget("set_edge", p=0.75).W == pytest.approx(2.75)
    with pytest.raises(ValidationError):
        gadget("set_edge")
    with pytest.raises(ValidationError):
        gadget("set_edge", p=1.0)
    for kind, nodes in GADGET_SELECTION_NODES.items():
        g = gadget(kind)
        assert all(0 <= v < g.n for v in nodes)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_save_load_round_trip_random(seed, directed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    g = generate("random", n, directed=directed,
                 density=float(rng.uniform(0.2, 1.0)),
                 weight_range=(0.05, 2.0),
                 self_weight_range=None if directed else (0.0, 1.0),
                 seed=seed + 1)
    h = load_network(save_network(g))
    assert h == g


@pytest.mark.parametrize("text, line, message", [
    ("graph 3\n0 x\n", 1, "expected header"),
    # a line that does not parse, before one with the wrong token count
    ("undirected 3\n0 x 1\n0 1\n", 2, "expected 'i j w', got '0 x 1'"),
    ("undirected 3\n0 1\n0 x 1\n", 2, "expected 'i j w', got '0 1'"),
    ("undirected 3\n0 1 0.5 # x y\n0\t1  x # c\n", 3,
     "expected 'i j w', got '0\\t1  x'"),
    # one line's checks run in order: parse, labels, weight
    ("undirected 3\n-1 0 x\n", 2, "expected 'i j w', got '-1 0 x'"),
    ("undirected 3\n-1 0 inf\n", 2, "node labels must be non-negative"),
    # a negative label before a bad weight, and the other way round
    ("undirected 3\n# c\n-1 0 0.5\n0 1 nan\n", 3,
     "node labels must be non-negative"),
    ("undirected 3\n0 1 -0.5\n-1 0 0.5\n", 2,
     "weight must be non-negative, got -0.5"),
    ("undirected 3\n0 1 1e400\n0 1\n", 2, "weight must be finite, got 1e400"),
    # a directed self-loop is looked for only once every line has passed
    ("directed 3\n0 1 x\n1 1 0.5\n", 2, "expected 'i j w', got '0 1 x'"),
    ("directed 3\n1 1 0.5\n0 1 -1\n", 3, "weight must be non-negative, got -1.0"),
    ("directed 3\n1 1 0.5\n0 1 1 1\n", 3, "expected 'i j w', got '0 1 1 1'"),
    ("directed 2\n0 0 1\n1 2 1\n", None,
     "3 distinct node labels exceed declared n=2"),
    ("directed 3\n0 1 1\n2 2 1\n1 1 1\n", 3, "self-loop (2, 2) not allowed"),
])
def test_first_fault_of_a_document_is_reported(text, line, message):
    with pytest.raises(ParseError) as info:
        load_network(text)
    assert info.value.line == line
    assert message in str(info.value)


def _load_recording_warnings(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_network(text), caught
        except ParseError as exc:
            return exc, caught


def test_duplicate_warnings_keep_their_text_and_line_order():
    text = ("undirected 4\n10 20 0.5\n30 30 0.1\n20 10 0.25\n# note\n"
            "30 30 0.2\n10 20 1\n")
    g, caught = _load_recording_warnings(text)
    assert [str(w.message) for w in caught] == [
        "duplicate edge (20, 10) at line 4; summing weights",
        "duplicate self-weight line for node 30; summing",
        "duplicate edge (10, 20) at line 7; summing weights"]
    assert {w.filename for w in caught} == {__file__}  # the caller's line
    a, b, c = (g.labels.index(x) for x in (10, 20, 30))
    assert g.weight(a, b) == 0.5 + 0.25 + 1.0
    assert g.self_weights[c] == 0.1 + 0.2
    # a directed document warns up to its first self-loop, then fails there
    exc, caught = _load_recording_warnings(
        "directed 3\n0 1 1\n0 1 2\n1 0 1\n2 2 1\n1 0 1\n")
    assert isinstance(exc, ParseError) and exc.line == 5
    assert [str(w.message) for w in caught] == [
        "duplicate edge (0, 1) at line 3; summing weights"]


# sha256 of save_network text and of json.dumps(to_json()): every corpus/
# file, and random n=2000 networks at the benchmark's large-sparse size
SERIALIZED_PINS = {
    'bipartite33.txt': ('22a7166aa0add3e4c2f04a77b951ccaf7164673c3a9fd98b0eb97f4f182c6c55', '74837b80b7bebe7e8e73b0c1294e459f1e3cdb3fd67aea0b089ed6b5f14312a5'),
    'cycle4.txt': ('ad7b783145e6b72cbd32ccdbc444f4b64710280d546c52744789c2e438d416c9', 'a7e054c6fd3258ffd39e5925da7089eb30a0c8da8182e2b707c560166e80fbea'),
    'cycle5.txt': ('c41b8f66c30c9159dda71ff31db23581e69e8e35edfe8483a787c854cd744cb7', '66353166f8e5622e7819fedf2bc2ac54520180c01b047bb21e1370ad68ac51c6'),
    'cycle6.txt': ('b279a78bd3593f2bb0e16a9138c59505bf81df4f1afb536415f4210e1fd50b4d', '83590dde394a8a606a925d5c55560cd159decb693bb071d78caae7b653e065ee'),
    'dag4.txt': ('6c7f0f6e902c9dca7024008ac7a3bc6e26bea472f5f246c97578463d1cda3d0e', '39fa446426934d45207308d69a868aa9cc8029a1e0913ce25ec676cc313edfed'),
    'dag6.txt': ('d98b23fe4e17e821665e5b348a48f630665dc011bf22d18df9009b8de8bd4a80', '9f728caa90eb0e79a4ea272f6876c664c483f1017ebcfab31d8c750e557694b4'),
    'dagrand10.txt': ('6d8868af94eafe398e80f209af73c498585a0532fcfe1d0b5a97da9968c5cd9b', '77c256eb06ba50fad001777386173d5b1bfa83b5762c5633a5ba8f531f71ef00'),
    'dbipartite33.txt': ('9a6591a1dc83e10e1a5f430af69127fa16ef23dc3c0e044bfaf1545508efb9a7', 'd71eeec6aba903a3c2a338c210016412282ee1bb39bf3d30136474136e7239f7'),
    'path6.txt': ('2e89fefcb49689a6cadb3070a857ad44cd3fb2d090bc82718e2c3061ebad6842', '33b333f654ff0a7f849023138757558d1f470ff8bed675ebdd0bd0bce02dd8e7'),
    'random12.txt': ('c04eac55fef092f18aca9744cae993c5057def855b3cb5ba56acb3babae2601d', '955ab4aa05b35a13db642aff7147768a3dba9553d375e5754267f38c785f2254'),
    'randtree12.txt': ('3f8635148aa0499fe8ee7d3a734c118135f04e663768ee55101624a8ce210e25', '7c8c902e34ac26766536b84e373b2b8c617d952dd81f89ae61abfde0d22935cc'),
    'random2000u': ('a84375f5219b4a5a2ea3aa7aab7a20138d3a9cd5a7345ccb469c0c6185cc74b6', '3f044611803ae8c8a449d9cc53580e82c96651c0c0977e18148b653440f03e73'),
    'random2000d': ('14122c682514af106e741ca15a9e0d8f68be8358b3a914e3654607112c883d9b', '345d5efdc2bee96472417fb4916eca96596d1dcdc64c5d2a04f21ff70936d938'),
}


def test_serialized_bytes_are_pinned():
    nets = {path.name: load_network(path.read_text())
            for path in sorted(CORPUS.glob("*.txt"))}
    for directed, seed in ((False, 1), (True, 2)):
        nets[f"random2000{'d' if directed else 'u'}"] = generate(
            "random", 2000, directed=directed, density=4 / 1999,
            weight_range=(0.1, 1.0),
            self_weight_range=None if directed else (0.1, 0.5), seed=seed)
    got = {}
    for name, g in nets.items():
        text = save_network(g)
        doc = json.dumps(g.to_json())
        got[name] = (hashlib.sha256(text.encode()).hexdigest(),
                     hashlib.sha256(doc.encode()).hexdigest())
        h = load_network(text)
        assert h == g and h.labels == tuple(range(g.n)), name
        assert network_from_json(json.loads(doc)) == g, name
    assert got == SERIALIZED_PINS


def test_text_io_memory_grows_with_the_edges():
    # the tokenized columns of a long path are load_network's largest
    # temporaries; a few hundred bytes per line, nothing of size n^2
    n = 10 ** 5
    g = generate("path", n)
    tracemalloc.start()
    try:
        text = save_network(g)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        h = load_network(text)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert save_peak < 256 * n
    assert load_peak < 512 * n
