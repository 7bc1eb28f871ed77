import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrev import (
    GADGET_SELECTION_NODES,
    ParseError,
    SocialNetwork,
    UnsupportedOperationError,
    ValidationError,
    eliminate_selfloops,
    gadget,
    generate,
    load_network,
    network_from_json,
    save_network,
)
from netrev.netmodel import MAX_NODES


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


def test_in_weight_matrix_directed():
    g = SocialNetwork(True, 3, [(0, 1, 0.5), (2, 1, 0.25)])
    W = g.in_weight_matrix()
    assert W[0, 1] == pytest.approx(0.5)
    assert W[2, 1] == pytest.approx(0.25)
    assert W[1, 0] == 0.0


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        SocialNetwork(False, 2, [(0, 1, -0.1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValidationError):
        SocialNetwork(False, 2, [(0, 2, 1.0)])


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
    with pytest.raises(ValidationError, match="MAX_NODES"):
        SocialNetwork(False, n)
    with pytest.raises(ValidationError, match="MAX_NODES"):
        generate("path", n)
    with pytest.raises(ParseError, match="line 2: node count"):
        load_network(f"# header\nundirected {n}\n")


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


def test_load_network_rejects_bad_header():
    with pytest.raises(ParseError):
        load_network("mixed 3\n0 1 1.0\n")


def test_json_round_trip(random_net):
    g = random_net(3, n=5, self_weights=True)
    h = network_from_json(g.to_json())
    assert h.n == g.n and h.directed == g.directed
    assert h.W == pytest.approx(g.W)
    assert h.N == pytest.approx(g.N)
    np.testing.assert_allclose(h.in_weight_matrix(), g.in_weight_matrix())


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
    elif directed:
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
                                           ("bipartite", False)])
def test_generate_matches_tuple_generator(kind, directed, density):
    for n in (1, 2, 3, 8, 41, 120):
        if kind == "bipartite" and n < 2:
            continue
        sw = (0.2, 1.0) if kind == "random" and not directed else None
        got = generate(kind, n, directed=directed, density=density,
                       weight_range=(0.1, 1.0), self_weight_range=sw,
                       seed=n + 100)
        want = _tuple_generate(kind, n, directed, density, (0.1, 1.0), sw,
                               n + 100)
        assert got == want
        assert np.array_equal(got.edge_weight, want.edge_weight)


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
    assert h.n == g.n and h.directed == g.directed
    np.testing.assert_allclose(h.in_weight_matrix(), g.in_weight_matrix())
    np.testing.assert_allclose(np.asarray(h.self_weights),
                               np.asarray(g.self_weights))
