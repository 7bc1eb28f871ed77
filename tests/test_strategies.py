import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netrev.strategies
from netrev import (
    DIRECTED_ROUNDING,
    SIX_CLASS_PRESET_Q,
    TUNED_EXPLOIT_PROB,
    UNDIRECTED_ROUNDING,
    UNDIRECTED_ROUNDING_FLAT,
    RoundingSchedule,
    SocialNetwork,
    ValidationError,
    class_moments,
    class_ratio,
    class_ratio_terms,
    default_rounding_schedule,
    generalized_ie,
    generate,
    ie_baseline,
    ie_bipartite,
    ie_revenue,
    ie_tuned,
    optimize_class_assignment,
    piecewise_rounding_alpha,
    pricing_classes,
    random_ie_revenue,
    revenue_bounds,
    round_to_ie,
    rounding_expected_revenue,
)
from netrev.strategies import MAX_OPTIMIZE_CLASSES


# ---------------------------------------------------------------------------
# Baseline / tuned / bipartite IE
# ---------------------------------------------------------------------------

def test_baseline_revenue_fractions(random_net):
    g = random_net(1, n=6, self_weights=True)
    s = ie_baseline(g)
    assert s.influence_set == frozenset()
    assert s.p == pytest.approx(2 / 3)
    assert ie_revenue(g, s) == pytest.approx((4 * g.W + 6 * g.N) / 27)
    d = random_net(2, n=6, directed=True)
    assert ie_revenue(d, ie_baseline(d)) == pytest.approx(2 * d.W / 27)


def test_tuned_constants():
    assert TUNED_EXPLOIT_PROB == pytest.approx(2 - math.sqrt(2))


def test_tuned_ie_undirected(random_net):
    g = random_net(3, n=7, self_weights=True)
    t = ie_tuned(g, seed=4)
    assert t.p == pytest.approx(TUNED_EXPLOIT_PROB)
    assert t.q == pytest.approx(max(1 - math.sqrt(2) * (2 + g.lam) / 4, 0.0))
    assert t.expected_revenue == pytest.approx(random_ie_revenue(g, t.q, t.p))
    assert t.ratio_bound == pytest.approx(t.expected_revenue / revenue_bounds(g).upper)
    # the guarantee the parameters were tuned for
    assert t.ratio_bound >= 0.6862
    assert t.strategy.p == t.p


def test_tuned_ie_directed(random_net):
    d = random_net(5, n=7, directed=True)
    t = ie_tuned(d)
    assert t.q == pytest.approx(1 - math.sqrt(2) / 2)
    assert t.ratio_bound >= 0.3431


def test_tuned_ie_edge_free_network(tiny_selfloop):
    t = ie_tuned(tiny_selfloop)
    assert t.ratio_bound == 1.0
    assert t.expected_revenue == pytest.approx(0.25)


def test_bipartite_ie_meets_upper_bound():
    g = generate("bipartite", 7, parts=(3, 4))
    s = ie_bipartite(g)
    assert ie_revenue(g, s) == pytest.approx(revenue_bounds(g).upper)
    assert s.p == 0.5


def test_bipartite_ie_accepts_explicit_side(cycle4):
    s = ie_bipartite(cycle4, influence_set={1, 3})
    assert ie_revenue(cycle4, s) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        ie_bipartite(cycle4, influence_set={0, 1})  # adjacent: not a side


def _component_minimum(g):
    """Smallest node of each node's component, by union-find."""
    root = list(range(g.n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    return [find(i) for i in range(g.n)]


def test_bipartite_ie_colors_relabelled_networks():
    rng = np.random.default_rng(5)
    for k in range(300):
        n = int(rng.integers(2, 40))
        a = int(rng.integers(1, n))
        h = generate("bipartite", n, parts=(a, n - a),
                     density=float(rng.uniform(0.05, 1.0)), seed=k)
        perm = rng.permutation(n)
        g = SocialNetwork(False, n, zip(perm[h.edge_src].tolist(),
                                        perm[h.edge_dst].tolist(),
                                        h.edge_weight.tolist()))
        side = np.zeros(n, dtype=bool)
        side[list(ie_bipartite(g).influence_set)] = True
        assert np.all(side[g.edge_src] != side[g.edge_dst])
        assert side[_component_minimum(g)].all()


def test_bipartite_ie_rejects_odd_cycle():
    with pytest.raises(ValidationError):
        ie_bipartite(generate("cycle", 5))


# ---------------------------------------------------------------------------
# Rounding schedules
# ---------------------------------------------------------------------------

def test_piecewise_alpha_shape():
    assert piecewise_rounding_alpha(0.5) == pytest.approx(0.0)
    assert piecewise_rounding_alpha(0.7) == pytest.approx(1.0)
    assert piecewise_rounding_alpha(0.8) == pytest.approx(1.33)
    assert piecewise_rounding_alpha(0.9) == pytest.approx(1.63)
    assert piecewise_rounding_alpha(1.0) == pytest.approx(2.0)
    # slopes 5.0 / 3.3 / 3.0 / 3.7 on the four pieces
    eps = 1e-6
    for x, slope in ((0.6, 5.0), (0.75, 3.3), (0.85, 3.0), (0.95, 3.7)):
        d = (piecewise_rounding_alpha(x + eps) - piecewise_rounding_alpha(x)) / eps
        assert d == pytest.approx(slope, rel=1e-3)


def test_schedule_influence_probability_endpoints():
    I = UNDIRECTED_ROUNDING.influence_probability([0.5, 1.0])
    np.testing.assert_allclose(I, [0.0, 1.0])
    assert UNDIRECTED_ROUNDING.p_hat == pytest.approx(0.586)
    assert DIRECTED_ROUNDING.p_hat == pytest.approx(2 / 3)
    np.testing.assert_allclose(
        DIRECTED_ROUNDING.influence_probability([0.5, 0.75, 1.0]),
        [0.0, 0.25, 0.5])
    np.testing.assert_allclose(
        UNDIRECTED_ROUNDING_FLAT.influence_probability([1.0]), [0.715])


def test_schedule_selection_by_directedness(cycle4, random_net):
    assert default_rounding_schedule(cycle4) is UNDIRECTED_ROUNDING
    assert default_rounding_schedule(random_net(0, directed=True)) is DIRECTED_ROUNDING


def test_rounding_expected_revenue_matches_enumeration(random_net):
    g = random_net(6, n=6, self_weights=True)
    rng = np.random.default_rng(2)
    prices = rng.uniform(0.5, 1.0, size=6)
    I = UNDIRECTED_ROUNDING.influence_probability(prices)
    total = 0.0
    for bits in itertools.product([0, 1], repeat=6):
        w = math.prod(I[i] if b else 1 - I[i] for i, b in enumerate(bits))
        A = frozenset(i for i, b in enumerate(bits) if b)
        total += w * ie_revenue(g, A, UNDIRECTED_ROUNDING.p_hat)
    assert rounding_expected_revenue(g, prices) == pytest.approx(total)


def test_schedule_leaving_the_unit_interval_is_rejected(random_net):
    # self_term and edge_term do not check the schedule; the entry points do
    g = random_net(9, n=8, self_weights=True)
    prices = np.full(8, 0.9)
    steep = RoundingSchedule("steep", 0.586,
                             lambda p: np.full(np.shape(p), 3.0))
    negative = RoundingSchedule("negative", 0.586,
                                lambda p: np.full(np.shape(p), -1.0))
    for schedule in (steep, negative):
        with pytest.raises(ValidationError,
                           match=f"schedule {schedule.name} leaves"):
            rounding_expected_revenue(g, prices, schedule)
        with pytest.raises(ValidationError,
                           match=f"schedule {schedule.name} leaves"):
            round_to_ie(g, prices, schedule=schedule)


def test_round_to_ie_is_seeded_and_consistent(random_net):
    g = random_net(9, n=8, self_weights=True)
    prices = np.random.default_rng(3).uniform(0.5, 1.0, size=8)
    a = round_to_ie(g, prices, seed=11)
    b = round_to_ie(g, prices, seed=11)
    assert a.strategy == b.strategy
    assert a.expected_revenue == pytest.approx(
        rounding_expected_revenue(g, prices))
    assert a.strategy.p == UNDIRECTED_ROUNDING.p_hat
    # buyers at the myopic floor can never be rounded into the set
    floor = np.nonzero(np.asarray(a.influence_probabilities) == 0.0)[0]
    assert a.strategy.influence_set.isdisjoint(int(i) for i in floor)


def test_round_to_ie_respects_directed_schedule(random_net):
    d = random_net(10, n=6, directed=True)
    prices = np.random.default_rng(4).uniform(0.5, 1.0, size=6)
    r = round_to_ie(d, prices, seed=0)
    assert r.schedule is DIRECTED_ROUNDING
    assert r.strategy.p == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Class-based (generalized) IE
# ---------------------------------------------------------------------------

def test_preset_class_vector_terms():
    t1, t2 = class_ratio_terms(6, SIX_CLASS_PRESET_Q)
    assert t1 == pytest.approx(0.70356, abs=1e-9)
    assert t2 == pytest.approx(0.703225356, abs=1e-9)
    assert class_ratio(6, SIX_CLASS_PRESET_Q) == pytest.approx(t2)
    assert class_ratio(6, SIX_CLASS_PRESET_Q, directed=True) == pytest.approx(t2 / 2)


def test_two_class_optimum():
    # with classes priced (1, 1/2), assignment (1/3, 2/3) balances both terms
    t1, t2 = class_ratio_terms(2, (1 / 3, 2 / 3))
    assert t1 == pytest.approx(2 / 3)
    assert t2 == pytest.approx(2 / 3)


def test_generalized_ie_modes(random_net):
    g = random_net(12, n=6, self_weights=True)
    preset = generalized_ie(g, 6)
    assert preset.q == SIX_CLASS_PRESET_Q
    opt = generalized_ie(g, 6, mode="optimize", seed=0)
    assert class_ratio(6, opt.q) >= class_ratio(6, SIX_CLASS_PRESET_Q) - 1e-9
    with pytest.raises(ValidationError):
        generalized_ie(g, 4)  # preset exists for K=6 only
    with pytest.raises(ValidationError):
        generalized_ie(g, 6, mode="other")


def _edge_moment_matrix(K):
    """H with S2 = q^T H q: H_kl = a_max(k,l) p_min(k,l), a = p (1 - p)."""
    p = pricing_classes(K)
    k = np.arange(K)
    return (p * (1 - p))[np.maximum.outer(k, k)] * p[np.minimum.outer(k, k)]


@pytest.mark.parametrize("K", [2, 3, 7, 50])
def test_edge_moment_matrix_reproduces_class_moments(K):
    Q = np.random.default_rng(K).dirichlet(np.ones(K), size=20)
    H = _edge_moment_matrix(K)
    S2 = class_moments(Q, pricing_classes(K))[1]
    np.testing.assert_allclose(np.einsum("rk,kl,rl->r", Q, H, Q), S2,
                               rtol=1e-13)


def test_class_assignment_problem_is_concave():
    # S2 = q^T H q is strictly concave on the simplex's tangent space
    # {d : sum d = 0} for every K the optimizer takes, so the max-min of a
    # linear and a concave term has no local maximum but the global one
    for K in range(2, MAX_OPTIMIZE_CLASSES + 1):
        # the QR of [1, e_2, ..., e_K] has the all-ones direction first, so
        # its other K - 1 columns are an orthonormal basis of {sum d = 0}
        B = np.linalg.qr(np.column_stack([np.ones(K), np.eye(K)[:, 1:]]))[0][:, 1:]
        top = np.linalg.eigvalsh(B.T @ _edge_moment_matrix(K) @ B)[-1]
        assert top < 0, f"K={K}: largest tangent eigenvalue {top}"


@pytest.mark.parametrize("K, value", [(3, 9 / 13), (4, 100 / 143)])
def test_optimizer_reaches_exact_small_k_optima(K, value):
    q = optimize_class_assignment(K)
    assert np.all(q >= 0) and np.sum(q) == pytest.approx(1.0, abs=1e-15)
    assert class_ratio(K, q) == pytest.approx(value, rel=0, abs=1e-12)


def test_optimizer_beats_preset_certificate():
    q = optimize_class_assignment(6)
    assert class_ratio(6, q) >= 0.7033882347727867
    assert class_ratio(6, q) >= class_ratio(6, SIX_CLASS_PRESET_Q)


def test_optimizer_two_classes_finds_balance():
    q = optimize_class_assignment(2)
    assert class_ratio(2, q) == pytest.approx(2 / 3, rel=0, abs=1e-12)


def test_optimizer_rejects_k_above_limit_without_solving(monkeypatch, cycle4):
    def no_solve(*args, **kwargs):
        raise AssertionError("the limit must be checked before any solve")

    monkeypatch.setattr(netrev.strategies, "minimize", no_solve)
    message = r"class count K must be an integer in \[2, 200\]"
    for K in (MAX_OPTIMIZE_CLASSES + 1, 10 ** 9):
        with pytest.raises(ValidationError, match=message):
            optimize_class_assignment(K)
        with pytest.raises(ValidationError, match=message):
            generalized_ie(cycle4, K, mode="optimize")


def test_optimizer_output_does_not_depend_on_blas_threads():
    # unpinned, two BLAS threads moved q by up to 6.5e-7 at K = 200
    src = str(Path(netrev.strategies.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json\n"
            "from netrev import optimize_class_assignment\n"
            "print(json.dumps([optimize_class_assignment(K).tolist()"
            " for K in (3, 6, 16, 40, 200)]))")
    outputs = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
    ).stdout for threads in ("1", "2")]
    assert len(json.loads(outputs[0])) == 5
    assert outputs[0] == outputs[1]


def test_optimizer_accepts_k_at_limit():
    q = optimize_class_assignment(MAX_OPTIMIZE_CLASSES)
    assert q.shape == (MAX_OPTIMIZE_CLASSES,)
    assert class_ratio(MAX_OPTIMIZE_CLASSES, q) >= 0.70588


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_class_ratio_terms_match_moment_identity(K, seed):
    q = np.random.default_rng(seed).dirichlet(np.ones(K))
    t1, t2 = class_ratio_terms(K, q)
    assert 0.0 <= t1 <= 1.0 + 1e-9
    assert 0.0 <= t2 <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_rounding_guarantee_spot_checks(seed):
    """Expectation of the rounded strategy stays above the certified factor
    times the best-ordering revenue (undirected piecewise schedule)."""
    from netrev import best_ordering_exhaustive

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    g = generate("random", n, density=float(rng.uniform(0.3, 1.0)),
                 weight_range=(0.05, 1.5), self_weight_range=(0.0, 1.0),
                 seed=seed + 13)
    prices = rng.uniform(0.5, 1.0, size=n)
    base = best_ordering_exhaustive(g, prices).best_value
    assert rounding_expected_revenue(g, prices) >= 0.9111 * base - 1e-9
