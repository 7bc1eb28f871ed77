"""Acceptance battery: seven pass/fail criteria for the whole package.

Each criterion is one test, so ``pytest -v`` prints exactly one PASS/FAIL
line per criterion; a ``[criterion N] PASS`` line is also printed for
``pytest -s`` style runs.  The criteria, with their tolerances and runtime
budgets:

1. Closed-form worked examples: the 4-cycle and the complete 4-node DAG
   reproduce their known optimal revenues (exact resp. within 5e-4).  < 1 s.
2. Gadget optima: multistart strategy search and the conditional revenue
   tables reproduce the known gadget values within 1e-4.  < 30 s.
3. Worst-case ratio certificates reproduce their known values within
   1e-3 at the default grid.  < 10 min.
4. On 50 seeded random instances (n <= 10, both directednesses) the
   relaxation objective dominates the exhaustive best influence set at the
   matching pricing (relative slack <= 1e-3), and 1000-trial rounding
   recovers >= 0.9x the best on at least 48/50.  < 10 min.
5. Monte Carlo simulation at 1e6 trials matches every strategy family's
   closed form within 3 standard errors on 20 seeded instances.  < 5 min.
6. Exact rounding expectation beats its guarantee (0.9111x undirected,
   0.55289x directed) against the best exploit ordering on 50 random
   instances each, with zero violations.
7. The end-to-end ``table`` pipeline over the shipped corpus/ shows an
   sdp-ie to upper-bound ratio >= 0.5011 on every directed and >= 0.8229
   on every undirected instance.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from netrev import (
    DIRECTED_SDP_PRICING,
    SIX_CLASS_PRESET_Q,
    UNDIRECTED_SDP_PRICING,
    GeneralizedIEStrategy,
    IEStrategy,
    MarketingStrategy,
    RandomIEStrategy,
    best_ie_exhaustive,
    best_ordering_exhaustive,
    best_strategy_search,
    build_sdp,
    gadget,
    gadget_revenue_table,
    generalized_ie_revenue,
    generate,
    ie_revenue,
    random_ie_revenue,
    ratio_certificate,
    rounding_expected_revenue,
    sdp_ie,
    simulate,
    solve_sdp,
    strategy_revenue,
)
from netrev.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def _closed_form(g, strategy):
    if isinstance(strategy, MarketingStrategy):
        return strategy_revenue(g, strategy)
    if isinstance(strategy, IEStrategy):
        return ie_revenue(g, strategy)
    if isinstance(strategy, RandomIEStrategy):
        return random_ie_revenue(g, strategy.q, strategy.p)
    return generalized_ie_revenue(g, strategy.K, strategy.q)


def test_criterion_1_closed_form_worked_examples():
    t0 = time.perf_counter()
    cycle = generate("cycle", 4)
    assert ie_revenue(cycle, IEStrategy(frozenset({1, 3}), 0.5)) == 1.0

    # best prices for the identity ordering of the 4-cycle
    prices = (1.0, np.sqrt(2) / 2, (1 + np.sqrt(2)) / 4, 0.5)
    value = strategy_revenue(cycle, MarketingStrategy((0, 1, 2, 3), prices))
    assert value == pytest.approx(0.7772, abs=5e-4)

    dag = generate("complete_dag", 4)
    pairs = [
        ((0, 1, 2, 3), (1.0, 0.7474, 0.5715, 0.5), 1.1964),
        ((0, 2, 1, 3), (1.0, 0.625, 0.625, 0.5), 1.03125),
        ((1, 0, 2, 3), (1.0, 1.0, 0.5625, 0.5), 1.1328),
    ]
    for order, p_vec, expected in pairs:
        value = strategy_revenue(dag, MarketingStrategy(order, p_vec))
        assert value == pytest.approx(expected, abs=5e-4)
    assert ie_revenue(dag, IEStrategy(frozenset({0, 1}), 0.5147)) == \
        pytest.approx(1.0634, abs=5e-4)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] PASS — worked examples reproduced ({elapsed:.2f}s)")


def test_criterion_2_gadget_optima():
    t0 = time.perf_counter()
    tri = gadget("extended_triangle")
    assert best_strategy_search(tri, seed=0).best_value == \
        pytest.approx(177 / 128, abs=1e-4)
    path = gadget("three_path")
    assert best_strategy_search(path, seed=0).best_value == \
        pytest.approx(0.75, abs=1e-4)

    table = gadget_revenue_table("extended_triangle", seed=0)
    assert table["0.5,0.5,1"].best_value == pytest.approx(21 / 16, abs=1e-4)
    table = gadget_revenue_table("three_path", seed=0)
    assert table["1,1"].best_value == pytest.approx(41 / 64, abs=1e-4)
    for p in (0.5, 0.75):
        table = gadget_revenue_table("set_edge", p=p)
        assert table["best"].best_value == \
            pytest.approx(p * (1 - p) * (2 + p), abs=1e-4)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 2] PASS — gadget optima reproduced ({elapsed:.2f}s)")


def test_criterion_3_ratio_certificates():
    t0 = time.perf_counter()
    checks = [
        ("random_ie", dict(lam=0.0), "approx", 0.686),
        ("random_ie", dict(lam=0.0, directed=True), "approx", 0.343),
        ("rounding_undirected", dict(schedule="flat"), "approx", 0.8024),
        ("rounding_undirected", dict(schedule="piecewise"), "approx", 0.9111),
        ("rounding_directed", {}, "approx", 0.55289),
        ("class_ie", dict(K=6, q=SIX_CLASS_PRESET_Q), "at_least", 0.7032),
        ("class_ie", dict(K=6, q=SIX_CLASS_PRESET_Q, directed=True),
         "at_least", 0.3516),
        ("sdp_self", dict(gamma=0.0), "approx", 0.87856),
        ("sdp_self", dict(gamma=0.209), "at_least", 0.9035),
        ("sdp_undirected", dict(p=0.586, gamma=0.209), "at_least", 0.9032),
        ("sdp_directed", dict(p=2 / 3, gamma=0.722), "at_least", 0.9064),
        ("sdp_directed", dict(p=0.5, gamma=0.653), "approx", 0.8942),
        ("sdp_undirected", dict(p=0.5, gamma=0.176), "approx", 0.899),
    ]
    for kind, params, mode, target in checks:
        rep = ratio_certificate(kind, **params)
        if mode == "approx":
            assert rep.value == pytest.approx(target, abs=1e-3), (kind, params)
        else:
            assert rep.value >= target - 1e-3, (kind, params)

    # the directed rounding minimum sits at the closed-form pair price
    rep = ratio_certificate("rounding_directed")
    assert rep.argopt["y"] == pytest.approx((3 - np.sqrt(3)) / 2, abs=1e-3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 3] PASS — certificates within 1e-3 ({elapsed:.1f}s)")


def test_criterion_4_sdp_dominates_exhaustive_ie():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    quality_hits = 0
    for k in range(50):
        directed = bool(k % 2)
        n = int(rng.integers(4, 11))
        g = generate(
            "random", n, directed=directed,
            density=float(rng.uniform(0.3, 0.9)), weight_range=(0.1, 1.0),
            self_weight_range=None if directed else (0.0, 0.5),
            seed=1000 + k)
        p = DIRECTED_SDP_PRICING if directed else UNDIRECTED_SDP_PRICING
        oracle = best_ie_exhaustive(g, p=p)
        sol = solve_sdp(build_sdp(g, p), seed=k)
        slack = ((sol.objective_value - oracle.best_value)
                 / max(oracle.best_value, 1e-12))
        assert slack >= -1e-3, f"instance {k}: relaxation below best IE"
        result = sdp_ie(g, trials=1000, seed=k)
        if result.revenue >= 0.9 * oracle.best_value:
            quality_hits += 1
    assert quality_hits >= 48

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[criterion 4] PASS — dominance 50/50, rounding quality "
          f"{quality_hits}/50 ({elapsed:.1f}s)")


def test_criterion_5_simulation_consistency():
    t0 = time.perf_counter()
    trials = 10 ** 6
    for k in range(20):
        rng = np.random.default_rng(5000 + k)
        n = int(rng.integers(4, 9))
        g = generate(
            "random", n, directed=False,
            density=float(rng.uniform(0.4, 0.9)), weight_range=(0.1, 1.0),
            self_weight_range=(0.2, 1.0), seed=6000 + k)
        order = tuple(int(i) for i in rng.permutation(n))
        prices = tuple(float(x) for x in rng.uniform(0.5, 1.0, size=n))
        members = frozenset(int(i) for i in
                            np.nonzero(rng.random(n) < 0.4)[0])
        K = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(K))
        strategies = [
            MarketingStrategy(order, prices),
            IEStrategy(members, float(rng.uniform(0.5, 0.95))),
            RandomIEStrategy(float(rng.uniform(0.1, 0.9)),
                             float(rng.uniform(0.5, 0.95))),
            GeneralizedIEStrategy(K, tuple(q)),
        ]
        for fam_idx, strategy in enumerate(strategies):
            rep = simulate(g, strategy, trials, seed=9500 + 10 * k + fam_idx)
            closed = _closed_form(g, strategy)
            assert abs(rep.mean - closed) <= 3.0 * rep.std_error, \
                f"instance {k}, {type(strategy).__name__}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"[criterion 5] PASS — 80 simulations within 3 standard errors "
          f"({elapsed:.1f}s)")


def test_criterion_6_rounding_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for k in range(50):
        n = int(rng.integers(4, 13))
        g = generate(
            "random", n, directed=False,
            density=float(rng.uniform(0.3, 0.9)), weight_range=(0.1, 1.0),
            self_weight_range=(0.0, 0.5), seed=2000 + k)
        prices = rng.uniform(0.5, 1.0, size=n)
        base = best_ordering_exhaustive(g, prices).best_value
        expectation = rounding_expected_revenue(g, prices)
        assert expectation >= 0.9111 * base - 1e-12, f"undirected {k}"
    for k in range(50):
        n = int(rng.integers(3, 9))
        g = generate(
            "random", n, directed=True,
            density=float(rng.uniform(0.3, 0.9)), weight_range=(0.1, 1.0),
            seed=3000 + k)
        prices = rng.uniform(0.5, 1.0, size=n)
        base = best_ordering_exhaustive(g, prices).best_value
        expectation = rounding_expected_revenue(g, prices)
        assert expectation >= 0.55289 * base - 1e-12, f"directed {k}"

    elapsed = time.perf_counter() - t0
    print(f"[criterion 6] PASS — zero rounding-guarantee violations "
          f"({elapsed:.1f}s)")


def test_criterion_7_corpus_table_ratios(tmp_path, capsys):
    t0 = time.perf_counter()
    assert CORPUS.is_dir(), "shipped corpus directory is missing"
    out = tmp_path / "table.json"
    rc = main(["table", "--corpus", str(CORPUS), "--output", str(out),
               "--seed", "0"])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 11
    for row in rows:
        floor = 0.5011 if row["directed"] else 0.8229
        assert row["sdp_ie_ratio"] >= floor, \
            f"{row['instance']}: sdp-ie ratio {row['sdp_ie_ratio']:.4f}"

    elapsed = time.perf_counter() - t0
    print(f"[criterion 7] PASS — corpus ratios above guarantees "
          f"({elapsed:.1f}s)")
