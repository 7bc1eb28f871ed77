"""The four benchmark workloads.

Each workload has a ``setup`` that builds its inputs from the workload seed
(network generation, file I/O and the warm-up calls) and a ``run_pass`` that
performs the timed work and checks its outputs.  Every call into netrev goes
through ``Recorder.call`` so that a traced run can attribute time to the
module that owns it; the span name is ``<module>.<what>``.

Sizes are fixed per workload; the seed draws only the networks and strategy
parameters.  ``SIZES[name]["smoke"]`` is a seconds-long version of each
workload that the benchmark's own tests run.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np

import netrev as nr
from netrev.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"

DEGREE = 4.0            # expected edges per node of the random networks
ROUNDING_TRIALS = 100   # hyperplanes drawn per sdp_ie call
Z_LIMIT = 4.0           # |simulated mean - closed form| <= 4 standard errors
ROUNDING_SAMPLES = 1000  # sampled roundings behind the round_to_ie check
RELAX_SLACK = 1e-3      # relaxation may undershoot the exhaustive IE by this share

# Tier-1 criterion-3 values of the seven certificate kinds at the paper's
# parameters; each certificate must land within 1e-3 of its value.
CERTIFICATES = (
    ("sdp_directed", dict(p=2 / 3, gamma=0.722), 0.9064),
    ("sdp_undirected", dict(p=0.586, gamma=0.209), 0.9032),
    ("sdp_self", dict(gamma=0.209), 0.9035),
    ("rounding_undirected", dict(schedule="piecewise"), 0.9111),
    ("rounding_directed", {}, 0.55289),
    ("random_ie", dict(lam=0.0), 0.686),
    ("class_ie", dict(K=6, q=nr.SIX_CLASS_PRESET_Q), 0.7032),
)
# Guaranteed floors of sdp-ie revenue / R* on the shipped corpus (criterion 7).
TABLE_FLOOR = {True: 0.5011, False: 0.8229}

SIZES = {
    "sdp-scale": {
        "full": {"undirected": (50, 50, 50, 50, 50, 50, 100, 100)},
        "smoke": {"undirected": (8, 10)},
    },
    "small-table": {
        "full": {"instances": 30, "n": (6, 16)},
        "smoke": {"instances": 2, "n": (5, 6)},
    },
    "crosscheck": {
        "full": {"sim_n": 12, "sim_trials": 200_000, "oracle_n": 20,
                 "grid_step": 1e-2},
        "smoke": {"sim_n": 5, "sim_trials": 20_000, "oracle_n": 8,
                  "grid_step": 5e-2},
    },
    "large-sparse": {
        "full": {"n": 2000, "rows": 2000, "sim_trials": 120},
        "smoke": {"n": 60, "rows": 50, "sim_trials": 200},
    },
}


class Seeds:
    """Child seeds drawn in a fixed order from the workload seed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def __call__(self) -> int:
        return int(self.rng.integers(2 ** 31))


def random_network(rec, n: int, directed: bool, seed: int,
                   self_weights: bool = False):
    return rec.call("netmodel.generate", nr.generate, "random", n,
                    directed=directed, density=min(1.0, DEGREE / (n - 1)),
                    weight_range=(0.1, 1.0),
                    self_weight_range=(0.1, 0.5) if self_weights else None,
                    seed=seed)


def warm_up() -> None:
    """One untimed call into each module, so that lazy imports and first-call
    costs land in set-up instead of the first timed pass."""
    g = nr.generate("cycle", 6)
    nr.load_network(nr.save_network(g))
    nr.network_from_json(json.loads(json.dumps(g.to_json())))
    nr.ie_revenue_batch(g, np.ones((2, 6), dtype=bool), 0.6)
    nr.revenue_bounds(g)
    nr.ie_tuned(g)
    nr.round_to_ie(g, [0.6] * 6)
    nr.rounding_expected_revenue(g, [0.6] * 6)
    nr.generalized_ie(g, 6)
    nr.sdp_ie(g, trials=4)
    nr.best_ie_exhaustive(g)
    nr.simulate(g, nr.IEStrategy(frozenset({0}), 0.6), 100)
    nr.ratio_certificate("class_ie")
    cli_main(["certify", "--kind", "class_ie",
              "--output", str(OUT_DIR / "warmup.json")])


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def upper_bound(rec, g) -> float:
    return rec.call("revenue.closed_form", nr.revenue_bounds, g).upper


def sdp_step(rec, op, g, seed: int, upper: float):
    """sdp_ie with its solver diagnostics; a traced pass also repeats
    build_sdp and solve_sdp at the same seed so that rounding and evaluation
    time is sdp_ie minus the two."""
    res = rec.call("sdprelax.sdp_ie", nr.sdp_ie, g,
                   trials=ROUNDING_TRIALS, seed=seed)
    if rec.current.traced:
        with rec.span("bench.decompose"):
            prob = rec.call("sdprelax.build_sdp", nr.build_sdp, g, res.p)
            rec.call("sdprelax.solve_sdp", nr.solve_sdp, prob, seed=seed)
    sol = res.solution
    rec.add("sdp.solves", 1)
    rec.add("sdp.converged", float(sol.converged))
    rec.add("sdp.iterations", sol.iterations)
    rec.sample("sdp.violation", sol.max_violation)
    rec.sample("sdp.objective_rel_upper", res.sdp_objective / upper)
    rec.sample("sdp.ratio", res.revenue / upper)
    op.check(sol.converged, "relaxation solver did not converge")
    op.check(res.revenue <= upper + 1e-9,
             f"sdp-ie revenue {res.revenue} above R* {upper}")
    return res


def oracle_step(rec, op, g, res) -> float:
    """Exhaustive best IE (free p, and at the sdp pricing) against sdp-ie;
    returns sdp-ie revenue over the exhaustive best."""
    best = rec.call("oracle.best_ie_exhaustive", nr.best_ie_exhaustive, g)
    at_p = rec.call("oracle.best_ie_exhaustive", nr.best_ie_exhaustive, g,
                    p=res.p)
    rec.add("oracle.sets", best.search_space_size + at_p.search_space_size)
    op.check(res.revenue <= best.best_value + 1e-9,
             f"sdp-ie revenue {res.revenue} above the exhaustive optimum "
             f"{best.best_value}")
    slack = (res.sdp_objective - at_p.best_value) / max(at_p.best_value, 1e-12)
    op.check(slack >= -RELAX_SLACK,
             f"relaxation {res.sdp_objective} below exhaustive IE "
             f"{at_p.best_value} at p={res.p}")
    ratio = res.revenue / best.best_value if best.best_value > 0 else 1.0
    rec.sample("oracle.sdp_vs_oracle", ratio)
    return ratio


def closed_form(g, strategy) -> float:
    if isinstance(strategy, nr.MarketingStrategy):
        return nr.strategy_revenue(g, strategy)
    if isinstance(strategy, nr.IEStrategy):
        return nr.ie_revenue(g, strategy)
    if isinstance(strategy, nr.RandomIEStrategy):
        return nr.random_ie_revenue(g, strategy.q, strategy.p)
    return nr.generalized_ie_revenue(g, strategy.K, strategy.q)


def simulate_step(rec, op, g, strategy, trials: int, seed: int) -> None:
    """Monte Carlo against the closed form.

    On a network with positive self-weights the two must agree within
    ``Z_LIMIT`` standard errors.  On a directed network, which has zero
    self-weights, the distance is only recorded: ``simulate`` lets a buyer
    offered the good at M = 0 take it with probability 1 while the closed
    forms count ownership with probability p, so the two disagree by many
    standard errors.  The recorded distance shows that disagreement and
    drops to a few standard errors once it is resolved.
    """
    rep = rec.call("oracle.simulate", nr.simulate, g, strategy, trials, seed=seed)
    exact = rec.call("revenue.closed_form", closed_form, g, strategy)
    rec.add("oracle.offers", trials * g.n)
    z = abs(rep.mean - exact) / rep.std_error if rep.std_error > 0 \
        else (0.0 if rep.mean == exact else np.inf)
    if g.directed:
        rec.sample("oracle.z_directed", z)
        return
    rec.sample("oracle.z", z)
    op.check(z <= Z_LIMIT, f"simulated mean {rep.mean} is {z:.2f} standard "
                           f"errors from the closed form {exact}")


# ---------------------------------------------------------------------------
# sdp-scale: the relaxation solver at n in the tens to a hundred
# ---------------------------------------------------------------------------

def setup_sdp_scale(rec, seed: int, size: dict) -> dict:
    seeds = Seeds(seed)
    nets = [random_network(rec, n, False, seeds()) for n in size["undirected"]]
    warm_up()
    return {"nets": nets, "solver_seeds": [seeds() for _ in nets]}


def pass_sdp_scale(rec, inputs: dict) -> None:
    for k, (g, s) in enumerate(zip(inputs["nets"], inputs["solver_seeds"])):
        with rec.operation(f"sdp_ie #{k} n={g.n}") as op:
            upper = upper_bound(rec, g)
            res = sdp_step(rec, op, g, s, upper)
            rec.sample("quality", res.revenue / upper)


# ---------------------------------------------------------------------------
# small-table: the table row pipeline on many small instances, then the CLI
# ---------------------------------------------------------------------------

def setup_small_table(rec, seed: int, size: dict) -> dict:
    seeds = Seeds(seed)
    lo, hi = size["n"]
    nets = []
    for k in range(size["instances"]):
        n = lo + k % (hi - lo + 1)
        directed = k % 3 == 2
        nets.append(random_network(rec, n, directed, seeds(),
                                   self_weights=k % 3 == 1))
    corpus = ROOT / "corpus"
    if not any(corpus.glob("*.txt")):
        raise FileNotFoundError(f"no corpus instances under {corpus}")
    warm_up()
    return {"nets": nets, "solver_seeds": [seeds() for _ in nets],
            "corpus": corpus, "table_seed": seeds(),
            "table_out": OUT_DIR / "small-table.json"}


def pass_small_table(rec, inputs: dict) -> None:
    for k, (g, s) in enumerate(zip(inputs["nets"], inputs["solver_seeds"])):
        with rec.operation(f"table row #{k} n={g.n} directed={g.directed}") as op:
            upper = upper_bound(rec, g)
            base = rec.call("strategies.ie_baseline", nr.ie_baseline, g)
            rec.call("revenue.closed_form", nr.ie_revenue, g, base)
            rec.call("strategies.ie_tuned", nr.ie_tuned, g, seed=s)
            gie = rec.call("strategies.generalized_ie", nr.generalized_ie, g, 6)
            rec.call("revenue.closed_form", nr.generalized_ie_revenue, g,
                     gie.K, gie.q)
            res = sdp_step(rec, op, g, s, upper)
            oracle_step(rec, op, g, res)
            rec.sample("quality", res.revenue / upper)
    with rec.operation("netrev table --corpus corpus") as op:
        out = inputs["table_out"]
        code = rec.call("cli.table", cli_main,
                        ["table", "--corpus", str(inputs["corpus"]),
                         "--output", str(out),
                         "--seed", str(inputs["table_seed"])])
        op.check(code == 0, f"netrev table exited {code}")
        rows = json.loads(out.read_text())["rows"]
        rec.add("cli.rows", len(rows))
        for row in rows:
            op.check(row["sdp_converged"],
                     f"{row['instance']}: relaxation solver did not converge")
            floor = TABLE_FLOOR[row["directed"]]
            op.check(row["sdp_ie_ratio"] >= floor,
                     f"{row['instance']}: sdp-ie/R* {row['sdp_ie_ratio']:.4f} "
                     f"below {floor}")
            if "sdp_ie_vs_oracle" in row:
                rec.sample("oracle.sdp_vs_oracle", row["sdp_ie_vs_oracle"])


# ---------------------------------------------------------------------------
# crosscheck: Monte Carlo against closed forms, oracle against sdp-ie, and
# the ratio certificates
# ---------------------------------------------------------------------------

def setup_crosscheck(rec, seed: int, size: dict) -> dict:
    seeds = Seeds(seed)
    n = size["sim_n"]
    g = random_network(rec, n, False, seeds(), self_weights=True)
    rng = np.random.default_rng(seeds())
    K = int(rng.integers(2, 7))
    sims = [
        (g, nr.MarketingStrategy(tuple(int(i) for i in rng.permutation(n)),
                                 tuple(float(x) for x in rng.uniform(0.5, 1.0, n)))),
        (g, nr.IEStrategy(frozenset(int(i) for i in np.nonzero(rng.random(n) < 0.4)[0]),
                          float(rng.uniform(0.5, 0.95)))),
        (g, nr.RandomIEStrategy(float(rng.uniform(0.1, 0.9)),
                                float(rng.uniform(0.5, 0.95)))),
        (g, nr.GeneralizedIEStrategy(K, tuple(rng.dirichlet(np.ones(K))))),
    ]
    directed = random_network(rec, n, True, seeds())
    sims.append((directed, nr.IEStrategy(
        frozenset(int(i) for i in np.nonzero(rng.random(n) < 0.4)[0]),
        float(rng.uniform(0.5, 0.95)))))
    oracle_net = random_network(rec, size["oracle_n"], False, seeds())
    warm_up()
    return {"sims": sims, "sim_seeds": [seeds() for _ in sims],
            "sim_trials": size["sim_trials"], "oracle_net": oracle_net,
            "solver_seed": seeds(), "grid_step": size["grid_step"]}


def pass_crosscheck(rec, inputs: dict) -> None:
    for (g, strategy), s in zip(inputs["sims"], inputs["sim_seeds"]):
        with rec.operation(f"simulate {type(strategy).__name__} "
                           f"directed={g.directed}") as op:
            simulate_step(rec, op, g, strategy, inputs["sim_trials"], s)
    g = inputs["oracle_net"]
    with rec.operation(f"oracle vs sdp_ie n={g.n}") as op:
        upper = upper_bound(rec, g)
        res = sdp_step(rec, op, g, inputs["solver_seed"], upper)
        rec.sample("quality", oracle_step(rec, op, g, res))
    for kind, params, target in CERTIFICATES:
        with rec.operation(f"ratio_certificate {kind}") as op:
            step = inputs["grid_step"] if kind.startswith("sdp_") else None
            rep = rec.call(f"certificates.{kind}", nr.ratio_certificate, kind,
                           grid_step=step, **params)
            rec.sample(f"certificates.{kind}", rep.value)
            op.check(abs(rep.value - target) <= 1e-3,
                     f"value {rep.value} not within 1e-3 of {target}")


# ---------------------------------------------------------------------------
# large-sparse: construction, I/O, batched revenue and simulation at n~2000
# ---------------------------------------------------------------------------

def setup_large_sparse(rec, seed: int, size: dict) -> dict:
    seeds = Seeds(seed)
    n = size["n"]
    nets = [random_network(rec, n, False, seeds(), self_weights=True),
            random_network(rec, n, True, seeds())]
    rng = np.random.default_rng(seeds())
    warm_up()
    return {"nets": nets,
            "members": [rng.random((size["rows"], n)) < 0.3 for _ in nets],
            "prices": [rng.uniform(0.5, 1.0, n) for _ in nets],
            "seeds": [seeds() for _ in nets], "sim_trials": size["sim_trials"],
            "text_path": OUT_DIR / "large-sparse.txt",
            "json_path": OUT_DIR / "large-sparse.json"}


def _text_roundtrip(rec, g, path: Path):
    path.write_text(rec.call("netmodel.save_network", nr.save_network, g))
    return rec.call("netmodel.load_network", nr.load_network, path.read_text())


def _json_roundtrip(g, path: Path):
    path.write_text(json.dumps(g.to_json()))
    return nr.network_from_json(json.loads(path.read_text()))


def pass_large_sparse(rec, inputs: dict) -> None:
    for g, members, prices, s in zip(inputs["nets"], inputs["members"],
                                     inputs["prices"], inputs["seeds"]):
        label = f"n={g.n} directed={g.directed}"
        with rec.operation(f"text and JSON round trips {label}") as op:
            op.check(_text_roundtrip(rec, g, inputs["text_path"]) == g,
                     "text round trip changed the network")
            back = rec.call("netmodel.json_roundtrip", _json_roundtrip, g,
                            inputs["json_path"])
            op.check(back == g, "JSON round trip changed the network")
        with rec.operation(f"revenue and strategies {label}") as op:
            upper = upper_bound(rec, g)
            p = 0.6
            batch = rec.call("revenue.ie_revenue_batch", nr.ie_revenue_batch,
                             g, members, p)
            rec.add("revenue.rows", members.shape[0])
            first = nr.IEStrategy(frozenset(int(i) for i in np.nonzero(members[0])[0]), p)
            single = rec.call("revenue.closed_form", nr.ie_revenue, g, first)
            op.check(abs(batch[0] - single) <= 1e-9 * max(1.0, abs(single)),
                     f"batched revenue {batch[0]} differs from ie_revenue {single}")
            rec.call("revenue.closed_form", nr.random_ie_revenue, g, 0.3, p)
            rec.call("revenue.closed_form", nr.generalized_ie_revenue, g, 6,
                     nr.SIX_CLASS_PRESET_Q)
            tuned = rec.call("strategies.ie_tuned", nr.ie_tuned, g, seed=s)
            floor = 0.3431 if g.directed else 0.6862
            op.check(tuned.ratio_bound >= floor,
                     f"tuned IE earns {tuned.ratio_bound} of R*, below {floor}")
            rec.sample("quality", tuned.expected_revenue / upper)
            rounded = rec.call("strategies.round_to_ie", nr.round_to_ie, g,
                               prices, seed=s)
            expect = rec.call("strategies.rounding_expected_revenue",
                              nr.rounding_expected_revenue, g, prices)
            rounding_check(rec, op, g, rounded, expect, s)
        with rec.operation(f"simulate tuned IE {label}") as op:
            simulate_step(rec, op, g, tuned.strategy, inputs["sim_trials"], s)


def rounding_check(rec, op, g, rounded, expect: float, seed: int) -> None:
    """``rounding_expected_revenue``, the exact expectation over roundings,
    against the mean revenue of ``ROUNDING_SAMPLES`` influence sets drawn
    with ``round_to_ie``'s probabilities and priced at its p_hat."""
    rng = np.random.default_rng(seed)
    members = rng.random((ROUNDING_SAMPLES, g.n)) < np.asarray(
        rounded.influence_probabilities)
    revenues = rec.call("revenue.ie_revenue_batch", nr.ie_revenue_batch, g,
                        members, rounded.strategy.p)
    rec.add("revenue.rows", ROUNDING_SAMPLES)
    std_error = float(np.std(revenues, ddof=1)) / np.sqrt(ROUNDING_SAMPLES)
    gap = abs(float(np.mean(revenues)) - expect)
    op.check(gap <= Z_LIMIT * std_error + 1e-9 * max(1.0, expect),
             f"sampled roundings earn {np.mean(revenues)}, "
             f"{gap / max(std_error, 1e-300):.2f} standard errors from "
             f"rounding_expected_revenue {expect}")


# ---------------------------------------------------------------------------
# Reference computations: each pass is timed in units of one of these
# ---------------------------------------------------------------------------

def solver_reference() -> float:
    """Seconds of small matrix products and a Python loop, the mix the
    solver-bound passes spend their time on (about 15 to 25 ms)."""
    rng = np.random.default_rng(0)
    A, v = rng.random((51, 51)), rng.random((51, 8))
    t0 = time.perf_counter()
    for _ in range(1500):
        w = A @ v
        v = w / np.linalg.norm(w, axis=1, keepdims=True)
    x = 0
    for i in range(60000):
        x += i * i
    return time.perf_counter() - t0


@functools.cache
def _array_reference_inputs():
    rng = np.random.default_rng(0)
    return (rng.random((1024, 1024)), rng.random((64, 1024)),
            rng.integers(0, 1024, (48, 64)))


def array_reference() -> float:
    """Seconds of column gathers from an 8 MB matrix, each reduced against a
    row block: the memory-bound step of ``simulate`` at large n (about 15 to
    25 ms)."""
    W, X, cols = _array_reference_inputs()
    t0 = time.perf_counter()
    for c in cols:
        np.einsum("mj,jm->m", X, W[:, c])
    return time.perf_counter() - t0


REFERENCES = {
    "sdp-scale": solver_reference,
    "small-table": solver_reference,
    "crosscheck": solver_reference,
    "large-sparse": array_reference,
}

WORKLOADS = {
    "sdp-scale": (setup_sdp_scale, pass_sdp_scale),
    "small-table": (setup_small_table, pass_small_table),
    "crosscheck": (setup_crosscheck, pass_crosscheck),
    "large-sparse": (setup_large_sparse, pass_large_sparse),
}
