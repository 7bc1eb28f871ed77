"""Command-line front door: reproducible experiments with JSON reports.

Every command reads/writes plain files, honors ``--seed`` (defaulting to
the NETREV_SEED environment variable, then 0), and prints one pretty,
key-sorted JSON document, so identical invocations are byte-identical
except for the ``wall_time_s`` field.  Exit codes: 0 success, 2 validation
error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .certificates import CERTIFICATE_KINDS, ratio_certificate
from .netmodel import (GADGET_KINDS, SocialNetwork, ValidationError, gadget,
                       generate, load_network, save_network)
from .oracle import (best_ie_exhaustive, best_ordering_exhaustive,
                     best_strategy_search, gadget_revenue_table, simulate)
from .revenue import (ie_revenue, revenue_bounds, strategy_family,
                      strategy_from_json)
from .sdprelax import sdp_ie
from .strategies import generalized_ie, ie_baseline, ie_bipartite, ie_tuned

_ORACLE_TABLE_LIMIT = 16


def _default_seed() -> str:
    """NETREV_SEED if an integer, else "0"; argparse checks it with _seed."""
    raw = os.environ.get("NETREV_SEED", "")
    try:
        return str(int(raw))
    except ValueError:
        return "0"


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _float_list(text: str) -> list[float]:
    """A comma-separated list of numbers, such as ``0.5,0.75``."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment: what ran, on which instance, and how well it did.

    ``ratio`` compares the revenue to the upper bound R* = (W + N)/4 and is
    capped at 1 against float noise; ``oracle`` carries a comparison value
    when an exact search ran alongside.
    """

    instance: dict
    family: str
    parameters: dict
    revenue: float
    upper_bound: float
    ratio: float
    seed: Optional[int]
    wall_time_s: float
    strategy: Optional[dict] = None
    oracle: Optional[dict] = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {"instance": self.instance, "family": self.family,
               "parameters": self.parameters, "revenue": self.revenue,
               "upper_bound": self.upper_bound, "ratio": self.ratio,
               "seed": self.seed, "wall_time_s": self.wall_time_s}
        if self.strategy is not None:
            doc["strategy"] = self.strategy
        if self.oracle is not None:
            doc["oracle"] = self.oracle
        doc.update(self.extra)
        return doc


def _instance_descriptor(g: SocialNetwork, path) -> dict:
    return {"path": str(path), "n": g.n, "directed": g.directed,
            "num_edges": g.num_edges, "W": g.W, "N": g.N}


def _ratio(revenue: float, upper: float) -> float:
    if upper <= 0.0:
        return 0.0
    return min(1.0, revenue / upper)


def _load_instance(path) -> SocialNetwork:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read network file {path}: {exc}")
    return load_network(text)


def _load_strategy(path):
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read strategy file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"strategy file {path} is not valid JSON: {exc}")
    return strategy_from_json(doc)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout if ``path`` is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _emit(doc: dict, output) -> None:
    _write_text(output, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    kwargs = {"weight": args.weight, "directed": args.directed,
              "density": args.density}
    for key in ("weight_range", "self_weight_range", "parts"):
        if getattr(args, key):
            kwargs[key] = tuple(getattr(args, key))
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.kind in GADGET_KINDS:
        g = gadget(args.kind, args.pricing_prob)
    else:
        g = generate(args.kind, args.n, **kwargs)
    _write_text(args.output, save_network(g))
    return 0


def _cmd_eval(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    strategy = _load_strategy(args.strategy)
    revenue = strategy.expected_revenue(g)
    upper = revenue_bounds(g).upper
    report = ExperimentReport(
        instance=_instance_descriptor(g, args.input),
        family=strategy_family(strategy),
        parameters={}, revenue=revenue, upper_bound=upper,
        ratio=_ratio(revenue, upper), seed=None,
        wall_time_s=time.perf_counter() - t0,
        strategy=strategy.to_json())
    _emit(report.to_json(), args.output)
    return 0


def _cmd_ie(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    upper = revenue_bounds(g).upper
    extra = {}
    if args.mode == "baseline":
        strategy = ie_baseline(g)
        revenue = ie_revenue(g, strategy)
        parameters = {"p": strategy.p}
    elif args.mode == "tuned":
        tuned = ie_tuned(g, seed=args.seed)
        strategy = tuned.strategy
        revenue = tuned.expected_revenue
        parameters = {"q": tuned.q, "p": tuned.p}
        extra = {"ratio_bound": tuned.ratio_bound,
                 "sampled_revenue": ie_revenue(g, strategy)}
    elif args.mode == "bipartite":
        strategy = ie_bipartite(g)
        revenue = ie_revenue(g, strategy)
        parameters = {"p": strategy.p}
    else:
        raise ValidationError(f"unknown ie mode {args.mode!r}")
    report = ExperimentReport(
        instance=_instance_descriptor(g, args.input), family="ie",
        parameters=parameters, revenue=revenue, upper_bound=upper,
        ratio=_ratio(revenue, upper), seed=args.seed,
        wall_time_s=time.perf_counter() - t0,
        strategy=strategy.to_json(), extra=extra)
    _emit(report.to_json(), args.output)
    return 0


def _cmd_gie(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    strategy = generalized_ie(g, args.K, mode=args.mode, seed=args.seed)
    revenue = strategy.expected_revenue(g)
    upper = revenue_bounds(g).upper
    report = ExperimentReport(
        instance=_instance_descriptor(g, args.input), family="generalized_ie",
        parameters={"K": strategy.K, "mode": args.mode},
        revenue=revenue, upper_bound=upper, ratio=_ratio(revenue, upper),
        seed=args.seed, wall_time_s=time.perf_counter() - t0,
        strategy=strategy.to_json())
    _emit(report.to_json(), args.output)
    return 0


def _cmd_sdp_ie(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    result = sdp_ie(g, p=args.pricing_prob, gamma=args.gamma,
                    trials=args.trials, seed=args.seed, rank=args.rank)
    upper = revenue_bounds(g).upper
    report = ExperimentReport(
        instance=_instance_descriptor(g, args.input), family="ie",
        parameters={"p": result.p, "gamma": result.gamma,
                    "trials": result.trials},
        revenue=result.revenue, upper_bound=upper,
        ratio=_ratio(result.revenue, upper), seed=args.seed,
        wall_time_s=time.perf_counter() - t0,
        strategy=result.strategy.to_json(),
        extra={"sdp_objective": result.sdp_objective,
               "converged": result.solution.converged,
               **result.solver_diagnostics()})
    _emit(report.to_json(), args.output)
    if not result.solution.converged:
        print("sdp solver did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    if args.mode == "best-ie":
        report = best_ie_exhaustive(g, p=args.pricing_prob)
    elif args.mode == "best-strategy":
        report = best_strategy_search(g, seed=args.seed)
    elif args.mode == "best-ordering":
        if args.prices is None:
            raise ValidationError("best-ordering needs --prices")
        report = best_ordering_exhaustive(g, args.prices)
    else:
        raise ValidationError(f"unknown oracle mode {args.mode!r}")
    doc = report.to_json()
    doc["instance"] = _instance_descriptor(g, args.input)
    doc["wall_time_s"] = time.perf_counter() - t0
    _emit(doc, args.output)
    return 0


def _cmd_gadget_table(args) -> int:
    t0 = time.perf_counter()
    table = gadget_revenue_table(args.kind, p=args.pricing_prob,
                                 seed=args.seed)
    doc = {"kind": args.kind,
           "entries": {key: rep.to_json() for key, rep in table.items()},
           "wall_time_s": time.perf_counter() - t0}
    _emit(doc, args.output)
    return 0


def _cmd_certify(args) -> int:
    t0 = time.perf_counter()
    params = {key: getattr(args, key)
              for key in ("p", "gamma", "lam", "K", "q", "schedule")
              if getattr(args, key) is not None}
    if args.directed:
        params["directed"] = True
    report = ratio_certificate(args.kind, grid_step=args.grid_step, **params)
    doc = report.to_json()
    doc["wall_time_s"] = time.perf_counter() - t0
    _emit(doc, args.output)
    return 0


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    g = _load_instance(args.input)
    strategy = _load_strategy(args.strategy)
    report = simulate(g, strategy, args.trials, seed=args.seed)
    closed = strategy.expected_revenue(g)
    doc = {"instance": _instance_descriptor(g, args.input),
           "family": strategy_family(strategy),
           "simulation": report.to_json(),
           "closed_form": closed,
           "z_score": ((report.mean - closed) / report.std_error
                       if report.std_error > 0 else None),
           "wall_time_s": time.perf_counter() - t0}
    _emit(doc, args.output)
    return 0


# -- table ------------------------------------------------------------------

def _table_row(task) -> dict:
    path, seed, trials = task
    g = _load_instance(path)
    upper = revenue_bounds(g).upper
    row = {"instance": Path(path).name, "n": g.n, "directed": g.directed,
           "W": g.W, "N": g.N, "upper_bound": upper}
    base = ie_baseline(g)
    row["baseline_ie"] = ie_revenue(g, base)
    row["baseline_ie_ratio"] = _ratio(row["baseline_ie"], upper)
    tuned = ie_tuned(g, seed=seed)
    row["tuned_ie"] = tuned.expected_revenue
    row["tuned_ie_ratio"] = _ratio(tuned.expected_revenue, upper)
    gie = generalized_ie(g, 6, mode="preset")
    row["generalized_ie"] = gie.expected_revenue(g)
    row["generalized_ie_ratio"] = _ratio(row["generalized_ie"], upper)
    result = sdp_ie(g, trials=trials, seed=seed)
    row["sdp_ie"] = result.revenue
    row["sdp_ie_ratio"] = _ratio(result.revenue, upper)
    row["sdp_converged"] = result.solution.converged
    row.update(result.solver_diagnostics())
    if g.n <= _ORACLE_TABLE_LIMIT:
        oracle = best_ie_exhaustive(g)
        row["oracle_best_ie"] = oracle.best_value
        row["oracle_best_ie_ratio"] = _ratio(oracle.best_value, upper)
        row["sdp_ie_vs_oracle"] = (result.revenue / oracle.best_value
                                   if oracle.best_value > 0 else 1.0)
    return row


_TABLE_COLUMNS = ("instance", "n", "directed", "W", "N", "upper_bound",
                  "baseline_ie", "baseline_ie_ratio", "tuned_ie",
                  "tuned_ie_ratio", "generalized_ie", "generalized_ie_ratio",
                  "sdp_ie", "sdp_ie_ratio", "sdp_converged",
                  "sdp_upper_bound", "sdp_certified_gap", "winning_start",
                  "starts_run", "blas_pinned",
                  "oracle_best_ie", "oracle_best_ie_ratio",
                  "sdp_ie_vs_oracle")


def _cmd_table(args) -> int:
    t0 = time.perf_counter()
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise ValidationError(f"corpus directory {corpus} does not exist")
    paths = sorted(str(p) for p in corpus.glob("*.txt"))
    if not paths:
        raise ValidationError(f"no *.txt instances under {corpus}")
    tasks = [(p, args.seed, args.trials) for p in paths]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_table_row, tasks))
    else:
        rows = [_table_row(t) for t in tasks]
    doc = {"corpus": str(corpus), "seed": args.seed, "trials": args.trials,
           "rows": rows, "wall_time_s": time.perf_counter() - t0}
    _emit(doc, args.output)
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_TABLE_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.csv, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrev",
        description="Revenue-maximizing marketing strategies on social networks")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _default_seed()

    def add_common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True,
                            help="network file (netmodel text format)")
        sp.add_argument("--output", help="write the JSON report here "
                                         "(default: stdout)")
        sp.add_argument("--seed", type=_seed, default=seed_default)

    sp = sub.add_parser("gen", help="generate a network file")
    sp.add_argument("--kind", required=True,
                    choices=("cycle", "path", "complete_dag", "bipartite",
                             "random") + GADGET_KINDS)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--weight", type=float, default=1.0)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--density", type=float, default=1.0)
    sp.add_argument("--weight-range", nargs=2, type=float, metavar=("LO", "HI"))
    sp.add_argument("--self-weight-range", nargs=2, type=float,
                    metavar=("LO", "HI"))
    sp.add_argument("--parts", nargs=2, type=int, metavar=("A", "B"))
    sp.add_argument("--pricing-prob", type=float,
                    help="pricing probability for the set_edge gadget")
    sp.add_argument("--seed", type=_seed, default=None)
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("eval", help="closed-form revenue of a strategy file")
    add_common(sp)
    sp.add_argument("--strategy", required=True, help="strategy JSON file")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("ie", help="influence-and-exploit strategies")
    add_common(sp)
    sp.add_argument("--mode", choices=("baseline", "tuned", "bipartite"),
                    default="tuned")
    sp.set_defaults(func=_cmd_ie)

    sp = sub.add_parser("gie", help="K-class generalized IE")
    add_common(sp)
    sp.add_argument("--K", type=int, default=6)
    sp.add_argument("--mode", choices=("preset", "optimize"), default="preset")
    sp.set_defaults(func=_cmd_gie)

    sp = sub.add_parser("sdp-ie", help="semidefinite relaxation + rounding")
    add_common(sp)
    sp.add_argument("--pricing-prob", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--rank", type=int, default=None)
    sp.set_defaults(func=_cmd_sdp_ie)

    sp = sub.add_parser("oracle", help="exhaustive / multistart ground truth")
    add_common(sp)
    sp.add_argument("--mode", choices=("best-ie", "best-strategy",
                                       "best-ordering"), default="best-ie")
    sp.add_argument("--pricing-prob", type=float, default=None,
                    help="fix the IE pricing probability (best-ie)")
    sp.add_argument("--prices", type=_float_list,
                    help="comma-separated prices (best-ordering)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gadget-table",
                        help="conditional revenue optima of a gadget")
    sp.add_argument("--kind", required=True, choices=GADGET_KINDS)
    sp.add_argument("--pricing-prob", type=float, default=None)
    sp.add_argument("--seed", type=_seed, default=seed_default)
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_gadget_table)

    sp = sub.add_parser("certify", help="certify a worst-case ratio bound")
    sp.add_argument("--kind", required=True, choices=CERTIFICATE_KINDS)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--q", type=_float_list,
                    help="comma-separated class assignment vector")
    sp.add_argument("--schedule", choices=("piecewise", "flat"))
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--grid-step", type=float, default=None,
                    help="scan step, in [1e-3, 0.1]; default 1e-2")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("simulate", help="Monte Carlo check of a strategy")
    add_common(sp)
    sp.add_argument("--strategy", required=True, help="strategy JSON file")
    sp.add_argument("--trials", type=int, default=10 ** 5)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("table", help="approximation table over a corpus")
    sp.add_argument("--corpus", required=True,
                    help="directory of *.txt network files")
    sp.add_argument("--output")
    sp.add_argument("--csv", help="also export the rows as CSV")
    sp.add_argument("--seed", type=_seed, default=seed_default)
    sp.add_argument("--trials", type=int, default=100,
                    help="rounding trials per sdp-ie run")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
