"""Command-line front door: reproducible experiments with JSON reports.

Every command reads/writes plain files and honors ``--seed`` (defaulting
to the NETREV_SEED environment variable, then 0).  ``gen`` writes network
text; every other command writes one pretty, key-sorted JSON report, and
:func:`main` alone stamps its ``wall_time_s``, the only field in which
identical invocations differ.  Exit codes: 0 success, 2 validation error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .certificates import CERTIFICATE_KINDS, ratio_certificate
from .netmodel import (GADGET_KINDS, SocialNetwork, ValidationError, gadget,
                       generate, load_network, save_network)
from .oracle import (best_ie_exhaustive, best_ordering_exhaustive,
                     best_strategy_search, gadget_revenue_table, simulate)
from .revenue import (RandomIEStrategy, revenue_bounds, strategy_family,
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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
# Each _cmd_* returns (report, exit code); the report is None for gen.

def _strategy_report(g: SocialNetwork, path, strategy, revenue: float,
                     parameters: dict, seed: Optional[int], **extra) -> dict:
    """Report on one strategy: its family, parameters and revenue against
    the upper bound R* = (W + N)/4 (``ratio``, capped at 1 against float
    noise), plus any command-specific ``extra`` fields."""
    upper = revenue_bounds(g).upper
    return {"instance": _instance_descriptor(g, path),
            "family": strategy_family(strategy), "parameters": parameters,
            "revenue": revenue, "upper_bound": upper,
            "ratio": _ratio(revenue, upper), "seed": seed,
            "strategy": strategy.to_json(), **extra}


def _cmd_gen(args):
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
    return None, 0


def _cmd_eval(args):
    g = _load_instance(args.input)
    strategy = _load_strategy(args.strategy)
    return _strategy_report(g, args.input, strategy,
                            strategy.expected_revenue(g), {}, None), 0


def _cmd_ie(args):
    g = _load_instance(args.input)
    extra = {}
    if args.mode == "tuned":
        tuned = ie_tuned(g, seed=args.seed)
        strategy = tuned.strategy
        revenue = tuned.expected_revenue
        parameters = {"q": tuned.q, "p": tuned.p}
        extra = {"ratio_bound": tuned.ratio_bound,
                 "sampled_revenue": strategy.expected_revenue(g)}
    else:
        strategy = (ie_baseline if args.mode == "baseline" else ie_bipartite)(g)
        revenue = strategy.expected_revenue(g)
        parameters = {"p": strategy.p}
    return _strategy_report(g, args.input, strategy, revenue, parameters,
                            args.seed, **extra), 0


def _cmd_gie(args):
    g = _load_instance(args.input)
    strategy = generalized_ie(g, args.K, mode=args.mode, seed=args.seed)
    return _strategy_report(g, args.input, strategy,
                            strategy.expected_revenue(g),
                            {"K": strategy.K, "mode": args.mode}, args.seed), 0


def _cmd_sdp_ie(args):
    g = _load_instance(args.input)
    result = sdp_ie(g, p=args.pricing_prob, gamma=args.gamma,
                    trials=args.trials, seed=args.seed, rank=args.rank)
    report = _strategy_report(
        g, args.input, result.strategy, result.revenue,
        {"p": result.p, "gamma": result.gamma, "trials": result.trials},
        args.seed, sdp_objective=result.sdp_objective,
        converged=result.solution.converged, **result.solver_diagnostics())
    if not result.solution.converged:
        print("sdp solver did not converge", file=sys.stderr)
        return report, 3
    return report, 0


def _cmd_oracle(args):
    g = _load_instance(args.input)
    if args.mode == "best-ie":
        report = best_ie_exhaustive(g, p=args.pricing_prob)
    elif args.mode == "best-strategy":
        report = best_strategy_search(g, seed=args.seed)
    else:
        if args.prices is None:
            raise ValidationError("best-ordering needs --prices")
        report = best_ordering_exhaustive(g, args.prices)
    doc = report.to_json()
    doc["instance"] = _instance_descriptor(g, args.input)
    return doc, 0


def _cmd_gadget_table(args):
    table = gadget_revenue_table(args.kind, p=args.pricing_prob,
                                 seed=args.seed)
    return {"kind": args.kind,
            "entries": {key: rep.to_json() for key, rep in table.items()}}, 0


def _cmd_certify(args):
    params = {key: getattr(args, key)
              for key in ("p", "gamma", "lam", "K", "q", "schedule")
              if getattr(args, key) is not None}
    if args.directed:
        params["directed"] = True
    return ratio_certificate(args.kind, grid_step=args.grid_step,
                             **params).to_json(), 0


def _cmd_simulate(args):
    g = _load_instance(args.input)
    strategy = _load_strategy(args.strategy)
    report = simulate(g, strategy, args.trials, seed=args.seed)
    closed = strategy.expected_revenue(g)
    return {"instance": _instance_descriptor(g, args.input),
            "family": strategy_family(strategy),
            "simulation": report.to_json(),
            "closed_form": closed,
            "z_score": ((report.mean - closed) / report.std_error
                        if report.std_error > 0 else None)}, 0


# -- table ------------------------------------------------------------------

def _table_row(path, seed: int, trials: int) -> dict:
    g = _load_instance(path)
    upper = revenue_bounds(g).upper
    row = {"instance": Path(path).name, "n": g.n, "directed": g.directed,
           "W": g.W, "N": g.N, "upper_bound": upper}
    tuned = ie_tuned(g, seed=seed)
    for key, strategy in (("baseline_ie", ie_baseline(g)),
                          ("tuned_ie", RandomIEStrategy(tuned.q, tuned.p)),
                          ("generalized_ie", generalized_ie(g, 6))):
        row[key] = strategy.expected_revenue(g)
        row[f"{key}_ratio"] = _ratio(row[key], upper)
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


def _cmd_table(args):
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise ValidationError(f"corpus directory {corpus} does not exist")
    paths = sorted(str(p) for p in corpus.glob("*.txt"))
    if not paths:
        raise ValidationError(f"no *.txt instances under {corpus}")
    rows = [_table_row(p, args.seed, args.trials) for p in paths]
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_TABLE_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.csv, buf.getvalue())
    return {"corpus": str(corpus), "seed": args.seed, "trials": args.trials,
            "rows": rows}, 0


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
    sp.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        # an overflow surfaces once, as the non-finite report refused below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report, code = args.func(args)
        if report is not None:
            report["wall_time_s"] = time.perf_counter() - t0
            try:
                text = json.dumps(report, indent=2, sort_keys=True,
                                  allow_nan=False)
            except ValueError:
                raise ValidationError("report holds a non-finite value "
                                      "(NaN or Infinity)") from None
            _write_text(args.output, text + "\n")
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
