"""A/B benchmark of two checkouts: alternating pairs of ``bench/run.py`` runs.

    python3 scripts/ab_bench.py --parent ../netrev-parent --change . \\
        --workload sdp-scale small-table --seeds 901-910 --seconds 22

``--parent`` and ``--change`` are two checkouts of the repository, for
example a ``git worktree`` or ``git clone`` of the parent commit next to the
working tree.  For each workload and seed the script runs the ``bench/run.py``
of both checkouts once, which makes one pair; the side that runs first
alternates from pair to pair.  Each run's metrics go to standard error as it
finishes.  At the end, for every metric, standard output gets one row with
each side's median and quartiles, the change in the median, the number of
pairs the change won (ties count for neither side, and a pair whose
change run reports failed operations is never a win), and whether that is
a gain: the change won at least nine tenths of the pairs and its median is
better by more than the parent's interquartile range.  Beside it stands the
no-regression verdict of each metric that has a ``bound`` among the
``end_to_end`` metrics: ``worse`` when the change's median is worse than the
parent's by more than that bound (a fraction of the parent's median),
``unresolved`` when the parent's interquartile range is wider than the bound
and not every change run beats every parent run, and ``ok`` otherwise; a
metric without a bound reads ``-``.  Under each workload's table, every run
that reported failed operations or an incorrect result is listed with its
side, seed and failed count.  Whether lower or higher is better, and the
bounds, are read from the change's ``BENCHMARK.json``.  The script only
invokes ``bench/run.py``; it changes nothing under either checkout except
what that script writes to its own ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Seeds as a comma-separated list of integers and ``lo-hi`` ranges."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        try:
            seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected seeds such as 901-910 or 1,5,9, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def metric_contract(checkout: Path) -> tuple[dict[str, str],
                                             dict[str, float]]:
    """From the checkout's contract: metric name -> "lower" or "higher",
    and end-to-end metric name -> its regression bound."""
    contract = json.loads((checkout / "BENCHMARK.json").read_text())
    end_to_end = contract.get("end_to_end", [])
    better = {m["name"]: m["better"]
              for m in end_to_end + contract.get("per_layer", [])}
    return better, {m["name"]: float(m["bound"])
                    for m in end_to_end if "bound" in m}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict[str, float], int]:
    """One ``bench/run.py`` run: its metrics as name -> value, and its count
    of failed operations (at least 1 when it reports itself incorrect)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, json.JSONDecodeError, KeyError):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode} without a result:\n"
                           f"{proc.stderr}") from None
    failed = max(int(result.get("failed", 0)),
                 int(not result.get("correct", True)))
    return {name: m["value"] for name, m in metrics.items()}, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], sign: float,
            bound: float) -> str:
    """"worse", "unresolved" or "ok" for one metric's runs under its
    relative ``bound``; ``sign`` is 1 when lower is better, else -1."""
    pq, cq = quartiles(parent), quartiles(change)
    scale = bound * abs(pq[1])
    if sign * (cq[1] - pq[1]) > scale:
        return "worse"
    beats_all = min(sign * p for p in parent) > max(sign * c for c in change)
    return "unresolved" if pq[2] - pq[0] > scale and not beats_all else "ok"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              change_failed=None, bounds=None) -> list[dict]:
    """One row per metric over (parent, change) pairs of metric dicts; a
    pair flagged in ``change_failed`` is never a win for the change, and a
    metric with an entry in ``bounds`` gets a ``verdict``."""
    change_failed = change_failed or [False] * len(pairs)
    bounds = bounds or {}
    rows = []
    for name in pairs[0][0]:
        direction = better.get(name, "lower")
        sign = 1.0 if direction == "lower" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (p - c) > 0 and not bad
                   for p, c, bad in zip(parent, change, change_failed))
        pq, cq = quartiles(parent), quartiles(change)
        better_by = sign * (pq[1] - cq[1])
        rows.append({
            "metric": name, "better": direction, "pairs": len(pairs),
            "parent": pq, "change": cq, "wins": wins,
            "delta_rel": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
            "gain": wins >= 0.9 * len(pairs) and better_by > pq[2] - pq[0],
            "verdict": (verdict(parent, change, sign, bounds[name])
                        if name in bounds else "-"),
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    def spread(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    out = [f"## {workload}",
           f"{'metric':36} {'parent median [q1, q3]':>34} "
           f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>6} gain "
           "verdict"]
    for r in rows:
        delta = "n/a" if r["delta_rel"] is None else f"{r['delta_rel']:+.1%}"
        won = f"{r['wins']}/{r['pairs']}"
        out.append(f"{r['metric']:36} {spread(r['parent']):>34} "
                   f"{spread(r['change']):>34} {delta:>8} {won:>6} "
                   f"{'yes' if r['gain'] else 'no':4} {r['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed, e.g. 901-910 or 1,5,9")
    ap.add_argument("--seconds", type=float, required=True,
                    help="--seconds of every bench/run.py run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "run.py").is_file():
            ap.error(f"--{side} {path} has no bench/run.py")
    better, bounds = metric_contract(sides["change"])

    reports = []
    for workload in args.workload:
        pairs, change_failed, failures = [], [], []
        for i, seed in enumerate(args.seeds):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            runs, failed = {}, {}
            for side in order:
                runs[side], failed[side] = run_once(
                    sides[side], workload, seed, args.seconds, args.trace)
                print(json.dumps({"workload": workload, "seed": seed,
                                  "side": side, "failed": failed[side],
                                  "metrics": runs[side]}),
                      file=sys.stderr, flush=True)
                if failed[side]:
                    failures.append(f"failed run: {workload} {side} seed "
                                    f"{seed}: {failed[side]} failed")
            pairs.append((runs["parent"], runs["change"]))
            change_failed.append(failed["change"] > 0)
        reports.append("\n".join([format_rows(
            workload, summarize(pairs, better, change_failed, bounds)),
            *failures]))
    print("\n\n".join(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
