"""netrev benchmark: one seeded workload, timed, checked and optionally traced.

    python3 bench/run.py --workload sdp-scale --seed 1 --seconds 22 --trace 0

Imports netrev from ``src/`` of the checkout this file sits in, builds the
workload's inputs from ``--seed`` several times (set-up), then repeats timed
passes over them for about ``--seconds`` seconds.  Every pass checks its
outputs; an operation that raises, does not converge or misses a tolerance
counts as failed and makes the exit status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` passes alternate
untraced and traced, and the metrics are the per-layer ones taken from the
spans and counters of the traced rounds.  The run record (environment,
metrics, failures, and with tracing every span) is written under
``bench/out/``.  ``--smoke`` swaps in the seconds-long sizes the
benchmark's own tests use.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from recorder import Recorder, per_kind_mean

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("sdp-scale", "small-table", "crosscheck", "large-sparse")
SETUP_REPEATS = 5    # set-ups per run; setup_s takes the median
IMPORT_SAMPLES = 5   # timed imports of netrev per run, the first in-process

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ok/attempted",
    "revenue_ratio_mean": "ratio",
}

CERTIFICATE_KINDS = ("sdp_directed", "sdp_undirected", "sdp_self",
                     "rounding_undirected", "rounding_directed", "random_ie",
                     "class_ie")

# name -> unit; a metric the workload never exercises reads 0.
PER_LAYER = {
    "netmodel.generate_s": "s",
    "netmodel.save_network_s": "s",
    "netmodel.load_network_s": "s",
    "netmodel.json_roundtrip_s": "s",
    "netmodel.self_s": "s",
    "revenue.ie_revenue_batch_s": "s",
    "revenue.batch_rows": "count",
    "revenue.closed_form_s": "s",
    "revenue.self_s": "s",
    "strategies.ie_tuned_s": "s",
    "strategies.generalized_ie_s": "s",
    "strategies.round_to_ie_s": "s",
    "strategies.rounding_expected_revenue_s": "s",
    "strategies.self_s": "s",
    "sdprelax.sdp_ie_s": "s",
    "sdprelax.build_sdp_s": "s",
    "sdprelax.solve_sdp_s": "s",
    "sdprelax.round_eval_s": "s",
    "sdprelax.lbfgs_iterations": "count",
    "sdprelax.converged_ratio": "ratio",
    "sdprelax.max_violation": "abs",
    "sdprelax.objective_rel_upper": "ratio",
    "sdprelax.sdp_ratio_mean": "rev/Rstar",
    "sdprelax.sdp_ratio_min": "rev/Rstar",
    "sdprelax.self_s": "s",
    "oracle.best_ie_exhaustive_s": "s",
    "oracle.sets_per_s": "sets/s",
    "oracle.sdp_vs_oracle_min": "ratio",
    "oracle.simulate_s": "s",
    "oracle.simulate_offers": "count",
    "oracle.sim_offers_per_s": "offers/s",
    "oracle.simulate_max_abs_z": "stderr",
    "oracle.simulate_directed_max_abs_z": "stderr",
    "oracle.self_s": "s",
    **{f"certificates.{k}_s": "s" for k in CERTIFICATE_KINDS},
    **{f"certificates.{k}_value": "ratio" for k in CERTIFICATE_KINDS},
    "certificates.certify_s": "s",
    "certificates.self_s": "s",
    "cli.table_s": "s",
    "cli.table_rows": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the seconds-long smoke size of the workload")
    return ap.parse_args(argv)


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < threads:
            threads = int(current)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "netrev").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, nproc: int, threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "blas_threads": threads}


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import netrev; "
                "print(time.perf_counter() - t0)")


def import_seconds(first: float, samples: int) -> list[float]:
    """``first``, the import of this process, plus the import times of
    ``samples - 1`` fresh interpreters, each run to its end in turn."""
    times = [first]
    for _ in range(samples - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                              str(ROOT / "src")],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout))
    return times


def run_passes(rec, run_pass, inputs, seconds: float, trace: bool) -> None:
    """Repeat passes while the next one is expected to end no later than
    half a pass after ``seconds``; a traced run alternates untraced and
    traced passes and makes at least one of each.  Reference timings are
    taken three times before and after each pass and before each of its
    operations."""
    start = time.perf_counter()
    traced = False
    while True:
        before = [rec.probe() for _ in range(3)]
        with rec.round("pass", traced) as rnd:
            run_pass(rec, inputs)
        rnd.references += before + [rec.probe() for _ in range(3)]
        have_both = not trace or any(r.traced for r in rec.rounds if r.kind == "pass")
        if have_both and time.perf_counter() - start + rnd.seconds / 2 > seconds:
            return
        traced = trace and not traced


def layer_metrics(rec) -> dict:
    rows = {"setup": [], "pass": []}
    for rnd in rec.rounds:
        if not rnd.traced:
            continue
        totals, self_by_layer = rec.span_totals(rnd)
        row = {f"{name}_s": secs for name, secs in totals.items()}
        row.update({f"{layer}.self_s": secs for layer, secs in self_by_layer.items()})
        S, X = rnd.sums, rnd.samples
        if "sdp.solves" in S:
            row["sdprelax.round_eval_s"] = (totals["sdprelax.sdp_ie"]
                                            - totals["sdprelax.build_sdp"]
                                            - totals["sdprelax.solve_sdp"])
            row["sdprelax.lbfgs_iterations"] = S["sdp.iterations"]
            row["sdprelax.converged_ratio"] = S["sdp.converged"] / S["sdp.solves"]
            row["sdprelax.max_violation"] = max(X["sdp.violation"])
            row["sdprelax.objective_rel_upper"] = statistics.fmean(X["sdp.objective_rel_upper"])
            row["sdprelax.sdp_ratio_mean"] = statistics.fmean(X["sdp.ratio"])
            row["sdprelax.sdp_ratio_min"] = min(X["sdp.ratio"])
        row["revenue.batch_rows"] = S.get("revenue.rows", 0.0)
        row["oracle.sets"] = S.get("oracle.sets", 0.0)
        row["oracle.simulate_offers"] = S.get("oracle.offers", 0.0)
        row["cli.table_rows"] = S.get("cli.rows", 0.0)
        if "oracle.z" in X:
            row["oracle.simulate_max_abs_z"] = max(X["oracle.z"])
        if "oracle.z_directed" in X:
            row["oracle.simulate_directed_max_abs_z"] = max(X["oracle.z_directed"])
        if "oracle.sdp_vs_oracle" in X:
            row["oracle.sdp_vs_oracle_min"] = min(X["oracle.sdp_vs_oracle"])
        for kind in CERTIFICATE_KINDS:
            if f"certificates.{kind}" in X:
                row[f"certificates.{kind}_value"] = X[f"certificates.{kind}"][0]
        rows[rnd.kind].append(row)
    merged: dict = {}
    for kind_rows in rows.values():
        if kind_rows:
            for key, value in per_kind_mean(kind_rows).items():
                merged[key] = merged.get(key, 0.0) + value
    if merged.get("oracle.best_ie_exhaustive_s"):
        merged["oracle.sets_per_s"] = merged["oracle.sets"] / merged["oracle.best_ie_exhaustive_s"]
    if merged.get("oracle.simulate_s"):
        merged["oracle.sim_offers_per_s"] = merged["oracle.simulate_offers"] / merged["oracle.simulate_s"]
    merged["certificates.certify_s"] = sum(
        merged.get(f"certificates.{k}_s", 0.0) for k in CERTIFICATE_KINDS)
    merged["trace.overhead_s"] = (statistics.median(rec.pass_seconds(True))
                                  - statistics.median(rec.pass_seconds(False)))
    merged["trace.wall_s"] = statistics.median(rec.pass_seconds(False))
    return {name: merged.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, threads = cap_blas_threads()
    if not (ROOT / "src" / "netrev" / "__init__.py").is_file():
        print(f"error: no netrev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import netrev
    import_s = time.perf_counter() - t0
    if Path(netrev.__file__).resolve().parent != ROOT / "src" / "netrev":
        print(f"error: imported netrev from {netrev.__file__}", file=sys.stderr)
        return 2

    from workloads import OUT_DIR, REFERENCES, SIZES, WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = environment(args, nproc, threads)
    print(json.dumps({"environment": env}), flush=True)
    setup, run_pass = WORKLOADS[args.workload]
    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = Recorder(run_id=f"{tag}-{os.getpid()}",
                   probe=REFERENCES[args.workload])
    trace = bool(args.trace)

    imports = import_seconds(import_s, IMPORT_SAMPLES)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        with rec.round("setup", trace) as rnd:
            inputs = setup(rec, args.seed, size)
        setup_times.append(rnd.seconds)
    run_passes(rec, run_pass, inputs, args.seconds, trace)

    if trace:
        metrics = layer_metrics(rec)
        units = PER_LAYER
        with open(OUT_DIR / f"{tag}-spans.jsonl", "w") as fh:
            for sp in rec.spans:
                fh.write(json.dumps(sp.to_json(rec.run_id)) + "\n")
    else:
        passes = [r for r in rec.rounds if r.kind == "pass"]
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "wall_ref": statistics.median(
                secs / statistics.median(r.references)
                for secs, r in zip(rec.pass_seconds(False), passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (rec.attempted - rec.failed) / rec.attempted,
            "revenue_ratio_mean": statistics.fmean(
                passes[-1].samples.get("quality", [0.0])),
        }
        units = END_TO_END
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"environment": env, "import_seconds": imports,
              "setup_seconds": setup_times,
              "pass_seconds": {"untraced": rec.pass_seconds(False),
                               "traced": rec.pass_seconds(True)},
              "reference_seconds": [r.references for r in rec.rounds
                                    if r.kind == "pass"],
              "pass_counters": [r.sums for r in rec.rounds if r.kind == "pass"],
              "failures": rec.failures, "result": result}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
